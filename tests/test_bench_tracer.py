"""The traced benchmark's wrappers still find every name they patch.

``perfbench/tracer.py`` swaps module attributes of the program for timing
wrappers; a renamed or moved attribute would make ``--trace 1`` fail or go
blind.  Installing and uninstalling the tracer checks every name.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_resolve_and_are_restored(tmp_path):
    tracer = load_tracer().Tracer(str(tmp_path))
    tracer.install()
    try:
        patches = list(tracer._patches)
        assert {name for _, name, _ in patches} >= {
            "write_report_json", "parse_config", "table1_report", "run_sweep"}
        for module, name, original in patches:
            assert callable(original)
            assert getattr(module, name) is not original
    finally:
        tracer.uninstall()
    for module, name, original in patches:
        assert getattr(module, name) is original
