"""Golden outputs, byte for byte: the default ``oxpix simulate --iexp 1nA``
CSV of each topology, a coarse ``oxpix sweep`` CSV of each topology, the
default ``oxpix calibrate`` JSON and a small ``oxpix report`` JSON and its
calibration cache, the events of the coarse sweep transients, the payload
of the default fit for any seed and restart count, the default ``oxpix
report`` JSON, the work the default report's transients do, the dumped
default config of each topology, and the keys a config accepts.

A refactor that claims to leave the numbers alone must leave these digests
alone.  A change that moves numbers or the config format on purpose updates
every digest it moves and says why in CHANGES.md; a change that adds steps
fails the work counts by name.  Print the current digests, work counts and
key list with ``PYTHONPATH=src python tests/test_golden.py``.

The digests hold for IEEE-754 doubles and a math library that rounds
``exp``/``sinh``/``cosh`` as the one they were recorded with; elsewhere,
record them afresh on the unchanged code first.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from oxpix import solver
from oxpix.calibration import calibrate
from oxpix.cli import _result_payload, main
from oxpix.config import dump_config, parse_config
from oxpix.defaults import default_config
from oxpix.experiments import SweepSpec, table1_report
from oxpix.pixel import Stimulus, Topology
from oxpix.solver import SolverOptions, integrate
from oxpix.tracefile import write_report_json

GOLDEN = {
    "bare3t": "ab091696512214087d3260ba6e4603e679cdaacb327a55d6b456cf055ff33abc",
    "case_i": "612cf340e61d41e291e682f1034b174d7d62d702b0aed26302b60732744ef521",
    "case_ii": "a0ab9a348ec7a598b16eb082c949f7d09d0c55e1605c4887dbd57c9cdc3368bd",
    "case_iii": "ce71eca92cb061c0ca704a9bf6205fb458a5871466490eb1cf2e542267c32fe8",
}

# ``oxpix sweep`` over 100 fA .. 10 nA at one point per decade.
GOLDEN_SWEEP = {
    "bare3t": "8ba86c0d6d4e080d2a6f4b052fc43f6b49600feb58dd758ed9db4618489b3a76",
    "case_i": "251743720b6f0ed80c6ff2ab19bc38263d2047753093b49362c92af683f85c01",
    "case_ii": "b694d0969d00394640c5f3e2f1822e7e231f662c2a092955e41a9a2df7f27387",
    "case_iii": "aacb083212e862cf9d096a46bd99c22c50933cc815cd4ba26d9338e4ee7e7611",
}

# Every event of the coarse sweep transients (dark, and 100 fA .. 10 nA at
# one point per decade) of each topology with default constants: 28
# transients, 31 events.
GOLDEN_EVENTS = \
    "51ef48a6d796986a65a03e0ee60473e2f8c2a2ac1e73ec9f28b10a5f7caa0a4e"

# ``oxpix calibrate`` on the default config, and ``oxpix report`` on
# ``SMALL_REPORT`` (as in ``tests/test_cli_io.py``: a two-point sweep) with
# the cache it fills.
SMALL_REPORT = "[sweep]\ni_min = 1nA\ni_max = 2nA\npoints_per_decade = 1\n"
GOLDEN_FIT = {
    "calibrate": "9423798f89739addb67201033da924508bff373f2ced6a0fa11cc0f15893bd25",
    "report": "ef75eecaf952f3c4f992dbaffb4bf0b6959755e5975035c60b2982daefcf3c23",
    "cache": "9423798f89739addb67201033da924508bff373f2ced6a0fa11cc0f15893bd25",
    "cache_name": ".oxpix-calib-0953cc1183817316.json",
}

# ``cli._result_payload`` (every field but ``evaluations``) of the default
# fit, whatever ``seed`` and ``restarts`` it is given: the fit ignores them.
GOLDEN_FIT_PAYLOAD = \
    "f6b2b674e1f3f545a9c37e8c20646cc69f5608e52998f0e1e0b1a39f98274b4d"

# ``oxpix report`` on the default config: the default fit and
# the 100 fA .. 10 nA grid at 12 points per decade, which the session
# ``calibrated`` and ``reports`` fixtures compute.
GOLDEN_REPORT = \
    "cdf7ef2efa2f5722113dc9c8f9ace434bc56a283c3bfe2521d83444dd201f09f"

# The work of the default report's transients per topology, as ``(accepted
# steps, right-hand sides, Newton evaluations)`` from ``TransientTrace.stats``:
# the shared reset phase's, then the sum over the dark point and the grid of
# each transient's work less the reset phase's.
GOLDEN_WORK = {
    "bare3t": ((1, 7, 0), (137, 896, 0)),
    "case_i": ((15, 109, 221), (1193, 7496, 17016)),
    "case_ii": ((1, 7, 11), (188, 1202, 1202)),
    "case_iii": ((39, 265, 773), (647, 3944, 7503)),
}

# ``dump_config(parse_config(text))`` for the empty config ("") and for
# ``[pixel] topology = <name>``.
GOLDEN_DUMP = {
    "": "e62cc031587e3bd6d16866b870350b1f741166454103362c00c34f79c701ac5f",
    "bare3t": "e62cc031587e3bd6d16866b870350b1f741166454103362c00c34f79c701ac5f",
    "case_i": "f3c53a953013c98e011dcabf8912e15086b1c03e98ae3488c6c8b72532700c59",
    "case_ii": "b63acdba510ff1b63d14034794e0e1c0db45ef022287fd4f090cc98b8ea0f3e5",
    "case_iii": "f68004781ba9d50817d1e7c5823c92f51db3e982e6b4a2f9a6e8db0a54157b8d",
}

# Every key a config accepts, as ``section.key``.
GOLDEN_KEYS = [
    "calibration.i_reset_peak", "calibration.i_reset_tol",
    "calibration.r_reset", "calibration.r_reset_tol", "calibration.r_set",
    "calibration.r_set_tol", "calibration.t_reset",
    "calibration.t_reset_tol", "oxram.c_pox",
    "oxram.cf_decay_a", "oxram.cf_field_b", "oxram.gap_max", "oxram.gap_min",
    "oxram.growth_field_v0", "oxram.growth_rate_g0", "oxram.i0_cf",
    "oxram.i0_ox", "oxram.ox_decay_c", "oxram.ox_field_d",
    "oxram.oxide_thickness_L", "oxram.rupture_field_v1",
    "oxram.rupture_rate_r0", "photodiode.c_pd", "photodiode.fwc_electrons",
    "photodiode.reset_noise_electrons", "photodiode.texp", "photodiode.trst",
    "photodiode.vrst", "pixel.init_resistance", "pixel.topology",
    "pixel.vg_level", "pixel.vg_prog_level", "pixel.vg_prog_until",
    "pixel.vrst", "pixel.vs_level", "selector.kprime", "selector.lambda",
    "selector.vth", "solver.max_step", "solver.min_step",
    "solver.noise_seed", "solver.rel_tol", "solver.reset_noise",
    "sweep.i_max", "sweep.i_min",
    "sweep.points_per_decade", "window.max_swing", "window.min_detect",
    "window.sense_margin",
]


def simulate_digest(topology: str, directory: Path) -> str:
    """SHA-256 of the trace CSV of ``oxpix simulate --iexp 1nA`` on the
    default config of ``topology``."""
    cfg = directory / f"{topology}.cfg"
    cfg.write_text(f"[pixel]\ntopology = {topology}\n")
    out = directory / f"{topology}.csv"
    assert main(["simulate", "--config", str(cfg), "--iexp", "1nA",
                 "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("topology", sorted(GOLDEN))
def test_default_simulate_csv_matches_golden_digest(tmp_path, topology):
    assert simulate_digest(topology, tmp_path) == GOLDEN[topology]


def sweep_digest(topology: str, directory: Path) -> str:
    """SHA-256 of the coarse ``oxpix sweep`` CSV of ``topology``."""
    cfg = directory / f"{topology}.cfg"
    cfg.write_text(f"[pixel]\ntopology = {topology}\n"
                   "[sweep]\ni_min = 100fA\ni_max = 10nA\n"
                   "points_per_decade = 1\n")
    out = directory / f"{topology}.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("topology", sorted(GOLDEN_SWEEP))
def test_coarse_sweep_csv_matches_golden_digest(tmp_path, topology):
    assert sweep_digest(topology, tmp_path) == GOLDEN_SWEEP[topology]


def events_digest() -> str:
    """SHA-256 of ``topology,i_exp,kind,t_event.hex(),detail`` lines, one
    per event of the transients ``GOLDEN_EVENTS`` names, in order."""
    lines = []
    for topology in Topology:
        spec = SweepSpec(default_config(topology), points_per_decade=1)
        for i_exp in (0.0, *spec.currents()):
            for e in integrate(spec.config, Stimulus(i_exp)).events:
                lines.append(f"{topology.value},{i_exp!r},{e.kind.value},"
                             f"{e.t_event.hex()},{e.detail}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def test_coarse_sweep_events_match_golden_digest():
    assert events_digest() == GOLDEN_EVENTS


def fit_digests(directory: Path) -> dict[str, str]:
    """SHA-256 of the default ``calibrate`` JSON, of the small report JSON
    and of its cache file, and the cache file's name."""
    params = directory / "params.json"
    assert main(["calibrate", "--out", str(params)]) == 0
    cfg = directory / "fit.cfg"
    cfg.write_text(SMALL_REPORT)
    report = directory / "report.json"
    assert main(["report", "--config", str(cfg), "--out", str(report)]) == 0
    (cache,) = directory.glob(".oxpix-calib-*.json")
    return {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in (("calibrate", params), ("report", report),
                               ("cache", cache))} | {"cache_name": cache.name}


def test_fit_outputs_match_golden_digests(tmp_path):
    assert fit_digests(tmp_path) == GOLDEN_FIT


def payload_digest(**kwargs) -> str:
    """SHA-256 of the sorted-key JSON of the default fit's payload."""
    payload = _result_payload(calibrate(**kwargs))
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed", [0, 3])
def test_multistart_fit_matches_golden_digest(seed):
    assert payload_digest(seed=seed, restarts=8) == GOLDEN_FIT_PAYLOAD


@pytest.mark.parametrize("seed", range(8))
def test_two_restart_fit_matches_golden_digest(seed):
    assert payload_digest(seed=seed, restarts=2) == GOLDEN_FIT_PAYLOAD


def report_digest(table: dict, residuals: dict, directory: Path) -> str:
    """SHA-256 of the report JSON of ``table`` and the fit ``residuals``,
    written as ``oxpix report`` writes it."""
    out = directory / "default_report.json"
    write_report_json(table, residuals, str(out))
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_default_report_json_matches_golden_digest(tmp_path, reports,
                                                   calibrated):
    table, _ = reports
    assert report_digest(table, calibrated.residuals, tmp_path) \
        == GOLDEN_REPORT


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_default_cli_report_matches_golden_digest(tmp_path, monkeypatch,
                                                  workers):
    # A cold ``oxpix report``: its fit, like its sweeps, is the same for any
    # worker count.
    monkeypatch.setenv("HPS_THREADS", workers)
    out = tmp_path / "report.json"
    assert main(["report", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_REPORT


def report_work(fit) -> dict[str, tuple]:
    """``GOLDEN_WORK``'s counts for the report on ``fit``."""
    work, opt = {}, SolverOptions()
    for topology in Topology:
        spec = SweepSpec(default_config(topology, oxram=fit.oxram,
                                        selector=fit.selector), options=opt)
        reset = solver._reset_phase(spec.config, opt).tally()
        counts = [0, 0, 0]
        for i_exp in (0.0, *spec.currents()):
            stats = integrate(spec.config, Stimulus(i_exp), opt).stats
            for k, name in enumerate(("accepted", "rhs_evals",
                                      "newton_evals")):
                counts[k] += getattr(stats, name) - getattr(reset, name)
        work[topology.value] = ((reset.accepted, reset.rhs_evals,
                                 reset.newton_evals), tuple(counts))
    return work


def test_default_report_work_matches_golden_counts(calibrated):
    assert report_work(calibrated) == GOLDEN_WORK


def dump_digest(topology: str) -> str:
    """SHA-256 of the dumped config of ``topology`` ("" for no config)."""
    text = f"[pixel]\ntopology = {topology}\n" if topology else ""
    return hashlib.sha256(
        dump_config(parse_config(text)).encode()).hexdigest()


def accepted_keys() -> list[str]:
    return sorted(parse_config("").provenance)


@pytest.mark.parametrize("topology", sorted(GOLDEN_DUMP))
def test_dumped_default_config_matches_golden_digest(topology):
    assert dump_digest(topology) == GOLDEN_DUMP[topology]


def test_accepted_keys_match_golden_list():
    assert accepted_keys() == GOLDEN_KEYS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        for name in GOLDEN:
            print(f"simulate {name}: {simulate_digest(name, Path(work))}")
        for name in GOLDEN_SWEEP:
            print(f"sweep {name}: {sweep_digest(name, Path(work))}")
        print(f"events: {events_digest()}")
        for name, digest in fit_digests(Path(work)).items():
            print(f"{name}: {digest}")
        print(f"fit payload: {payload_digest()}")
        fit = calibrate()
        table = table1_report(fit.oxram, fit.selector)
        print(f"default report: "
              f"{report_digest(table, fit.residuals, Path(work))}")
        print(f"work: {report_work(fit)}")
    for name in GOLDEN_DUMP:
        print(f"dump {name!r}: {dump_digest(name)}")
    print(f"keys: {accepted_keys()}")
