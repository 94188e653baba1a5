"""Golden traces: the default ``oxpix simulate --iexp 1nA`` CSV of each
topology, byte for byte.

A refactor that claims to leave the numbers alone must leave these digests
alone.  A change that moves numbers on purpose updates the digest of every
topology it moves and says why in CHANGES.md.  Print the current digests
with ``PYTHONPATH=src python tests/test_golden.py``.

The digests hold for IEEE-754 doubles and a math library that rounds
``exp``/``sinh``/``cosh`` as the one they were recorded with; elsewhere,
record them afresh on the unchanged code first.
"""

import hashlib
import tempfile
from pathlib import Path

import pytest

from oxpix.cli import main

GOLDEN = {
    "bare3t": "ab091696512214087d3260ba6e4603e679cdaacb327a55d6b456cf055ff33abc",
    "case_i": "3b1b1511a507cf775295eda607a542c5088a17fb9f30822f5a7a795f7cb82f8d",
    "case_ii": "88104f70f856a7c33810d1f13bc8b17bd79cc7db37e7c1f8377220f6cb7c7191",
    "case_iii": "19569251d6391f7d4cd5bedcd7ee14bb6aa2c0968993792b2d8e57d04d6a653c",
}


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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        for name in GOLDEN:
            print(f"{name}: {simulate_digest(name, Path(work))}")
