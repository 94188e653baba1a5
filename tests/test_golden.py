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
    "bare3t": "e0ab200aa947c833c708c5b2416465e08f538092bffa3be004830d1dddce86c1",
    "case_i": "ace18b6197a764fe751221dc8cb1d492731415c77617428f227e4e25a40af241",
    "case_ii": "6c7c740e73a90da76e4e499d9b12c818ef4ec09a29a8d0c83369c8ac0d47cc0e",
    "case_iii": "b9f67793ec24c2a5e2b42021da8c4eb6557b273a8423c3460d854b1bc8fa0685",
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
