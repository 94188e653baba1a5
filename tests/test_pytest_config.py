"""The suite's own pytest settings, checked on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# A failing hypothesis test, then a passing test.
_TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
'''


def test_failing_hypothesis_test_lets_the_session_go_on(tmp_path):
    # Under ``filterwarnings = ["error"]`` a warning raised while hypothesis
    # reports a failure must not end the session with an INTERNALERROR.
    path = tmp_path / "test_two.py"
    path.write_text(_TWO_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1, done.stdout
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1]
