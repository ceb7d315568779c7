"""The tier-1 gate reports its failures: a failing hypothesis test, run
under the repository's own pytest settings, ends in a FAILED line, and
the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

PLANTED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted_failure(n):
    assert n < 3


def test_after_the_failure():
    pass
'''


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    """Where libcst is installed, hypothesis imports it to print the failing
    example, and libcst raises a DeprecationWarning on import; the session
    must report the failure, not stop on that warning.  Everything the run
    writes (hypothesis's database and patch, bytecode) lands in tmp_path."""
    (tmp_path / "test_planted.py").write_text(PLANTED)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout
    assert "FAILED test_planted.py::test_planted_failure" in run.stdout, run.stdout
    assert "1 failed, 1 passed" in run.stdout, run.stdout
    assert run.returncode == 1
