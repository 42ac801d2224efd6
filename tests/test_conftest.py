"""The test session's own setup: a failing Hypothesis test is reported as a
failure under the project's `filterwarnings = ["error"]`, and the tests
after it still run."""

import os
import subprocess
import sys
from pathlib import Path

import cnnidx

TESTS = Path(__file__).resolve().parent

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_given_test_is_reported_as_failed(tmp_path):
    """A child pytest with the project's settings and this directory's
    conftest runs a file with one failing @given test and one passing test;
    Hypothesis's failure-patch import must not end the session."""
    (tmp_path / "test_child.py").write_text(FAILING)
    src = str(Path(cnnidx.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(TESTS), src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "conftest",
         "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_child.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in child.stdout + child.stderr, child.stdout + child.stderr
    assert child.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), child.stdout
