"""The repository's pytest settings report every failing test.

``filterwarnings`` turns every warning into an error.  A third-party
``DeprecationWarning`` that the hypothesis plugin raises while it reports a
failing ``@given`` test is the one exception: as an error it stops the whole
session with an INTERNALERROR, so no later test would run.
"""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_property_fails(n):
    assert n != n


def test_after_it_passes():
    pass
'''


def test_failing_property_test_does_not_stop_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY_THEN_PASSING,
                                            encoding="utf-8")
    # Run in the temporary directory, so the session writes nothing here.
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                          "-p", "no:cacheprovider", "-q", "test_probe.py"],
                         cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]
