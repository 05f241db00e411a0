import shutil
import subprocess
import sys
from pathlib import Path

from hypothesis import settings

TESTS_DIR = Path(__file__).resolve().parent

PROBE = '''
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_property_fails(n):
    assert n < 10


def test_plain_deprecation_warning_fails():
    warnings.warn("old", DeprecationWarning)


def test_passes():
    pass
'''


def test_failing_property_is_reported_not_internal_error(tmp_path):
    # A fresh pytest with this repository's settings and conftest: the failing
    # property must be one failure, and filterwarnings = ["error"] must still
    # fail a test that raises a DeprecationWarning of its own.
    shutil.copy(TESTS_DIR / "conftest.py", tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(TESTS_DIR.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, encoding="utf-8", timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert result.returncode == 1
    assert "2 failed, 1 passed" in output
    assert "FAILED test_probe.py::test_property_fails" in output
    assert "FAILED test_probe.py::test_plain_deprecation_warning_fails" in output


def test_the_loaded_hypothesis_profile_has_no_deadline():
    assert settings.default.deadline is None
