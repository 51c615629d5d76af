"""The pytest warning filters in pyproject.toml: every warning is an error,
except the one hypothesis sets off when it reports a failing example.

Each test runs pytest in a subprocess, under this repository's configuration,
on a test file written to a temporary directory.
"""

import subprocess
import sys
from pathlib import Path

import centrelat

ROOT = Path(__file__).resolve().parent.parent


def run_pytest(tmp_path, source):
    (tmp_path / "test_case.py").write_text(source)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_case.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    return done.stdout + done.stderr


def test_failing_property_is_reported_without_an_internal_error(tmp_path):
    # reporting a failing example imports libcst, which imports mypy_extensions,
    # whose TypedDict warns on import
    out = run_pytest(tmp_path, "from hypothesis import given, strategies as st\n\n"
                               "@given(st.integers())\n"
                               "def test_small(x):\n"
                               "    assert x < 10\n")
    assert "1 failed" in out
    assert "INTERNALERROR" not in out


def test_deprecation_warning_from_centrelat_still_fails(tmp_path):
    out = run_pytest(tmp_path, "import warnings\n\n"
                               "def test_warns():\n"
                               "    warnings.warn_explicit('spectrum is deprecated', "
                               "DeprecationWarning,\n"
                               f"                           {centrelat.__file__!r}, 1, "
                               "module='centrelat')\n")
    assert "1 failed" in out
    assert "DeprecationWarning: spectrum is deprecated" in out
