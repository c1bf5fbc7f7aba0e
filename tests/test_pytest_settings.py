"""The warning filters of ``pyproject.toml`` let a failure be reported."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # on failure hypothesis imports libcst, which warns through
    # mypy_extensions; raised as an error, that warning ends the run in an
    # INTERNALERROR instead of the report
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
