"""The pytest settings in pyproject.toml report a failing property test as a
failure and go on to the tests after it, and refuse an unknown setting or
marker."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

PROBE = """\
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def _run_probe(tmp_path, probe, config=PYPROJECT):
    (tmp_path / "test_probe.py").write_text(probe, encoding="utf-8")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=120,
    )


def test_failing_property_test_is_reported(tmp_path):
    result = _run_probe(tmp_path, PROBE)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in result.stdout
    assert result.returncode == 1


def test_an_unknown_marker_fails_its_module(tmp_path):
    result = _run_probe(tmp_path, "import pytest\n\n\n@pytest.mark.slwo\ndef test_a():\n    pass\n")
    assert "'slwo' not found in `markers` configuration option" in result.stdout
    assert result.returncode != 0


def test_a_misspelled_setting_stops_the_run(tmp_path):
    config = tmp_path / "pyproject.toml"
    text = PYPROJECT.read_text(encoding="utf-8")
    config.write_text(text.replace("\nfilterwarnings =", "\nfilterwarning ="), encoding="utf-8")
    result = _run_probe(tmp_path, "def test_passes():\n    pass\n", config)
    assert "Unknown config option: filterwarning" in result.stdout + result.stderr
    assert result.returncode != 0
