"""README's examples run: the library example as a script, and every
`delayplatoon ...` line of its CLI block through `python -m delayplatoon`."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from test_scenario_cli import child_env

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def code_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


CLI_LINES = [
    line for block in code_blocks("sh") for line in block.splitlines()
    if line.startswith("delayplatoon ")
]


def test_readme_has_examples():
    assert len(code_blocks("python")) == 1
    assert CLI_LINES


def test_library_example_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", code_blocks("python")[0]],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example_runs(tmp_path, line):
    """Run in tmp_path, where inputs.txt holds the 15 buffered zeros of
    phi / ts = 0.15 / 0.01; a path that exists under the repo root is
    passed as that file."""
    (tmp_path / "inputs.txt").write_text("0.0\n" * 15)
    args = [str(ROOT / arg) if (ROOT / arg).is_file() else arg
            for arg in shlex.split(line)[1:]]
    result = subprocess.run(
        [sys.executable, "-m", "delayplatoon", *args],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path,
    )
    assert result.returncode == 0, result.stdout + result.stderr
