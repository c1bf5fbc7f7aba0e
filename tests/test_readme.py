"""README.md against the code: its commands run as written, and its CSV
columns and module layout are the package's."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

from obstacle_afem import cli

from .test_cli import cli_env

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(heading, lang):
    """The first ```lang block after the line ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"^```{lang}\n(.*?)^```$", section,
                     re.M | re.S).group(1)


def _commands():
    """The command lines of the sh block under "Command line", with
    ``\\`` continuations joined and comments dropped."""
    text = _block("## Command line", "sh").replace("\\\n", " ")
    lines = (shlex.split(line, comments=True) for line in text.splitlines())
    return [words for words in lines if words]


def test_readme_commands_run_as_written(tmp_path):
    commands = _commands()
    assert all(c[0] == "obstacle-afem" for c in commands)
    runs = [c for c in commands if c[1] == "run"]
    assert any("--mode" in c and c[c.index("--mode") + 1] == "adaptive"
               for c in runs)
    assert any("uniform" in c and "--reference-elements" in c for c in runs)
    assert any(c[1] == "fit-rates" for c in commands)
    assert any("--dump-mesh" in c and "--dump-indicators" in c for c in runs)
    assert any(a.startswith("custom:") for c in runs for a in c)

    (tmp_path / "problem.json").write_text(_block("## Command line", "json"))
    env = cli_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for command in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "obstacle_afem.cli", *command[1:]],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (command, proc.stderr)
        for flag in ("--out", "--dump-mesh", "--dump-indicators"):
            if flag in command:
                assert (tmp_path / command[command.index(flag) + 1]).is_file()


def test_readme_states_the_csv_columns_and_every_module():
    assert f"`{','.join(cli.CSV_COLUMNS)}`" in README.splitlines()
    layout = _block("## Layout", "")
    named = set(re.findall(r"^  (\w+\.py) ", layout, re.M))
    package = ROOT / "src" / "obstacle_afem"
    assert named == {p.name for p in package.glob("*.py")}
