"""Every demo script, and the README's library quickstart and
command-line walkthrough, runs to completion from a scratch working
directory (demo 02 writes its report into the current directory)."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_in(cwd, *cmd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


def readme_block(heading, language):
    """The first ``language`` code block under the README's ``heading``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("\n```", 1)[0]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    done = run_in(tmp_path, sys.executable, str(demo))
    assert done.returncode == 0, done.stderr


def test_readme_quickstart_runs(tmp_path):
    done = run_in(tmp_path, sys.executable, "-c",
                  readme_block("Library quickstart", "python"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("{0.0: ")  # the printed ratio sweep


def test_readme_command_line_runs(tmp_path):
    # set -e: the script stops, with that status, at the first command
    # that exits nonzero
    script = (f"set -e\nsoupadapter() {{ {shlex.quote(sys.executable)} "
              f"-m soupadapter \"$@\"; }}\n"
              + readme_block("Command line", "bash"))
    done = run_in(tmp_path, "bash", "-c", script)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "run" / "report.csv").is_file()
    assert (tmp_path / "run" / "report.json").is_file()
