"""Every demo script, and the README's library quickstart, runs to
completion from a scratch working directory (demo 02 writes its report
into the current directory)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(cwd, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    done = run_python(tmp_path, str(demo))
    assert done.returncode == 0, done.stderr


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    done = run_python(tmp_path, "-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("{0.0: ")  # the printed ratio sweep
