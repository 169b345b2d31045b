"""Self-test of the benchmark on the seconds-long `tiny` workload.

    python3 perfbench/selftest.py

Checks that every metric is emitted by name with its unit, as
BENCHMARK.json lists them; that a stage made to fail is counted and does
not crash the benchmark; that traced spans keep correct parents when
training runs in worker threads; and that the benchmark refuses to run
without the program's sources. Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
TABLE_ROW = re.compile(r"^  (\S+)\s+(\S+)\s+(\S+)\s+(\d+)$")
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(*extra: str, cwd: Path = ROOT) -> tuple[int, dict | None, dict]:
    """Run the benchmark; returns exit code, last-line JSON, table rows."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed",
         "3", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    table = {m[1]: (m[2], m[3]) for m in map(TABLE_ROW.match, lines) if m}
    return proc.returncode, result, table


def spec(section: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def test_metric_names() -> None:
    code, result, table = bench("--trace", "0")
    check(code == 0 and result is not None and result["correct"],
          "untraced tiny run succeeds")
    emitted = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
    check(emitted == spec("end_to_end"),
          "last line carries exactly BENCHMARK.json's end-to-end metrics")
    check(all(table.get(n, ("", ""))[1] == u for n, u in run.END_TO_END.items()),
          f"table prints all {len(run.END_TO_END)} end-to-end metrics with units")

    code, result, table = bench("--trace", "1")
    check(code == 0 and result is not None and result["correct"],
          "traced tiny run succeeds")
    emitted = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
    check(emitted == spec("per_layer") == layers.PER_LAYER,
          "traced last line carries exactly BENCHMARK.json's per-layer metrics")
    check(all(isinstance(v["value"], (int, float))
              for v in (result or {}).get("metrics", {}).values()),
          "every per-layer value is a number")


def test_injected_failure() -> None:
    code, result, table = bench("--trace", "0", "--inject-failure", "soup")
    check(code == 0 and result is not None, "benchmark survives a failing stage")
    check(bool(result) and not result["correct"] and result["failed"] > 0,
          "failing stage is counted in 'failed'")
    rate = table.get("error_rate", ("0", ""))[0]
    check(rate != "undefined" and float(rate) > 0, "error_rate is above 0")


def test_thread_parents() -> None:
    wl = WORKLOADS["tiny"]
    data, out = WORK / "data", WORK / "traced"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "soupadapter",
                    *wl.setup_argv(data, 3)], env=env, check=True,
                   capture_output=True, timeout=60)
    spans_path = WORK / "train.spans.json"
    subprocess.run([sys.executable, str(HERE / "tracer.py"), "--spans",
                    str(spans_path), "--stage", "train", "--",
                    *wl.train_argv(data, out), "--jobs", "2"],  # last wins
                   env=env, check=True, capture_output=True, timeout=60)
    spans = json.loads(spans_path.read_text())["spans"]
    root = next(i for i, s in enumerate(spans) if s[0] == "cli.train")
    trains = [s for s in spans if s[0] == "adapter.train_component"]
    check(len(trains) == 2 and all(s[4] != spans[root][4] for s in trains),
          "components trained on worker threads")
    check(all(s[3] == root for s in trains),
          "worker-thread spans hang off the stage root")
    nested = all(
        s[3] == root or (spans[s[3]][4] == s[4]
                         and spans[s[3]][1] <= s[1] <= s[2] <= spans[s[3]][2])
        for i, s in enumerate(spans) if i != root)
    check(nested, "every other span nests in a parent on its own thread")
    selfs = layers.self_times(spans)
    check(all(v >= -1e-9 for v in selfs), "self times are non-negative")


def test_refuses_without_sources() -> None:
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result, _ = bench("--trace", "0", cwd=bare)
    check(code != 0 and result is None,
          "exits non-zero without a result when src/ is missing")


def main() -> int:
    WORK.mkdir(parents=True)
    try:
        test_metric_names()
        test_injected_failure()
        test_thread_parents()
        test_refuses_without_sources()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use
            (ROOT / ".bench_work").rmdir()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
