"""Pipeline benchmark for soupadapter: synth -> train -> soup -> eval.

    python3 perfbench/run.py --workload paper512 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src, and all files go to ./.bench_work, which is removed at exit.

The load is a closed loop with one client: one CLI stage at a time runs as
a subprocess, as a user chains them, so interpreter start-up counts. With
--trace 0 the inputs are set up several times (median = setup_s), then
the train/soup/eval pipeline repeats until --seconds have passed (at least
twice), and each end-to-end metric is the median over repeats. With
--trace 1 the same stages also run in-process under perfbench/tracer.py,
and only the per-layer metrics are reported.

Every stage invocation is checked: it exits 0; soup's worst deviation is
within its tolerance; the soup's r=0 ID and OOD rows equal the bare-head
baselines exactly; and repeated runs of one seed write byte-identical
checkpoints, merged adapter and reports. Failures count in error_rate and
in the "failed" field of the last output line, which is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_REPEATS = 5
SOUP_REPEATS = 3
MIN_REPEATS = 2
IMPORT_REPEATS = 3
BUDGET_S = 165.0          # every run must end well within 180 s
SOUP_TOLERANCE = 1e-4     # the CLI's default --tolerance

END_TO_END = {
    "setup_s": "s", "train_s": "s", "soup_s": "s", "eval_s": "s",
    "pipeline_s": "s", "pipeline_cpu_s": "s", "peak_rss_mb": "MB",
    "acc.soup.id.r0.5": "fraction", "acc.soup.id.r1": "fraction",
    "acc.soup.ood.r0.5": "fraction", "acc.soup.ood.r1": "fraction",
    "acc.soup_gain.id.r1": "fraction", "acc.knn.id": "fraction",
    "error_rate": "fraction",
}
# Printed in the table but left out of the last line, whose metrics must be
# numbers that are never 0: the gain can be 0 or negative, KNN is undefined
# where there is no bank, and the error rate is carried by "failed".
TABLE_ONLY = ("acc.soup_gain.id.r1", "acc.knn.id", "error_rate")
PIPELINE = ("train", "soup", "eval")


@dataclass
class StageRun:
    stage: str
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems


class Runner:
    """Starts stage subprocesses and keeps the pass/fail tally."""

    def __init__(self, work: Path, deadline: float, inject: str | None):
        self.work = work
        self.deadline = deadline
        self.inject = inject
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.runs: list[StageRun] = []

    def python(self, stage: str, argv: list[str]) -> StageRun:
        if stage == self.inject:
            argv = [*argv, "--injected-failure"]
        return self.spawn(stage, [sys.executable, *argv])

    def spawn(self, stage: str, cmd: list[str]) -> StageRun:
        """Run one process to exit; wall from start to exit, its own rusage."""
        log = self.work / "stage.log"
        timeout = max(1.0, self.time_left())
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = StageRun(stage, proc.returncode, wall,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                       log.read_text(errors="replace"))
        if run.code != 0:
            tail = run.stdout.strip().splitlines()[-1:] or [""]
            run.problems.append(f"exit {run.code}: {tail[0]}")
        self.runs.append(run)
        return run

    def skipped(self, stage: str, reason: str) -> None:
        self.runs.append(StageRun(stage, -1, 0.0, 0.0, 0.0, "", [reason]))

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    @property
    def attempted(self) -> int:
        return len(self.runs)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.runs)


# ------------------------------------------------------------------- stages

def cli(argv: list[str]) -> list[str]:
    return ["-m", "soupadapter", *argv]


def setup_cmd(wl: Workload, data: Path, seed: int) -> list[str]:
    argv = wl.setup_argv(data, seed)
    return [str(HERE / "workloads.py"), *argv] if wl.writer else cli(argv)


def digest(paths) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(paths) if p.is_file()}


def check_soup(run: StageRun) -> None:
    match = re.search(r"worst deviation (\S+) over", run.stdout)
    if match is None:
        run.problems.append("soup printed no worst deviation")
    elif not float(match.group(1)) <= SOUP_TOLERANCE:
        run.problems.append(f"worst deviation {match.group(1)} "
                            f"> {SOUP_TOLERANCE}")


def read_accuracies(report_path: Path, run: StageRun) -> dict | None:
    """Accuracies from report.json; checks criterion 2 (r=0 == bare head)."""
    try:
        doc = json.loads(report_path.read_text())
        rows = {(r["model"], r["split"], r["r"]): r["accuracy"]
                for r in doc["rows"]}
        base = doc["baselines"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        run.problems.append(f"report.json unreadable: {exc!r}")
        return None
    acc = {}
    for split in ("id", "ood"):
        bare = [v for k, v in base.get(split, {}).items() if k != "knn"]
        if len(bare) != 1 or rows.get(("soup", split, 0.0)) != bare[0]:
            run.problems.append(f"soup r=0 {split} row != bare-head baseline")
        for r in (0.5, 1.0):
            if ("soup", split, r) not in rows:
                run.problems.append(f"report lacks soup {split} r={r}")
                return None
            acc[f"acc.soup.{split}.r{r:g}"] = rows[("soup", split, r)]
    mean = rows.get(("component_mean", "id", 1.0))
    if mean is None:
        run.problems.append("report lacks component_mean id r=1")
        return None
    acc["acc.soup_gain.id.r1"] = rows[("soup", "id", 1.0)] - mean
    acc["acc.knn.id"] = base.get("id", {}).get("knn")
    return acc


def pipeline(runner: Runner, wl: Workload, data: Path, out: Path,
             tracer: bool = False) -> dict:
    """One train -> soup -> eval pass; returns stage runs, hashes, accuracies.

    Untraced, soup runs SOUP_REPEATS times: it is short enough that
    process start-up noise would otherwise dominate its median.
    """
    def launch(stage, argv):
        if not tracer:
            return runner.python(stage, cli(argv))
        spans = out / f"{stage}.spans.json"
        return runner.python(stage, [str(HERE / "tracer.py"), "--spans",
                                     str(spans), "--stage", stage, "--", *argv])

    result = {"runs": {}, "hashes": {}, "acc": None}
    steps = (("train", wl.train_argv(data, out)),
             ("soup", wl.soup_argv(out)),
             ("eval", wl.eval_argv(data, out)))
    for i, (stage, argv) in enumerate(steps):
        repeats = SOUP_REPEATS if stage == "soup" and not tracer else 1
        runs = result["runs"][stage] = []
        for _ in range(repeats):
            run = launch(stage, argv)
            runs.append(run)
            if not run.ok:
                for later, _ in steps[i + 1:]:
                    runner.skipped(later, f"skipped: {stage} failed")
                return result
            if stage == "train":
                hashes = digest(out.glob("component_*"))
                if len(hashes) < wl.k:
                    run.problems.append("train wrote fewer than K checkpoints")
            elif stage == "soup":
                check_soup(run)
                hashes = digest([out / "merged.sada"])
            else:
                result["acc"] = read_accuracies(out / "report.json", run)
                hashes = digest(out.glob("report.*"))
            if result["hashes"].setdefault(stage, hashes) != hashes:
                run.problems.append(f"{stage} outputs differ between repeats")
    return result


def check_same(first: dict, later: dict) -> None:
    """Byte-identical outputs across repeats of one workload and seed."""
    for stage, hashes in later["hashes"].items():
        if hashes != first["hashes"].get(stage):
            later["runs"][stage][0].problems.append(
                f"{stage} outputs differ from the first repeat")


# --------------------------------------------------------------------- runs

def timed_run(runner: Runner, wl: Workload, seed: int, seconds: float):
    setups, setup_hashes = [], []
    for i in range(SETUP_REPEATS):
        data = runner.work / f"data{i}"
        run = runner.python("synth", setup_cmd(wl, data, seed))
        setups.append(run)
        if run.ok:
            setup_hashes.append(digest(data.iterdir()))
            if setup_hashes[0] != setup_hashes[-1]:
                run.problems.append("setup outputs differ between repeats")
        if i:
            shutil.rmtree(data, ignore_errors=True)
    data = runner.work / "data0"

    repeats = []
    if setups[0].ok:
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            out = runner.work / f"run{len(repeats)}"
            result = pipeline(runner, wl, data, out)
            if repeats:
                check_same(repeats[0], result)
                shutil.rmtree(out, ignore_errors=True)
            repeats.append(result)
            took = time.perf_counter() - began
            if runner.time_left() < 1.5 * took:
                break
            if len(repeats) >= MIN_REPEATS and \
                    time.perf_counter() - start >= seconds:
                break
    else:
        for stage in PIPELINE:
            runner.skipped(stage, "skipped: setup failed")

    metrics = {name: [] for name in END_TO_END}
    metrics["setup_s"] = [r.wall_s for r in setups if r.ok]
    for result in repeats:
        runs = result["runs"]
        if not all(runs.get(s) and all(r.ok for r in runs[s])
                   for s in PIPELINE):
            continue
        for stage in PIPELINE:
            metrics[f"{stage}_s"] += [r.wall_s for r in runs[stage]]
        metrics["pipeline_s"].append(sum(
            statistics.median(r.wall_s for r in runs[s]) for s in PIPELINE))
        metrics["pipeline_cpu_s"].append(sum(
            statistics.median(r.cpu_s for r in runs[s]) for s in PIPELINE))
        metrics["peak_rss_mb"].append(max(r.rss_mb for s in PIPELINE
                                          for r in runs[s]))
        for name, value in (result["acc"] or {}).items():
            if value is not None:
                metrics[name].append(value)
    metrics["error_rate"] = [runner.failed / runner.attempted]
    return metrics, len(repeats)


def trace_run(runner: Runner, wl: Workload, seed: int):
    """Traced stages in-process (one process per stage), plus an untraced
    pass on the same inputs for the overhead and a byte-identity check."""
    imports = [runner.spawn("import", [sys.executable, "-c",
                                       "import soupadapter.cli"])
               for _ in range(IMPORT_REPEATS)]
    data = runner.work / "data"
    traced_dir = runner.work / "traced"
    traced_dir.mkdir(parents=True)
    argv = wl.setup_argv(data, seed)
    synth = runner.python("synth", [
        str(HERE / "tracer.py"), "--spans", str(traced_dir / "synth.spans.json"),
        "--stage", "synth", "--entry", "writer" if wl.writer else "cli",
        "--", *argv])
    if not synth.ok:
        for stage in PIPELINE * 2:
            runner.skipped(stage, "skipped: setup failed")
        return None
    plain = pipeline(runner, wl, data, runner.work / "plain")
    traced = pipeline(runner, wl, data, traced_dir, tracer=True)
    check_same(plain, traced)
    if runner.failed:
        return None
    docs = {stage: json.loads((traced_dir / f"{stage}.spans.json").read_text())
            for stage in layers.STAGES}
    overhead = sum(traced["runs"][s][0].wall_s - plain["runs"][s][0].wall_s
                   for s in PIPELINE)
    return layers.aggregate(docs, statistics.median(r.wall_s for r in imports),
                            overhead)


# -------------------------------------------------------------------- output

def stamp() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")},
        "commit": commit,
    }


def print_table(title: str, rows) -> None:
    print(title)
    print(f"  {'metric':<52} {'median':>14}  {'unit':<8} n")
    for name, value, unit, n in rows:
        shown = "undefined" if value is None else f"{value:.6g}"
        print(f"  {name:<52} {shown:>14}  {unit:<8} {n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inject-failure", choices=layers.STAGES,
                        help="make every run of one stage fail (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "soupadapter" / "cli.py").is_file():
        print(f"error: no soupadapter sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.perf_counter() + BUDGET_S, args.inject_failure)
    try:
        info = stamp()
        if args.trace:
            per_layer = trace_run(runner, wl, args.seed)
            metrics = {name: {"value": per_layer[name] if per_layer else None,
                              "unit": unit}
                       for name, unit in layers.PER_LAYER.items()}
            table = [(n, m["value"], m["unit"], 1) for n, m in metrics.items()]
        else:
            samples, repeats = timed_run(runner, wl, args.seed, args.seconds)
            table = [(name, statistics.median(samples[name])
                      if samples[name] else None, unit, len(samples[name]))
                     for name, unit in END_TO_END.items()]
            metrics = {name: {"value": value, "unit": unit}
                       for name, value, unit, _ in table
                       if name not in TABLE_ONLY}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use
            (ROOT / ".bench_work").rmdir()

    print("stamp " + json.dumps(info, sort_keys=True))
    for run in runner.runs:
        for problem in run.problems:
            print(f"FAILED {run.stage}: {problem}")
    title = f"workload {wl.name}  seed {args.seed}  trace {args.trace}"
    if not args.trace:
        title += f"  pipeline repeats {repeats}  setups {SETUP_REPEATS}"
    print_table(title, table)
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
