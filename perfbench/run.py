#!/usr/bin/env python3
"""The repository benchmark: real ``xp`` sweeps, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds ``xp`` and the traced
replay (``perfbench-trace``) from source with cargo into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), then:

* ``--trace 0`` runs the workload's set-up three times, then its ``xp``
  command as a child process, closed loop, until ``--seconds`` have
  passed (at least once), and reports the ``end_to_end`` metrics of
  ``BENCHMARK.json``;
* ``--trace 1`` runs the set-up and the command once each, untraced,
  then replays the same workload through the library with spans around
  every layer call, reports the ``per_layer`` metrics and keeps every
  span in ``.perfbench_spans/<workload>.jsonl``.

Both modes check every sweep's output and print a table, then one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``. Scratch files
go to ``.perfbench_work/`` and are removed on exit. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import perflib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

SIZES = "512,1024,2048,4096,8192,16384"
LANES = 6
# Every child must end before this many seconds into the run.
RUN_BUDGET_S = 170.0
SPANS_DIR = ROOT / ".perfbench_spans"
# Set-up repetitions per --trace 0 run; setup_s is their median.
SETUP_REPEATS = 3


class Workload:
    """One workload: its set-up and sweep ``xp`` commands and the
    operations (trials) one sweep attempts.

    The set-up of ``corpus-replay`` builds its corpus. The other two
    have no set-up of their own; theirs is the reference run the output
    check compares every sweep with: the same seed under another
    configuration, whose cells must come out byte-identical.

    Every workload runs ``xp`` with the experiment's default seed,
    whatever the benchmark seed: a sweep's cost moves with its seed by
    more than the bounds allow (corpus-replay's CPU time ranged 2.3-3.9 s
    over five seeds, weak-sweep's 19.7-24.8 s over ten), and the default
    ensemble is the one the committed reference cells come from.
    """

    def __init__(self, name, default_seed, setup, sweep, operations):
        self.name = name
        self.default_seed = default_seed
        self.setup = setup
        self.sweep = sweep
        self.operations = operations


WORKLOADS = {
    # Full theorem1-weak grid on one thread: strategy and oracle work.
    # Reference: its p=0.6, m=1 slice on two workers. One sweep takes
    # longer than BENCHMARK.json's run_seconds, so a --trace 0 run
    # measures a single sweep and the first-sweep comparison is void.
    "weak-sweep": Workload(
        "weak-sweep",
        0xE1,
        ["theorem1-weak", "--quick", "--sizes", SIZES, "--trials", "12", "--threads", "2"],
        ["theorem1-weak", "--threads", "1", "--profile"],
        3 * 2 * 6 * 12,
    ),
    # The p=0.6, m=1 slice served from a corpus through mmap, 2 workers.
    # Reference: the committed weak-sweep cells of that slice.
    "corpus-replay": Workload(
        "corpus-replay",
        0xE1,
        ["corpus", "build", "{corpus}", "--threads", "2"],
        ["theorem1-weak", "--quick", "--sizes", SIZES, "--trials", "12",
         "--corpus", "{corpus}", "--mmap", "--threads", "2", "--profile"],
        6 * 12,
    ),
    # Six generator families at n=100 000 plus the MLE fits, 2 workers.
    # Reference: the same run on one worker. Run by hand only, not listed
    # in BENCHMARK.json: its times follow the host's slow phases more
    # than the search workloads' do, past the 0.25 bound (README.md).
    "census": Workload(
        "census",
        0xE8,
        ["degree-dist", "--threads", "1"],
        ["degree-dist", "--threads", "2"],
        6 * 5,
    ),
}


def log(message):
    print(message, file=sys.stderr, flush=True)


class Child:
    """The measured outcome of one child process."""

    def __init__(self, code, wall_s, cpu_s, rss_kb):
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_kb = rss_kb
        self.out = None  # the record file, for xp children


def run_child(argv, deadline, stdout=subprocess.DEVNULL, stderr_path=None):
    """Runs ``argv`` to completion and returns its exit code, wall time,
    CPU time and peak RSS (from ``wait4``). The child is killed at
    ``deadline`` (a ``time.monotonic`` value) and then reads as failed."""
    stderr = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
    finally:
        if stderr_path:
            stderr.close()


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")


def build():
    """Builds ``xp`` and ``perfbench-trace``; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "nonsearch_bench", "--bin", "xp"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(BENCH_DIR / "Cargo.toml")],
    ):
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(argv)}")
    release = target_dir() / "release"
    return release / "xp", release / "perfbench-trace"


class Runner:
    """Runs one workload's set-up, sweeps and checks in a work directory."""

    def __init__(self, workload, xp, work, deadline):
        self.w = workload
        self.xp_seed = workload.default_seed
        self.xp = str(xp)
        self.work = work
        self.deadline = deadline
        self.corpus = work / "corpus"
        self.spans = SPANS_DIR / f"{workload.name}.jsonl"
        self.reference = []
        self.outputs = 0

    def run_xp(self, args, label):
        """Runs ``xp`` with the run's seed. Returns the child and its
        parsed records (``None`` if it failed or printed bad records);
        ``child.out`` is its record file."""
        self.outputs += 1
        out = self.work / f"{label}-{self.outputs}.jsonl"
        err = self.work / f"{label}-{self.outputs}.err"
        argv = [self.xp, *[a.replace("{corpus}", str(self.corpus)) for a in args],
                "--seed", str(self.xp_seed), "--out", str(out)]
        child = run_child(argv, self.deadline, stderr_path=err)
        child.out = out
        if child.code != 0:
            log(f"perfbench: {label} exited {child.code}; stderr tail:\n"
                + err.read_text(errors="replace")[-2000:])
            return child, None
        try:
            text = out.read_text() if out.exists() else ""
            return child, perflib.parse_records(text)
        except (OSError, perflib.RecordError) as e:
            log(f"perfbench: {label} output rejected: {e}")
            return child, None

    def setup(self):
        """One set-up step; returns its wall time. Exits on failure: a
        run whose set-up fails measures nothing."""
        shutil.rmtree(self.corpus, ignore_errors=True)
        child, groups = self.run_xp(self.w.setup, "setup")
        if groups is None:
            raise SystemExit("perfbench: set-up failed")
        self.reference = perflib.cells(groups)
        return child.wall_s

    def sweep(self):
        """One measured sweep: ``(child, records or None)``."""
        return self.run_xp(self.w.sweep, "sweep")

    def check(self, groups):
        """Problems with one parsed sweep: its shape, and its cells
        against the reference run and the committed cells."""
        lines = perflib.cells(groups)
        name = "census" if self.w.name == "census" else "weak-sweep"
        committed = (REFERENCE_DIR / f"{name}.cells.jsonl").read_text().splitlines()
        if self.w.name == "census":
            problems = perflib.check_census(groups, models=6, trials=5)
            problems += perflib.compare_lines(lines, self.reference, "reference run")
        else:
            models = 6 if self.w.name == "weak-sweep" else 1
            problems = perflib.check_search_sweep(groups, models, sizes=6, lanes=LANES, trials=12)
            if self.w.name == "weak-sweep":
                problems += perflib.compare_lines(
                    perflib.slice_lines(lines, 0.6, 1), self.reference, "reference run")
            else:
                # The corpus serves the generated graphs, so the cells
                # equal weak-sweep's p=0.6, m=1 slice.
                committed = perflib.slice_lines(committed, 0.6, 1)
        problems += perflib.compare_lines(lines, committed, "committed reference")
        return problems


def table(title, metrics, extra):
    lines = [title]
    for name, (value, unit) in [*metrics.items(), *extra.items()]:
        lines.append(f"  {name:<52} {value:>16.6g} {unit}")
    print("\n".join(lines))


def run_e2e(runner, seconds, spec):
    setups = [runner.setup() for _ in range(SETUP_REPEATS)]
    log("perfbench: set-up wall times " + " ".join(f"{t:.3f}" for t in setups))
    sweeps = []
    started = time.monotonic()
    while True:
        sweeps.append(runner.sweep())
        wall = sweeps[-1][0].wall_s
        log(f"perfbench: sweep {len(sweeps)}: {wall:.3f} s wall, {sweeps[-1][0].cpu_s:.3f} s CPU")
        if (time.monotonic() - started >= seconds
                or time.monotonic() + 1.5 * wall > runner.deadline):
            break

    first = next((perflib.cells(g) for _, g in sweeps if g is not None), None)
    rows = []
    for child, groups in sweeps:
        requests = graphs = 0
        ok = groups is not None
        if ok:
            problems = runner.check(groups)
            problems += perflib.compare_lines(perflib.cells(groups), first, "first sweep")
            for problem in problems:
                log(f"perfbench: check failed: {problem}")
            ok = not problems
            requests, graphs = perflib.sweep_work(groups)
        failed = perflib.sweep_failures(runner.w.operations, ok, groups or {})
        rows.append((child, requests, graphs, failed))

    attempted = runner.w.operations * len(rows)
    failed = sum(row[3] for row in rows)
    values = {
        "sweep_s": statistics.median(row[0].wall_s for row in rows),
        "cpu_s": statistics.median(row[0].cpu_s for row in rows),
        "setup_s": statistics.median(setups),
        "graphs_per_s": statistics.median(row[2] / row[0].wall_s for row in rows),
        "peak_rss_mb": statistics.median(row[0].rss_kb / 1024 for row in rows),
        "ok_ratio": 1.0 - perflib.failed_ratio(attempted, failed),
    }
    extra = {"failed_ratio": (perflib.failed_ratio(attempted, failed), "ratio")}
    if runner.w.name != "census":
        extra["requests_per_s"] = (
            statistics.median(row[1] / row[0].wall_s for row in rows), "1/s")
    metrics = emit(spec["end_to_end"], values)
    table(f"{runner.w.name}: {len(rows)} sweep(s), xp --seed {runner.xp_seed}, "
          f"{len(setups)} set-up(s)", metrics, extra)
    return failed == 0, attempted, failed, metrics


def run_traced(runner, tracer, spec):
    runner.setup()
    child, groups = runner.sweep()
    problems = ["the untraced sweep failed"] if groups is None else runner.check(groups)

    trace_work = runner.work / "trace"
    trace_work.mkdir()
    argv = [str(tracer), "--workload", runner.w.name, "--seed", str(runner.xp_seed),
            "--work", str(trace_work), "--spans", str(runner.spans)]
    replay_out = runner.work / "replay.json"
    with open(replay_out, "wb") as stdout:
        traced = run_child(argv, runner.deadline, stdout=stdout,
                           stderr_path=runner.work / "replay.err")
    values = {}
    if traced.code != 0:
        problems.append(f"traced replay exited {traced.code}")
    elif groups is not None:
        replay = json.loads(replay_out.read_text())
        cell_records = [r for _, r in groups.get("cell", [])]
        if runner.w.name == "census":
            problems += perflib.compare_results(replay["results"], cell_records, ("model",))
        else:
            counters = ("trials", "requests", "discoveries", "edge_resolutions",
                        "frontier_rescans")
            problems += perflib.compare_counters(
                replay["cells"], perflib.metrics_records(groups), ("p", "m", "n"), counters)
            problems += perflib.compare_results(
                replay["results"], cell_records, ("p", "m", "searcher", "n"))
        values = dict(replay["metrics"])
        values["records.count"] = sum(len(v) for v in groups.values())
        values["records.bytes"] = child.out.stat().st_size
        values["trace.overhead_s"] = replay["sweep_s"] - child.wall_s
    for problem in problems:
        log(f"perfbench: check failed: {problem}")

    ok = not problems
    failed = perflib.sweep_failures(runner.w.operations, ok, groups or {})
    if ok:
        metrics = emit(spec["per_layer"], values)
    else:
        metrics = {m["name"]: (0.0, m["unit"]) for m in spec["per_layer"]}
    table(f"{runner.w.name}: traced replay, xp --seed {runner.xp_seed}, "
          f"untraced sweep {child.wall_s:.3f} s, spans in {runner.spans.relative_to(ROOT)}",
          metrics, {})
    return ok, runner.w.operations, failed, metrics


def emit(declared, values):
    """The declared metrics, each with its unit; fails on a missing one."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not produced: {missing}")
    return {m["name"]: (values[m["name"]], m["unit"]) for m in declared}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise SystemExit(f"perfbench: {ROOT} is not a checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    xp, tracer = build()

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(WORKLOADS[args.workload], xp, work,
                        time.monotonic() + RUN_BUDGET_S)
        if args.trace:
            SPANS_DIR.mkdir(exist_ok=True)
            correct, attempted, failed, metrics = run_traced(runner, tracer, spec)
        else:
            correct, attempted, failed, metrics = run_e2e(runner, args.seconds, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
