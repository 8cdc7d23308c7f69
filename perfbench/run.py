#!/usr/bin/env python3
"""Benchmark for the coincidence-lab command line.

One client drives ``coincidence_lab.cli.main`` in-process as a closed loop:
the next command starts only when the previous one has returned, in one
process and one thread.  Each workload is one seeded list of scenario files
(a "pass"); a run replays whole passes for ``--seconds`` of command time.
Every op's exit code and report are checked outside the timed interval.

    python3 perfbench/run.py --workload class-oracle --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` replays passes
untraced and then the same passes with timing wrappers around each layer,
and reports the per-layer metrics.  ``--workload all`` runs every workload, each
in a fresh process, and prints one table.  The last line of standard output
is always one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
SETUP_REPEATS = 21

import checker  # noqa: E402 - the benchmark's own modules, next to this file
import scenarios  # noqa: E402
from tracing import Tracer  # noqa: E402

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.build_parser.self_s": "s",
    "cli.command.self_s": "s",
    "cli.load_scenario.self_s": "s",
    "cli.build_affine_maps.self_s": "s",
    "cli.render_point.self_s": "s",
    "cli.render_point.calls": "count",
    "cli.render_report.self_s": "s",
    "cli.report_bytes": "bytes",
    "cli.oracle_ran": "count",
    "cli.oracle_skipped": "count",
    "lefschetz.multi_class_torus.self_s": "s",
    "lefschetz.sphere_class.self_s": "s",
    "lefschetz.class_from_facts.self_s": "s",
    "exterior.wedge.self_s": "s",
    "exterior.wedge.calls": "count",
    "exterior.wedge.terms_out": "count",
    "exterior.pullback.self_s": "s",
    "exterior.pullback.calls": "count",
    "matrices.det.self_s": "s",
    "matrices.det.calls": "count",
    "snf.smith_normal_form.self_s": "s",
    "snf.smith_normal_form.calls": "count",
    "snf.cert_max_bits": "bits",
    "solver.solve_coincidences.self_s": "s",
    "solver.stacked_difference.self_s": "s",
    "solver.CoincidencePoint.self_s": "s",
    "solver.points": "count",
    "decider.decide.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}

# Op time that no top-level span covers may be at most this share of the
# traced op time, or the wrappers miss a layer that does real work.
TRACE_MAX_UNATTRIBUTED = 0.10


class Run:
    """Executes ops, checks them, and keeps each case's timings."""

    def __init__(self, cli):
        self.cli = cli
        self.verified: dict[str, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.times: dict[str, list[float]] = defaultdict(list)
        self.failed_cases: set[str] = set()
        self.points: dict[str, int] = {}
        self.oracle_ran = 0
        self.oracle_skipped = 0

    def live(self, cases):
        """The cases left to replay.  A failed case is counted once and not
        replayed, so a run's failed count does not follow how many passes
        it gets."""
        return [case for case in cases if case.name not in self.failed_cases]

    def execute(self, case):
        """Run one command; only the ``cli.main`` call is timed."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main([case.command, case.path])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else -1
            except Exception as exc:  # a traceback is a wrong outcome, not a crash of the run
                code = -1
                print(f"uncaught {exc!r}", file=err)
        elapsed = time.perf_counter() - start
        return code, out.getvalue(), err.getvalue(), elapsed

    def op(self, case) -> float:
        code, text, err, elapsed = self.execute(case)
        failure = self.judge(case, code, text)
        self.attempted += 1
        self.times[case.name].append(elapsed)
        if failure is not None:
            kind, reason = failure
            where = err.strip().splitlines()[-1:] if code else []
            print(f"FAIL {case.name} {case.command}: {kind}: {reason} {' '.join(where)}".rstrip())
            self.failed += 1
            self.wrong += kind == checker.WRONG
            self.failed_cases.add(case.name)
            return elapsed
        oracle = case.command != "solve" and '"oracle_agrees":' in text
        ran = case.command == "solve" or oracle
        self.points[case.name] = abs(case.class_value) if ran and case.system else 0
        if case.command == "class" and case.system is not None:
            self.oracle_ran += oracle
            self.oracle_skipped += not oracle
        return elapsed

    def judge(self, case, code, text):
        """Check an op; a report byte-equal to one already verified passes."""
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        if self.verified.get(case.name) == (code, digest):
            return None
        failure = checker.check(case, code, text)
        if failure is None:
            if case.name in self.verified:
                return checker.WRONG, "report bytes differ between runs of one scenario"
            self.verified[case.name] = (code, digest)
        return failure


def cold_start() -> float:
    """Wall time of one cold ``python -m coincidence_lab.cli --help``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "coincidence_lab.cli", "--help"],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
    )
    # A plain wait() returns as soon as the child exits; wait(timeout) polls
    # in steps of up to 50 ms, which would quantize the measurement.
    guard = threading.Timer(60, proc.kill)
    guard.start()
    try:
        code = proc.wait()
    finally:
        guard.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"error: cold start exited {code}")
    return elapsed


def provenance(workload, seed) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def end_to_end(run, cases, seconds) -> tuple[dict, dict]:
    """Replay whole passes while the next one still fits in ``seconds``.

    Cold starts for ``setup_s`` are spread over the run.  Each case's
    latency is the fastest of its replays: on a shared host other tenants
    slow whole stretches of a run, and the fastest replay is the estimate
    that such stretches move least.  It hides costs that build up over a
    run or hit only some replays; see the README.
    """
    busy, setup, passes = 0.0, [], 0
    while True:
        pass_start = busy
        passes += 1
        for case in run.live(cases):
            busy += run.op(case)
            while len(setup) < SETUP_REPEATS * min(1.0, busy / seconds):
                setup.append(cold_start())
        if busy + (busy - pass_start) > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(cold_start())

    per_case = {case.name: min(run.times[case.name]) for case in cases}
    ok = sorted(t for name, t in per_case.items() if name not in run.failed_cases)
    if not ok:
        raise SystemExit("error: no case had the expected outcome")
    pass_s = sum(per_case.values())
    values = {
        "ops_per_s": len(ok) / pass_s,
        "latency_p50_ms": statistics.median(ok) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    extra = {
        "failed_ratio": (run.failed / run.attempted, "ratio"),
        "cases_ok": (len(ok), "count"),
        "points_per_s": (sum(run.points.get(n, 0) for n in per_case if n not in run.failed_cases)
                         / pass_s, "1/s"),
        "busy_s": (busy, "s"),
        "passes": (passes, "count"),
    }
    # The p90 over all replays is reported only when at least ten samples
    # lie beyond it.
    replays = sorted(t for name, ts in run.times.items()
                     if name not in run.failed_cases for t in ts)
    if len(replays) >= 100:
        extra["latency_p90_ms"] = (statistics.quantiles(replays, n=10)[8] * 1000, "ms")
    return values, extra


def check_trace(tracer, op_s) -> tuple[float, list[str]]:
    """Check the span records against the tracer's totals and the op timers.

    ``op_s[i]`` is the wall time of op ``i`` by the benchmark's own timer.
    Self times rebuilt from the written span records must equal the ones the
    tracer accumulated, every op's top-level spans must lie within its timer,
    and the op time outside any top-level span must stay within
    ``TRACE_MAX_UNATTRIBUTED``.  Returns that unattributed time in seconds
    and the problems found.
    """
    duration = {s["id"]: s["end_ns"] - s["start_ns"] for s in tracer.spans}
    children = defaultdict(int)  # span id -> time covered by its child spans
    top = defaultdict(int)  # op id -> time covered by its top-level spans
    for span in tracer.spans:
        if span["parent"] is None:
            top[span["op"]] += duration[span["id"]]
        else:
            children[span["parent"]] += duration[span["id"]]
    rebuilt = defaultdict(int)
    for span in tracer.spans:
        inner = 0
        for name, agg in span["aggregates"].items():
            rebuilt[name] += agg["total_ns"]
            inner += agg["total_ns"]
        rebuilt[span["name"]] += duration[span["id"]] - children[span["id"]] - inner

    problems = [
        f"{name}: span records give {rebuilt.get(name, 0)} ns of self time,"
        f" the tracer {tracer.self_ns.get(name, 0)} ns"
        for name in sorted(set(rebuilt) | set(tracer.self_ns))
        if rebuilt.get(name, 0) != tracer.self_ns.get(name, 0)
    ]
    problems += [f"op {op}: top-level spans exceed the op timer"
                 for op, ns in top.items() if op >= len(op_s) or ns / 1e9 > op_s[op] + 1e-6]
    traced = sum(op_s)
    unattributed = traced - sum(top.values()) / 1e9
    if unattributed > TRACE_MAX_UNATTRIBUTED * traced:
        problems.append(f"{unattributed / traced:.1%} of the op time lies outside"
                        f" every top-level span (at most {TRACE_MAX_UNATTRIBUTED:.0%})")
    return unattributed, problems


def per_layer(run, cases, seconds, trace_path) -> tuple[dict, dict]:
    """Replay whole passes untraced while the next one still fits in half of
    ``seconds``, then the same number of passes traced.  Times and counts
    are per pass."""
    passes, untraced = 0, 0.0
    while True:
        pass_s = sum(run.op(case) for case in run.live(cases))
        untraced += pass_s
        passes += 1
        if untraced + pass_s > seconds / 2:
            break
    run.oracle_ran = run.oracle_skipped = 0  # count the traced passes only
    tracer = Tracer()
    tracer.install()
    op_s = []
    try:
        for _ in range(passes):
            for case in run.live(cases):
                tracer.op_id = len(op_s)
                op_s.append(run.op(case))
    finally:
        tracer.uninstall()
    tracer.write(trace_path)

    traced = sum(op_s)
    unattributed, problems = check_trace(tracer, op_s)
    print(f"trace check: {traced - unattributed:.6f} s in top-level spans,"
          f" {unattributed:.6f} s ({unattributed / traced:.1%}) unattributed,"
          f" of {traced:.6f} s traced op time: {'FAILED' if problems else 'ok'}")
    if problems:
        for problem in problems[:10]:
            print(f"  {problem}")
        raise SystemExit("error: the trace does not account for the op time")

    values = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "self_s":
            values[name] = tracer.self_ns.get(layer, 0) / 1e9 / passes
        elif stat == "calls":
            values[name] = tracer.calls.get(layer, 0) / passes
        elif name == "snf.cert_max_bits":
            values[name] = tracer.counters.get(name, 0)
        else:
            values[name] = tracer.counters.get(name, 0) / passes
    values["cli.oracle_ran"] = run.oracle_ran / passes
    values["cli.oracle_skipped"] = run.oracle_skipped / passes
    values["trace.overhead_ratio"] = traced / untraced
    values["trace.unattributed_s"] = unattributed / passes
    extra = {"passes": (passes, "count"), "untraced_s": (untraced, "s"),
             "traced_s": (traced, "s")}
    return values, extra


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from coincidence_lab import cli

    info = provenance(args.workload, args.seed)
    print("provenance: " + json.dumps(info, sort_keys=True))
    workdir = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cases = scenarios.generate(args.workload, args.seed, ROOT, workdir)
        run = Run(cli)
        run.execute(cases[0])  # warm-up
        gc.collect()
        if args.trace:
            values, extra = per_layer(
                run, cases, args.seconds, WORKDIR / f"trace-{args.workload}-{args.seed}.jsonl")
            units = PER_LAYER
        else:
            values, extra = end_to_end(run, cases, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload}: {len(cases)} cases per pass, "
          f"{run.attempted} ops, {run.failed} failed ({run.wrong} wrong)")
    for name, value in values.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, so none inherits another's memory peak."""
    results = {}
    for workload in scenarios.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {workload} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        results[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    names = list(results[scenarios.WORKLOADS[0]]["metrics"])
    print(f"\n{'metric':40s} {'unit':6s}" + "".join(f"{w:>16s}" for w in results))
    for name in names:
        unit = results[scenarios.WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name:40s} {unit:6s}"
              + "".join(f"{r['metrics'][name]['value']:>16.6g}" for r in results.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/coincidence_lab/cli.py", "fixtures/golden")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a coincidence-lab checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
