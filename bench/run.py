"""Benchmark of the quadlie checkers: time to a verified verdict.

Run from the repository root:

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): verify, serre, normal_form, family.  One
workload runs per process, single-threaded.  The seed makes the inputs.

With --trace 0 the workload's tasks run in rounds for about --seconds
seconds (at least one round); every task's output is checked against a
known answer outside the timed region, and the end-to-end metrics are
medians over rounds.  Times are reported at the reference speed of the
interpreter-speed probe in speed.py, which cancels the drift of a shared
host; the raw seconds are printed beside them.  With --trace 1 one
untraced round and one traced set-up plus round run instead, and the
per-module metrics of spans.py are reported; the spans are written to
.bench_out/.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Any, NamedTuple, Optional, Tuple  # noqa: E402

from speed import SpeedProbe  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
TASK_LIMIT_S = 30.0      # a task past this counts as failed
TRACED_LIMIT_S = 90.0    # the same limit for the slower traced round
RUN_BUDGET_S = 165.0     # from process start; later tasks count as failed
TASK_MIN_PROBES = 10     # a task's speed: probes inside it, at least this many
SLOWEST_SHOWN = 8        # per-task medians printed for the slowest tasks


class TaskTimeout(BaseException):
    """Raised by the alarm in a task that ran past its time limit.  A
    BaseException, so that no handler inside the library swallows it."""


def _alarm(signum, frame):
    raise TaskTimeout()


class Outcome(NamedTuple):
    """One task run: output or error, raw seconds and probe marks."""

    task: Any
    output: Any
    seconds: float
    error: Optional[str]
    start: Tuple[int, float]
    end: Tuple[int, float]


def run_round(workload, inputs, probe: SpeedProbe, limit: float, deadline: float):
    """Run one round; return (raw wall seconds, start mark, end mark,
    [Outcome])."""
    clock = time.perf_counter
    round_start = probe.mark()
    start = clock()
    outcomes = []
    for task in workload.make_round(inputs):
        remaining = deadline - clock()
        if remaining <= 0:
            mark = probe.mark()
            outcomes.append(Outcome(task, None, 0.0, "run budget exhausted", mark, mark))
            continue
        out, err = None, None
        signal.setitimer(signal.ITIMER_REAL, min(limit, remaining))
        mark = probe.mark()
        t0 = clock()
        try:
            try:
                out = task.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except TaskTimeout:
            err = "time limit"
        except Exception as exc:  # a task's failure must not stop the run
            err = f"{type(exc).__name__}: {exc}"
        outcomes.append(Outcome(task, out, clock() - t0, err, mark, probe.mark()))
    return clock() - start, round_start, probe.mark(), outcomes


def check_round(outcomes) -> list:
    """Known-answer gate; return [(task name, reason)] of failed tasks."""
    failures = []
    for o in outcomes:
        err = o.error
        if err is None:
            try:
                ok = bool(o.task.check(o.output))
            except Exception as exc:  # a crashing check is a wrong answer
                ok, err = False, f"check raised {type(exc).__name__}: {exc}"
            if not ok:
                err = err or "wrong verdict or output"
        if err is not None:
            failures.append((o.task.name, err))
    return failures


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quadlie", "__init__.py")):
        print(f"bench: no quadlie sources under {SRC}", file=sys.stderr)
        return 2
    probe = SpeedProbe()
    if not args.trace:  # the traced run reports raw span times
        probe.start()
    process_mark = probe.mark()
    sys.path.insert(0, SRC)
    import quadlie

    if os.path.dirname(os.path.abspath(quadlie.__file__)) != os.path.join(SRC, "quadlie"):
        print(f"bench: imported quadlie from {quadlie.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    import_s = time.perf_counter() - PROCESS_START
    import_mark = probe.mark()
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    signal.signal(signal.SIGALRM, _alarm)
    deadline = PROCESS_START + RUN_BUDGET_S

    setups = []  # (raw seconds, probe seconds inside)
    for _ in range(SETUP_REPEATS):
        gc.collect()
        mark = probe.mark()
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed)
        setups.append((time.perf_counter() - t0, probe.mark()[1] - mark[1]))
    setup_raw = import_s + statistics.median(raw for raw, _ in setups)
    setup_work = (import_s - (import_mark[1] - process_mark[1])
                  + statistics.median(raw - spent for raw, spent in setups))
    setup_factor = probe.scale(process_mark, probe.mark(), 0.0)[1]

    missed = workloads.gate_selftest()
    print(f"machine: CPython {platform.python_version()}, nproc {os.cpu_count()}, "
          f"{platform.machine()}")
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print("gate self-test: " + ("both mislabelled inputs rejected" if not missed
                                else "NOT rejected: " + "; ".join(missed)))

    if args.trace:
        attempted, failures, metrics = traced_run(
            quadlie, workload, args, inputs, probe, deadline)
    else:
        attempted, failures, metrics, round_factor = timed_run(
            workload, args, inputs, probe, deadline)
        print(f"raw setup_s {setup_raw:.4f} s")
        factor = setup_factor if setup_factor is not None else round_factor
        metrics = {"setup_s": (setup_work * factor, "s"), **metrics}
    probe.stop()

    for name, reason in failures[:20]:
        print(f"FAILED {name}: {reason}")
    failed = len(failures)
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} tasks)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": failed == 0 and not missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def timed_run(workload, args, inputs, probe, deadline):
    rounds = []  # (wall, symbolic, rational, raw wall): reference-speed seconds
    samples = []  # per-task reference-speed seconds
    by_task = {}
    failures = []
    factors = []
    attempted = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        wall, round_start, round_end, outcomes = run_round(
            workload, inputs, probe, TASK_LIMIT_S, deadline)
        failures += check_round(outcomes)
        attempted += len(outcomes)
        norm_wall, factor = probe.scale(round_start, round_end, wall)
        factors.append(factor)
        symbolic = rational = 0.0
        for o in outcomes:
            t, _ = probe.scale(o.start, o.end, o.seconds, min_samples=TASK_MIN_PROBES)
            samples.append(t)
            by_task.setdefault(o.task.name, []).append(t)
            if o.task.symbolic:
                symbolic += t
            else:
                rational += t
        rounds.append((norm_wall, symbolic, rational, wall))
        del outcomes  # free this round's systems and caches before the next
        now = time.perf_counter()
        if now - start + wall > args.seconds or now + 2 * wall > deadline:
            break
    print(f"rounds: {len(rounds)}  task samples: {len(samples)} "
          f"({len(samples) // len(rounds)} tasks per round)")
    print(f"probe: {len(probe.samples)} samples, median speed factor "
          f"{statistics.median(factors):.3f}; raw wall_s "
          f"{statistics.median(r[3] for r in rounds):.4f} s")
    slowest = sorted(by_task.items(), key=lambda kv: -statistics.median(kv[1]))
    for name, times in slowest[:SLOWEST_SHOWN]:
        print(f"slow task {1e3 * statistics.median(times):.1f} ms  {name}")
    return attempted, failures, {
        "wall_s": (statistics.median(r[0] for r in rounds), "s"),
        "symbolic_s": (statistics.median(r[1] for r in rounds), "s"),
        "rational_s": (statistics.median(r[2] for r in rounds), "s"),
        "task_ms_p50": (1e3 * quantile(samples, 0.50), "ms"),
        "task_ms_p99": (1e3 * quantile(samples, 0.99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, statistics.median(factors)


def traced_run(package, workload, args, inputs, probe, deadline):
    from spans import Tracer

    gc.collect()
    plain_wall, _, _, outcomes = run_round(workload, inputs, probe, TASK_LIMIT_S, deadline)
    failures = check_round(outcomes)
    attempted = len(outcomes)
    tracer = Tracer(package)
    gc.collect()
    tracer.install()
    try:
        traced_inputs = workload.setup(args.seed)
        traced_wall, _, _, outcomes = run_round(
            workload, traced_inputs, probe, TRACED_LIMIT_S, deadline)
    finally:
        tracer.uninstall()
    failures += check_round(outcomes)
    attempted += len(outcomes)
    print(f"untraced round {plain_wall:.3f} s, traced round "
          f"{traced_wall:.3f} s, {len(tracer.spans)} spans, "
          f"{len(tracer.hot)} aggregated hot-span slots")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    return attempted, failures, metrics


if __name__ == "__main__":
    sys.exit(main())
