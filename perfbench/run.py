"""simpchrom benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from ./src.  The
loop is closed with one client: each op starts when the previous one has
been checked.  Ops run in whole rounds until ``--seconds`` have passed.

--trace 0 prints the end-to-end metrics: verified ops per second of op
time, median and tail op latency, set-up time (median of several fresh
imports plus input generation and warm-up), peak RSS and the scale frontier
(the largest ladder step that finishes within the workload's budget, probed
after the timed loop; probes are not ops).

Times are in reference seconds.  The speed of a shared virtual machine
drifts by up to 1.5x within a minute, and the drift moves every
pure-Python loop alike, so each round is bracketed by a fixed spin loop and
its op times are scaled by REFERENCE_SPIN_S / (the spin's mean time).  Set-up
and ladder budgets are scaled the same way.  Raw wall times are printed
beside the scaled ones.

--trace 1 runs a fixed number of rounds twice, untraced and then with spans
on, checks that both produce the same results, and prints the per-layer
metrics of the traced pass plus the tracing overhead.

The last line of standard output is one JSON object; everything before it
is for people.  Exit code 0 means the run completed, whether or not checks
failed (see "correct" and "failed"); 2 means it could not start.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import traceback
from time import perf_counter
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_REPEATS = 3
TRACE_ROUNDS = {"lattice": 4, "closure": 6, "homology": 8, "sweep_mix": 12}
LADDER_CAP = 64
SPIN_LOOPS = 200_000
REFERENCE_SPIN_S = 0.035  # the spin's time on the baseline machine at its usual speed


class Rounds(NamedTuple):
    latencies: list  # reference seconds per op
    raw: list        # wall seconds per op
    digests: list    # op results, None for a failed op
    failures: list   # one line per failed op
    count: int       # rounds run


class OverBudget(Exception):
    pass


def _over_budget(signum, frame):
    raise OverBudget()


def fresh_setup(name, seed):
    """Import simpchrom and the workload code afresh, build inputs, warm up."""
    for mod in list(sys.modules):
        if mod in ("workloads", "reference") or mod.split(".")[0] == "simpchrom":
            del sys.modules[mod]
    before = spin()
    start = perf_counter()
    workloads = importlib.import_module("workloads")
    plan = workloads.WORKLOADS[name](seed)
    tracer = importlib.import_module("tracing").Tracer(False)
    for op in plan.warmup:
        op(tracer)
    seconds = perf_counter() - start
    return seconds * REFERENCE_SPIN_S / ((before + spin()) / 2), workloads, plan


def spin():
    """Wall seconds of a fixed pure-Python probe of current speed.

    An integer loop, then a loop of dict updates, small tuples and bit
    counts; the mix tracks the library's speed better than either alone.
    """
    start = perf_counter()
    total = 0
    for i in range(SPIN_LOOPS):
        total += i * i
    seen = {}
    for i in range(SPIN_LOOPS // 5):
        m = (i * 2654435761) & 0x1FFF
        seen[m] = seen.get(m, 0) + (m & -m).bit_count()
        total += len((m, i, total & 7)) + (m in seen)
    sorted(seen.items())
    return perf_counter() - start


def run_rounds(plan, tracer, *, seconds=None, rounds=None):
    """Ops in whole rounds: a fixed count, or until ``seconds`` have passed."""
    out = Rounds([], [], [], [], 0)
    before = spin()
    start = perf_counter()
    k = 0
    while (k < rounds) if rounds is not None else (perf_counter() - start < seconds):
        raw = []
        for kind, op in plan.round(k):
            t0 = perf_counter()
            try:
                digest = op(tracer)
            except Exception as exc:  # counted in failed_ratio, never fatal
                digest = None
                out.failures.append(f"round {k} {kind}: {type(exc).__name__}: {exc}")
            raw.append(perf_counter() - t0)
            out.digests.append(digest)
        after = spin()
        scale = REFERENCE_SPIN_S / ((before + after) / 2)
        out.latencies.extend(t * scale for t in raw)
        out.raw.extend(raw)
        before = after
        k += 1
    return out._replace(count=k)


def percentile(values, p):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p / 100 * len(ordered)))]


def frontier(workloads, plan, tracer):
    """Climb the ladder until a step runs over budget, hits a guard or fails."""
    previous = signal.signal(signal.SIGALRM, _over_budget)
    reached, reason, steps = None, "ladder_cap", []
    try:
        for size in range(plan.ladder_start, plan.ladder_start + LADDER_CAP):
            op = plan.probe(size)
            scale = REFERENCE_SPIN_S / spin()
            t0 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, plan.budget / scale)
            try:
                # nested, so an alarm that lands while disarming still counts
                try:
                    op(tracer)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except OverBudget:
                reason = "budget"
            except workloads.GuardError as exc:
                reason = exc.limit
            except Exception as exc:
                reason = f"error: {type(exc).__name__}: {exc}"
            steps.append((size, (perf_counter() - t0) * scale))
            if reason != "ladder_cap":
                break
            reached = size
    finally:
        signal.signal(signal.SIGALRM, previous)
    return reached, reason, steps


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(args, out):
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, workloads, plan = fresh_setup(args.workload, args.seed)
        setups.append(seconds)
    tracer = sys.modules["tracing"].Tracer(False)
    run = run_rounds(plan, tracer, seconds=args.seconds)
    reached, reason, steps = frontier(workloads, plan, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed = len(run.latencies), len(run.failures)
    beyond = attempted - int(plan.tail / 100 * attempted) - 1
    values = {
        "ops_per_s": (attempted - failed) / sum(run.latencies),
        "latency_p50_ms": statistics.median(run.latencies) * 1e3,
        "latency_tail_ms": percentile(run.latencies, plan.tail) * 1e3,
    }
    wall = {
        "ops_per_s": (attempted - failed) / sum(run.raw),
        "latency_p50_ms": statistics.median(run.raw) * 1e3,
        "latency_tail_ms": percentile(run.raw, plan.tail) * 1e3,
    }
    units = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms"}
    correct = failed == 0 and reached is not None and not reason.startswith("error")

    out(f"workload {args.workload}  seed {args.seed}  rounds {run.count}  "
        f"ops {attempted}  failed {failed}  failed_ratio {failed / attempted:.4f}")
    for name, value in values.items():
        out(f"{name:16s} {value:.4f} {units[name]}  (wall {wall[name]:.4f})"
            + (f"  p{plan.tail} of {attempted} samples, {beyond} beyond"
               if name == "latency_tail_ms" else ""))
    out(f"setup_s          {statistics.median(setups):.4f} s  "
        f"(median of {SETUP_REPEATS}: {' '.join(f'{s:.4f}' for s in setups)})")
    out(f"peak_rss_mb      {rss_mb:.2f} MB")
    out(f"scale_frontier   {reached} {plan.unit}  (stop: {reason}, "
        f"budget {plan.budget} s; steps "
        + " ".join(f"{s}:{t:.3f}s" for s, t in steps) + ")")
    for key, value in sorted(plan.verdicts.items()):
        out(f"verdict {key} {value}")
    for line in run.failures[:10]:
        out(f"FAILED {line}")
    metrics = {name: metric(value, units[name]) for name, value in values.items()}
    metrics["setup_s"] = metric(statistics.median(setups), "s")
    metrics["peak_rss_mb"] = metric(rss_mb, "MB")
    metrics["scale_frontier"] = metric(reached or 0, "size")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_metrics(workloads, tracer):
    out = {}
    for name in workloads.SPANS:
        out[f"{name}.s"] = metric(tracer.seconds.get(name, 0.0), "s")
        out[f"{name}.calls"] = metric(tracer.calls.get(name, 0), "count")
    for module in workloads.MODULES:
        out[f"{module}.errors"] = metric(tracer.errors.get(module, 0), "count")
    for name in workloads.COUNTERS:
        out[name] = metric(tracer.counters.get(name, 0), "count")
    searches = tracer.counters.get("auxiliary.searches", 0)
    found = tracer.counters.get("auxiliary.found", 0)
    out["auxiliary.search_found_ratio"] = metric(found / searches if searches else 0.0,
                                                 "ratio")
    return out


def traced(args, out):
    _, workloads, plan = fresh_setup(args.workload, args.seed)
    Tracer = sys.modules["tracing"].Tracer
    rounds = TRACE_ROUNDS[args.workload]
    plain = run_rounds(plan, Tracer(False), rounds=rounds)
    tracer = Tracer(True)
    spans = run_rounds(plan, tracer, rounds=rounds)
    attempted = len(spans.latencies)
    failed = len(spans.failures)
    same = plain.digests == spans.digests
    plain_rate = (attempted - len(plain.failures)) / sum(plain.latencies)
    traced_rate = (attempted - failed) / sum(spans.latencies)
    metrics = layer_metrics(workloads, tracer)
    metrics["trace.untraced_ops_per_s"] = metric(plain_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = metric(traced_rate, "1/s")
    metrics["trace.overhead_pct"] = metric((plain_rate / traced_rate - 1) * 100, "%")

    out(f"workload {args.workload}  seed {args.seed}  traced rounds {rounds}  "
        f"ops {attempted}  failed {failed}  traced == untraced results: {same}")
    for key, value in metrics.items():
        out(f"{key:48s} {value['value']:.6g} {value['unit']}")
    for line in (plain.failures + spans.failures)[:10]:
        out(f"FAILED {line}")
    return {"correct": same and failed == 0 and not plain.failures,
            "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("lattice", "closure", "homology", "sweep_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "simpchrom", "__init__.py")):
        print(f"no simpchrom sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    try:
        result = (traced if args.trace else untraced)(args, print)
    except Exception:
        traceback.print_exc()
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
