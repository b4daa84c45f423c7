"""Self-test of the benchmark at a tiny shape; exits 1 on any failure.

    python3 perfbench/selftest.py

Runs every workload at 60 users x 40 items, untraced and twice traced, and
checks that no run fails, that the two traced runs report the same counts,
and that the trace accounts for time consistently: self time is never
negative, a boundary's self time equals its total time minus the time of
the boundaries called directly under it, and every span lies inside its
parent span.
"""

from __future__ import annotations

import dataclasses
import sys

import run

SHAPE = (60, 40)
SEED = 7


def trace_problems(tracer) -> list[str]:
    problems = []
    aggs = tracer.aggregates()
    for (name, parent), (count, total, own) in aggs.items():
        if own < 0:
            problems.append(f"negative self time for {name} under {parent}")
    for name, (count, total, own) in tracer.by_name().items():
        children = sum(t for (child, parent), (_, t, _) in aggs.items() if parent == name)
        if own != total - children:
            problems.append(f"{name}: self {own} != total {total} - children {children}")
    spans = {s[0]: s for s in tracer.spans()}
    for span_id, name, start, end, own, parent, _ in spans.values():
        if own < 0 or end < start:
            problems.append(f"span {name} has negative duration or self time")
        if parent is not None:
            _, _, p_start, p_end, _, _, _ = spans[parent]
            if not p_start <= start <= end <= p_end:
                problems.append(f"span {name} is not inside its parent")
    return problems


def main() -> int:
    failures = []
    for name, workload in run.WORKLOADS.items():
        tiny = dataclasses.replace(workload, users=SHAPE[0], items=SHAPE[1])
        untraced = run.run_workload(name, tiny, SEED, 1, trace=False)
        traced = [run.run_workload(name, tiny, SEED, 1, trace=True) for _ in range(2)]
        problems = []
        for outcome in (untraced, *traced):
            problems += outcome.problems
            if outcome.failed:
                problems.append(f"failed_frac {outcome.failed}/{outcome.attempted}")
        counts = [{k: v for k, (v, unit) in o.metrics.items() if unit in ("count", "bytes")}
                  for o in traced]
        if counts[0] != counts[1]:
            problems.append(f"layer counts differ between traced runs: {counts}")
        for outcome in traced:
            for tracer in outcome.tracers:
                problems += trace_problems(tracer)
        status = "PASS" if not problems else "FAIL"
        print(f"{status} {name} at {SHAPE[0]}x{SHAPE[1]}: {untraced.attempted} untraced "
              f"and {sum(o.attempted for o in traced)} traced runs")
        for problem in problems[:10]:
            print(f"  {problem}")
        failures += problems
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
