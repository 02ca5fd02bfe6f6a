"""Seeded benchmark for skyq: run one workload and print its metrics.

    python3 benchmark/run.py --workload skyline-churn --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its src/
directory. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. A detail
file (and, for a traced run, the span file) goes to benchmark/out/.
Exit code 0 on a completed run, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("skyline-churn", "queue-drift")


def load_package() -> None:
    """Import skyq from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "skyq", "__init__.py")):
        raise SystemExit("skyq sources not found under %s" % SRC)
    sys.path.insert(0, SRC)
    import skyq

    if os.path.dirname(os.path.dirname(os.path.abspath(skyq.__file__))) != SRC:
        raise SystemExit("skyq was imported from %s, not from %s" % (skyq.__file__, SRC))


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None, out_dir: str | None = OUT) -> dict:
    """Run one workload; returns the result object and writes the detail files."""
    import workloads

    wl = workloads.WORKLOADS[workload](seed, **(sizes or {}))
    loop = workloads.Loop(wl)
    detail: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    # a traced run times its first 30% untraced, to give the tracing overhead
    detail["setup_s_all"] = workloads.measure(wl, loop, seconds * 0.3 if trace else seconds)
    if trace:
        from tracing import Tracer

        untraced = loop.attempted / (loop.timed_ns / 1e9)
        tracer = Tracer(wl.account)
        tracer.install()
        try:
            ops, ns = loop.run(seconds * 0.7, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(untraced, ops / (ns / 1e9))
        detail["spans_recorded"] = len(tracer.spans)
        detail["spans_total"] = tracer.next_span
        detail["per_name"] = {k: dict(zip(("calls", "self_ns", "self_reads", "self_writes"), v)) for k, v in tracer.by_name().items()}
    else:
        metrics = workloads.end_to_end(loop, statistics.median(detail["setup_s_all"]))
    problem = wl.final_problem()
    if problem is not None:
        loop.correct = False
        loop.problems.append("final: " + problem)
    result = {
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail["all_ops_per_s"] = loop.attempted / (loop.timed_ns / 1e9)
    detail.update(rounds=loop.rounds, problems=loop.problems, per_kind=workloads.per_kind(loop), first_round=loop.first_round, result=result)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (workload, seed, int(trace)))
        if trace:
            tracer.write_spans(stem + "-spans.csv")
        with open(stem + ".json", "w") as f:
            json.dump(detail, f, indent=1)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        load_package()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
