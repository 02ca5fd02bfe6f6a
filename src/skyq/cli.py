"""Command line front end: fuzz the queues against the reference lists, with
structural checks every N operations if asked, or benchmark the skyline
index.

Exit codes: 0 clean, 2 equivalence mismatch, 3 structural violation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import cpqa, oracle
from .blockio import IoAccount, IoConfig
from .skyline import SkylineIndex


def apply_op(account: IoAccount, qs: list, op):
    """Run one oracle.gen_ops operation on the queue slots qs, replacing the
    slot it writes, and return its answer as oracle.naive_apply does on the
    reference lists: a (key, payload) pair for find_min and delete_min, None
    on an empty slot (which delete_min leaves as it is), the live pairs for
    drain, and None for the rest."""
    kind = op[0]
    if kind == "singleton":
        qs[op[1]] = cpqa.singleton(account, op[2])
    elif kind == "insert":
        qs[op[1]] = cpqa.insert_and_attrite(qs[op[2]], op[3])
    elif kind == "catenate":
        qs[op[1]] = cpqa.catenate_and_attrite(qs[op[2]], qs[op[3]])
    elif kind == "delete_min":
        if qs[op[2]].cached_min is None:
            return None
        el, qs[op[1]] = cpqa.delete_min(qs[op[2]])
        return el.key, el.payload
    elif kind == "find_min":
        if qs[op[1]].cached_min is None:
            return None
        el = cpqa.find_min(qs[op[1]])
        return el.key, el.payload
    else:  # drain
        return [(e.key, e.payload) for e in cpqa.drain(qs[op[1]])]
    return None


def run_equivalence(
    seed: int,
    count: int,
    pool: int = 64,
    *,
    B: int = 64,
    b: int | None = None,
    validate_every: int = 0,
):
    """Drive one operation stream through the queues and the lists, compare
    each answer, validate the op's target slot every validate_every ops (0:
    never) and compare the final slots.

    Returns a dict with ok, the first mismatch message (if any), the
    violations, the number of operations run and the account.
    """
    if b is None:
        b = max(1, round(B ** (2 / 3)))
    account = IoAccount(IoConfig(B, 4096 * B, b))
    qs = [cpqa.empty(account) for _ in range(pool)]
    refs: list[list] = [[] for _ in range(pool)]
    nops = 0
    mismatch = None
    violations: list[str] = []
    for nops, op in enumerate(oracle.gen_ops(seed, count, pool), 1):
        got = apply_op(account, qs, op)
        want = oracle.naive_apply(refs, op)
        if got != want:
            mismatch = "op %d %r: %r != %r" % (nops, op, got, want)
            break
        if validate_every and nops % validate_every == 0:
            violations = ["op %d: %s" % (nops, msg) for msg in cpqa.validate(qs[op[1]])]
            if violations:
                break
    else:
        for i, q in enumerate(qs):
            got = [(e.key, e.payload) for e in cpqa.logical_elements(q)]
            if got != refs[i]:
                mismatch = "final state of slot %d: %d elements != %d" % (i, len(got), len(refs[i]))
                break
    return {
        "ok": mismatch is None and not violations,
        "mismatch": mismatch,
        "violations": violations,
        "ops": nops,
        "account": account,
    }


def _cmd_run(args) -> int:
    res = run_equivalence(args.seed, args.ops, args.pool, B=args.B, b=args.b, validate_every=args.every)
    print("ops=%d %s" % (res["ops"], res["account"].counters.to_text()))
    if res["violations"]:
        for v in res["violations"]:
            print(v)
        return 3
    if res["mismatch"] is not None:
        print("MISMATCH: %s" % res["mismatch"])
        return 2
    print("ok")
    return 0


def _cmd_bench(args) -> int:
    rng = random.Random(args.seed)
    n = args.n
    xs = rng.sample(range(10 * n + 10), n)
    ys = rng.sample(range(10 * n + 10), n)
    points = list(zip(xs, ys))
    idx = SkylineIndex(points, B=args.B, epsilon=args.epsilon)
    acct = idx.account

    qcost = 0
    for _ in range(args.queries):
        lo = rng.randrange(10 * n + 10)
        hi = lo + rng.randrange(1, 10 * n + 10 - lo + 1)
        ymin = rng.randrange(10 * n + 10)
        idx.query3(lo, hi, ymin)
        qcost += acct.last_op_blocks

    ucost = 0
    updates = args.updates
    fresh = [(10 * n + 11 + i, 10 * n + 11 + i) for i in range(updates)]
    for p in fresh:
        idx.insert(p)
        ucost += acct.last_op_blocks

    c = acct.snapshot()
    out = {
        "n": n,
        "b": idx.b,
        "B": idx.B,
        "epsilon": args.epsilon,
        "ops": args.queries + updates,
        "reads": c.reads,
        "writes": c.writes,
        "mean_query_blocks": qcost / args.queries if args.queries else 0.0,
        "mean_update_blocks": ucost / updates if updates else 0.0,
    }
    print(json.dumps(out))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="skyq", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="fuzz the queues against the reference lists")
    p.add_argument("--ops", type=int, default=10000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--pool", type=int, default=64)
    p.add_argument("--B", type=int, default=64)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--every", type=int, default=0, help="validate every N ops (0: never)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("bench", help="cost figures for the skyline index")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--queries", type=int, default=200)
    p.add_argument("--updates", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--B", type=int, default=64)
    p.add_argument("--epsilon", type=float, default=0.3333)
    p.set_defaults(fn=_cmd_bench)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
