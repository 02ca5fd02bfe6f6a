"""Command line front end: fuzz the queues against the reference lists,
benchmark the skyline index, or hunt for structural violations.

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


def run_equivalence(
    seed: int,
    count: int,
    pool: int = 64,
    *,
    B: int = 64,
    b: int | None = None,
    validate_every: int = 0,
):
    """Drive identical operation streams through the queues and the lists.

    Returns a dict with ok, the first mismatch message (if any), operation
    and violation counts, and the account counter snapshot.
    """
    if b is None:
        b = max(1, round(B ** (2 / 3)))
    account = IoAccount(IoConfig(B, 4096 * B, b))
    qs = [cpqa.empty(account) for _ in range(pool)]
    refs: list[list] = [[] for _ in range(pool)]
    nops = 0
    mismatch = None
    violations: list[str] = []

    def fail(op, detail):
        return "op %d %r: %s" % (nops, op, detail)

    for op in oracle.gen_ops(seed, count, pool):
        nops += 1
        name = op[0]
        if name == "singleton":
            _, dst, key = op
            qs[dst] = cpqa.singleton(account, key)
            refs[dst] = [(key, None)]
        elif name == "insert":
            _, dst, src, key = op
            qs[dst] = cpqa.insert_and_attrite(qs[src], key)
            refs[dst] = oracle.naive_insert(refs[src], key)
        elif name == "catenate":
            _, dst, a, bb = op
            qs[dst] = cpqa.catenate_and_attrite(qs[a], qs[bb])
            refs[dst] = oracle.naive_catenate_and_attrite(refs[a], refs[bb])
        elif name == "delete_min":
            _, dst, src = op
            if not refs[src]:
                if qs[src].cached_min is not None:
                    mismatch = fail(op, "queue nonempty, reference empty")
                    break
                continue
            el, rest = cpqa.delete_min(qs[src])
            want, ref_rest = oracle.naive_delete_min(refs[src])
            if (el.key, el.payload) != want:
                mismatch = fail(op, "delete_min %r != %r" % ((el.key, el.payload), want))
                break
            qs[dst] = rest
            refs[dst] = ref_rest
        elif name == "find_min":
            _, src = op
            if not refs[src]:
                if qs[src].cached_min is not None:
                    mismatch = fail(op, "queue nonempty, reference empty")
                    break
                continue
            el = cpqa.find_min(qs[src])
            if (el.key, el.payload) != refs[src][0]:
                mismatch = fail(op, "find_min %r != %r" % ((el.key, el.payload), refs[src][0]))
                break
        else:  # drain
            _, src = op
            got = [(e.key, e.payload) for e in cpqa.drain(qs[src])]
            if got != refs[src]:
                mismatch = fail(op, "drain %d elements != %d" % (len(got), len(refs[src])))
                break
        if validate_every and nops % validate_every == 0:
            tgt = op[1] if len(op) > 1 else 0
            bad = cpqa.validate(qs[tgt])
            if bad:
                violations.extend("op %d: %s" % (nops, msg) for msg in bad)
                break

    if mismatch is None and not violations:
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
        "counters": account.snapshot(),
        "account": account,
        "queues": qs,
    }


def _cmd_run(args) -> int:
    res = run_equivalence(args.seed, args.ops, args.pool, B=args.B, b=args.b)
    c = res["counters"]
    print("ops=%d %s" % (res["ops"], c.to_text()))
    if res["ok"]:
        print("ok")
        return 0
    print("MISMATCH: %s" % res["mismatch"])
    return 2


def _cmd_validate(args) -> int:
    every = args.every if args.every > 0 else max(1, args.ops // 256)
    res = run_equivalence(args.seed, args.ops, args.pool, B=args.B, b=args.b, validate_every=every)
    if res["violations"]:
        for v in res["violations"]:
            print(v)
        return 3
    if not res["ok"]:
        print("MISMATCH: %s" % res["mismatch"])
        return 2
    print("ops=%d no violations" % res["ops"])
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
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("validate", help="fuzz with periodic structural checks")
    p.add_argument("--ops", type=int, default=10000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--pool", type=int, default=64)
    p.add_argument("--B", type=int, default=64)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--every", type=int, default=0)
    p.set_defaults(fn=_cmd_validate)

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
