"""Acceptance gate: the behaviors the package promises, checked end to end.

Each test covers one promised behavior at its stated tolerance and prints a
single PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to see
them). The unit suites cover the same ground at small scale; this file runs
the full-size workloads.
"""

import math
import os
import random
import subprocess
import sys
import time

import skyq
from skyq import cpqa
from skyq.blockio import IoAccount, IoConfig
from skyq.cli import run_equivalence
from skyq.cpqa import Element
from skyq.oracle import naive_query3
from skyq.skyline import SkylineIndex


def _line(num, slug, ok, detail):
    print("[acceptance] %d %s: %s (%s)" % (num, slug, "PASS" if ok else "FAIL", detail))


# -- 1: queue layer equals the reference model under mixed workloads --------


def test_1_queue_reference_equivalence():
    seeds = list(range(10))
    slowest = 0.0
    ok = True
    detail = ""
    for seed in seeds:
        t0 = time.monotonic()
        r = run_equivalence(seed, 100_000, 64, B=64, b=16, validate_every=1)
        dt = time.monotonic() - t0
        slowest = max(slowest, dt)
        if not r["ok"] or r["violations"] or dt >= 60.0:
            ok = False
            detail = "seed %d: mismatch=%r violations=%d time=%.1fs" % (
                seed, r["mismatch"], len(r["violations"]), dt)
            break
    if ok:
        detail = "10 seeds x 100000 ops, validate after every op, slowest %.1fs" % slowest
    _line(1, "queue-vs-reference-equivalence", ok, detail)
    assert ok, detail


# -- 2: skyline index equals the reference on queries mixed with updates ----


def test_2_skyline_reference_equivalence():
    t0 = time.monotonic()
    rng = random.Random(2026)
    n = 10_000
    xs = rng.sample(range(50 * n), n)
    live = {}
    for x in xs:
        live[x] = (x, rng.randrange(50 * n))
    idx = SkylineIndex(live.values(), B=64, epsilon=1 / 3)
    fresh = iter(rng.sample(range(50 * n, 100 * n), 2000))
    checked = 0
    ok = True
    detail = ""
    for round_ in range(1000):
        # one update...
        if rng.random() < 0.5 or not live:
            x = next(fresh)
            p = (x, rng.randrange(50 * n))
            idx.insert(p)
            live[x] = p
        else:
            x = rng.choice(list(live))
            assert idx.delete(live.pop(x))
        # ...then one query, order compared exactly
        lo = rng.randrange(100 * n)
        hi = lo + rng.randrange(1, 100 * n - lo + 1)
        ym = rng.randrange(50 * n)
        got = idx.query3(lo, hi, ym)
        want = naive_query3(sorted(live.values()), lo, hi, ym)
        checked += 1
        if got != want:
            ok = False
            detail = "round %d: lo=%d hi=%d ym=%d got %d pts, want %d" % (
                round_, lo, hi, ym, len(got), len(want))
            break
    dt = time.monotonic() - t0
    if ok and dt >= 120.0:
        ok = False
        detail = "too slow: %.1fs" % dt
    if ok:
        detail = "%d points, %d queries + %d updates, exact order match, %.1fs" % (
            n, checked, 1000, dt)
    _line(2, "skyline-vs-reference-equivalence", ok, detail)
    assert ok, detail


# -- 3: worst single-operation charge is one flat constant across scales ----


def test_3_worst_case_charge_constant():
    worst = {}
    for seed in range(10):
        for n in (1_000, 100_000):
            r = run_equivalence(seed, n, 64, B=64, b=16)
            assert r["ok"], (seed, n, r["mismatch"])
            worst[(seed, n)] = r["account"].max_op_blocks
    constants = {worst[(s, 1_000)] for s in range(10)} | {
        worst[(s, 100_000)] for s in range(10)
    }
    ok = len(constants) == 1
    per_seed = all(worst[(s, 1_000)] == worst[(s, 100_000)] for s in range(10))
    ok = ok and per_seed
    c = sorted(constants)
    detail = "C_wc=%s over 10 seeds at both 10^3 and 10^5 ops (b=16, B=64)" % c
    _line(3, "worst-case-charge-constant", ok, detail)
    assert ok, detail


# -- 4: total charges scale like n/b ----------------------------------------


def _epoch_stream_total(b, n, B=128):
    """n insert/catenate ops; each epoch: b rising inserts then one killing
    catenate from below, so exactly one b-word record dies per epoch."""
    acct = IoAccount(IoConfig(B=B, M=1 << 24, b=b))
    A = cpqa.empty(acct)
    ops = 0
    stride = b + 4
    base = n * stride
    s0 = acct.snapshot()
    while ops < n:
        take = min(b, n - ops)
        for i in range(take):
            A = cpqa.insert_and_attrite(A, Element(base + 1 + i))
            ops += 1
        if ops >= n:
            break
        A = cpqa.catenate_and_attrite(A, cpqa.singleton(acct, Element(base)))
        ops += 1
        base -= stride
    s1 = acct.snapshot()
    assert cpqa.validate(A) == []
    return (s1.reads - s0.reads) + (s1.writes - s0.writes)


def test_4_amortized_scaling_in_buffer_parameter():
    slopes = {}
    for b in (8, 32, 128):
        t1 = _epoch_stream_total(b, 50_000)
        t2 = _epoch_stream_total(b, 100_000)
        slopes[b] = (t2 - t1) / 50_000.0
    r1 = slopes[8] / slopes[32]
    r2 = slopes[32] / slopes[128]
    ok = 2.0 <= r1 <= 8.0 and 2.0 <= r2 <= 8.0
    detail = "slope ratios b=8/32: %.2f, b=32/128: %.2f (want [2, 8], ideal 4)" % (r1, r2)
    _line(4, "amortized-charge-scales-inversely-with-b", ok, detail)
    assert ok, detail


# -- 5: catenating prepared, pinned queues reads nothing --------------------


def test_5_prepared_concat_is_read_free():
    acct = IoAccount(IoConfig(B=64, M=1 << 22, b=16))
    queues = []
    pinned = []
    for i in range(8):
        q = cpqa.empty(acct)
        for k in range(i * 1000, i * 1000 + 300):
            q = cpqa.insert_and_attrite(q, Element(k))
        while (q.Bq or q.D) and cpqa.delta(q) < 2:
            q = cpqa.bias(q)
        assert cpqa.delta(q) >= 2
        for rec in cpqa.critical_records(q):
            if not acct.is_pinned(rec.run):
                acct.register(rec.run, rec.size)
                acct.pin(rec.run)
                pinned.append(rec.run)
        queues.append(q)
    s0 = acct.snapshot()
    acc = cpqa.concat_sequence(queues)
    s1 = acct.snapshot()
    for run in pinned:
        acct.unpin(run)
    reads = s1.reads - s0.reads
    ok = reads == 0 and cpqa.validate(acc) == []
    assert cpqa.size_elements(acc) == 2400
    detail = "8 queues x 300 keys, reads=%d writes=%d" % (reads, s1.writes - s0.writes)
    _line(5, "prepared-concat-zero-unpinned-reads", ok, detail)
    assert ok, detail


# -- 6: query charge grows with log(n) plus reported size -------------------


def _query_cost_means(n, nq=120):
    rng = random.Random(5)
    xs = rng.sample(range(20 * n), n)
    ys = rng.sample(range(20 * n), n)
    idx = SkylineIndex(zip(xs, ys), B=64, epsilon=1 / 3)
    acct = idx.account
    total = 0.0
    for _ in range(nq):
        lo = rng.randrange(20 * n)
        hi = lo + rng.randrange(1, 20 * n - lo + 1)
        ym = rng.randrange(20 * n)
        s0 = acct.snapshot()
        out = idx.query3(lo, hi, ym)
        s1 = acct.snapshot()
        blocks = (s1.reads - s0.reads) + (s1.writes - s0.writes)
        total += blocks - len(out) / 16.0
    return total / nq


def test_6_query_charge_shape():
    ns = (1_000, 10_000, 100_000)
    pts = [(math.log(n, 8), _query_cost_means(n)) for n in ns]
    # pooled least-squares line through the three (log_8 n, mean) points
    xbar = sum(x for x, _ in pts) / 3
    ybar = sum(y for _, y in pts) / 3
    c1 = sum((x - xbar) * (y - ybar) for x, y in pts) / sum((x - xbar) ** 2 for x, _ in pts)
    c0 = ybar - c1 * xbar
    within = all(abs(c1 * x + c0 - y) <= 0.5 * abs(y) for x, y in pts)
    # the pair fits must agree on both coefficients within +-50%
    (x1, y1), (x2, y2), (x3, y3) = pts
    c1a = (y2 - y1) / (x2 - x1)
    c1b = (y3 - y2) / (x3 - x2)
    c0a = y1 - c1a * x1
    c0b = y2 - c1b * x2
    stable = (
        abs(c1a - c1b) <= 0.5 * max(abs(c1a), abs(c1b))
        and abs(c0a - c0b) <= 0.5 * max(abs(c0a), abs(c0b))
    )
    ok = within and stable
    detail = "fit blocks ~ %.1f*log8(n) + t/16 + %.1f; pair slopes %.1f/%.1f" % (
        c1, c0, c1a, c1b)
    _line(6, "query-charge-fits-log-plus-output", ok, detail)
    assert ok, detail


# -- 7: queries never mutate; insert-then-delete restores every node --------


def _walk(node, out):
    out.append(node)
    if not node.leaf:
        for ch in node.items:
            _walk(ch, out)
    return out


def test_7_persistence_of_node_versions():
    rng = random.Random(17)
    pts = [(x, rng.randrange(100_000)) for x in rng.sample(range(1_000_000), 2000)]
    idx = SkylineIndex(pts, B=64, epsilon=1 / 3)

    # a query burst must leave every node's version handle untouched
    nodes = _walk(idx.root, [])
    versions_before = [nd.queue for nd in nodes]
    queries = []
    for _ in range(100):
        lo = rng.randrange(1_000_000)
        hi = lo + rng.randrange(1, 1_000_000 - lo + 1)
        queries.append((lo, hi, rng.randrange(100_000)))
    run1 = [idx.query3(*q) for q in queries]
    versions_after = [nd.queue for nd in _walk(idx.root, [])]
    run2 = [idx.query3(*q) for q in queries]
    # both lists hold their versions, so equal ids are the same versions
    handles_ok = list(map(id, versions_before)) == list(map(id, versions_after))
    repeat_ok = repr(run1) == repr(run2)

    # insert-then-delete restores what every node drains to
    victim = pts[777]
    assert idx.delete(victim)
    nodes = _walk(idx.root, [])
    with idx.account.suspended():
        drains_before = [cpqa.drain(nd.queue) for nd in nodes]
    idx.insert((victim[0], 54_321))
    assert idx.delete((victim[0], 54_321))
    nodes_after = _walk(idx.root, [])
    with idx.account.suspended():
        drains_after = [cpqa.drain(nd.queue) for nd in nodes_after]
    restore_ok = len(nodes_after) == len(nodes) and drains_before == drains_after

    ok = handles_ok and repeat_ok and restore_ok
    detail = "handles=%s repeats=%s restore=%s over %d nodes" % (
        handles_ok, repeat_ok, restore_ok, len(nodes))
    _line(7, "persistent-versions-and-restoration", ok, detail)
    assert ok, detail


# -- 8: record count stays linear in live size over b -----------------------


def test_8_space_shape():
    worst = 0.0
    for b in (8, 32):
        acct = IoAccount(IoConfig(B=64, M=1 << 22, b=b))
        q = cpqa.empty(acct)
        n = 5000
        for k in range(n):
            q = cpqa.insert_and_attrite(q, Element(k))
        for m in (0, 1000, 4999):
            qq = q
            for _ in range(m):
                _, qq = cpqa.delete_min(qq)
            recs = cpqa.total_records(qq)
            bound = 6.0 * ((n - m) / b + 1.0)
            worst = max(worst, recs / bound)
            if recs > bound:
                detail = "b=%d m=%d: %d records > %.1f" % (b, m, recs, bound)
                _line(8, "record-count-linear-in-live-size", False, detail)
                assert False, detail
    detail = "records <= 6*((n-m)/b + 1) at b in {8,32}, m in {0,1000,4999}; worst %.0f%%" % (
        100 * worst)
    _line(8, "record-count-linear-in-live-size", True, detail)


# -- 9: the CLI is bit-for-bit deterministic under a fixed seed -------------


def _run_cli(argv):
    # the child imports the same skyq sources as this process
    src = os.path.dirname(os.path.dirname(os.path.abspath(skyq.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-m", "skyq.cli", *argv],
        capture_output=True,
        timeout=300,
        env=env,
    )


def test_9_cli_determinism():
    run_argv = ["run", "--seed", "42", "--ops", "20000", "--pool", "16"]
    bench_argv = ["bench", "--n", "2000", "--queries", "200", "--updates", "100", "--seed", "7"]
    ra, rb = _run_cli(run_argv), _run_cli(run_argv)
    ba, bb = _run_cli(bench_argv), _run_cli(bench_argv)
    run_ok = ra.returncode == rb.returncode == 0 and ra.stdout == rb.stdout and ra.stderr == rb.stderr
    bench_ok = ba.returncode == bb.returncode == 0 and ba.stdout == bb.stdout and ba.stderr == bb.stderr
    ok = run_ok and bench_ok
    detail = "run and bench byte-identical across consecutive invocations"
    if not ok:
        detail = "run_ok=%s bench_ok=%s" % (run_ok, bench_ok)
    _line(9, "cli-determinism", ok, detail)
    assert ok, detail
