"""Exact block counts of a seeded drift-key stream, and the structural paths
it takes.

The stream runs over a pool of four queue slots. Most inserts land just
above the source slot's tail, a few dip below it, and the rest of the
operations are catenates and delete_min. At b=4 it reaches every structural
path of cpqa, _bias_dirty_pair included. Its totals pin the cost model:
charging residency by record id instead of by buffer run changes the (16, 4)
figures. A digest of its per-op charges pins where each charge falls, and
the stream also checks the focal records against their first formulation.

Answers are not compared with the oracle: a known fault in _bias_buffer
(a multi-record buffer deque whose head is prepended onto the first dirty
record attrites live elements behind it) makes drift streams diverge from
the reference. validate still holds after every operation.
"""

import hashlib
import random

import pytest

from skyq import cpqa, oracle
from skyq.blockio import IoAccount, IoConfig
from skyq.cli import apply_op
from skyq.pfdeque import PDeque
from skyq.skyline import SkylineIndex

POOL = 4
PATHS = (
    "_cat_small_left",
    "_cat_small_right",
    "_cat_general",
    "_bias_buffer",
    "_bias_dirty_pair",
    "_bias_absorb",
    "_repair_head",
)


def drift_stream(seed, count, warm=60, dip=0.08, cat=0.35, dmin=0.2):
    """count ops: warm inserts per slot, then a mix of inserts, catenates
    and delete_min. Keys follow the reference lists, so the stream does not
    depend on the queues under test."""
    rng = random.Random(seed)
    refs = [[] for _ in range(POOL)]
    used = set()
    top = 0

    def key_for(ref):
        nonlocal top
        while True:
            k = None
            if ref and rng.random() < dip:
                j = max(0, len(ref) - 1 - int(rng.expovariate(1 / 6)))
                lo = ref[j - 1][0] + 1 if j > 0 else ref[0][0] - 500
                if ref[j][0] > lo:
                    k = rng.randrange(lo, ref[j][0])
            else:
                k = (ref[-1][0] if ref else top) + rng.randrange(1, 500)
            if k is not None and k not in used:
                used.add(k)
                top = max(top, k)
                return k

    ops = []

    def emit(op):
        oracle.naive_apply(refs, op)
        ops.append(op)

    for s in range(POOL):
        for _ in range(warm):
            emit(("insert", s, s, key_for(refs[s])))
    while len(ops) < count:
        r = rng.random()
        dst = rng.randrange(POOL)
        if r < cat:
            emit(("catenate", dst, rng.randrange(POOL), rng.randrange(POOL)))
        elif r < cat + dmin:
            s = rng.randrange(POOL)
            if refs[s]:
                emit(("delete_min", dst, s))
        else:
            s = rng.randrange(POOL)
            emit(("insert", dst, s, key_for(refs[s])))
    return ops


def run_stream(B, b, ops, trail=None, shapes=None):
    """Total reads, writes and the largest operation's blocks; each op's
    (reads, writes, last_op_blocks) goes to trail, and its result's buffer
    contents (buffer_shape) to shapes, when one is given."""
    acct = IoAccount(IoConfig(B, 4096 * B, b))
    counters = acct.counters
    qs = [cpqa.empty(acct)] * POOL
    for op in ops:
        r0, w0 = counters.reads, counters.writes
        dst = op[1]
        # the fault can empty a slot early; apply_op pops nothing there
        apply_op(acct, qs, op)
        if trail is not None:
            trail.append((counters.reads - r0, counters.writes - w0, acct.last_op_blocks))
        if shapes is not None:
            shapes.append(buffer_shape(qs[dst]))
        assert cpqa.validate(qs[dst]) == [], op
    return acct.counters.reads, acct.counters.writes, acct.max_op_blocks


def buffer_shape(q):
    """Each deque of q as its records' buffer contents, a record with a child
    followed by the child's shape."""
    return [
        [(rec.buf.tolist(), rec.child and buffer_shape(rec.child)) for rec in dq]
        for dq in (q.C, q.Bq, *q.D)
    ]


@pytest.mark.parametrize(
    "B, b, want",
    [(64, 16, (17, 347, 4)), (16, 4, (48, 431, 5))],
)
def test_drift_stream_fingerprint_and_path_census(monkeypatch, B, b, want):
    seen = set()
    for name in PATHS:
        real = getattr(cpqa, name)

        def spy(*args, _real=real, _name=name):
            seen.add(_name)
            return _real(*args)

        monkeypatch.setattr(cpqa, name, spy)
    assert run_stream(B, b, drift_stream(35, 2000)) == want
    assert seen == set(PATHS)


# Equal totals can hide charges moved between operations; the digest of the
# per-op sequence cannot. Keyed by (B, b), so a test keeps its name when its
# digest moves.
DRIFT_DIGESTS = {
    (64, 16): "b04c2f1a0ed8c5d2",
    (16, 4): "fdd5986b1cc1a12a",
    (8, 2): "6d5767ff49738516",
    (32, 6): "ccf3ecef22382669",
    (8, 1): "389ca869a9972d0a",
    (8, 3): "81d26c0ab9ce6ef5",
    (256, 40): "40be07274075cc09",
}


@pytest.mark.parametrize("B, b", DRIFT_DIGESTS)
def test_drift_stream_per_op_charges(B, b):
    trail = []
    run_stream(B, b, drift_stream(35, 2000), trail)
    assert len(trail) == 2000
    assert hashlib.sha256(repr(trail).encode()).hexdigest()[:16] == DRIFT_DIGESTS[B, b]


def catenate_unit_insert(Q, e):
    """insert_and_attrite in Sundar's form: catenate a unit version of e."""
    e = cpqa._as_element(e)
    account = Q.account
    with account.operation(Q):
        unit = cpqa._one_record(account, cpqa._Buf.of([e]))
        return cpqa._keep(account, cpqa._catenate(account, Q, unit, False))


# Growing the tail record in place must charge and build exactly what
# catenating a unit version does. During op i the trail holds i entries.
@pytest.mark.parametrize("B, b", [(64, 16), (16, 4), (8, 2), (32, 6), (8, 1), (8, 3), (256, 40)])
def test_insert_grows_the_tail_as_the_unit_catenation_does(monkeypatch, B, b):
    ops = drift_stream(35, 2000)
    trail, shapes, units, inserts = [], [], set(), set()
    unit, insert = cpqa._one_record, cpqa.insert_and_attrite
    monkeypatch.setattr(cpqa, "_one_record", lambda account, buf: units.add(len(trail)) or unit(account, buf))
    monkeypatch.setattr(cpqa, "insert_and_attrite", lambda Q, e: inserts.add(len(trail)) or insert(Q, e))
    run_stream(B, b, ops, trail, shapes)
    direct = inserts - units  # the inserts that made no unit version
    want_trail, want_shapes, grew = [], [], set()
    grow = cpqa._grow_tail
    monkeypatch.setattr(cpqa, "_grow_tail", lambda *args: grew.add(len(want_trail)) or grow(*args))
    monkeypatch.setattr(cpqa, "insert_and_attrite", catenate_unit_insert)
    run_stream(B, b, ops, want_trail, want_shapes)
    assert trail == want_trail
    assert shapes == want_shapes
    # exactly the inserts whose unit catenation grows the tail record; at
    # b = 1 the unit is no short run, so none
    assert direct == grew & inserts
    if b == 1:
        assert not direct
    if (B, b) == (64, 16):
        assert len(direct) >= 0.8 * len(inserts), (len(direct), len(inserts))


def focal_reference(Q):
    """The focal records as first written: collect with repeats, then drop
    each record seen before."""
    C, Bq, D = Q.C, Q.Bq, Q.D
    out = []
    if C:
        out.append(C.first())
        if len(C) > 1:
            out.append(C.get(1))
            out.append(C.last())
    if Bq:
        out.append(Bq.first())
    if D:
        dk = D[-1]
        out.append(D[0].first())
        out.append(dk.last())
        if len(dk) > 1:
            out.append(dk.get(len(dk) - 2))
        elif len(D) > 1:
            out.append(D[-2].last())
    seen = set()
    uniq = []
    for rec in out:
        if id(rec) not in seen:
            seen.add(id(rec))
            uniq.append(rec)
    return uniq


def one_element_record(q):
    """A version that is one record of one element, as a unit version is."""
    return len(q.C) == 1 and not q.Bq and not q.D and q.C.first().size == 1


def test_focal_records_match_the_reference(monkeypatch):
    kept = []
    keep = cpqa._keep
    monkeypatch.setattr(cpqa, "_keep", lambda account, q: kept.append(q) or keep(account, q))
    for B, b in [(8, 1), (8, 2), (8, 3), (16, 4), (32, 6), (64, 16)]:
        for seed in (1, 2, 3):
            run_stream(B, b, drift_stream(seed, 2000))
    # every version handed out, and every version reachable from one
    seen = set()
    shaped = 0
    repeats = set()
    stack = kept
    while stack:
        q = stack.pop()
        if id(q) in seen:
            continue
        seen.add(id(q))
        want = [id(rec) for rec in focal_reference(q)]
        assert [id(rec) for rec in cpqa._focal_records(q)] == want, cpqa.dump(q)
        # the shapes in which one record fills two focal positions
        D = q.D
        if len(q.C) == 2:
            repeats.add("C")
        if len(D) == 1 and len(D[0]) <= 2:
            repeats.add("one dirty deque")
        if len(D) == 2 and len(D[0]) == 1 and len(D[1]) == 1:
            repeats.add("D[-2] is D[0]")
        if not one_element_record(q):
            shaped += 1
        stack.extend(rec.child for dq in (q.C, q.Bq, *D) for rec in dq if rec.child is not None)
    # inserts that grow the tail in place hand out no unit version, so count
    # only the versions that are more than one record of one element
    assert shaped >= 27_000
    assert repeats == {"C", "one dirty deque", "D[-2] is D[0]"}


def eject_tail_reference(C, Bq, D):
    """Remove the physically last record: (C, Bq, D, kind of its deque)."""
    if D:
        rest = D[-1].eject()[1]
        return C, Bq, D[:-1] + (rest,) if rest else D[:-1], "D"
    if Bq:
        return C, Bq.eject()[1], D, "B"
    return C.eject()[1], Bq, D, "C"


def inject_tail_reference(C, Bq, D, slot, rec):
    """Append rec to the tail of the deque kind an ejection hit."""
    if slot == "C":
        return C.inject(rec), Bq, D
    if slot == "B":
        return C, Bq.inject(rec), D
    if D:
        return C, Bq, D[:-1] + (D[-1].inject(rec),)
    return C, Bq, (PDeque.of([rec]),)


def test_replace_tail_matches_eject_then_inject(monkeypatch):
    kept = []
    keep = cpqa._keep
    monkeypatch.setattr(cpqa, "_keep", lambda account, q: kept.append(q) or keep(account, q))
    for B, b in [(8, 1), (8, 2), (8, 3), (16, 4), (32, 6), (64, 16)]:
        for seed in (1, 2, 3):
            run_stream(B, b, drift_stream(seed, 2000))
    rec = cpqa.Record(cpqa._Buf.of([cpqa.Element(0)]))
    seen = set()
    shaped = emptied = 0
    for q in kept:
        if id(q) in seen or q.cached_min is None:
            continue
        seen.add(id(q))
        C, Bq, D, slot = eject_tail_reference(q.C, q.Bq, q.D)
        want = inject_tail_reference(C, Bq, D, slot, rec)
        got = cpqa._replace_tail(q.C, q.Bq, q.D, rec)
        ids = lambda deques: [[id(r) for r in dq] for dq in deques]  # noqa: E731
        assert ids([got[0], got[1], *got[2]]) == ids([want[0], want[1], *want[2]]), cpqa.dump(q)
        # the ejection empties the last dirty deque, and rec lands in the one before
        emptied += len(q.D) > 1 and len(q.D[-1]) == 1
        shaped += not one_element_record(q)
    # as in test_focal_records_match_the_reference
    assert shaped >= 27_000
    assert emptied > 0


def _traced(idx, trail, call):
    """Run one index operation; its (reads, writes, last_op_blocks) goes to
    trail when one is given."""
    counters = idx.account.counters
    r0, w0 = counters.reads, counters.writes
    out = call()
    if trail is not None:
        trail.append((counters.reads - r0, counters.writes - w0, idx.account.last_op_blocks))
    return out


def skyline_run(B, epsilon, trail=None):
    """Reads and writes of a 3,000-point build followed by 40
    insert/delete/query3 rounds; each operation's charges go to trail when
    one is given."""
    rng = random.Random(5)
    xs = rng.sample(range(30_000), 3040)
    ys = rng.sample(range(30_000), 3040)
    idx = SkylineIndex(list(zip(xs[:3000], ys[:3000])), B=B, epsilon=epsilon)
    for i in range(40):
        _traced(idx, trail, lambda: idx.insert((xs[3000 + i], ys[3000 + i])))
        _traced(idx, trail, lambda: idx.delete((xs[i], ys[i])))
        lo = rng.randrange(30_000)
        ym = rng.randrange(30_000)
        _traced(idx, trail, lambda: idx.query3(lo, lo + 2000, ym))
    return idx.account.counters.reads, idx.account.counters.writes


def test_skyline_run_reads():
    assert skyline_run(16, 0.5)[0] == 2292


# b = 16 and b = 40: leaves long enough that a leaf's staircase is more
# than a few points
@pytest.mark.parametrize("B, epsilon, want", [(64, 1 / 3, 1656), (256, 1 / 3, 1176)])
def test_skyline_run_reads_at_more_block_sizes(B, epsilon, want):
    assert skyline_run(B, epsilon)[0] == want


def anticorrelated_run(B, epsilon, trail=None):
    """A 3,000-point build whose heights fall with x (noise up to 100), then
    40 insert/delete/query3 rounds and maxima(); each operation's charges go
    to trail when one is given. Returns the reads, the writes, and whether
    every answer and the final maxima() matched the oracle."""
    rng = random.Random(5)
    xs = rng.sample(range(30_000), 3040)
    pts = [(x, 30_000 - x + rng.randrange(-100, 101)) for x in xs]
    live = set(pts[:3000])
    idx = SkylineIndex(pts[:3000], B=B, epsilon=epsilon)
    right = True
    for i in range(40):
        _traced(idx, trail, lambda: idx.insert(pts[3000 + i]))
        live.add(pts[3000 + i])
        _traced(idx, trail, lambda: idx.delete(pts[i]))
        live.discard(pts[i])
        lo = rng.randrange(30_000)
        ym = 30_000 - lo - rng.randrange(2500)
        got = _traced(idx, trail, lambda: idx.query3(lo, lo + 2000, ym))
        right &= got == oracle.naive_query3(sorted(live), lo, lo + 2000, ym)
    right &= _traced(idx, trail, idx.maxima) == oracle.naive_maxima(sorted(live))
    return idx.account.counters.reads, idx.account.counters.writes, right


# Staircases that fall with x leave node queues with dirty deques, so the
# index reaches bias; the uniform runs above never do. Their staircases
# also fill records of b words and more, which index operations write back
# (277 of the writes are the 121 timed operations', the rest the build's).
def test_skyline_run_reads_anticorrelated(monkeypatch):
    calls = []
    bias = cpqa.bias
    monkeypatch.setattr(cpqa, "bias", lambda q: calls.append(q) or bias(q))
    assert anticorrelated_run(64, 1 / 3) == (2109, 377, True)
    assert calls


# The totals above can hide charges moved between an update and the query
# after it; these digests of the per-op sequence cannot. At the benchmark's
# (64, 1/3), b = 16, and no record this uniform run displaces is b words
# long, so it writes nothing back.
def test_skyline_run_per_op_charges():
    trail = []
    assert skyline_run(64, 1 / 3, trail)[1] == 0
    assert len(trail) == 120
    assert hashlib.sha256(repr(trail).encode()).hexdigest()[:16] == "a6cabf58594b4a1c"


def test_anticorrelated_run_per_op_charges():
    trail = []
    anticorrelated_run(16, 1 / 2, trail)
    assert len(trail) == 121
    assert hashlib.sha256(repr(trail).encode()).hexdigest()[:16] == "15beb7e1ffa4babf"


# bias is one step. That each step makes progress, raising delta by at least
# one or leaving the version all clean, is checked here rather than by a
# repeat loop at run time. cpqa's own calls go through the module global.
def test_every_bias_step_makes_progress(monkeypatch):
    calls = []
    bias = cpqa.bias

    def checked(q):
        out = bias(q)
        if q.Bq or q.D:
            calls.append(id(q))
            assert not (out.Bq or out.D) or cpqa.delta(out) > cpqa.delta(q), cpqa.dump(q)
        return out

    monkeypatch.setattr(cpqa, "bias", checked)
    # the digests' seven pairs at seed 35, then seeds 1-3 as in
    # test_focal_records_match_the_reference
    for B, b in [(64, 16), (16, 4), (8, 2), (32, 6), (8, 1), (8, 3), (256, 40)]:
        run_stream(B, b, drift_stream(35, 2000))
    for B, b in [(8, 1), (8, 2), (8, 3), (16, 4), (32, 6), (64, 16)]:
        for seed in (1, 2, 3):
            run_stream(B, b, drift_stream(seed, 2000))
    drift = len(calls)
    anticorrelated_run(64, 1 / 3)
    anticorrelated_run(16, 1 / 2)
    assert (drift, len(calls) - drift) == (9049, 2387)
