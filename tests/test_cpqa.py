"""Unit tests for the catenable attrition queue layer.

Hand cases freeze small behaviors; property tests drive random operation
sequences against the list reference model with structural validation after
every step.
"""

import contextlib
import itertools
import math
import random
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyq import cpqa, oracle
from skyq.blockio import IoAccount, IoConfig
from skyq.cpqa import (
    ConfigMismatchError,
    Element,
    EmptyQueueError,
    PreconditionViolatedError,
    Queue,
)
from skyq.pfdeque import PDeque
from test_cost_fingerprint import drift_stream, run_stream


def mk_account(b=4, B=64, M=1 << 20):
    return IoAccount(IoConfig(B=B, M=M, b=b))


def build(acct, ks):
    q = cpqa.empty(acct)
    for k in ks:
        q = cpqa.insert_and_attrite(q, Element(k))
    return q


def drained_keys(q):
    with q.account.suspended():
        return [e.key for e in cpqa.drain(q)]


def test_empty_queue():
    acct = mk_account()
    q = cpqa.empty(acct)
    assert cpqa.delta(q) == 1
    assert cpqa.size_elements(q) == 0
    assert cpqa.logical_elements(q) == []
    assert cpqa.drain(q) == []
    assert cpqa.validate(q) == []
    with pytest.raises(EmptyQueueError):
        cpqa.find_min(q)
    with pytest.raises(EmptyQueueError):
        cpqa.delete_min(q)


def test_singleton():
    acct = mk_account()
    q = cpqa.singleton(acct, Element(5, "p"))
    assert cpqa.find_min(q) == Element(5, "p")
    assert cpqa.delta(q) == 2
    assert cpqa.size_elements(q) == 1
    assert cpqa.validate(q) == []


def weak_orders(n):
    """Every key sequence of length n up to relabelling in order, ties included."""
    for keys in itertools.product(range(n), repeat=n):
        if set(keys) == set(range(max(keys, default=-1) + 1)):
            yield keys


def fold(acct, els):
    q = cpqa.empty(acct)
    for e in els:
        q = cpqa.insert_and_attrite(q, e)
    return q


def built_and_charged(b, keys, make):
    """The version make builds from keys inside an operation, the blocks
    that call charged, and the blocks a charged drain of it charges."""
    acct = mk_account(b=b, B=b)
    with acct.operation():
        q = make(acct, [Element(k, i) for i, k in enumerate(keys)])
    built = (acct.counters.reads, acct.counters.writes)
    cpqa.drain(q)
    return q, built, (acct.counters.reads, acct.counters.writes)


@pytest.mark.parametrize("b", range(1, 7))
def test_from_run_matches_the_insert_fold(b):
    for n in range(b + 1):
        for keys in weak_orders(n):
            got, got_built, got_all = built_and_charged(b, keys, cpqa.from_run)
            want, want_built, want_all = built_and_charged(b, keys, fold)
            assert cpqa.logical_elements(got) == cpqa.logical_elements(want), keys
            assert got.cached_min == want.cached_min, keys
            assert [r.size for r in cpqa.critical_records(got)] == [
                r.size for r in cpqa.critical_records(want)
            ], keys
            assert (got_built, got_all) == (want_built, want_all), keys
            assert cpqa.validate(got) == []
            if n:
                assert len(got.C) == 1 and got.C.first().child is None, keys
                assert not got.Bq and not got.D, keys
            else:
                assert cpqa.record_count(got) == 0


def test_from_run_refuses_more_than_b_elements():
    acct = mk_account(b=4)
    with pytest.raises(ValueError):
        cpqa.from_run(acct, range(5))


def test_insert_attrites_tail():
    acct = mk_account()
    q = build(acct, [3, 7, 9])
    assert drained_keys(q) == [3, 7, 9]
    q = cpqa.insert_and_attrite(q, Element(5))
    assert drained_keys(q) == [3, 5]


def test_insert_equal_key_attrites():
    acct = mk_account()
    q = build(acct, [3, 5, 9])
    q = cpqa.insert_and_attrite(q, Element(5))
    assert drained_keys(q) == [3, 5]


def test_descending_inserts_keep_only_last():
    acct = mk_account()
    q = build(acct, range(50, 0, -1))
    assert drained_keys(q) == [1]


def test_ascending_inserts_keep_all():
    acct = mk_account()
    q = build(acct, range(40))
    assert cpqa.size_elements(q) == 40
    assert drained_keys(q) == list(range(40))
    assert cpqa.validate(q) == []


def test_find_min_tracks_front():
    acct = mk_account()
    q = build(acct, [10, 20, 30])
    assert cpqa.find_min(q).key == 10
    q = cpqa.insert_and_attrite(q, Element(5))
    assert cpqa.find_min(q).key == 5


def test_delete_min_returns_increasing_sequence():
    acct = mk_account()
    q = build(acct, range(0, 60, 2))
    seen = []
    while True:
        try:
            e, q = cpqa.delete_min(q)
        except EmptyQueueError:
            break
        seen.append(e.key)
        assert cpqa.validate(q) == []
    assert seen == list(range(0, 60, 2))


def test_payloads_survive():
    acct = mk_account()
    q = cpqa.empty(acct)
    for k in range(10):
        q = cpqa.insert_and_attrite(q, Element(k, {"k": k}))
    with acct.suspended():
        out = cpqa.drain(q)
    assert [e.payload for e in out] == [{"k": k} for k in range(10)]


def test_catenate_disjoint():
    acct = mk_account()
    a = build(acct, range(0, 20))
    b = build(acct, range(100, 120))
    c = cpqa.catenate_and_attrite(a, b)
    assert drained_keys(c) == list(range(0, 20)) + list(range(100, 120))
    assert cpqa.validate(c) == []
    # operands unharmed
    assert drained_keys(a) == list(range(0, 20))
    assert drained_keys(b) == list(range(100, 120))


def test_catenate_attrites_overlap():
    acct = mk_account()
    a = build(acct, range(0, 40))
    b = build(acct, range(25, 60))
    c = cpqa.catenate_and_attrite(a, b)
    assert drained_keys(c) == list(range(0, 25)) + list(range(25, 60))
    assert cpqa.validate(c) == []


def test_catenate_right_min_below_everything():
    acct = mk_account()
    a = build(acct, range(10, 50))
    b = build(acct, [1])
    c = cpqa.catenate_and_attrite(a, b)
    assert drained_keys(c) == [1]


def spy_on(monkeypatch, name):
    """Record what each call of the cpqa function name returns."""
    real, got = getattr(cpqa, name), []

    def spy(*args):
        got.append(real(*args))
        return got[-1]

    monkeypatch.setattr(cpqa, name, spy)
    return got


def catenated_against_reference(q1, q2, left_keys, right_keys):
    q = cpqa.catenate_and_attrite(q1, q2)
    # left_keys ascend, so all of them are live in q1
    ref = oracle.naive_catenate_and_attrite([(k, None) for k in left_keys], [(k, None) for k in right_keys])
    assert cpqa.validate(q) == []
    assert drained_keys(q) == [k for k, _ in ref]
    return q


def test_short_left_operand_splits_a_full_first_record_at_2b():
    # 3 survivors in front of a 5b-word record exceed 4b words: the head
    # record takes exactly 2b words and the rest of the record stays behind
    acct = mk_account(b=4)
    q1, q2 = build(acct, [-3, -2, -1]), build(acct, range(20))
    assert [r.size for r in q1.C] == [3] and [r.size for r in q2.C] == [20]
    q = catenated_against_reference(q1, q2, [-3, -2, -1], range(20))
    assert [r.size for r in q.C] == [8, 15] and not q.Bq and not q.D


@pytest.mark.parametrize(
    "left_keys, sizes",
    [
        # 185 cuts the 5b record 0, 10, .., 190 after 180: 19 survivors and
        # 3 new keys exceed 5b words
        ([*range(0, 200, 10)], [20]),
        # 10000 sits alone in a tail record that 185 kills whole; the record
        # before it is cut as above and would overfill the same way
        ([*range(0, 200, 10), 10000], [20, 1]),
    ],
    ids=["partial-cut", "whole-tail"],
)
def test_short_right_operand_that_would_overfill_a_record_goes_general(monkeypatch, left_keys, sizes):
    acct = mk_account(b=4)
    q1, q2 = build(acct, left_keys), build(acct, [185, 186, 187])
    assert [r.size for r in q1.C] == sizes
    got = spy_on(monkeypatch, "_cat_small_right")
    catenated_against_reference(q1, q2, left_keys, [185, 186, 187])
    assert got == [None]


def replay_slots(b, B, script):
    """Run a script over four queue slots. Each result must validate, and its
    live walk and its pops must give the list reference's keys.
    ("run", dst, src, keys) catenates src with a queue of the ascending keys,
    ("cat", dst, a, c) catenates two slots, and ("ins", dst, src, key) and
    ("del", dst, src) insert and pop."""
    acct = mk_account(b=b, B=B)
    qs, refs = [cpqa.empty(acct)] * 4, [[]] * 4
    for op, dst, src, *arg in script:
        if op == "run":
            qs[dst] = cpqa.catenate_and_attrite(qs[src], build(acct, arg[0]))
            refs[dst] = oracle.naive_catenate_and_attrite(refs[src], [(k, None) for k in arg[0]])
        elif op == "cat":
            qs[dst] = cpqa.catenate_and_attrite(qs[src], qs[arg[0]])
            refs[dst] = oracle.naive_catenate_and_attrite(refs[src], refs[arg[0]])
        elif op == "ins":
            qs[dst] = cpqa.insert_and_attrite(qs[src], arg[0])
            refs[dst] = oracle.naive_insert(refs[src], arg[0])
        else:
            el, qs[dst] = cpqa.delete_min(qs[src])
            (key, _), refs[dst] = oracle.naive_delete_min(refs[src])
            assert el.key == key
        keys = [k for k, _ in refs[dst]]
        assert cpqa.validate(qs[dst]) == []
        assert [e.key for e in cpqa.logical_elements(qs[dst])] == drained_keys(qs[dst]) == keys


# Reach witnesses: scripts of public operations, each of which drives the
# rare branch of the queue that its name gives. test_cpqa_census checks that
# each still reaches its branch; here each answer is checked.
REACH_WITNESSES = {
    # a partial cut by the one-key run 42 leaves the dirty tail 36, 40, 42;
    # the 18-key run from 41 keeps 36, 40 in front of it, 20 words > 4b, so
    # the cut tail and the run's record split into 2b words and the rest
    "_cat_general splits a short dirty tail and the next record at 2b": (4, 16, [
        ("run", 0, 0, range(0, 80, 4)),
        ("run", 0, 0, range(20, 60, 4)),
        ("run", 0, 0, [42]),
        ("run", 0, 0, range(41, 77, 2)),
    ]),
    "_cat_general merges a short dirty tail into the next record": (4, 16, [
        ("run", 0, 1, range(11)),
        ("del", 2, 0),
        ("run", 1, 2, range(11, 15)),
        ("del", 0, 1),
        ("cat", 1, 1, 0),
        ("ins", 1, 1, 15),
        ("run", 1, 1, range(16, 20)),
    ]),
    # the last run starts at 26, below the record 30..33 in front of the new
    # dirty deque, so that record dies whole
    "_bias_dirty_pair drops a boundary record that dies whole": (4, 16, [
        ("ins", 2, 2, 0),
        ("run", 0, 2, [*range(1, 11), *range(12, 23, 2)]),
        ("run", 1, 0, [11, 13, 15, 17, 19, 21, 23, 24, 25]),
        ("run", 2, 1, range(30, 34)),
        ("cat", 1, 1, 2),
        ("run", 2, 1, range(26, 30)),
    ]),
    "_bias_dirty_pair pushes the standalone part of a cut boundary record": (4, 16, [
        ("run", 1, 1, [0]),
        ("run", 0, 1, [18]),
        ("run", 1, 0, [19]),
        ("run", 2, 1, [20]),
        ("cat", 0, 0, 2),
        ("ins", 1, 0, 21),
        ("run", 0, 1, [*range(1, 13), 14]),
        ("run", 2, 0, [13, 15, 16, 17]),
    ]),
    # the surfaced record's child lies at or above the next dirty minimum
    "_bias_absorb drops the dead child of a surfaced record": (2, 8, [
        ("run", 2, 0, range(5)),
        ("del", 0, 2),
        ("run", 1, 0, [5]),
        ("ins", 1, 1, 6),
        ("del", 1, 1),
        ("run", 2, 1, [8, 9]),
        ("cat", 2, 0, 2),
        ("run", 2, 2, [7]),
    ]),
    "_combine_pair splits a taken run and a short record at 2b": (4, 16, [
        ("run", 1, 2, [0, 1, 2, 3, 4, 6]),
        ("cat", 2, 1, 2),
        ("run", 2, 2, [5, *range(7, 14)]),
    ]),
    # 28 and 27 leave a version whose last record sits in Bq; 20 kills it
    # and cuts the clean record in front of it
    "_drop_tail drops the last record of Bq": (4, 16, [
        ("run", 0, 0, range(4)),
        ("run", 0, 0, range(3, 29)),
        ("ins", 0, 0, 28),
        ("ins", 0, 0, 27),
        ("ins", 0, 0, 20),
    ]),
    # the same runs and 28, 27 leave a buffer deque with no dirty deque
    # behind it; the twelfth pop's refill merges the head into the next
    # clean record and biases, which folds the buffer deque clean
    "_bias_step folds a buffer deque with no dirty deque behind it": (4, 16, [
        ("run", 0, 0, range(4)),
        ("run", 0, 0, range(3, 29)),
        ("ins", 0, 0, 28),
        ("ins", 0, 0, 27),
        *[("del", 0, 0)] * 12,
    ]),
    "_focal_records meets a last dirty deque of two records behind another": (2, 8, [
        ("run", 0, 2, range(10)),
        ("ins", 1, 0, 10),
        ("run", 1, 1, [16]),
        ("run", 2, 1, range(11, 15)),
        ("ins", 0, 2, 15),
        ("del", 3, 0),
        ("cat", 2, 1, 3),
        ("cat", 3, 1, 2),
        ("run", 0, 3, [17, 18]),
        ("run", 1, 0, [19, 20]),
    ]),
}


@pytest.mark.parametrize("name", REACH_WITNESSES)
def test_reach_witness(name):
    replay_slots(*REACH_WITNESSES[name])


# Only a join of two runs copies words: a record whose words all lie in one
# buffer it was made from is a view of that buffer's backing, so the
# write-back charges nothing for words already flushed there. The spies
# check the sites that copied such words: the tails of _repair_head's and
# _combine_pair's 2b splits, _combine_pair's standalone run of survivors,
# and the heads that hold one buffer's words because the other side is empty
# (a 2b run surfaced by bias, and delete_min's refill at b = 1).
def test_a_record_holding_one_buffers_words_is_a_view_of_it(monkeypatch):
    seen = set()

    def view(rec, src, site):
        if set(rec.buf.tolist()) <= set(src.tolist()):
            assert rec.buf.backing is src.backing, site
            seen.add(site)

    combine, repair, delete_min = cpqa._combine_pair, cpqa._repair_head, cpqa.delete_min

    def combine_spy(account, l1p, r2, b, allow_takes):
        out = kind, r2new, stand = combine(account, l1p, r2, b, allow_takes)
        if kind == "standalone" and l1p:
            if r2new is r2:
                view(stand, l1p, "standalone survivors")
            elif r2.size <= 2 * b:
                view(r2new, r2.buf, "_combine_pair 2b split tail")
        return out

    def repair_spy(account, res, moved, nm, b):
        out = repair(account, res, moved, nm, b)
        if len(res.C) > 1 and moved.size + res.C[1].size > 3 * b:
            view(out.C[0], moved.buf, "_repair_head 2b head")
            view(out.C[1], res.C[1].buf, "_repair_head split tail")
        return out

    def delete_min_spy(q):
        el, out = delete_min(q)
        if len(q.C) > 1 and q.C[0].size == q.account.cfg.b == 1:
            view(out.C[0], q.C[1].buf, "refill at b = 1")
        return el, out

    monkeypatch.setattr(cpqa, "_combine_pair", combine_spy)
    monkeypatch.setattr(cpqa, "_repair_head", repair_spy)
    monkeypatch.setattr(cpqa, "delete_min", delete_min_spy)
    for case in REACH_WITNESSES.values():
        replay_slots(*case)
    run_stream(16, 4, drift_stream(35, 2000))
    run_stream(8, 1, drift_stream(35, 2000))
    assert seen == {
        "standalone survivors",
        "_combine_pair 2b split tail",
        "_repair_head 2b head",
        "_repair_head split tail",
        "refill at b = 1",
    }


def test_nan_key_is_refused(monkeypatch):
    # NaN is neither below nor above any key: inserting NaN then 1 left [1],
    # and 1 then NaN left [nan]
    acct = mk_account()
    q = build(acct, [1, 2])
    nan = float("nan")
    with pytest.raises(ValueError, match="NaN"):
        cpqa.insert_and_attrite(q, nan)
    with pytest.raises(ValueError, match="NaN"):
        cpqa.insert_and_attrite(q, Element(nan, "p"))
    with pytest.raises(ValueError, match="NaN"):
        cpqa.singleton(acct, nan)
    with pytest.raises(ValueError, match="NaN"):
        cpqa.from_run(acct, [0, nan])
    assert acct.current_op() is None
    assert drained_keys(q) == [1, 2]
    # b ascending keys and room in the tail record: an insert above them
    # grows that record in place, with no unit version
    q = build(acct, range(1, 7))
    tail = q.C.last().buf
    units = spy_on(monkeypatch, "_one_record")
    grown_q = cpqa.insert_and_attrite(q, 7)
    assert units == []
    assert drained_keys(grown_q) == list(range(1, 8))
    grown = len(tail.backing)
    with pytest.raises(ValueError, match="NaN"):
        cpqa.insert_and_attrite(q, nan)
    with pytest.raises(ValueError, match="NaN"):
        cpqa.insert_and_attrite(q, Element(nan, "p"))
    assert acct.current_op() is None
    assert len(tail.backing) == grown
    assert drained_keys(q) == list(range(1, 7))


def test_catenate_with_empty():
    acct = mk_account()
    a = build(acct, [1, 2, 3])
    e = cpqa.empty(acct)
    assert drained_keys(cpqa.catenate_and_attrite(a, e)) == [1, 2, 3]
    assert drained_keys(cpqa.catenate_and_attrite(e, a)) == [1, 2, 3]
    assert drained_keys(cpqa.catenate_and_attrite(e, e)) == []


def test_catenate_rejects_mixed_accounts():
    a = cpqa.singleton(mk_account(), Element(1))
    b = cpqa.singleton(mk_account(), Element(2))
    with pytest.raises(ConfigMismatchError):
        cpqa.catenate_and_attrite(a, b)


def test_version_kept_again_keeps_its_working_set():
    acct = mk_account()
    q1 = build(acct, range(10, 30))
    q2 = build(acct, range(0, 5))
    before = q2.resident
    assert before
    out = cpqa.catenate_and_attrite(q1, q2)  # q2's minimum attrites all of q1
    assert out is q2
    assert out.resident is before


def test_empty_version_has_no_working_set():
    assert cpqa.empty(mk_account()).resident == ()


def test_critical_records_of_a_version_never_handed_out():
    acct = mk_account()
    rc = cpqa._new_record(acct, cpqa._Buf.of([Element(3), Element(4)]))
    rd = cpqa._new_record(acct, cpqa._Buf.of([Element(10), Element(11)]))
    q = Queue(acct, PDeque.of([rc]), PDeque.empty(), (PDeque.of([rd]),), Element(3))
    assert cpqa.critical_records(q) == (rc, rd)
    acct.register(rc.run, rc.size)
    acct.pin(rc.run)
    assert acct._pinned == {rc.run: 2}


def test_bring_in_makes_critical_records_free_for_the_operation():
    acct = mk_account(b=4, B=4)
    recs = [cpqa._new_record(acct, cpqa._Buf.of([Element(10 * i + j) for j in range(10)])) for i in range(5)]
    q = Queue(acct, PDeque.of(recs), PDeque.empty(), (), Element(0))
    critical = cpqa.critical_records(q)
    other = next(rec for rec in recs if rec not in critical)
    cpqa.bring_in(q)  # outside an operation: a no-op
    assert acct.current_op() is None and acct.counters.reads == 0
    with acct.operation():
        cpqa._load(acct, critical[0])  # not brought in here: a cold read
        assert acct.counters.reads == 3
    with acct.operation():
        cpqa.bring_in(q)
        assert acct.counters.reads == 3
        for rec in critical:
            cpqa._load(acct, rec)
        assert acct.counters.reads == 3
        cpqa._load(acct, other)
        assert acct.counters.reads == 3 + math.ceil(other.size / 4) == 6


def test_a_pin_covers_every_record_that_views_the_pinned_run():
    acct = mk_account(b=4, B=4)
    buf = cpqa._Buf.of([Element(k) for k in range(10)])
    pinned = cpqa.Record(buf)
    twin = cpqa.Record(cpqa._Buf(buf.backing, 0, 10))  # a second view of the same run
    shorter = cpqa.Record(buf.prefix(9))
    acct.register(pinned.run, pinned.size)
    acct.pin(pinned.run)
    with acct.operation():
        cpqa._load(acct, twin)
        assert acct.counters.reads == 0
        cpqa._load(acct, shorter)  # another run of the same backing is cold
        assert acct.counters.reads == 3


def test_queue_operations_nest_in_a_callers_operation(monkeypatch):
    # the outermost scope seeds its operands and writes back when it exits;
    # a queue operation inside it only counts depth and charges into it
    top = mk_account(b=4, B=4)
    cpqa.insert_and_attrite(build(top, range(1, 41)), 0)
    assert top.counters.writes == 10  # both 20-word records of the operand
    acct = mk_account(b=4, B=4)
    q = build(acct, range(1, 41))
    assert [rec.size for rec in q.resident] == [20, 20]
    depths = []
    keep = cpqa._keep
    monkeypatch.setattr(cpqa, "_keep", lambda account, Q: depths.append(account.depth()) or keep(account, Q))
    with acct.operation(q) as scope:
        assert acct.current_op() is scope and acct.depth() == 1
        q2 = cpqa.insert_and_attrite(q, 0)
        assert depths and set(depths) == {2} and acct.current_op() is scope
        assert acct.counters.writes == 0
    assert acct.counters.writes == 10 == acct.last_op_blocks
    assert drained_keys(q2) == [0]
    # a nested operand is not seeded: its first record, in memory for a
    # top-level delete_min, is a cold read of 20 words inside the scope
    q = build(acct, range(1, 41))
    reads = acct.counters.reads
    cpqa.delete_min(q)
    assert acct.counters.reads == reads
    with acct.operation():
        cpqa.delete_min(q)
        assert acct.counters.reads == reads + 5
    assert acct.depth() == 0 and acct.current_op() is None


def test_a_raising_operation_still_writes_back_and_lets_go_of_the_account():
    acct = mk_account(b=4, B=4)
    q = build(acct, range(1, 41))
    with pytest.raises(KeyError):
        with acct.operation(q):
            cpqa.insert_and_attrite(q, 0)
            raise KeyError
    assert acct.counters.writes == 10 == acct.last_op_blocks
    assert acct.current_op() is None and acct.depth() == 0
    opened = []

    def other():
        with acct.operation():
            opened.append(acct.depth())

    t = threading.Thread(target=other)
    t.start()
    t.join()
    assert opened == [1]


def test_a_suspended_operation_writes_back_free_of_charge():
    # inserting 0 in front of the 20-word records that build made displaces
    # them, and the write-back charges them 10 blocks; suspended, the
    # operation writes nothing back, so its block total is 0, and the same
    # insert charged afterwards pays the 10 blocks instead of 0
    for suspend in (False, True):
        acct = mk_account(b=4, B=4)
        q = build(acct, range(1, 41))
        charged = []
        for quiet in (suspend, False):
            writes = acct.counters.writes
            with acct.suspended() if quiet else contextlib.nullcontext():
                cpqa.insert_and_attrite(q, 0)
            charged.append((acct.counters.writes - writes, acct.last_op_blocks))
        assert charged == ([(0, 0), (10, 10)] if suspend else [(10, 10), (0, 0)])


def test_surfacing_a_dirty_record_reads_it():
    # bias surfaces the only dirty record as a clean record over the same
    # run; it reads the record first, so the pop that then loads the run
    # finds it in memory, and the operation pays for it once. No operation
    # hands out a nonempty version without a clean record, so this one is
    # biased inside the pop's operation
    acct = mk_account(b=4, B=4)
    rd = cpqa._new_record(acct, cpqa._Buf.of([Element(k) for k in range(8)]))
    q = Queue(acct, PDeque.empty(), PDeque.empty(), (PDeque.of([rd]),), Element(0))
    with acct.operation(q):
        el, rest = cpqa.delete_min(cpqa.bias(q))
    assert el.key == 0
    assert (acct.counters.reads, acct.counters.writes) == (2, 0)
    assert drained_keys(rest) == list(range(1, 8))


def handed_out(acct, keys):
    """A version of one record over keys, handed out by an operation so that
    its record is in its working set."""
    with acct.operation():
        return cpqa._keep(acct, version(acct, C=[rec(acct, keys)], low=keys[0]))


def test_a_record_flushed_to_its_end_is_no_flush_candidate():
    # the flushed watermark only rises and the write-back charges nothing at
    # or below it, so the scope does not list such a record, whether it
    # seeds it from an operand or creates it
    acct = mk_account(b=4, B=4)
    q = handed_out(acct, list(range(8)))
    (r,) = q.resident
    r.buf.backing.flushed = 8
    with acct.operation(q) as scope:
        assert scope.held == []
        cpqa._new_record(acct, r.buf.drop_front(2))
        assert scope.held == []
    assert acct.counters.writes == 0


def test_a_partly_flushed_record_is_written_back_above_the_watermark():
    acct = mk_account(b=4, B=4)
    q = handed_out(acct, list(range(20)))
    (r,) = q.resident
    backing = r.buf.backing
    backing.flushed = 6
    with acct.operation(q) as scope:
        assert scope.held == [r]
    assert acct.counters.writes == math.ceil((20 - 6) / 4) == 4
    assert backing.flushed == 20
    # created in the scope: the same rule and the same charge
    acct = mk_account(b=4, B=4)
    backing = cpqa._Backing([Element(k) for k in range(20)])
    backing.flushed = 6
    with acct.operation() as scope:
        made = cpqa._new_record(acct, cpqa._Buf(backing, 2, 20))
        assert scope.held == [made]
    assert acct.counters.writes == 4 and backing.flushed == 20


def test_drain_is_repeatable():
    acct = mk_account()
    q = build(acct, range(30))
    with acct.suspended():
        first = cpqa.drain(q)
        second = cpqa.drain(q)
    assert first == second
    assert first == cpqa.logical_elements(q)


def test_nan_drain_bound_is_refused():
    # NaN is below no key: both paths reported nothing instead of failing
    acct = mk_account()
    q = build(acct, range(10))
    nan = float("nan")
    with pytest.raises(ValueError, match="NaN"):
        cpqa.drain(q, below=nan)
    with acct.operation(q):
        with pytest.raises(ValueError, match="NaN"):
            cpqa.drain(q, below=nan)
        assert [e.key for e in cpqa.drain(q, below=5)] == list(range(5))
    assert acct.current_op() is None
    assert drained_keys(q) == list(range(10))


def drain_script(rng, b, n):
    """Ascending inserts that make one clean record of n words, then random
    inserts, catenates and delete_min over drifting keys."""
    script = [("ins", k) for k in range(0, 10 * n, 10)]
    top = 10 * n
    for _ in range(rng.choice((0, 3, 10, 30))):
        r = rng.random()
        top += rng.randrange(-60, 40)
        if r < 0.5:
            script.append(("ins", top))
        elif r < 0.75:
            script.append(("cat", list(range(top, top + 10 * rng.randrange(1, 3 * b + 1), 10))))
        else:
            script.append(("del", None))
    return script


def apply_step(acct, q, step):
    op, arg = step
    if op == "ins":
        return cpqa.insert_and_attrite(q, Element(arg))
    if op == "cat":
        return cpqa.catenate_and_attrite(q, build(acct, arg))
    return cpqa.delete_min(q)[1] if q.cached_min is not None else q


def popped(q, below=None):
    out = []
    while q.cached_min is not None and (below is None or q.cached_min.key < below):
        el, q = cpqa.delete_min(q)
        out.append(el)
    return out


def drained_and_charged(b, script, below, mode, drain):
    """Build the script's version on a fresh account and drain it: at top
    level, inside an operation, or inside the operation that made its last
    step. Returns the answer, the drain's reads, the writes, the drained
    version, the runs in memory when the drain started (at top level, the
    version's working set), and the account's last_op_blocks."""
    acct = mk_account(b=b, B=b)
    q = cpqa.empty(acct)
    for step in script[:-1]:
        q = apply_step(acct, q, step)
    if mode != "fresh":
        q = apply_step(acct, q, script[-1])
    counters = acct.counters
    writes = counters.writes
    if mode == "top":
        runs = {rec.run for rec in q.resident}
        before = counters.reads
        got = drain(q, below)
    else:
        with acct.operation() as scope:
            if mode == "fresh":
                q = apply_step(acct, q, script[-1])
            runs = set(scope.runs)
            before = counters.reads
            got = drain(q, below)
    # the write-back at the scope's end charges only writes
    reads = counters.reads - before
    return got, reads, counters.writes - writes, q, runs, acct.last_op_blocks


def physical(q):
    """(record, element) pairs of a version in physical order, children
    included, zombies too."""
    for dq in (q.C, q.Bq, *q.D):
        for rec in dq:
            for el in rec.buf.tolist():
                yield rec, el
            if rec.child is not None:
                yield from physical(rec.child)


def owed_reads(q, below, runs, B):
    """ceil(size / B) for each distinct run of a record that holds a
    reported element, unless the run was already in memory."""
    holders = {}
    best = below
    for rec, el in reversed(list(physical(q))):
        if best is None or el.key < best:
            best = el.key
            holders[rec.run] = rec.size
    return sum(-(-size // B) for run, size in holders.items() if run not in runs)


def counting_drain(monkeypatch):
    """A drain(q, below) that notes in pops how many delete_min calls each
    call made."""
    calls = [0]
    pops = []
    delete_min = cpqa.delete_min

    def counted(q):
        calls[0] += 1
        return delete_min(q)

    def drain(q, below):
        before = calls[0]
        out = cpqa.drain(q, below=below)
        pops.append(calls[0] - before)
        return out

    monkeypatch.setattr(cpqa, "delete_min", counted)
    return drain, pops


def drain_cases(b):
    """(script, version, live keys, drain bounds): inserts that make one
    record of each size up to 5b words, then 30 drain_scripts; each drained
    with no bound, below a random live key and below every key."""
    rng = random.Random(b)
    scripts = [[("ins", 10 * k) for k in range(n)] for n in range(1, 5 * b + 1)]
    scripts += [drain_script(rng, b, rng.randrange(1, 5 * b + 1)) for _ in range(30)]
    for script in scripts:
        acct = mk_account(b=b, B=b)
        q = cpqa.empty(acct)
        for step in script:
            q = apply_step(acct, q, step)
        keys = [e.key for e in cpqa.logical_elements(q)]
        belows = [None]
        if keys:
            belows += [rng.choice(keys), keys[0] - 1]
        yield script, q, keys, belows


@pytest.mark.parametrize("b", range(1, 9))
def test_drain_charges_what_the_delete_min_chain_charges(monkeypatch, b):
    """Inside an operation a drain pops nothing, gives the delete_min chain's
    answer and writes, and reads each record run that holds a reported
    element once."""
    drain, pops = counting_drain(monkeypatch)
    multi = 0
    singles = set()
    for script, q, keys, belows in drain_cases(b):
        if cpqa.record_count(q) == 1:
            singles.add(cpqa.size_elements(q))
        for below in belows:
            want_keys = [k for k in keys if below is None or k < below]
            for mode in ("open", "fresh"):
                got, reads, writes, drained, runs, _ = drained_and_charged(b, script, below, mode, drain)
                want = drained_and_charged(b, script, below, mode, popped)
                assert [e.key for e in got] == want_keys
                assert (got, writes) == (want[0], want[2]), (script, below, mode)
                assert pops[-1] == 0
                assert reads == owed_reads(drained, below, runs, b), (script, below, mode)
                multi += cpqa.record_count(drained) > 1 and len(want_keys) > 1
    # single records of every size up to 5b words (at b = 1 inserts make
    # one only of one word), and walks over versions of several records
    assert singles >= set(range(1, 5 * b + 1 if b > 1 else 2))
    assert multi > 0
    if b == 1:
        # the chain's head refill reads the record of 10, which reports nothing
        script = [("ins", 0), ("ins", 10)]
        assert drained_and_charged(1, script, 10, "open", drain)[1] == 1
        assert drained_and_charged(1, script, 10, "open", popped)[1] == 2


@pytest.mark.parametrize("b", range(1, 9))
def test_top_level_drain_is_one_operation_that_reads_what_it_reports(monkeypatch, b):
    """At top level a drain is one operation on the version. It pops
    nothing, gives the delete_min chain's answer and writes nothing, since
    it hands the version back. It reads each record run that holds a
    reported element and lies outside the version's working set once, never
    more than the chain, and last_op_blocks is those reads."""
    drain, pops = counting_drain(monkeypatch)
    for script, _, keys, belows in drain_cases(b):
        for below in belows:
            got, reads, writes, drained, runs, last = drained_and_charged(b, script, below, "top", drain)
            want, chain_reads, *_ = drained_and_charged(b, script, below, "top", popped)
            assert got == want and [e.key for e in got] == [k for k in keys if below is None or k < below]
            assert (pops[-1], writes) == (0, 0), (script, below)
            assert reads == owed_reads(drained, below, runs, b) == last, (script, below)
            assert reads <= chain_reads, (script, below)


def test_logical_elements_sees_through_zombies():
    acct = mk_account()
    a = build(acct, range(0, 30))
    b = build(acct, [7])
    c = cpqa.catenate_and_attrite(a, b)
    # physical records of a survive inside c, but only keys < 7 are live
    assert [e.key for e in cpqa.logical_elements(c)] == [0, 1, 2, 3, 4, 5, 6, 7]
    assert cpqa.size_elements(c) == 8


def test_bias_preserves_contents_and_raises_delta():
    acct = mk_account()
    a = build(acct, range(0, 25))
    b = build(acct, range(40, 65))
    q = cpqa.catenate_and_attrite(a, b)
    before = cpqa.delta(q)
    contents = drained_keys(q)
    biased = cpqa.bias(q)
    assert drained_keys(biased) == contents
    assert cpqa.validate(biased) == []
    assert cpqa.delta(biased) >= before + 1 or (not biased.Bq and not biased.D)


def test_dump_golden():
    acct = mk_account(b=4)
    q = build(acct, [1, 4, 9, 16, 25, 36, 49])
    assert cpqa.dump(q) == (
        "queue q0 delta=2 min=1\n"
        "C: [(1..49,n=7,child=-)]\n"
        "B: []"
    )


def rec(acct, keys, child=None):
    return cpqa._new_record(acct, cpqa._Buf.of([Element(k) for k in keys]), child)


def version(acct, C=(), Bq=(), D=(), low=None):
    return Queue(
        acct,
        PDeque.of(C),
        PDeque.of(Bq),
        tuple(PDeque.of(d) for d in D),
        None if low is None else Element(low),
    )


def shared_record(acct):
    """A version whose one record sits both in Bq and in D; every order
    check holds."""
    r = rec(acct, [5, 6, 7, 8])
    return version(acct, C=[rec(acct, [1, 2])], Bq=[r], D=[[r]], low=1)


# One hand-built bad version per message validate can emit: each builder
# takes an account (b=4) and returns the version and the messages it must get.
VALIDATE_CASES = {
    "shape-empty-version": lambda a: (
        version(a, C=[rec(a, [3])]),
        ["shape: empty version holds records"],
    ),
    "shape-no-clean": lambda a: (
        version(a, Bq=[rec(a, [3, 4])], low=3),
        ["shape: no clean records on a nonempty version"],
    ),
    "shape-empty-dirty-deque": lambda a: (
        version(a, C=[rec(a, [1, 2])], D=[[]], low=1),
        ["shape: empty dirty deque"],
    ),
    "shape-record-twice": lambda a: (shared_record(a), ["shape: record appears twice"]),
    "buffer-empty": lambda a: (
        version(a, C=[rec(a, [1, 2]), rec(a, [])], low=1),
        [
            "buffer-empty: C holds a record with no elements",
            "record-order: C records are not strictly increasing",
        ],
    ),
    "record-order-deque": lambda a: (
        version(a, C=[rec(a, [5, 9]), rec(a, [3, 4])], low=5),
        ["record-order: C records are not strictly increasing"],
    ),
    "record-order-clean-buffer": lambda a: (
        version(a, C=[rec(a, [1, 5])], Bq=[rec(a, [3, 4])], low=1),
        ["record-order: clean tail not below buffer head"],
    ),
    "record-order-clean-dirty": lambda a: (
        version(a, C=[rec(a, [1, 5])], D=[[rec(a, [3, 4])]], low=1),
        ["record-order: clean tail not below first dirty record"],
    ),
    "buffer-bounds": lambda a: (
        version(a, C=[rec(a, range(21))], low=0),
        ["buffer-bounds: C holds a record above 5b words"],
    ),
    "child-placement-clean": lambda a: (
        version(a, C=[rec(a, [1, 2], build(a, [50, 51]))], low=1),
        ["child-placement: clean record carries a child"],
    ),
    "child-placement-buffered": lambda a: (
        version(a, C=[rec(a, [1, 2])], Bq=[rec(a, [5, 6], build(a, [50, 51]))], low=1),
        ["child-placement: buffered record carries a child"],
    ),
    "child-placement-empty-child": lambda a: (
        version(a, C=[rec(a, [1, 2])], D=[[rec(a, [5, 6, 7, 8], cpqa.empty(a))]], low=1),
        ["child-placement: record points at an empty child"],
    ),
    "dirty-min": lambda a: (
        version(a, C=[rec(a, [1, 2])], D=[[rec(a, [10, 11])], [rec(a, [5, 6])]], low=1),
        ["dirty-min: first dirty record does not hold the dirty minimum"],
    ),
    "state-counter": lambda a: (
        version(a, C=[rec(a, [1, 2])], D=[[rec(a, [5, 6]), rec(a, [7, 8])]], low=1),
        ["state-counter: delta is negative"],
    ),
    "min-cache": lambda a: (
        version(a, C=[rec(a, [3, 4])], low=7),
        ["min-cache: cached minimum differs from the physical front"],
    ),
    "buffer-empty-front": lambda a: (
        version(a, C=[rec(a, []), rec(a, [5, 6])], low=5),
        [
            "buffer-empty: C holds a record with no elements",
            "record-order: C records are not strictly increasing",
        ],
    ),
    "min-cache-behind-empty-front": lambda a: (
        version(a, C=[rec(a, []), rec(a, [5, 6])], low=7),
        [
            "buffer-empty: C holds a record with no elements",
            "min-cache: cached minimum differs from the physical front",
        ],
    ),
    "record-order-buffer": lambda a: (
        version(a, C=[rec(a, [1, 9, 3, 4])], low=1),
        ["record-order: C records are not strictly increasing"],
    ),
    "tail-record-dirty": lambda a: (
        version(a, C=[rec(a, [1, 2])], D=[[rec(a, [5, 6], build(a, [50, 51]))]], low=1),
        ["tail-record: short dirty tail carries a child"],
    ),
    "tail-record-single": lambda a: (
        version(a, C=[rec(a, [1, 2], build(a, [50, 51]))], low=1),
        ["tail-record: short single record carries a child"],
    ),
    "child-order": lambda a: (
        version(a, C=[rec(a, [1, 2])], D=[[rec(a, [5, 6, 7, 60], build(a, [50, 51]))]], low=1),
        ["child-order: record buffer reaches into its child"],
    ),
}


@pytest.mark.parametrize("case", sorted(VALIDATE_CASES))
def test_validate_flags(case):
    bad, want = VALIDATE_CASES[case](mk_account())
    out = cpqa.validate(bad)
    for msg in want:
        assert "q0 %s" % msg in out, out


def test_validate_flags_a_fault_in_a_child_version():
    acct = mk_account()
    stale = version(acct, C=[rec(acct, [50, 51, 52, 53])], low=52)
    sound = version(acct, C=[rec(acct, [1, 2, 3, 4])], D=[[rec(acct, [5, 6, 7, 8], stale)]], low=1)
    assert cpqa.validate(sound) == ["q1 min-cache: cached minimum differs from the physical front"]


def test_validate_names_each_version_as_dump_does():
    # the faulty version is the second child, after a sound one; each qN in
    # a message is the version dump prints as "queue qN", here by its cached
    # minimum, 72, which no other version holds
    acct = mk_account(b=4)
    stale = version(acct, C=[rec(acct, [70, 71, 72, 73])], low=72)
    sound_child = version(acct, C=[rec(acct, [30, 31, 32, 33])], low=30)
    top = version(
        acct,
        C=[rec(acct, [1, 2, 3, 4]), rec(acct, [5, 6, 7, 8])],
        D=[[rec(acct, [20, 21, 22, 23], sound_child), rec(acct, [60, 61, 62, 63], stale)]],
        low=1,
    )
    out = cpqa.validate(top)
    assert out == ["q2 min-cache: cached minimum differs from the physical front"]
    mins = dict(re.findall(r"^queue (q\d+) delta=-?\d+ min=(\S+)$", cpqa.dump(top), re.M))
    for msg in out:
        assert mins[msg.split()[0]] == "72", cpqa.dump(top)


# delete_min refills a head of b - 1 words from one record, so a handed-out
# version of several records must lead with b words. A version built by hand
# and never handed out is not held to it (see the short version in
# test_concat_sequence_rejects_unbalanced_input).
def test_validate_holds_handed_out_versions_to_the_head_rule():
    acct = mk_account(b=4)
    q = version(acct, C=[rec(acct, [1, 2, 3]), rec(acct, [5, 6, 7, 8])], low=1)
    assert cpqa.validate(q) == []
    with acct.operation():
        cpqa._keep(acct, q)
    assert cpqa.validate(q) == ["q0 head-rule: handed-out clean head holds under b words"]


def test_dump_and_repr_show_no_keys_for_an_empty_record():
    # the fences of an empty view lie outside it: in the middle of its
    # backing they are phantom keys, at the backing's end they do not exist
    acct = mk_account(b=4)
    backing = cpqa._Backing([Element(k) for k in (1, 2, 3, 4)])
    for start in (2, 4):
        empty = cpqa.Record(cpqa._Buf(backing, start, start))
        assert repr(empty) == "(empty,n=0,child=-)"
        q = version(acct, C=[rec(acct, [0]), empty], low=0)
        assert cpqa.dump(q).splitlines()[1] == "C: [(0..0,n=1,child=-)|(empty,n=0,child=-)]"
        with pytest.raises(cpqa.StructureError, match="(?s)a fault.*C: .*empty,n=0"):
            cpqa._panic(q, "a fault")


def drift_versions(acct, seed, count, pool=4, warm=50):
    """Versions from a stream over a pool of slots: warm inserts per slot,
    then inserts just above (now and then below) the source slot's top key
    mixed with catenates and delete_min. It builds dirty records that carry
    children."""
    rng = random.Random(seed)
    qs = [cpqa.empty(acct)] * pool
    tops = [0] * pool
    for i in range(count):
        dst, src = (i % pool,) * 2 if i < warm * pool else (rng.randrange(pool), rng.randrange(pool))
        r = rng.random() if i >= warm * pool else 1.0
        if r < 0.3:
            other = rng.randrange(pool)
            qs[dst] = cpqa.catenate_and_attrite(qs[src], qs[other])
            tops[dst] = tops[other] if qs[other].cached_min is not None else tops[src]
        elif r < 0.5:
            if qs[src].cached_min is None:
                continue
            qs[dst] = cpqa.delete_min(qs[src])[1]
            tops[dst] = tops[src]
        else:
            step = -rng.randrange(1, 300) if rng.random() < 0.1 else rng.randrange(1, 50)
            tops[dst] = tops[src] + step
            qs[dst] = cpqa.insert_and_attrite(qs[src], tops[dst])
        yield qs[dst]


def count_records(q, seen_q, seen_r):
    if id(q) in seen_q:
        return
    seen_q.add(id(q))
    for dq in (q.C, q.Bq, *q.D):
        for r in dq:
            seen_r.add(id(r))
            if r.child is not None:
                count_records(r.child, seen_q, seen_r)


def test_total_records_and_dump_reach_every_child():
    acct = mk_account(b=4, B=16)
    nested = 0
    for q in drift_versions(acct, 0, 600):
        seen_r = set()
        count_records(q, set(), seen_r)
        assert cpqa.total_records(q) == len(seen_r)
        text = cpqa.dump(q)
        headers = set(re.findall(r"^queue (q\d+) ", text, re.M))
        assert set(re.findall(r"child=(q\d+)", text)) <= headers
        assert len(headers) == text.count("queue q")
        nested += len(headers) > 1
    assert nested > 0


def test_concat_sequence_folds_in_order():
    acct = mk_account()
    qs = [build(acct, range(base, base + 10)) for base in (0, 100, 200, 300)]
    for q in qs:
        assert cpqa.delta(q) >= 2
    out = cpqa.concat_sequence(qs)
    assert drained_keys(out) == [k for base in (0, 100, 200, 300) for k in range(base, base + 10)]
    assert cpqa.validate(out) == []


def test_concat_sequence_attrites_across_segments():
    acct = mk_account()
    qs = [build(acct, range(0, 30)), build(acct, range(10, 40))]
    out = cpqa.concat_sequence(qs)
    assert drained_keys(out) == list(range(0, 10)) + list(range(10, 40))


def test_concat_sequence_hands_back_a_prepared_operand():
    # two all-clean queues whose fold opens a dirty deque at b = 2 and ends
    # at delta 1 before its closing bias
    acct = mk_account(b=2)
    left = cpqa.catenate_and_attrite(build(acct, [0, 1]), build(acct, [2, 3, 4]))
    out = cpqa.concat_sequence([left, build(acct, [5, 6, 7])])
    assert cpqa.delta(out) >= 2
    again = cpqa.concat_sequence([out, build(acct, [8, 9])])
    assert drained_keys(again) == list(range(10))
    assert cpqa.validate(again) == []


def test_concat_sequence_biases_a_beheaded_operand_with_no_clean_record():
    # right is prepared (delta 2) with one clean record and a buffer deque;
    # the fold's step beheads it to a version with an empty clean deque,
    # which must not become a record's child as it is
    acct = mk_account(b=4)
    runs = [range(21, 29), range(40, 47), range(43, 48), [41, 44, 45]]
    right = cpqa.empty(acct)
    ref = []
    for ks in runs:
        right = cpqa.catenate_and_attrite(right, build(acct, ks))
        ref = oracle.naive_catenate_and_attrite(ref, [(k, None) for k in ks])
    assert (len(right.C), len(right.Bq), cpqa.delta(right)) == (1, 1, 2)
    out = cpqa.concat_sequence([build(acct, range(20, 27)), right])
    assert cpqa.validate(out) == []
    assert drained_keys(out) == [20] + [k for k, _ in ref]


def test_concat_sequence_rejects_unbalanced_input():
    acct = mk_account()
    rc = cpqa._new_record(acct, cpqa._Buf.of([Element(3), Element(4)]))
    rc2 = cpqa._new_record(acct, cpqa._Buf.of([Element(6), Element(7)]))
    rd = cpqa._new_record(acct, cpqa._Buf.of([Element(10), Element(11)]))
    lopsided = Queue(acct, PDeque.of([rc]), PDeque.empty(), (PDeque.of([rd]),), Element(3))
    assert cpqa.delta(lopsided) == 0
    short = Queue(acct, PDeque.of([rc, rc2]), PDeque.empty(), (PDeque.of([rd]),), Element(3))
    assert cpqa.delta(short) == 1 and cpqa.validate(short) == []
    for q in (lopsided, short):
        with pytest.raises(PreconditionViolatedError):
            cpqa.concat_sequence([cpqa.singleton(acct, Element(1)), q])
    with pytest.raises(PreconditionViolatedError):
        cpqa.concat_sequence([])


def test_interleaved_against_reference():
    acct = mk_account(b=4)
    q = cpqa.empty(acct)
    ref = []
    import random

    rng = random.Random(31)
    for step in range(400):
        pick = rng.randrange(4)
        if pick in (0, 1):
            k = rng.randrange(10_000)
            q = cpqa.insert_and_attrite(q, Element(k))
            ref = oracle.naive_insert(ref, k)
        elif pick == 2 and ref:
            e, q = cpqa.delete_min(q)
            (rk, _), ref = oracle.naive_delete_min(ref)
            assert e.key == rk
        elif pick == 3:
            other_keys = sorted(rng.sample(range(10_000), rng.randrange(1, 6)))
            other = build(acct, other_keys)
            q = cpqa.catenate_and_attrite(q, other)
            ref = oracle.naive_catenate_and_attrite(ref, [(k, None) for k in other_keys])
        assert cpqa.validate(q) == []
        assert drained_keys(q) == [k for k, _ in ref]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["ins", "del", "cat"]), st.integers(0, 999)),
        min_size=1,
        max_size=60,
    ),
    st.integers(2, 6),
)
def test_property_matches_reference(opseq, b):
    replay_against_reference(opseq, b)


# Falsifying examples of the property above. Each loses one live element
# where _bias_buffer's _combine_pair(..., allow_takes=False) answers
# "prepend" and merges the surviving head of Bq into the first dirty record
# behind the rest of Bq. The result is structurally valid, so only the
# reference sees it; b = 4 reaches the fault as well as b <= 3.
@pytest.mark.xfail(strict=True, reason="_bias_buffer prepend fault drops a live element")
@pytest.mark.parametrize(
    "opseq, b",
    [
        ([("cat", 0), ("cat", 75), ("cat", 75)], 4),
        ([("ins", 0), ("ins", 1), ("ins", 2), ("cat", 1), ("cat", 1)], 3),
    ],
)
def test_bias_buffer_prepend_fault_witnesses(opseq, b):
    replay_against_reference(opseq, b)


# The same fault in 2b + 4 operations at every b: A holds 0, 1, .., b and B
# the b rising keys -1, -1/2, -1/4, ..; B takes A, A pops 0, and B takes A
# again. B then validates but lacks 0.
@pytest.mark.xfail(strict=True, reason="_bias_buffer prepend fault drops a live element")
@pytest.mark.parametrize("B, b", [(8, 1), (8, 2), (8, 3), (16, 4), (32, 6), (64, 16), (256, 40)])
def test_bias_buffer_prepend_fault_witnesses_at_every_b(B, b):
    low = [-1 / 2**i for i in range(b)]
    replay_slots(b, B, [
        ("run", 0, 0, range(b + 1)),
        ("run", 1, 1, low),
        ("cat", 1, 1, 0),
        ("del", 0, 0),
        ("cat", 1, 1, 0),
    ])


def replay_against_reference(opseq, b):
    acct = mk_account(b=b)
    q = cpqa.empty(acct)
    ref = []
    salt = 0
    for kind, k in opseq:
        if kind == "ins":
            q = cpqa.insert_and_attrite(q, Element(k))
            ref = oracle.naive_insert(ref, k)
        elif kind == "del":
            if not ref:
                continue
            e, q = cpqa.delete_min(q)
            (rk, _), ref = oracle.naive_delete_min(ref)
            assert e.key == rk
        else:
            salt += 1
            ks = sorted({(k * 7 + i * 131 + salt) % 2000 for i in range(5)})
            q = cpqa.catenate_and_attrite(q, build(acct, ks))
            ref = oracle.naive_catenate_and_attrite(ref, [(x, None) for x in ks])
        assert cpqa.validate(q) == []
    assert drained_keys(q) == [k for k, _ in ref]


def test_version_persistence_after_interleaving():
    acct = mk_account(b=4)
    q = cpqa.empty(acct)
    ref = []
    snapshots = []
    import random

    rng = random.Random(77)
    for step in range(200):
        k = rng.randrange(5000)
        q = cpqa.insert_and_attrite(q, Element(k))
        ref = oracle.naive_insert(ref, k)
        if rng.randrange(3) == 0 and ref:
            e, q = cpqa.delete_min(q)
            _, ref = oracle.naive_delete_min(ref)
        if step % 20 == 0:
            snapshots.append((q, [k for k, _ in ref]))
    # every retained version still drains to what it held when snapped
    for version, expect in snapshots:
        assert drained_keys(version) == expect
        assert cpqa.validate(version) == []
