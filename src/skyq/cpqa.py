"""Persistent catenable priority queues with attrition, in block-transfer cost.

A queue is an immutable version of an ordered element sequence whose logical
contents are the elements strictly smaller than everything that follows them:
appending a run whose minimum key is e atomically deletes (attrites) every
earlier element with key >= e. Deletion is lazy. Attrited elements may linger
in buffers as zombies until some operation happens to cut the run they sit in,
but they are never reported and never affect the minimum.

Representation. A version holds three groups of record deques:

    C    clean deque: all elements alive, records simple
    Bq   buffer deque: records simple, may hold zombies in their tails
    D    dirty deques D_1 .. D_k: records may hold zombies anywhere and may
         carry a child queue holding elements that sit between this record's
         buffer and the next record

A record is an immutable (buffer, child) pair. Buffers are strictly
increasing element runs of at most 5b words, stored as views into shared
append-only backings. A record made from one buffer's words is a view of it,
so cutting or extending a run never copies what it keeps; only a join of two
runs copies (_Buf.join). _join is the one merge-or-split: a short run joins
the record behind it, and a join over its cap leaves a head of 2b words and
the rest of that record as a view. The physical element order of a version
is C, Bq, D_1 .. D_k, each record contributing its buffer and then its
child's elements. Queues holding fewer than b elements are a single short
simple record in C.

Insertion is catenation with a one-element unit version. When the fences
allow the catenation only to append the element to the physically last
record (b > 1, the queue is not one short record, the element lies above
that record, and the record has no child and room for one more word),
insert_and_attrite grows that record in place and builds no unit version;
otherwise it builds one and catenates.

Ordering facts maintained across operations (checked by validate):

    - each buffer is strictly increasing, and within one deque consecutive
      records are strictly increasing across their boundary;
    - a record's buffer lies strictly below its child's minimum;
    - the last clean record lies strictly below the first buffered record and
      strictly below the first dirty record;
    - the first dirty record's first element is the minimum of everything in
      the dirty deques;
    - a nonempty version has a clean record, and bias, which keeps every live
      element, never returns a version without records;
    - the head rule: a version an operation hands out that holds more than
      one record has a clean head of at least b words;
    - the structure counter delta(Q) = |C| - sum |D_i| - k + 1 is nonnegative
      between operations. Bias raises it by at least one, touching O(1)
      records near deque ends. A lone catenation or delete_min lowers it by
      a known bound and then biases as often: the general catenation once or
      twice, delete_min once, when its refill merges a record.

The first element of the first record is therefore the global minimum; every
version caches it, which makes find_min free.

Cost model. Every public operation runs in an account operation scope, and
residency is tracked by exact buffer run: (backing, start, stop), a key fixed
when the record is made (Record.run). Reading a record's contents charges
ceil(size / B) block reads unless its run is in memory: the run is
pinned, or it is in an operand version's working set, or this
operation created or read it already. Record fence keys (min/max), sizes and
the per-version cached minimum are maintained metadata and free. A version's
working set is fixed once, when an operation first hands the version out
(_keep): its focal records whose runs are in memory at that point. Buffers
shorter than b words live in the version's guaranteed memory allowance and
are never flushed, and a backing's words at or below its flushed watermark
are never charged again (the watermark only rises), so the scope holds only
the flush candidates: the operands' working-set records of at least b words
with words above the watermark, then such records created here. The
scope is blockio's (IoAccount.operation): its outermost instance seeds the
operands' working sets and, when it exits, writes back each candidate that
did not stay in any handed-out version's working set, ceil(words / B) block
writes per backing run above its flushed watermark. An index operation is
such an outermost scope too, so its nested queue operations write back when
it ends. Spine nodes are not charged: a deque is a tuple of records, and
rewriting an end record (PDeque.replace_first, replace_last) copies that
tuple and reads nothing.
critical_records names the records worth pinning or bringing in (bring_in)
and registers nothing: whoever pins a record registers its run with the
account first, and the pin covers every record that views that run.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from operator import attrgetter
from typing import Any, Iterator, NamedTuple

from .blockio import IoAccount
from .pfdeque import PDeque

__all__ = [
    "Element",
    "EmptyQueueError",
    "ConfigMismatchError",
    "PreconditionViolatedError",
    "StructureError",
    "Queue",
    "Record",
    "empty",
    "singleton",
    "from_run",
    "find_min",
    "delete_min",
    "insert_and_attrite",
    "catenate_and_attrite",
    "concat_sequence",
    "bias",
    "delta",
    "critical_records",
    "bring_in",
    "logical_elements",
    "size_elements",
    "record_count",
    "total_records",
    "drain",
    "validate",
    "dump",
]


class EmptyQueueError(Exception):
    """Raised by find_min/delete_min on an empty queue."""


class ConfigMismatchError(Exception):
    """Raised when operands charge different accounts."""


class PreconditionViolatedError(Exception):
    """Raised by concat_sequence when a queue's delta is too low."""


class StructureError(AssertionError):
    """Internal contract violation; message carries a structure dump."""


class Element(NamedTuple):
    key: Any
    payload: Any = None


_elkey = attrgetter("key")


def _as_element(e) -> Element:
    if not isinstance(e, Element):
        e = Element(e, None)
    if e.key != e.key:
        # NaN is neither below nor above any key, so the cuts that attrite
        # by key would drop the live keys around it
        raise ValueError("NaN key: %r" % (e,))
    return e


# -- buffers ----------------------------------------------------------------


class _Backing(list):
    """Append-only element run shared by the buffer views cut from it.

    flushed is the write-back watermark: words below it have already been
    charged as block writes and are never charged again.
    """

    __slots__ = ("flushed",)

    def __init__(self, items=()):
        super().__init__(items)
        self.flushed = 0


class _Buf:
    """Immutable view [start:stop) of a backing run."""

    __slots__ = ("backing", "start", "stop")

    def __init__(self, backing: _Backing, start: int, stop: int):
        self.backing = backing
        self.start = start
        self.stop = stop

    @classmethod
    def of(cls, items) -> "_Buf":
        backing = _Backing(items)
        return cls(backing, 0, len(backing))

    @staticmethod
    def join(left: "_Buf", right: "_Buf") -> "_Buf":
        """left's words, then right's. Only a join of two nonempty runs
        copies; when one side is empty the other is the answer as it is."""
        if left.start == left.stop:
            return right
        if right.start == right.stop:
            return left
        return _Buf.of(left.backing[left.start : left.stop] + right.backing[right.start : right.stop])

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def first(self) -> Element:
        return self.backing[self.start]

    def tolist(self) -> list[Element]:
        return self.backing[self.start : self.stop]

    def cut_lt(self, key) -> "_Buf":
        """Prefix view of the elements with key strictly below the given key."""
        i = bisect_left(self.backing, key, self.start, self.stop, key=_elkey)
        return _Buf(self.backing, self.start, i)

    def prefix(self, n: int) -> "_Buf":
        return _Buf(self.backing, self.start, self.start + n)

    def drop_front(self, n: int) -> "_Buf":
        return _Buf(self.backing, self.start + n, self.stop)

    def extend_tip(self, items: list[Element]) -> "_Buf":
        """Append items, sharing the backing when this view is its tip."""
        backing = self.backing
        if len(backing) == self.stop:
            backing.extend(items)
            return _Buf(backing, self.start, self.stop + len(items))
        return _Buf.of(self.tolist() + items)


class Record:
    """One structural node: an increasing element run plus an optional child.

    run is the buffer's residency key, (id(backing), start, stop), fixed when
    the record is made. A record keeps its backing alive, so the id in its
    key cannot be reused while the record lives. A backing let go of while a
    scope is open could only have its id reused by one made later in the
    scope, whose records are all created here, so their runs are in already.
    """

    __slots__ = ("buf", "child", "run")

    def __init__(self, buf: _Buf, child: "Queue | None" = None):
        self.buf = buf
        self.child = child
        self.run = (id(buf.backing), buf.start, buf.stop)

    @property
    def size(self) -> int:
        return self.buf.stop - self.buf.start

    @property
    def min_key(self):
        buf = self.buf
        return buf.backing[buf.start].key

    @property
    def max_key(self):
        buf = self.buf
        return buf.backing[buf.stop - 1].key

    def __repr__(self) -> str:
        child = "-" if self.child is None else repr(self.child)
        keys = "%r..%r" % (self.min_key, self.max_key) if self.size else "empty"
        return "(%s,n=%d,child=%s)" % (keys, self.size, child)


def _new_record(account: IoAccount, buf: _Buf, child: "Queue | None" = None) -> Record:
    rec = Record(buf, child)
    scope = account._op
    if scope is not None:
        scope.runs.add(rec.run)
        if buf.stop - buf.start >= account.cfg.b and buf.backing.flushed < buf.stop:
            scope.held.append(rec)
    return rec


def _load(account: IoAccount, rec: Record) -> None:
    """Bring a record's contents into memory for the open operation; every
    caller runs inside one."""
    scope = account._op
    run = rec.run
    if run not in scope.runs:
        scope.runs.add(run)
        if run not in account._pinned:
            account.charge_read_words(rec.size)


# -- versions ---------------------------------------------------------------


def _focal_records(Q: Queue) -> tuple[Record, ...]:
    # The records any single operation may need: both ends of C plus its
    # second record, the head of Bq, and the ends of the dirty fringe (the
    # last two records of D_k, or D_k's one record and the last of D_k-1).
    # Distinct positions hold distinct records (validate checks), so a
    # record repeats only where two positions coincide; those are skipped.
    # It indexes the deques, as it runs for every version handed out; the
    # other reads here call first/last/get, the deque calls the benchmark's
    # tracer counts.
    C, Bq, D = Q.C, Q.Bq, Q.D
    out: list[Record] = []
    n = len(C)
    if n:
        out.append(C[0])
        if n > 1:
            out.append(C[1])
            if n > 2:
                out.append(C[-1])
    if Bq:
        out.append(Bq[0])
    if D:
        d1, dk = D[0], D[-1]
        out.append(d1[0])
        n = len(dk)
        if len(D) == 1:
            if n > 1:
                out.append(dk[-1])
                if n > 2:
                    out.append(dk[n - 2])
        else:
            out.append(dk[-1])
            if n > 1:
                out.append(dk[n - 2])
            elif len(D) > 2 or len(d1) > 1:
                out.append(D[-2][-1])
    return tuple(out)


class Queue:
    """One immutable queue version. Build with empty()/singleton() and the ops.

    focal and resident are fixed when an operation first hands the version
    out: its focal records, and those of them whose runs were in memory then.
    """

    __slots__ = ("account", "C", "Bq", "D", "cached_min", "focal", "resident")

    def __init__(
        self,
        account: IoAccount,
        C: PDeque,
        Bq: PDeque,
        D: tuple[PDeque, ...],
        cached_min: Element | None,
    ):
        self.account = account
        self.C = C
        self.Bq = Bq
        self.D = D
        self.cached_min = cached_min
        self.focal: tuple[Record, ...] | None = None
        self.resident: tuple[Record, ...] = ()

    def __repr__(self) -> str:
        if self.cached_min is None:
            return "<Queue empty>"
        return "<Queue min=%r delta=%d>" % (self.cached_min.key, delta(self))


def _panic(Q: Queue, msg: str):
    raise StructureError(msg + "\n" + dump(Q))


def _keep(account: IoAccount, Q: Queue) -> Queue:
    """Hand Q out as an operation result: its working set stays in memory.

    The first hand-out fixes Q's working set; a version kept again keeps it.
    """
    scope = account._op
    if Q.focal is None:
        runs = scope.runs
        Q.focal = focal = _focal_records(Q)
        Q.resident = tuple([rec for rec in focal if rec.run in runs])
    scope.kept.append(Q)
    return Q


def _front_element(C: PDeque, Bq: PDeque, D: tuple[PDeque, ...]) -> Element:
    # every caller passes at least one record
    for dq in (C, Bq) + D:
        if dq:
            return dq.first().buf.first


def _is_small_rep(Q: Queue) -> bool:
    C = Q.C
    if len(C) != 1 or Q.Bq or Q.D:
        return False
    rec = C.first()
    return rec.child is None and rec.size < Q.account.cfg.b


# -- construction and observation -------------------------------------------


def empty(account: IoAccount) -> Queue:
    return Queue(account, PDeque.empty(), PDeque.empty(), (), None)


def _one_record(account: IoAccount, buf: _Buf) -> Queue:
    """The version of one simple record over buf, kept as an operation hands
    it out. So is an insert's unit, which the insert catenates instead: at
    b == 1 its one-word buffer would otherwise be written back when the
    catenation merges it away."""
    rec = _new_record(account, buf)
    return _keep(account, Queue(account, PDeque.of([rec]), PDeque.empty(), (), buf.first))


def singleton(account: IoAccount, e) -> Queue:
    return from_run(account, [e])


def from_run(account: IoAccount, elements) -> Queue:
    """The version that inserting at most b elements, in order, into an empty
    queue gives: one right-to-left sweep keeps each element whose key is
    below every key after it, in one short simple record."""
    items = [_as_element(e) for e in elements]
    if len(items) > account.cfg.b:
        raise ValueError("from_run takes at most b=%d elements" % account.cfg.b)
    keep: list[Element] = []
    for el in reversed(items):
        if not keep or el.key < keep[-1].key:
            keep.append(el)
    keep.reverse()
    with account.operation():
        return _one_record(account, _Buf.of(keep)) if keep else empty(account)


def find_min(Q: Queue) -> Element:
    if Q.cached_min is None:
        raise EmptyQueueError("find_min on empty queue")
    return Q.cached_min


def delta(Q: Queue) -> int:
    return len(Q.C) - sum(len(d) for d in Q.D) - len(Q.D) + 1


def critical_records(Q: Queue) -> tuple[Record, ...]:
    """The records an operation on this version may touch; pinned or
    brought in (bring_in), they keep the version's operations free of cold
    reads. A pure query: whoever pins a record registers it first."""
    return Q.focal if Q.focal is not None else _focal_records(Q)


def bring_in(Q: Queue) -> None:
    """Count the runs of Q's critical records as read by the open operation,
    charging nothing: the caller prices them (the index charges a node's
    critical records when it fetches the node). A no-op outside an
    operation."""
    scope = Q.account._op
    if scope is not None:
        scope.runs.update([rec.run for rec in critical_records(Q)])


# -- attrition surgery helpers ----------------------------------------------


def _drop_tail(C: PDeque, Bq: PDeque, D: tuple[PDeque, ...]):
    """(C, Bq, D) without the physically last record."""
    if D:
        rest = D[-1].front()
        return C, Bq, D[:-1] + (rest,) if rest else D[:-1]
    if Bq:
        return C, Bq.front(), D
    return C.front(), Bq, D


def _replace_tail(C: PDeque, Bq: PDeque, D: tuple[PDeque, ...], rec: Record):
    """(C, Bq, D) with rec in place of the physically last record, as if that
    record were ejected and rec injected into the same kind of deque: when
    the ejection empties the last of several dirty deques, rec joins the
    dirty deque before it."""
    if D:
        dk = D[-1]
        if len(dk) == 1 and len(D) > 1:
            return C, Bq, D[:-2] + (D[-2].inject(rec),)
        return C, Bq, D[:-1] + (dk.replace_last(rec),)
    if Bq:
        return C, Bq.replace_last(rec), D
    return C.replace_last(rec), Bq, D


def _join(account: IoAccount, items: _Buf, rec: Record, child: "Queue | None", cap: int):
    """Put items, a run of at most 2b words below rec's buffer, in front of
    that buffer: (None, one record) when the two fit in cap words, else
    (a head of exactly 2b words, the rest of rec's buffer as a view). Either
    way the last record carries child. Only the words joined are copied."""
    _load(account, rec)
    n = items.stop - items.start
    if n + rec.size <= cap:
        return None, _new_record(account, _Buf.join(items, rec.buf), child)
    take = 2 * account.cfg.b - n
    head = _new_record(account, _Buf.join(items, rec.buf.prefix(take)))
    return head, _new_record(account, rec.buf.drop_front(take), child)


def _put_front(dq: PDeque, head: Record | None, rec: Record) -> PDeque:
    """dq with rec in place of its first record, and head, if any, before it."""
    dq = dq.replace_first(rec)
    return dq if head is None else dq.push(head)


# -- catenation --------------------------------------------------------------


def catenate_and_attrite(Q1: Queue, Q2: Queue) -> Queue:
    if Q1.account is not Q2.account:
        raise ConfigMismatchError("queues charge different accounts")
    account = Q1.account
    with account.operation(Q1, Q2):
        return _keep(account, _catenate(account, Q1, Q2, False))


def insert_and_attrite(Q: Queue, e) -> Queue:
    e = _as_element(e)
    account = Q.account
    with account.operation(Q):
        # Sundar's insert is _catenate(Q, unit(e)). When that would only
        # grow Q's tail record by e (the last branch of _cat_small_right),
        # grow it here without making the unit version; the charges are the
        # same, since the unit is made in the scope (loading it is free), is
        # shorter than b (never flushed), and its working set is its own
        # backing. At b = 1 the unit is no short run and the catenation goes
        # general. A key above the last record is above Q's minimum too.
        m = Q.cached_min
        b = account.cfg.b
        if b > 1 and m is not None and not _is_small_rep(Q):
            D = Q.D
            r_last = (D[-1] if D else (Q.Bq or Q.C)).last()
            if r_last.child is None and e.key > r_last.max_key and r_last.size < 5 * b:
                return _keep(account, _grow_tail(account, Q, r_last, [e], m))
        return _keep(account, _catenate(account, Q, _one_record(account, _Buf.of([e])), False))


def _catenate(account: IoAccount, Q1: Queue, Q2: Queue, seq: bool) -> Queue:
    # seq marks a step of concat_sequence's fold: _cat_general then biases
    # only as far as delta >= 1, and the fold's closing bias raises the
    # result to 2. It pays on skyline refolds: with every step run as a lone
    # catenation, 200 insert/delete pairs and 100 queries on 20,000
    # anti-correlated points read 4% more at (B, eps) = (64, 1/3) and 14%
    # more at (16, 1/2); uniform points read the same.
    if Q2.cached_min is None:
        return Q1
    if Q1.cached_min is None:
        return Q2
    e = Q2.cached_min.key
    if e <= Q1.cached_min.key:
        return Q2  # Q1 is fully attrited
    new_min = Q1.cached_min
    b = account.cfg.b
    if _is_small_rep(Q1):
        return _cat_small_left(account, Q1, Q2, e, new_min, b)
    if _is_small_rep(Q2):
        res = _cat_small_right(account, Q1, Q2, e, new_min, b)
        if res is not None:
            return res
        # oversize merges fall through to the general machinery
    return _cat_general(account, Q1, Q2, e, new_min, b, seq)


def _cat_small_left(account, Q1, Q2, e, new_min, b):
    # Q1 is one short simple record: fold its survivors into Q2's first record.
    r1 = Q1.C.first()
    _load(account, r1)
    # e is above Q1's minimum, the first key of r1 (_catenate), so the cut
    # holds at least that key
    r2 = Q2.C.first()
    head, r2new = _join(account, r1.buf.cut_lt(e), r2, r2.child, 4 * b)
    return Queue(account, _put_front(Q2.C, head, r2new), Q2.Bq, Q2.D, new_min)


def _cat_small_right(account, Q1, Q2, e, new_min, b):
    # Q2 is one short simple run: absorb it at Q1's tail when the fences
    # allow, so short runs do not pile up as one-record deques.
    rq2 = Q2.C.first()
    cap = 5 * b
    C1, B1, D1 = Q1.C, Q1.Bq, Q1.D
    tail = D1[-1] if D1 else (B1 or C1)  # dirty deques are never empty
    r_last = tail.last()
    if e <= r_last.min_key:
        # the whole tail record dies (its child too, which sits above it)
        if len(tail) > 1:
            r_prev = tail.get(len(tail) - 2)
        else:
            ahead = [d for d in (C1, B1, *D1) if d]
            r_prev = ahead[-2].last() if len(ahead) > 1 else None
        if r_prev is None or e <= r_prev.min_key:
            return None  # attrition reaches deeper, general dispatch
        if e > r_prev.max_key:
            rec = _new_record(account, rq2.buf)
            return Queue(account, *_replace_tail(C1, B1, D1, rec), new_min)
        _load(account, r_prev)
        keep = r_prev.buf.cut_lt(e)
        if len(keep) + rq2.size > cap:
            return None
        _load(account, rq2)
        merged = _new_record(account, _Buf.join(keep, rq2.buf))
        return Queue(account, *_replace_tail(*_drop_tail(C1, B1, D1), merged), new_min)
    if e <= r_last.max_key:
        # partial cut kills the tail's upper run and its child
        _load(account, r_last)
        keep = r_last.buf.cut_lt(e)
        if len(keep) + rq2.size > cap:
            return None
        _load(account, rq2)
        merged = _new_record(account, _Buf.join(keep, rq2.buf))
        return Queue(account, *_replace_tail(C1, B1, D1, merged), new_min)
    if r_last.child is not None:
        return None  # the new run must land after the live child
    if r_last.size + rq2.size > cap:
        return None
    _load(account, rq2)
    return _grow_tail(account, Q1, r_last, rq2.buf.tolist(), new_min)


def _grow_tail(account, Q1, r_last, items, new_min):
    # Q1 with items appended to its physically last record r_last, a simple
    # record below every item with room for them
    _load(account, r_last)
    grown = _new_record(account, r_last.buf.extend_tip(items))
    return Queue(account, *_replace_tail(Q1.C, Q1.Bq, Q1.D, grown), new_min)


def _behead(account: IoAccount, Q2: Queue) -> tuple[Record, Queue | None]:
    """Split Q2 into its first clean record and the remaining version."""
    l2rec = Q2.C.first()
    C2r = Q2.C.rest()
    if not C2r and not Q2.Bq and not Q2.D:
        return l2rec, None
    rest = Queue(account, C2r, Q2.Bq, Q2.D, _front_element(C2r, Q2.Bq, Q2.D))
    return l2rec, rest


def _cat_general(account, Q1, Q2, e, new_min, b, seq):
    C1, B1, D1 = Q1.C, Q1.Bq, Q1.D
    if not C1:
        _panic(Q1, "catenate on a version with an empty clean deque")
    l2rec, rest = _behead(account, Q2)
    # rest becomes a record's child, and a child needs a clean record
    if rest is not None and (not seq or delta(rest) < 0 or not rest.C):
        rest = bias(rest)

    bdead = bool(B1) and e <= B1.first().min_key
    if e <= C1.last().max_key:
        # attrition reaches into C: C becomes the zombie buffer, everything
        # behind it dies outright
        newrec = _new_record(account, l2rec.buf, rest)
        res = Queue(account, PDeque.empty(), C1, (PDeque.of([newrec]),), new_min)
    elif not D1 or e <= D1[0].first().min_key:
        # every dirty element dies; the buffer deque survives unless dead too
        newrec = _new_record(account, l2rec.buf, rest)
        keepB = PDeque.empty() if (bdead or not B1) else B1
        res = Queue(account, C1, keepB, (PDeque.of([newrec]),), new_min)
    else:
        # some dirty elements survive: open a new dirty deque at the tail
        newD, keep = D1, None
        tail = D1[-1].last()
        if tail.size < b:
            # short simple tail: cut it into the new deque
            _load(account, tail)
            _, _, newD = _drop_tail(C1, B1, D1)
            keep = tail.buf.cut_lt(e)
        if keep:
            head, last = _join(account, keep, l2rec, rest, 4 * b)
            recs = [last] if head is None else [head, last]
        else:
            recs = [_new_record(account, l2rec.buf, rest)]
        newD = newD + (PDeque.of(recs),)
        keepB = PDeque.empty() if bdead else B1
        res = Queue(account, C1, keepB, newD, new_min)
        if not seq:
            res = bias(res)
    # the branches leave delta at -1, at |C1| - 1, and at delta(Q1) - 2 or
    # more, the last biased once already: one bias more makes each >= 0
    if not seq:
        return bias(res)
    while delta(res) < 1:
        res = bias(res)
    return res


# -- minimum extraction -------------------------------------------------------


def delete_min(Q: Queue) -> tuple[Element, Queue]:
    if Q.cached_min is None:
        raise EmptyQueueError("delete_min on empty queue")
    account = Q.account
    b = account.cfg.b
    with account.operation(Q):
        C, Bq, D = Q.C, Q.Bq, Q.D
        if not C:
            _panic(Q, "nonempty version with no clean record")
        r = C.first()
        _load(account, r)
        el = r.buf.first
        if el.key != Q.cached_min.key:
            _panic(Q, "cached minimum does not match the first element")
        rest_buf = r.buf.drop_front(1)
        if len(C) == 1 and not Bq and not D:
            if len(rest_buf) == 0:
                return el, _keep(account, Queue(account, PDeque.empty(), PDeque.empty(), (), None))
            return el, _one_record(account, rest_buf)
        if len(rest_buf) >= b:
            res = Queue(account, C.replace_first(_new_record(account, rest_buf)), Bq, D, rest_buf.first)
        else:
            # refill the head to b..3b words from the next clean record. By
            # the head rule r held at least b words, so rest_buf holds b - 1
            # and one record refills it. A lone clean record is followed by
            # at most one dirty record, as delta(Q) >= 0, so when r was the
            # only clean record one bias surfaces the next one
            C2 = C.rest()
            if not C2:
                tmp = bias(Queue(account, C2, Bq, D, _front_element(C2, Bq, D)))
                C2, Bq, D = tmp.C, tmp.Bq, tmp.D
            nxt = C2.first()
            _load(account, nxt)
            if nxt.size <= 2 * b:
                headrec = _new_record(account, _Buf.join(rest_buf, nxt.buf))
                # the merge lowered delta by one from delta(Q) >= 0; one bias
                # restores it, or leaves the version all clean (delta |C| + 1)
                res = bias(Queue(account, C2.rest().push(headrec), Bq, D, headrec.buf.first))
            else:
                take = b if nxt.size <= 3 * b else 2 * b
                C2 = C2.replace_first(_new_record(account, nxt.buf.drop_front(take)))
                headrec = _new_record(account, _Buf.join(rest_buf, nxt.buf.prefix(take)))
                res = Queue(account, C2.push(headrec), Bq, D, headrec.buf.first)
        return el, _keep(account, res)


def drain(Q: Queue, *, below=None) -> list[Element]:
    """The live elements with key < below (all of them when below is None),
    in increasing key order; Q itself stays valid.

    One operation on Q at any depth: it walks Q's records right to left and
    reads only the records that hold a reported element and lie outside
    Q's working set, each once (_live). It hands Q back, so its working set
    stays in memory and the drain writes nothing.
    """
    if below != below:
        raise ValueError("NaN drain bound: %r" % (below,))
    account = Q.account
    with account.operation(Q):
        out = _live(Q, below, _load)
        _keep(account, Q)
        return out


# -- rebalancing --------------------------------------------------------------


def bias(Q: Queue) -> Queue:
    """One bias step: raise delta(Q) by at least one, or leave Q all clean.
    On all-clean or empty versions a no-op outside any operation, so
    last_op_blocks keeps the previous call's figure: an operation that
    handed Q back would fix Q's working set there and move charges (the
    queue-drift benchmark's first round writes 849 blocks, not 870)."""
    if Q.cached_min is None or (not Q.Bq and not Q.D):
        return Q
    account = Q.account
    with account.operation(Q):
        return _keep(account, _bias_step(account, Q, 0))


def _bias_step(account: IoAccount, Q: Queue, depth: int) -> Queue:
    if depth > 3:
        _panic(Q, "bias recursion exceeded its bound")
    b = account.cfg.b
    C, Bq, D = Q.C, Q.Bq, Q.D
    nm = Q.cached_min
    if len(D) > 1:
        return _bias_dirty_pair(account, C, Bq, D, nm, b)
    if Bq and D:
        return _bias_buffer(account, C, Bq, D, nm, b, depth)
    if Bq:
        # no dirty deques, so nothing behind Bq attrites it: fold it clean
        return Queue(account, C.catenate(Bq), PDeque.empty(), (), nm)
    return _bias_absorb(account, C, D, nm, b)


def _combine_pair(account, l1p: _Buf, r2: Record, b: int, allow_takes: bool):
    """Attach a surviving run l1p, a view of the buffer it was cut from, just
    below record r2.

    Returns (kind, replacement_for_r2, standalone_record). kind "prepend"
    merges into r2's buffer; "standalone" leaves r2 (possibly shortened) and
    emits a separate simple record that goes below it. Taking elements out of
    r2 is only allowed when the caller can place them next to r2's deque
    without putting live elements above older zombies.
    """
    n1 = len(l1p)
    n2 = r2.size
    if n1 == 0 and not (allow_takes and n2 > 2 * b):
        return "prepend", r2, None
    if n1 < 2 * b and n2 <= 2 * b and (allow_takes or n1 + n2 <= 3 * b):
        stand, r2new = _join(account, l1p, r2, r2.child, 3 * b)
        return ("prepend" if stand is None else "standalone"), r2new, stand
    if allow_takes and n1 < 2 * b:
        # r2 is long: its first b words go down with the survivors
        _load(account, r2)
        stand = _new_record(account, _Buf.join(l1p, r2.buf.prefix(b)))
        return "standalone", _new_record(account, r2.buf.drop_front(b), r2.child), stand
    return "standalone", r2, _new_record(account, l1p)


def _bias_buffer(account, C, Bq, D, nm, b, depth):
    # Move the head of Bq out: its survivors either prepend onto the first
    # dirty record or become a clean record. Runs only when k == 1, so
    # elements taken out of the first dirty record are sound in C.
    r1, Brest = Bq.pop()
    d1 = D[0]
    r2 = d1.first()
    e = r2.min_key
    _load(account, r1)
    keep = r1.buf.cut_lt(e)
    attrited = len(keep) < r1.size
    b_gone = attrited or not Brest
    kind, r2new, stand = _combine_pair(account, keep, r2, b, b_gone)
    newB = PDeque.empty() if b_gone else Brest
    newD = (d1.replace_first(r2new),) + D[1:]
    if kind == "prepend":
        return _bias_step(account, Queue(account, C, newB, newD, nm), depth + 1)
    return Queue(account, C.inject(stand), newB, newD, nm)


def _bias_dirty_pair(account, C, Bq, D, nm, b):
    # Shrink the dirty fringe by resolving the boundary between the last two
    # deques. All movement stays inside dirty territory.
    left = D[-2]
    right = D[-1]
    e = right.first().min_key
    r1 = left.last()
    if e <= r1.min_key:
        # the boundary record and its child die outright
        rest = left.front()
        newD = D[:-2] + (rest, right) if rest else D[:-2] + (right,)
        return Queue(account, C, Bq, newD, nm)
    if e <= r1.max_key:
        _load(account, r1)
        keep = r1.buf.cut_lt(e)
        rest = left.front()
        kind, r2new, stand = _combine_pair(account, keep, right.first(), b, True)
        merged = rest.catenate(_put_front(right, stand, r2new))
        return Queue(account, C, Bq, D[:-2] + (merged,), nm)
    return Queue(account, C, Bq, D[:-2] + (left.catenate(right),), nm)


def _bias_absorb(account, C, D, nm, b):
    # k == 1 and no buffer deque: surface the first dirty buffer as a clean
    # record and splice its child in, attrited by what remains dirty.
    d1 = D[0]
    r, d1rest = d1.pop()
    _load(account, r)
    moved = _new_record(account, r.buf)
    newC = C.inject(moved)
    Dres: tuple[PDeque, ...] = (d1rest,) if d1rest else ()
    emin = d1rest.first().min_key if d1rest else None
    child = r.child
    if child is None or child.cached_min is None or (emin is not None and emin <= child.cached_min.key):
        res = Queue(account, newC, PDeque.empty(), Dres, nm)  # no child left alive
    else:
        Cc, Bc, Dc = child.C, child.Bq, child.D
        if not Cc:
            _panic(child, "child version with an empty clean deque")
        if emin is not None and emin <= Cc.last().max_key:
            res = Queue(account, newC, Cc, Dres, nm)
        elif not Dc or (emin is not None and emin <= Dc[0].first().min_key):
            keepB = Bc if (Bc and (emin is None or Bc.first().min_key < emin)) else PDeque.empty()
            res = Queue(account, newC.catenate(Cc), keepB, Dres, nm)
        else:
            res = Queue(account, newC.catenate(Cc), Bc, Dc + Dres, nm)
    if not C and r.size <= 2 * b:
        res = _repair_head(account, res, moved, nm, b)
    return res


def _repair_head(account, res, moved, nm, b):
    # A short record was surfaced to the very front: join it to its
    # successor (_join) so the head stays comfortably sized.
    first_rec, Crest = res.C.pop()
    if first_rec is not moved:
        _panic(res, "surfaced record is not at the front")
    if not Crest and not res.Bq and not res.D:
        return res  # nothing to merge with
    # bias meets an empty C only ahead of at most one dirty record (delta >=
    # 0, or _cat_general's fresh one), the one surfaced here, so whatever is
    # left behind it starts with its child's clean records
    if not Crest:
        _panic(res, "repair could not surface a successor record")
    r2 = Crest.first()
    head, r2new = _join(account, moved.buf, r2, r2.child, 3 * b)
    newC = _put_front(Crest, head, r2new)
    return Queue(account, newC, res.Bq, res.D, nm)


# -- folding a prepared sequence -----------------------------------------------


def concat_sequence(queues: list[Queue]) -> Queue:
    """Fold catenate_and_attrite right to left over an ordered sequence.

    Every queue must arrive prepared: delta >= 2 unless it is empty or all
    clean (an all-clean version has delta |C| + 1 >= 2 anyway). The result
    is prepared too, since the fold ends by biasing it up to delta 2, so it
    can go into a later fold as it is. With each queue's critical records
    pinned or brought in, the fold reads nothing cold, with one measured
    exception: a bias inside the fold can load Bq records that no operand
    lists among its critical records. Skyline refolds reach that on
    anti-correlated points only, never on uniform ones.
    """
    if not queues:
        raise PreconditionViolatedError("empty sequence")
    account = queues[0].account
    for i, q in enumerate(queues):
        if q.account is not account:
            raise ConfigMismatchError("queues charge different accounts")
        if (q.Bq or q.D) and delta(q) < 2:
            raise PreconditionViolatedError(
                "queue %d of the sequence has delta %d with %d records" % (i, delta(q), record_count(q))
            )
    with account.operation(*queues):
        acc = queues[-1]
        for q in reversed(queues[:-1]):
            acc = _catenate(account, q, acc, True)
        while (acc.Bq or acc.D) and delta(acc) < 2:
            acc = bias(acc)
        return _keep(account, acc)


# -- measures -----------------------------------------------------------------


def record_count(Q: Queue) -> int:
    return len(Q.C) + len(Q.Bq) + sum(len(d) for d in Q.D)


def _versions(Q: Queue) -> Iterator[Queue]:
    """Each version reachable from Q exactly once, depth first: a version
    before its children, and children in record order."""
    seen: set[int] = set()
    stack = [Q]
    while stack:
        q = stack.pop()
        if id(q) in seen:
            continue
        seen.add(id(q))
        yield q
        kids = [rec.child for dq in (q.C, q.Bq, *q.D) for rec in dq if rec.child is not None]
        stack.extend(reversed(kids))


def total_records(Q: Queue) -> int:
    """Records reachable from this version, children included."""
    return len({id(rec) for q in _versions(Q) for dq in (q.C, q.Bq, *q.D) for rec in dq})


def _live(Q: Queue, below, load) -> list[Element]:
    """The live elements with key < below, in increasing key order, by one
    right-to-left walk that keeps the running minimum (below to start with).

    A version whose cached minimum, or a record whose first key, is not
    below the running minimum holds nothing live and is skipped unopened.
    Every record opened therefore reports its buffer's part below the
    running minimum, which one bisect cuts, and is passed to load first.
    """
    account = Q.account
    best = below
    parts: list[_Buf] = []
    # versions and records, rightmost on top: a record's child sits above
    # it, since the child's elements follow the record's buffer
    stack: list[Queue | Record] = [Q]
    while stack:
        x = stack.pop()
        if type(x) is Queue:
            if x.cached_min is not None and (best is None or x.cached_min.key < best):
                for dq in (x.C, x.Bq, *x.D):
                    for rec in dq:
                        stack.append(rec)
                        if rec.child is not None:
                            stack.append(rec.child)
        elif best is None or x.min_key < best:
            if load is not None:
                load(account, x)
            parts.append(x.buf if best is None else x.buf.cut_lt(best))
            best = x.min_key
    out: list[Element] = []
    for part in reversed(parts):
        out += part.tolist()
    return out


def logical_elements(Q: Queue) -> list[Element]:
    """Live elements in increasing key order; reads nothing (see _live)."""
    return _live(Q, None, None)


def size_elements(Q: Queue) -> int:
    """Number of live elements. Walks the version; attrition keeps this
    uncomputable in constant time."""
    return len(logical_elements(Q))


# -- validation ----------------------------------------------------------------


def _validate_one(q: Queue, b: int) -> list[str]:
    """Invariant violations of one version, not looking into its children."""
    if q.cached_min is None:
        return ["shape: empty version holds records"] if q.C or q.Bq or q.D else []
    bad: list[str] = []
    C, Bq, D = q.C, q.Bq, q.D
    if not C:
        bad.append("shape: no clean records on a nonempty version")
    if not all(D):
        bad.append("shape: empty dirty deque")
        return bad
    dirty_min = front = None
    ids: set[int] = set()
    twice = False
    names = ["C", "B"] + ["D%d" % (i + 1) for i in range(len(D))]
    for name, dq in zip(names, (C, Bq, *D)):
        if not dq:
            continue
        dirty = name[0] == "D"
        empty = disorder = oversize = carries = False
        prev = None
        for rec in dq:
            if id(rec) in ids:
                twice = True
            ids.add(id(rec))
            if not rec.size:
                empty = True
            else:
                if front is None:
                    front = rec.buf.first
                if prev is not None and prev.size and prev.max_key >= rec.min_key:
                    disorder = True
                elif not disorder:
                    disorder = any(x.key >= y.key for x, y in itertools.pairwise(rec.buf.tolist()))
                if dirty and (dirty_min is None or rec.min_key < dirty_min):
                    dirty_min = rec.min_key
            if rec.size > 5 * b:
                oversize = True
            child = rec.child
            if child is not None:
                carries = True
                # records with children belong in dirty deques; check their fences
                if dirty and child.cached_min is None:
                    bad.append("child-placement: record points at an empty child")
                elif dirty and rec.max_key >= child.cached_min.key:
                    bad.append("child-order: record buffer reaches into its child")
            prev = rec
        if empty:
            bad.append("buffer-empty: %s holds a record with no elements" % name)
        if empty or disorder:
            bad.append("record-order: %s records are not strictly increasing" % name)
        if oversize:
            bad.append("buffer-bounds: %s holds a record above 5b words" % name)
        if carries and not dirty:
            kind = "clean" if name == "C" else "buffered"
            bad.append("child-placement: %s record carries a child" % kind)
    if twice:
        # the focal set is deduplicated by position (_focal_records)
        bad.append("shape: record appears twice")
    if C:
        tail = C.last()
        if Bq and not (tail.size and Bq.first().size and tail.max_key < Bq.first().min_key):
            bad.append("record-order: clean tail not below buffer head")
        if D and not (tail.size and D[0].first().size and tail.max_key < D[0].first().min_key):
            bad.append("record-order: clean tail not below first dirty record")
    if D:
        lead = D[0].first()
        if not lead.size or dirty_min < lead.min_key:
            bad.append("dirty-min: first dirty record does not hold the dirty minimum")
    if delta(q) < 0:
        bad.append("state-counter: delta is negative")
    # the physical front is the first element of the first nonempty record
    if front is None or front.key != q.cached_min.key:
        bad.append("min-cache: cached minimum differs from the physical front")
    if D:
        tail = D[-1].last()
        if tail.size < b and tail.child is not None:
            bad.append("tail-record: short dirty tail carries a child")
    if len(C) == 1 and not Bq and not D:
        rec = C.first()
        if rec.size < b and rec.child is not None:
            bad.append("tail-record: short single record carries a child")
    return bad


def validate(Q: Queue) -> list[str]:
    """All invariant violations reachable from this version, a version's
    before its children's; [] when sound. Each message names its version
    qN as dump(Q) does. The head rule binds only Q, q0, and only once an
    operation has handed it out (_keep)."""
    account = Q.account
    b = account.cfg.b
    bad = []
    if Q.focal is not None and Q.C and record_count(Q) > 1 and Q.C.first().size < b:
        bad.append("q0 head-rule: handed-out clean head holds under b words")
    with account.suspended():
        return bad + ["q%d %s" % (i, msg) for i, q in enumerate(_versions(Q)) for msg in _validate_one(q, b)]


# -- debugging -----------------------------------------------------------------


def dump(Q: Queue) -> str:
    """Text layout of a version and its children; qN is the Nth version of
    _versions(Q), Q itself q0."""
    order = list(_versions(Q))
    local = {id(q): i for i, q in enumerate(order)}

    def fmt(rec: Record) -> str:
        child = "-" if rec.child is None else "q%d" % local[id(rec.child)]
        keys = "%s..%s" % (rec.min_key, rec.max_key) if rec.size else "empty"
        return "(%s,n=%d,child=%s)" % (keys, rec.size, child)

    lines: list[str] = []
    for i, q in enumerate(order):
        mink = "-" if q.cached_min is None else repr(q.cached_min.key)
        lines.append("queue q%d delta=%d min=%s" % (i, delta(q), mink))
        lines.append("C: [%s]" % "|".join(fmt(r) for r in q.C))
        lines.append("B: [%s]" % "|".join(fmt(r) for r in q.Bq))
        for i, dq in enumerate(q.D):
            lines.append("D%d: [%s]" % (i + 1, "|".join(fmt(r) for r in dq)))
    return "\n".join(lines)
