"""Simulated block-transfer cost accounting.

The queues in this package are measured in an external-memory model: data
moves between a disk and a main memory of M words in blocks of B words, and
the only cost is the number of block transfers. This module owns that ledger.

Cost model used by the queue layer:

- A record buffer of s words costs ceil(s / B) block reads when its contents
  are inspected, unless its run is already in memory. Residency is tracked by
  the exact buffer run (backing array, start, stop), so records that share a
  run share its residency. A record's run key is fixed when the record is
  made; records are immutable, so it never goes stale. A run is in memory
  when (a) the run is explicitly pinned, (b) the run belongs to the
  working set of an operand version, or (c) the operation created or read it
  earlier. A version's working set is fixed once, when an operation first
  hands the version out: its focal records (first/last few records of each
  deque) whose runs were in memory at that moment. Every queue is granted a
  constant number of resident blocks, so M must be at least b words per
  simultaneously live queue.
- Writes are charged when a dirty buffer leaves the focal set of an
  operation's result (it is flushed to disk). Buffers shorter than b words
  are never flushed: they fit in the queue's guaranteed resident block.
  Each backing array remembers how many of its words have been flushed, so
  a buffer repeatedly trimmed or extended in place only pays for new words.
- Spine nodes of the persistent deques hold no element data and are not
  charged; only record buffers count.
- Pinning is explicit, bounded by M, and never charges by itself; exceeding
  M sets a violation flag rather than raising, so a run can be inspected
  afterwards. A pin's handle is a record's run, the key every residency test
  uses, so pinning one record pins every record that views the same run.

Everything charges through an IoAccount; tests can temporarily suspend
charging. A suspended operation writes nothing back, so its words stay
unflushed until a charged operation displaces them and pays.

IoAccount.operation(*queues) is the one operation scope, and it owns the
working sets and the write-back: the outermost scope seeds its operand
versions' working sets on entry, and on exit writes back every flush
candidate that no version it handed out keeps in memory. That holds for
every outermost operation, a queue operation, an index operation or a
caller's own scope; the operations nested in it charge into it. The
outermost scope reads its block total off the counters: the charges only
move the counters, and the scope takes the difference on exit. This
module reads records and versions by duck typing: a record's run and buf
(start, stop, backing.flushed), and a version's resident records.

An account is used by one thread at a time. Its open operation, nesting
depth, suspension count and pin table are plain attributes with no locking.
The queue layer reads the open operation (_op) as an attribute on its hot
path, and both it and the write-back test a run against the pin table
(_pinned) directly. current_op() and depth() return the open operation and
the nesting depth.
Entering an operation or a suspended scope claims the account for the
calling thread; that thread may nest further scopes, while any other thread
that tries to enter one before the claim ends gets RuntimeError.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable
from dataclasses import dataclass

__all__ = [
    "IoConfig",
    "IoCounters",
    "IoAccount",
    "PinError",
]


class PinError(Exception):
    """Raised for pin/unpin of a handle the account has never seen."""


@dataclass(frozen=True)
class IoConfig:
    """Model parameters: block size B, memory size M, buffer parameter b.

    All three are in words (one element = one word). Requires 1 <= b <= B <= M.
    """

    B: int
    M: int
    b: int

    def __post_init__(self):
        if not (1 <= self.b <= self.B <= self.M):
            raise ValueError(
                "need 1 <= b <= B <= M, got b=%d B=%d M=%d" % (self.b, self.B, self.M)
            )

    def blocks(self, words: int) -> int:
        return -(-words // self.B) if words > 0 else 0


class IoCounters:
    """Monotone transfer counters: nothing moves them down."""

    __slots__ = ("reads", "writes", "peak_pinned_words")

    def __init__(self, reads: int = 0, writes: int = 0, peak_pinned_words: int = 0):
        self.reads = reads
        self.writes = writes
        self.peak_pinned_words = peak_pinned_words

    def snapshot(self) -> "IoCounters":
        return IoCounters(self.reads, self.writes, self.peak_pinned_words)

    def to_text(self) -> str:
        return "reads=%d writes=%d peak_pinned=%d" % (
            self.reads,
            self.writes,
            self.peak_pinned_words,
        )

    def __repr__(self) -> str:
        return "IoCounters(%s)" % self.to_text()


class IoAccount:
    """One ledger shared by a family of queues or one index instance.

    Used by one thread at a time; see the module docstring.
    """

    def __init__(self, cfg: IoConfig):
        self.cfg = cfg
        self.counters = IoCounters()
        self.violation = False
        self.max_op_blocks = 0
        self.last_op_blocks = 0
        self._registry: dict[Hashable, int] = {}
        self._pinned: dict[Hashable, int] = {}
        self._pinned_words = 0
        self._op: _Operation | None = None
        self._depth = 0
        self._suspend = 0
        self._owner = threading.RLock()

    # -- registry and pins ------------------------------------------------

    def register(self, handle: Hashable, words: int) -> None:
        """Make a handle of the given size pinnable; the queue layer's handle
        is a record's run (Record.run). The registration lasts until the
        handle is unpinned."""
        self._registry[handle] = words

    def pin(self, handle: Hashable) -> None:
        """Mark a handle as memory-resident. Flags (not raises) if pins exceed M."""
        if handle not in self._registry:
            raise PinError("pin of unknown handle %r" % (handle,))
        if handle in self._pinned:
            return
        words = self._registry[handle]
        self._pinned[handle] = words
        self._pinned_words += words
        if self._pinned_words > self.counters.peak_pinned_words:
            self.counters.peak_pinned_words = self._pinned_words
        if self._pinned_words > self.cfg.M:
            self.violation = True

    def unpin(self, handle: Hashable) -> None:
        """Release a pin and the handle's registration with it."""
        if handle not in self._pinned:
            raise PinError("unpin of handle %r that is not pinned" % (handle,))
        self._pinned_words -= self._pinned.pop(handle)
        del self._registry[handle]

    def is_pinned(self, handle: Hashable) -> bool:
        return handle in self._pinned

    # -- raw charging ------------------------------------------------------

    def charge_read_words(self, words: int) -> int:
        if self._suspend or words <= 0:
            return 0
        n = self.cfg.blocks(words)
        self.counters.reads += n
        return n

    def charge_read_blocks(self, n: int) -> None:
        """Charge n block reads, already counted in blocks."""
        if not self._suspend:
            self.counters.reads += n

    def charge_write_words(self, words: int) -> int:
        if self._suspend or words <= 0:
            return 0
        n = self.cfg.blocks(words)
        self.counters.writes += n
        return n

    # -- operation scoping -------------------------------------------------

    def operation(self, *queues):
        """Context manager bounding one public operation on the given queue
        versions (its operands); see _Operation."""
        return _Operation(self, queues)

    def suspended(self):
        """Context manager under which nothing is charged (for oracles/tests)."""
        return _Suspend(self)

    def current_op(self) -> _Operation | None:
        return self._op

    def depth(self) -> int:
        return self._depth

    def snapshot(self) -> IoCounters:
        return self.counters.snapshot()

    def _claim(self) -> None:
        # reentrant, so the owner thread nests scopes; others fail at once
        # positional: the keyword form costs more per scope on CPython 3.11
        if not self._owner.acquire(False):
            raise RuntimeError("account in use by another thread")


class _Operation:
    """One operation scope; the outermost one carries the operation's state.

    The outermost scope is the account's open operation (_op). On entry it
    seeds the operands' working sets; on exit it writes back, then closes
    the operation, also when the body raised. A nested scope claims the
    account and counts depth, and does nothing else; its operands are
    already covered by the outermost scope's memory.

    runs: the buffer runs in memory for the duration of the operation, each
    keyed (id(backing), start, stop): the operands' working sets, and every
    run read or created here. held: the flush candidates, the records the
    write-back may still charge for: at least b words, and words above their
    backing's flushed watermark when listed (the watermark only rises, and
    the write-back charges nothing at or below it). Those of the operands'
    working sets come first (a record two operands share is listed twice),
    then those created here. kept: the versions the operation hands out;
    their working sets stay in memory. start: the counters' reads plus
    writes on entry; the difference on exit is the operation's block total.
    """

    __slots__ = ("account", "operands", "runs", "start", "held", "kept")

    def __init__(self, account: IoAccount, operands: tuple):
        self.account = account
        self.operands = operands

    def __enter__(self) -> "_Operation":
        account = self.account
        account._claim()
        account._depth += 1
        if account._op is not None:
            return account._op
        account._op = self
        self.runs = runs = set()
        counters = account.counters
        self.start = counters.reads + counters.writes
        self.held = held = []
        self.kept = []
        b = account.cfg.b
        for q in self.operands:
            for rec in q.resident:
                runs.add(rec.run)
                buf = rec.buf
                if buf.stop - buf.start >= b and buf.backing.flushed < buf.stop:
                    held.append(rec)
        return self

    def __exit__(self, *exc) -> None:
        account = self.account
        if account._op is not self:
            account._depth -= 1
            account._owner.release()
            return None
        try:
            # suspended, nothing is flushed (see the module docstring)
            if self.held and not account._suspend:
                self._write_back()
        finally:
            account._op = None
            account._depth -= 1
            counters = account.counters
            blocks = counters.reads + counters.writes - self.start
            account.last_op_blocks = blocks
            if blocks > account.max_op_blocks:
                account.max_op_blocks = blocks
            account._owner.release()
        return None

    def _write_back(self) -> None:
        # Each held record whose run stays in no handed-out working set is
        # flushed. held lists only buffers of at least b words, the only
        # ones ever flushed, that still had words above their watermark, so
        # with none held the handed-out working sets are not looked at. A
        # record listed twice (a working set shared by two operands) is
        # skipped by the same test, or finds its words already under the
        # flushed watermark. cover maps each backing to the furthest stop of
        # a run that stays resident in a handed-out working set, so it also
        # covers those runs' own records.
        cover: dict[int, int] = {}
        for q in self.kept:
            for rec in q.resident:
                bid, _, stop = rec.run
                if cover.get(bid, -1) < stop:
                    cover[bid] = stop
        account = self.account
        pinned = account._pinned
        for rec in self.held:
            run = rec.run
            bid, start, stop = run
            if cover.get(bid, -1) >= stop or run in pinned:
                continue  # pinned, or a run as long on its backing stays resident
            backing = rec.buf.backing
            lo = backing.flushed
            if start > lo:
                lo = start
            words = stop - lo
            if words > 0:
                backing.flushed = stop
                account.charge_write_words(words)


class _Suspend:
    __slots__ = ("account",)

    def __init__(self, account: IoAccount):
        self.account = account

    def __enter__(self):
        self.account._claim()
        self.account._suspend += 1
        return self

    def __exit__(self, *exc):
        self.account._suspend -= 1
        self.account._owner.release()
        return None
