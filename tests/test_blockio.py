"""Unit tests for the block transfer accounting layer."""

import random

import pytest

from skyq import blockio, cpqa
from skyq.blockio import (
    IoAccount,
    IoConfig,
    IoCounters,
    PinError,
)
from skyq.skyline import SkylineIndex


def test_config_validation():
    IoConfig(B=64, M=4096, b=16)
    with pytest.raises(ValueError):
        IoConfig(B=0, M=64, b=1)
    with pytest.raises(ValueError):
        IoConfig(B=128, M=64, b=8)
    with pytest.raises(ValueError):
        IoConfig(B=64, M=4096, b=0)
    with pytest.raises(ValueError):
        IoConfig(B=64, M=4096, b=65)


def test_blocks_ceiling():
    cfg = IoConfig(B=64, M=4096, b=16)
    assert cfg.blocks(0) == 0
    assert cfg.blocks(1) == 1
    assert cfg.blocks(64) == 1
    assert cfg.blocks(65) == 2
    assert cfg.blocks(100) == 2
    assert cfg.blocks(128) == 2
    assert cfg.blocks(129) == 3


def test_charges_accumulate():
    a = IoAccount(IoConfig(B=64, M=4096, b=16))
    a.charge_read_words(100)   # 2 blocks
    a.charge_write_words(64)   # 1 block
    a.charge_read_words(0)     # free
    assert a.counters.reads == 2
    assert a.counters.writes == 1


def test_suspended_charges_are_free():
    a = IoAccount(IoConfig(B=64, M=4096, b=16))
    with a.suspended():
        a.charge_read_words(10_000)
        a.charge_write_words(10_000)
    assert a.counters.reads == 0
    assert a.counters.writes == 0


def test_block_charges_join_the_operation_unless_suspended():
    a = IoAccount(IoConfig(B=64, M=4096, b=16))
    with a.operation():
        a.charge_read_blocks(3)
        a.charge_read_words(64)
        with a.suspended():
            a.charge_read_blocks(10)
    assert a.counters.reads == 4
    assert a.last_op_blocks == 4


def test_pin_tracking_and_peak():
    a = IoAccount(IoConfig(B=64, M=1024, b=16))
    a.register(1, 100)
    a.register(2, 200)
    a.pin(1)
    a.pin(2)
    assert a.is_pinned(1)
    assert a.counters.peak_pinned_words == 300
    a.unpin(1)
    assert not a.is_pinned(1)
    # peak is a high-water mark, not the current level
    assert a.counters.peak_pinned_words == 300
    assert a._pinned == {2: 200}


def test_pin_requires_registration():
    a = IoAccount(IoConfig(B=64, M=1024, b=16))
    with pytest.raises(PinError):
        a.pin(12345)
    with pytest.raises(PinError):
        a.unpin(12345)


def test_pin_overflow_flags_without_raising():
    a = IoAccount(IoConfig(B=64, M=128, b=16))
    a.register(7, 4096)
    a.pin(7)
    assert a.violation


def test_operation_scope_tracks_per_op_blocks():
    a = IoAccount(IoConfig(B=64, M=4096, b=16))
    with a.operation():
        a.charge_read_words(64)
        a.charge_write_words(64)
    assert a.last_op_blocks == 2
    with a.operation():
        a.charge_read_words(64 * 5)
    assert a.last_op_blocks == 5
    assert a.max_op_blocks == 5


def test_nested_operations_fold_into_outermost():
    a = IoAccount(IoConfig(B=64, M=4096, b=16))
    with a.operation():
        a.charge_read_words(64)
        with a.operation():
            a.charge_read_words(64)
        assert a.depth() == 1
    assert a.depth() == 0
    assert a.last_op_blocks == 2


def test_counters_serialization():
    c = IoCounters(reads=3, writes=5, peak_pinned_words=77)
    assert c.to_text() == "reads=3 writes=5 peak_pinned=77"


def test_counters_snapshot_and_equality():
    a = IoAccount(IoConfig(B=64, M=4096, b=16))
    a.charge_read_words(64)

    def fields(c):
        return c.reads, c.writes, c.peak_pinned_words

    s1 = a.snapshot()
    s2 = a.snapshot()
    assert s1 is not s2 and fields(s1) == fields(s2) == (1, 0, 0)
    a.charge_read_words(64)
    # a snapshot does not follow the live counters
    assert fields(a.snapshot()) == (2, 0, 0) and fields(s1) == (1, 0, 0)


def _built(acct, keys):
    q = cpqa.empty(acct)
    for k in keys:
        q = cpqa.insert_and_attrite(q, k)
    return q


def _public_calls():
    """Public call name -> (the account it charges, the call), on small
    operands made here; the account is None for the bulk build, which
    makes its own."""
    acct = IoAccount(IoConfig(B=4, M=1 << 20, b=2))
    low, high = _built(acct, range(0, 40)), _built(acct, range(60, 100))
    mixed = cpqa.catenate_and_attrite(low, _built(acct, range(20, 50)))
    assert mixed.Bq or mixed.D  # so bias has a step to take
    rng = random.Random(5)
    pts = list(zip(rng.sample(range(10_000), 300), rng.sample(range(10_000), 300)))
    idx = SkylineIndex(pts, B=16, epsilon=0.5)
    return {
        "insert_and_attrite": (acct, lambda: cpqa.insert_and_attrite(low, 10.5)),
        "catenate_and_attrite": (acct, lambda: cpqa.catenate_and_attrite(mixed, high)),
        "delete_min": (acct, lambda: cpqa.delete_min(mixed)),
        "drain": (acct, lambda: cpqa.drain(mixed)),
        "drain below": (acct, lambda: cpqa.drain(mixed, below=30)),
        "concat_sequence": (acct, lambda: cpqa.concat_sequence([low, high])),
        "bias": (acct, lambda: cpqa.bias(mixed)),
        "from_run": (acct, lambda: cpqa.from_run(acct, [3, 1])),
        "SkylineIndex build": (None, lambda: SkylineIndex(pts, B=16, epsilon=0.5)),
        "query3": (idx.account, lambda: idx.query3(2_000, 9_000, 1_000)),
        "insert": (idx.account, lambda: idx.insert((10_001, 10_001))),
        "delete": (idx.account, lambda: idx.delete(pts[7])),
    }


@pytest.mark.parametrize("name", list(_public_calls()))
def test_every_public_call_is_one_operation_priced_by_last_op_blocks(monkeypatch, name):
    """A public call that reads records closes exactly one outermost
    operation, so last_op_blocks is all the call charged."""
    acct, call = _public_calls()[name]
    closed = []
    exit_ = blockio._Operation.__exit__

    def spy(self, *exc):
        if self.account._op is self:
            closed.append(self)
        return exit_(self, *exc)

    before = 0
    if acct is not None:
        # an operation of 1000 blocks first, so a stale last_op_blocks shows
        with acct.operation():
            acct.charge_read_blocks(1000)
        before = acct.counters.reads + acct.counters.writes
    monkeypatch.setattr(blockio._Operation, "__exit__", spy)
    out = call()
    if acct is None:
        acct = out.account
    assert len(closed) == 1
    assert acct.last_op_blocks == acct.counters.reads + acct.counters.writes - before
