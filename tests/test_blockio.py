"""Unit tests for the block transfer accounting layer."""

import pytest

from skyq.blockio import (
    IoAccount,
    IoConfig,
    IoCounters,
    PinError,
)


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
    assert a.pinned_words == 200


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
    s1 = a.snapshot()
    s2 = a.snapshot()
    assert s1 == s2
    a.charge_read_words(64)
    assert a.snapshot() != s1


def test_reset_clears_ledger():
    a = IoAccount(IoConfig(B=64, M=4096, b=16))
    with a.operation():
        a.charge_read_words(640)
    a.reset()
    assert a.counters.reads == 0
    assert a.max_op_blocks == 0
    assert a.last_op_blocks == 0
    assert not a.violation
