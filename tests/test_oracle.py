"""Tests for the reference model itself.

The reference implementations are deliberately tiny list manipulations; these
tests pin their semantics down with hand-computed cases so the fuzz harnesses
elsewhere compare against a trusted baseline.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyq.oracle import (
    gen_ops,
    naive_apply,
    naive_catenate_and_attrite,
    naive_delete_min,
    naive_find_min,
    naive_insert,
    naive_maxima,
    naive_query3,
)


def keys(xs):
    return [k for k, _ in xs]


def test_catenate_cuts_left_at_right_min():
    left = [(3, None), (7, None), (9, None)]
    right = [(5, None), (8, None)]
    # 7 and 9 are >= 5, so they are attrited away
    assert keys(naive_catenate_and_attrite(left, right)) == [3, 5, 8]


def test_catenate_keeps_all_when_disjoint():
    left = [(1, None), (2, None)]
    right = [(10, None), (20, None)]
    assert keys(naive_catenate_and_attrite(left, right)) == [1, 2, 10, 20]


def test_catenate_can_empty_left():
    left = [(5, None), (6, None)]
    right = [(1, None)]
    assert keys(naive_catenate_and_attrite(left, right)) == [1]


def test_catenate_empty_sides():
    assert naive_catenate_and_attrite([], [(1, None)]) == [(1, None)]
    assert naive_catenate_and_attrite([(1, None)], []) == [(1, None)]
    assert naive_catenate_and_attrite([], []) == []


def test_insert_is_singleton_catenate():
    xs = [(3, None), (7, None), (9, None)]
    assert keys(naive_insert(xs, 5)) == [3, 5]


def test_insert_equal_key_removes_equal_tail():
    # the survivor rule is strict: equal keys do not survive in front
    xs = [(3, None), (5, None), (9, None)]
    assert keys(naive_insert(xs, 5)) == [3, 5]


def test_find_and_delete_min():
    xs = [(2, "a"), (4, "b")]
    assert naive_find_min(xs) == (2, "a")
    mn, rest = naive_delete_min(xs)
    assert mn == (2, "a")
    assert rest == [(4, "b")]
    with pytest.raises(IndexError):
        naive_find_min([])
    with pytest.raises(IndexError):
        naive_delete_min([])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 100), max_size=30),
    st.lists(st.integers(0, 100), max_size=30),
)
def test_catenate_output_strictly_increasing(ka, kb):
    # contents are only meaningful when the operands are themselves
    # strictly increasing survivor lists
    a = [(k, None) for k in sorted(set(ka))]
    b = [(k, None) for k in sorted(set(kb))]
    out = keys(naive_catenate_and_attrite(a, b))
    assert out == sorted(set(out))
    assert out[len(out) - len(b):] == keys(b)


def test_maxima_hand_case():
    pts = [(1, 5), (2, 3), (3, 8), (4, 1), (5, 6)]
    assert naive_maxima(pts) == [(3, 8), (5, 6)]


def test_maxima_increasing_only_last_survives():
    pts = [(i, i) for i in range(5)]
    assert naive_maxima(pts) == [(4, 4)]


def test_maxima_decreasing_keeps_last_only():
    pts = [(0, 5), (1, 4), (2, 3)]
    # every point dominates its successors in y, but each later point has
    # larger x, so only those with no higher y to their right survive
    assert naive_maxima(pts) == pts  # staircase: y decreasing, x increasing


def test_maxima_dominated_point_dropped():
    pts = [(0, 1), (1, 5)]
    assert naive_maxima(pts) == [(1, 5)]


def test_query3_band_and_maxima():
    pts = [(1, 5), (2, 3), (3, 8), (4, 1), (5, 6)]
    assert naive_query3(pts, 1, 5, 0) == [(3, 8), (5, 6)]
    assert naive_query3(pts, 1, 2, 0) == [(1, 5), (2, 3)]
    assert naive_query3(pts, 1, 5, 7) == [(3, 8)]
    assert naive_query3(pts, 4, 4, 2) == []


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 50)),
        max_size=40,
        unique_by=lambda p: p[0],
    )
)
def test_maxima_definition(pts):
    pts = sorted(pts)
    out = naive_maxima(pts)
    expected = [
        p for p in pts
        if not any(q[0] > p[0] and q[1] >= p[1] for q in pts)
    ]
    assert out == expected


def test_gen_ops_deterministic():
    a = list(gen_ops(11, 500, pool=8))
    b = list(gen_ops(11, 500, pool=8))
    assert a == b
    c = list(gen_ops(12, 500, pool=8))
    assert a != c


def test_gen_ops_shape():
    ops = list(gen_ops(3, 2000, pool=16))
    assert len(ops) == 2000
    kinds = {op[0] for op in ops}
    assert kinds <= {"singleton", "insert", "catenate", "delete_min", "find_min", "drain"}
    seen_keys = [op[-1] for op in ops if op[0] in ("singleton", "insert")]
    # keys are globally distinct so replays cannot mask aliasing bugs
    assert len(seen_keys) == len(set(seen_keys))
    for op in ops:
        if op[0] == "catenate":
            _, dst, a, b = op
            assert 0 <= dst < 16 and 0 <= a < 16 and 0 <= b < 16


def test_naive_apply_answers_every_op_kind():
    refs = [[], [(5, None)], []]
    assert naive_apply(refs, ("find_min", 0)) is None
    assert naive_apply(refs, ("delete_min", 2, 0)) is None
    assert refs == [[], [(5, None)], []]  # an empty pop writes nothing
    assert naive_apply(refs, ("singleton", 0, 3)) is None
    assert naive_apply(refs, ("insert", 2, 0, 7)) is None
    assert naive_apply(refs, ("catenate", 0, 2, 1)) is None
    assert refs == [[(3, None), (5, None)], [(5, None)], [(3, None), (7, None)]]
    assert naive_apply(refs, ("find_min", 2)) == (3, None)
    assert naive_apply(refs, ("delete_min", 1, 2)) == (3, None)
    assert refs[1] == [(7, None)] and refs[2] == [(3, None), (7, None)]
    assert naive_apply(refs, ("drain", 0)) == [(3, None), (5, None)]
    assert refs[0] == [(3, None), (5, None)]  # drain writes nothing
