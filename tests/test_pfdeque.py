"""Unit tests for the persistent catenable deque."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyq.pfdeque import EmptyDequeError, PDeque


def agrees(d, ref):
    """d is a deque, not a bare tuple, and its length, truth, indexing and
    iteration all agree with the list ref."""
    assert type(d) is PDeque
    assert len(d) == len(ref)
    assert bool(d) is bool(ref)
    assert [d[i] for i in range(len(ref))] == ref
    assert [d[-i] for i in range(1, len(ref) + 1)] == ref[::-1]
    assert list(d) == ref


def test_empty():
    d = PDeque.empty()
    agrees(d, [])
    with pytest.raises(EmptyDequeError):
        d.first()
    with pytest.raises(EmptyDequeError):
        d.last()
    with pytest.raises(EmptyDequeError):
        d.pop()
    with pytest.raises(EmptyDequeError):
        d.eject()


def test_of_and_iter():
    d = PDeque.of([1, 2, 3])
    assert list(d) == [1, 2, 3]
    assert len(d) == 3
    assert d.first() == 1
    assert d.last() == 3


def test_push_pop_fifo_lifo():
    d = PDeque.empty()
    for i in range(10):
        d = d.inject(i)
    assert list(d) == list(range(10))
    front, rest = d.pop()
    assert front == 0
    assert list(rest) == list(range(1, 10))
    back, head = d.eject()
    assert back == 9
    assert list(head) == list(range(9))


def test_push_prepends():
    d = PDeque.of([5, 6])
    d2 = d.push(4)
    assert list(d2) == [4, 5, 6]
    # the original version is untouched
    assert list(d) == [5, 6]


def test_get_indexing():
    items = list(range(50))
    d = PDeque.of(items)
    for i in range(50):
        assert d.get(i) == i
    with pytest.raises(IndexError):
        d.get(50)
    assert d.get(-1) == 49
    assert d.get(-50) == 0
    with pytest.raises(IndexError):
        d.get(-51)


def test_catenate():
    a = PDeque.of([1, 2])
    b = PDeque.of([3, 4, 5])
    c = a.catenate(b)
    assert list(c) == [1, 2, 3, 4, 5]
    # operands survive
    assert list(a) == [1, 2]
    assert list(b) == [3, 4, 5]


def test_catenate_empty_sides():
    a = PDeque.of([1])
    e = PDeque.empty()
    assert list(a.catenate(e)) == [1]
    assert list(e.catenate(a)) == [1]
    assert list(e.catenate(e)) == []


def test_rest_front():
    d = PDeque.of([7, 8, 9])
    assert list(d.rest()) == [8, 9]
    assert list(d.front()) == [7, 8]


def test_persistence_under_mutation_sequence():
    versions = [PDeque.empty()]
    for i in range(64):
        versions.append(versions[-1].inject(i))
    for i, v in enumerate(versions):
        assert list(v) == list(range(i))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(), max_size=60), st.lists(st.integers(), max_size=60))
def test_catenate_matches_list_concat(xs, ys):
    assert list(PDeque.of(xs).catenate(PDeque.of(ys))) == xs + ys


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(), min_size=1, max_size=80), st.data())
def test_get_matches_list(xs, data):
    d = PDeque.of(xs)
    i = data.draw(st.integers(min_value=0, max_value=len(xs) - 1))
    assert d.get(i) == xs[i]


def test_random_op_equivalence():
    rng = random.Random(9)
    d = PDeque.empty()
    ref = []
    for step in range(2000):
        pick = rng.randrange(10)
        if pick == 0:
            x = rng.randrange(1000)
            d = d.push(x)
            ref.insert(0, x)
        elif pick == 1:
            x = rng.randrange(1000)
            d = d.inject(x)
            ref.append(x)
        elif pick == 2 and ref:
            front, d = d.pop()
            assert front == ref.pop(0)
        elif pick == 3 and ref:
            back, d = d.eject()
            assert back == ref.pop()
        elif pick == 4:
            other = [rng.randrange(1000) for _ in range(rng.randrange(5))]
            d = d.catenate(PDeque.of(other))
            ref.extend(other)
        elif pick == 5 and ref:
            i = rng.randrange(len(ref))
            assert d.get(i) == ref[i]
        elif pick == 6 and ref:
            d, ref = d.rest(), ref[1:]
        elif pick == 7 and ref:
            d, ref = d.front(), ref[:-1]
        elif pick == 8 and ref:
            d, ref = d.replace_first(-step), [-step] + ref[1:]
        elif pick == 9 and ref:
            d, ref = d.replace_last(-step), ref[:-1] + [-step]
        agrees(d, ref)
    assert list(d) == ref


def test_replace_ends_match_a_list_model():
    rng = random.Random(11)
    d = PDeque.empty()
    ref = []
    replaced = 0
    for step in range(3000):
        pick = rng.randrange(7)
        if pick == 0:
            x = rng.randrange(1000)
            d, ref = d.push(x), [x] + ref
        elif pick == 1:
            x = rng.randrange(1000)
            d, ref = d.inject(x), ref + [x]
        elif pick == 2 and len(ref) > 1:
            d, ref = d.pop()[1], ref[1:]
        elif pick == 3 and len(ref) > 1:
            d, ref = d.eject()[1], ref[:-1]
        elif pick == 4:
            other = [rng.randrange(1000) for _ in range(rng.randrange(6))]
            d, ref = d.catenate(PDeque.of(other)), ref + other
        elif ref:
            front = pick == 5
            x = -step
            new = d.replace_first(x) if front else d.replace_last(x)
            want = [x] + ref[1:] if front else ref[:-1] + [x]
            assert list(new) == want
            assert list(d) == ref  # the receiver is left unchanged
            d, ref = new, want
            replaced += 1
        assert len(d) == len(ref)
    assert replaced > 500
    assert list(d) == ref


def test_replace_ends_of_one_item_and_empty_deques():
    one = PDeque.of([7])
    agrees(one.replace_first(8), [8])
    agrees(one.replace_last(9), [9])
    agrees(one, [7])
    for replace in (PDeque.empty().replace_first, PDeque.empty().replace_last):
        with pytest.raises(EmptyDequeError):
            replace(1)


def test_one_item_and_empty_deques_stay_deques():
    one, none = PDeque.of([7]), PDeque.empty()
    assert one.pop()[0] == one.eject()[0] == 7
    for got in (one.pop()[1], one.eject()[1], one.rest(), one.front(), none.catenate(none)):
        agrees(got, [])
    for got in (one.catenate(none), none.catenate(one), none.push(7), none.inject(7)):
        agrees(got, [7])
    agrees(one.catenate(one), [7, 7])
    for method in (none.pop, none.eject, none.rest, none.front):
        with pytest.raises(EmptyDequeError):
            method()
