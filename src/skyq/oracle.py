"""Plain-list reference implementations used to cross-check the fast paths.

Everything here is deliberately naive: a queue is the sorted list of its live
(key, payload) pairs, a point set is a list of (x, y) pairs. No sharing, no
cost accounting, no cleverness. The equivalence tests drive the real
structures and these side by side on the same operation streams.

This module must not import from the structure modules it checks.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from operator import itemgetter

__all__ = [
    "naive_catenate_and_attrite",
    "naive_insert",
    "naive_find_min",
    "naive_delete_min",
    "naive_maxima",
    "naive_query3",
    "naive_apply",
    "gen_ops",
]

_key = itemgetter(0)


def naive_catenate_and_attrite(xs: list, ys: list) -> list:
    """Append ys after xs, dropping every xs pair with key >= min key of ys."""
    if not ys:
        return list(xs)
    e = ys[0][0]
    return xs[: bisect_left(xs, e, key=_key)] + list(ys)


def naive_insert(xs: list, key, payload=None) -> list:
    return naive_catenate_and_attrite(xs, [(key, payload)])


def naive_find_min(xs: list):
    if not xs:
        raise IndexError("find_min on empty list")
    return xs[0]


def naive_delete_min(xs: list):
    if not xs:
        raise IndexError("delete_min on empty list")
    return xs[0], xs[1:]


def naive_maxima(points: list) -> list:
    """Maximal points (no other point has both a larger-or-equal x and y),
    in increasing x order. Coordinates are assumed pairwise distinct."""
    out: list = []
    besty = None
    for p in sorted(points, reverse=True):
        if besty is None or p[1] > besty:
            out.append(p)
            besty = p[1]
    out.reverse()
    return out


def naive_query3(points: list, x_lo, x_hi, y_min) -> list:
    """Maximal points among those with x in [x_lo, x_hi] and y >= y_min."""
    band = [p for p in points if x_lo <= p[0] <= x_hi and p[1] >= y_min]
    return naive_maxima(band)


# -- operation streams ---------------------------------------------------------


def naive_apply(refs: list, op):
    """Run one gen_ops operation on the reference lists refs, replacing the
    list it writes, and return its answer: a (key, payload) pair for
    find_min and delete_min, None on an empty list (which delete_min leaves
    as it is), the live pairs for drain, and None for the rest."""
    kind = op[0]
    if kind == "singleton":
        refs[op[1]] = [(op[2], None)]
    elif kind == "insert":
        refs[op[1]] = naive_insert(refs[op[2]], op[3])
    elif kind == "catenate":
        refs[op[1]] = naive_catenate_and_attrite(refs[op[2]], refs[op[3]])
    elif kind == "delete_min":
        if not refs[op[2]]:
            return None
        want, refs[op[1]] = naive_delete_min(refs[op[2]])
        return want
    elif kind == "find_min":
        return refs[op[1]][0] if refs[op[1]] else None
    else:  # drain
        return list(refs[op[1]])
    return None


_OPS = (
    ("insert", 55),
    ("catenate", 15),
    ("delete_min", 15),
    ("find_min", 10),
    ("singleton", 3),
    ("drain", 2),
)
_NAMES = tuple(n for n, _ in _OPS)
_WEIGHTS = tuple(w for _, w in _OPS)


def gen_ops(seed: int, count: int, pool: int = 64):
    """Deterministic operation stream over a fixed pool of queue slots.

    Yields tuples: ("singleton", dst, key), ("insert", dst, src, key),
    ("catenate", dst, a, b), ("delete_min", dst, src), ("find_min", src),
    ("drain", src). Keys are globally distinct across the stream.
    """
    rng = random.Random(seed)
    used: set[int] = set()

    def fresh_key() -> int:
        while True:
            k = rng.randrange(1 << 48)
            if k not in used:
                used.add(k)
                return k

    names = rng.choices(_NAMES, weights=_WEIGHTS, k=count)
    for name in names:
        dst = rng.randrange(pool)
        if name == "singleton":
            yield ("singleton", dst, fresh_key())
        elif name == "insert":
            yield ("insert", dst, rng.randrange(pool), fresh_key())
        elif name == "catenate":
            yield ("catenate", dst, rng.randrange(pool), rng.randrange(pool))
        elif name == "delete_min":
            yield ("delete_min", dst, rng.randrange(pool))
        elif name == "find_min":
            yield ("find_min", dst)
        else:
            yield ("drain", dst)
