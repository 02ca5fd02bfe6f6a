"""Reference computations the benchmark checks the program against.

Nothing here imports the structures under test: a skyline answer is checked
by a sweep over a sorted copy of the live points, and a queue operation by
the plain-list model in ``skyq.oracle``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

_x = itemgetter(0)


def band_staircase(points: list, x_lo, x_hi, y_min) -> list:
    """Maxima among the points with x in [x_lo, x_hi] and y >= y_min.

    points is sorted by x. One right-to-left sweep keeps every point higher
    than all points to its right, so the answer comes out in increasing x.
    """
    out = []
    best = None
    for i in range(bisect_right(points, x_hi, key=_x) - 1, bisect_left(points, x_lo, key=_x) - 1, -1):
        p = points[i]
        if p[1] >= y_min and (best is None or p[1] > best):
            out.append(p)
            best = p[1]
    out.reverse()
    return out


def staircase_problem(answer: list, x_lo, x_hi, y_min) -> str | None:
    """Why answer cannot be a 3-sided maxima answer, or None if its shape holds:
    every point lies in the band, x strictly rises and y strictly falls."""
    prev = None
    for p in answer:
        if not (x_lo <= p[0] <= x_hi and p[1] >= y_min):
            return "point %r outside the band" % (p,)
        if prev is not None and not (p[0] > prev[0] and p[1] < prev[1]):
            return "point %r does not continue the staircase after %r" % (p, prev)
        prev = p
    return None


def query_problem(answer: list, expected: list, x_lo, x_hi, y_min) -> str | None:
    """Why a query3 answer is wrong, or None if it is right."""
    bad = staircase_problem(answer, x_lo, x_hi, y_min)
    if bad is not None:
        return bad
    if answer != expected:
        return "%d points returned, %d expected" % (len(answer), len(expected))
    return None


def queue_problem(got_element, want_element, got_contents: list, want_contents: list) -> str | None:
    """Why a queue operation's result is wrong, or None if it is right.

    got_element / want_element are the returned element (None when the
    operation returns none); the contents are the resulting version's live
    elements as (key, payload) pairs.
    """
    if got_element != want_element:
        return "returned %r, expected %r" % (got_element, want_element)
    if got_contents != want_contents:
        lost = len(set(want_contents) - set(got_contents))
        return "result holds %d live elements, expected %d (%d lost)" % (len(got_contents), len(want_contents), lost)
    return None
