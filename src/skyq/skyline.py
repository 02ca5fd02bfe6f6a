"""Dynamic planar 3-sided range-skyline index over the attrition queues.

Points live in a balanced order tree keyed by x. Every node holds one list,
items, in x order: a leaf holds up to b points, an internal node up to
2 * fanout children. Every node also carries a persistent queue version
holding the maxima staircase of its subtree: points are taken left to right
with key (-y, -x) (skyline_key), so appending a point attrites exactly the
earlier points it dominates. A leaf's staircase is built by one right-to-left
sweep over its points, which keeps a point only if it is higher than every
point after it, into one record (cpqa.from_run). An internal node's
staircase is the attriting catenation of its children's staircases, which
the queues fold in O(1) block transfers per node.

An update fetches every node on its leaf-to-root path and keeps each one's
count and extent, but rebuilds staircases only where they can change. A
point gained or lost that a point at least as high to its right in the same
leaf hides is on no staircase: the leaf keeps its queue version (unless it
splits or merges), and so does every node above it. Otherwise the update refolds
staircases only up to the first ancestor where the changed child is hidden:
its old and new staircases both have a minimum key no smaller than the least
minimum among its right siblings (an empty staircase counts as hidden). The
fold attrites such a child wholly, so that ancestor keeps its queue version,
and every node above it sees an unchanged child and keeps its own. Updates
keep every node within its capacity: a node over it splits in half, and the
two halves are refreshed right first. A node left with fewer than
max(1, capacity // 4) items merges with a neighbour, and if the merged list
is over capacity, splits in half again. A split or a merge always refolds
the parent.

A 3-sided query (x in [lo, hi], y >= ymin) decomposes the x-band into O(log n)
canonical pieces in x order: the staircases of whole subtrees, and the in-band
points of the leaves the band cuts. It reports by one right-to-left walk over
the pieces with a running key that starts at (-ymin, x above all): a cut
leaf reports each point whose key is below it, a staircase whose minimum is
below it is drained below it, and each lowers the key to its least key.
Catenating the pieces keeps an element exactly when it is live in its piece
and below every key after it, so the walk reports what catenating them and
draining below (-ymin, x above all) would, without building the catenation.
A staircase whose minimum is not below the running key is skipped unopened.
Reported points arrive in increasing x and cost roughly one block per b
points on top of the decomposition. The drain runs inside the query's
operation, so it pops nothing: it walks the staircase's records right to left
and reads each record that holds a reported point once. maxima() is the query
over the root's whole extent with ymin = -inf.

Coordinates must be pairwise distinct in x across the live set.

Block accounting: fetching a node costs one block for its routing data plus
ceil(words / B) for the staircase records an operation may touch (its queue's
critical records). The critical records of a version are fixed when it is
handed out, so each node keeps their word count (words) beside its queue
version, set whenever the version is. A query that drains a node's
staircase, or a refold that folds it, first brings those records into its
operation's memory (cpqa.bring_in), where they stay until the operation
ends. A query has fetched every node it drains; a refold has fetched the
child on the update's path, and its siblings' records are charged nothing.
The queue machinery itself then reads nothing cold, with one measured
exception: bias inside concat_sequence can load Bq records that no child
lists among its critical records. That happens on anti-correlated points
only, never on uniform ones.
"""

from __future__ import annotations

from bisect import insort

from . import cpqa
from .blockio import IoAccount, IoConfig, IoCounters

__all__ = ["SkylineIndex", "skyline_key"]


def skyline_key(point) -> tuple:
    """Queue key under which later points attrite the points they dominate.

    Ties in y break toward the larger x: of two points at the same height the
    right one survives, matching the strict "no point to the upper right"
    maxima rule.
    """
    return (-point[1], -point[0])


class _AboveAll:
    """Compares above every x key: (-y_min, _ABOVE_ALL) bounds exactly the
    keys (-y, -x) with y >= y_min, x = -inf included."""

    __slots__ = ()

    def __gt__(self, other) -> bool:
        return True


_ABOVE_ALL = _AboveAll()


def _derive_params(B: int, epsilon: float) -> tuple[int, int]:
    fanout = max(2, round(2 * B**epsilon))
    b = max(1, round(B ** (1.0 - epsilon)))
    return fanout, b


class _Node:
    """A leaf's points or an internal node's children, in x order, and the
    staircase and extent they make up."""

    __slots__ = ("leaf", "items", "queue", "words", "xmin", "xmax", "count")

    def __init__(self, leaf: bool, items: list):
        self.leaf = leaf
        self.items = items
        self.queue = None
        self.words = 0
        self.xmin = None
        self.xmax = None
        self.count = 0


class SkylineIndex:
    """Fully dynamic maxima index with simulated block-transfer costs.

    B is the block size in words, epsilon in (0, 1) splits it between tree
    fanout (about 2 * B**epsilon) and staircase buffering (b about
    B**(1 - epsilon)). All queries and updates run against one shared
    IoAccount; read its counters for the accumulated cost.
    """

    def __init__(self, points=(), *, B: int = 64, epsilon: float = 1 / 3):
        self.fanout, self.b = _derive_params(B, epsilon)
        self.account = IoAccount(IoConfig(B, 4096 * B, self.b))
        self.B = B
        self.root: _Node | None = None
        pts = sorted((p[0], p[1]) for p in points)
        for i in range(1, len(pts)):
            if pts[i - 1][0] == pts[i][0]:
                raise ValueError("duplicate x coordinate: %r" % (pts[i][0],))
        if pts:
            self._bulk_build(pts)

    # -- observation ---------------------------------------------------------

    def __len__(self) -> int:
        return self.root.count if self.root else 0

    def __contains__(self, point) -> bool:
        node = self.root
        if node is None:
            return False
        x = point[0]
        while not node.leaf:
            _, node = self._child_for(node, x)
        return point in node.items

    def counters(self) -> IoCounters:
        return self.account.snapshot()

    def maxima(self) -> list:
        """The live maxima staircase, in increasing x."""
        if self.root is None:
            return []
        return self.query3(self.root.xmin, self.root.xmax, float("-inf"))

    # -- queries ---------------------------------------------------------------

    def query3(self, x_lo, x_hi, y_min) -> list:
        """Maxima among the points with x in [x_lo, x_hi] and y >= y_min."""
        if self.root is None or x_lo > x_hi:
            return []
        pieces: list = []
        with self.account.operation():
            self._decompose(self.root, x_lo, x_hi, pieces)
            # right to left with a running key best: the catenation of the
            # pieces keeps an element iff it is live in its piece and below
            # every key after it, so a piece reports what it holds below best
            # and best falls to its least key; a queue with nothing below
            # best is not opened
            best = (-y_min, _ABOVE_ALL)
            out: list = []
            for piece in reversed(pieces):
                if type(piece) is list:
                    for p in reversed(piece):
                        key = skyline_key(p)
                        if key < best:
                            out.append(p)
                            best = key
                elif piece.cached_min is not None and piece.cached_min.key < best:
                    cpqa.bring_in(piece)
                    out += [el.payload for el in reversed(cpqa.drain(piece, below=best))]
                    best = piece.cached_min.key
            out.reverse()
            return out

    def _decompose(self, node: _Node, lo, hi, pieces: list) -> None:
        # canonical cover of the x-band, in x order: a whole node's queue, or
        # the in-band points of a leaf the band cuts
        self._charge_node(node)
        if node.count == 0 or node.xmax < lo or node.xmin > hi:
            return
        if lo <= node.xmin and node.xmax <= hi:
            pieces.append(node.queue)
        elif node.leaf:
            pts = [p for p in node.items if lo <= p[0] <= hi]
            if pts:
                pieces.append(pts)
        else:
            for ch in node.items:
                if ch.xmax is not None and ch.xmax >= lo and ch.xmin <= hi:
                    self._decompose(ch, lo, hi, pieces)

    # -- updates -----------------------------------------------------------------

    def insert(self, point) -> None:
        point = (point[0], point[1])
        with self.account.operation():
            if self.root is None:
                self.root = self._node(True, [point])
                return
            split = self._insert_rec(self.root, point)
            if split is not None:
                self.root = self._node(False, [self.root, split])

    def delete(self, point) -> bool:
        point = (point[0], point[1])
        if self.root is None:
            return False
        with self.account.operation():
            removed = self._delete_rec(self.root, point)
            if removed:
                if self.root.count == 0:
                    self.root = None
                else:
                    while not self.root.leaf and len(self.root.items) == 1:
                        self.root = self.root.items[0]
        return removed

    # -- node maintenance ----------------------------------------------------------

    def _child_for(self, node: _Node, x) -> "tuple[int, _Node]":
        """The index and the child whose x range routes x."""
        items = node.items
        last = len(items) - 1
        for i in range(last):
            if x <= items[i].xmax:
                return i, items[i]
        return last, items[last]

    def _charge_node(self, node: _Node) -> None:
        # routing data plus the staircase records an operation may touch
        self.account.charge_read_words(self.B + node.words)

    def _fold_points(self, pts):
        # the staircase of points in x order: right to left, a point survives
        # only if it is higher than every point after it
        keep = []
        for p in reversed(pts):
            if not keep or p[1] > keep[-1].payload[1]:
                keep.append(cpqa.Element(skyline_key(p), p))
        keep.reverse()
        return cpqa.from_run(self.account, keep)

    def _capacity(self, node: _Node) -> int:
        return self.b if node.leaf else 2 * self.fanout

    def _node(self, leaf: bool, items: list) -> _Node:
        node = _Node(leaf, items)
        self._refresh(node)
        return node

    def _refresh(self, node: _Node) -> None:
        """Rebuild the node's staircase, count and extent from its items.

        Updates call it on a leaf whose staircase may change (not when the
        point gained or lost is hidden in the leaf, see
        _leaf_keeps_staircase), on every node whose child list changed, and
        on the path up to the first ancestor whose changed child is hidden
        (see _keeps_staircase); above that, nodes keep their queue versions
        and only their counts and extents move. The fold first brings every
        child's critical records into the operation's memory, uncharged.
        It sets words with the queue: the critical records' word count that
        _charge_node charges.
        """
        items = node.items
        if node.leaf:
            q = self._fold_points(items)
            node.count = len(items)
            node.xmin, node.xmax = (items[0][0], items[-1][0]) if items else (None, None)
        else:
            queues = [ch.queue for ch in items if ch.queue.cached_min is not None]
            if queues:
                for q in queues:
                    cpqa.bring_in(q)
                q = cpqa.concat_sequence(queues)
            else:
                q = cpqa.empty(self.account)
            node.count = sum(ch.count for ch in items)
            node.xmin, node.xmax = items[0].xmin, items[-1].xmax
        node.queue = q
        node.words = sum(r.size for r in cpqa.critical_records(q))

    def _refresh_or_split(self, node: _Node) -> "_Node | None":
        """Refresh the node, or split it in half when it is over capacity and
        return the new right half."""
        items = node.items
        if len(items) <= self._capacity(node):
            self._refresh(node)
            return None
        half = len(items) // 2
        right = self._node(node.leaf, items[half:])
        node.items = items[:half]
        self._refresh(node)
        return right

    def _bulk_build(self, pts: list) -> None:
        with self.account.operation():
            b = self.b
            level = [self._node(True, pts[i : i + b]) for i in range(0, len(pts), b)]
            fan = self.fanout
            while len(level) > 1:
                nxt: list[_Node] = []
                for i in range(0, len(level), fan):
                    group = level[i : i + fan]
                    if len(group) == 1 and nxt:
                        # a stray child joins the previous group, which then
                        # holds fanout + 1 <= 2 * fanout children
                        group = nxt.pop().items + group
                    nxt.append(self._node(False, group))
                level = nxt
            self.root = level[0]

    def _insert_rec(self, node: _Node, point) -> "_Node | None":
        self._charge_node(node)
        if node.leaf:
            if any(p[0] == point[0] for p in node.items):
                raise ValueError("duplicate x coordinate: %r" % (point[0],))
            insort(node.items, point)
            if len(node.items) <= self.b and self._leaf_keeps_staircase(node, point, 1):
                return None
        else:
            i, ch = self._child_for(node, point[0])
            old = ch.queue
            split = self._insert_rec(ch, point)
            if split is not None:
                node.items.insert(i + 1, split)
            elif self._keeps_staircase(node, i, old, 1):
                return None
        return self._refresh_or_split(node)

    def _delete_rec(self, node: _Node, point, has_sibling: bool = False) -> bool:
        # a node that underflows and has a sibling is merged by its parent,
        # which refreshes the merged node, so it is not refreshed here
        self._charge_node(node)
        if node.leaf:
            if point not in node.items:
                return False
            node.items.remove(point)
            if self._leaf_keeps_staircase(node, point, -1):
                return True
        else:
            i, ch = self._child_for(node, point[0])
            old = ch.queue
            many = len(node.items) > 1
            if not self._delete_rec(ch, point, many):
                return False
            if many and self._underflows(ch):
                self._rebalance_child(node, i)
            elif self._keeps_staircase(node, i, old, -1):
                return True
        if not (has_sibling and self._underflows(node)):
            self._refresh(node)
        return True

    def _underflows(self, node: _Node) -> bool:
        return len(node.items) < max(1, self._capacity(node) // 4)

    def _leaf_keeps_staircase(self, node: _Node, point, added: int) -> bool:
        """After point joined (added 1) or left (added -1) the leaf's items:
        if a point at least as high lies to its right, keep the leaf's
        staircase, move its count by added, reset its extent and say so.

        _fold_points keeps a point only if it is higher than every point
        after it, so it drops such a point; and a point dominated by a later
        point q dominates nothing that q does not, so the other points keep
        their fate too.
        """
        x, y = point
        items = node.items
        if not any(q[1] >= y and q[0] > x for q in items):
            return False
        node.count += added
        node.xmin, node.xmax = items[0][0], items[-1][0]
        return True

    def _keeps_staircase(self, node: _Node, i: int, old, added: int) -> bool:
        """After an update below child i that left node's child list as it
        was: if the child, whose staircase was old, is hidden, keep node's
        staircase, move its count by added, reset its extent and say so.

        concat_sequence folds right to left, and _catenate(q, acc) returns acc
        untouched when acc's minimum key is <= q's. So the fold, and the
        bias that ends it, never see a child whose staircase version is
        unchanged, nor one whose old and new staircases are each empty or
        have a minimum key >= the least minimum key among its right siblings.
        """
        new = node.items[i].queue
        if new is not old:
            least = min(
                (ch.queue.cached_min.key for ch in node.items[i + 1 :] if ch.queue.cached_min is not None),
                default=None,
            )
            for q in (old, new):
                if q.cached_min is not None and (least is None or q.cached_min.key < least):
                    return False
        node.count += added
        node.xmin, node.xmax = node.items[0].xmin, node.items[-1].xmax
        return True

    def _rebalance_child(self, node: _Node, idx: int) -> None:
        # merge the child with a neighbour; an over-full merge splits again
        i = max(idx - 1, 0)
        lo = node.items[i]
        lo.items = lo.items + node.items.pop(i + 1).items
        right = self._refresh_or_split(lo)
        if right is not None:
            node.items.insert(i + 1, right)
