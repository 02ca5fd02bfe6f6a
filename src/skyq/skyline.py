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

Every node but the root holds between its floor, max(1, capacity // 4)
items, and its capacity. The bulk build cuts each level into runs of b
points or fanout children, and a last run under its floor joins the one
before it (joined points past b split evenly in two), so no node starts
below its floor, and updates keep it so. An update is one walk down to its
leaf (_path), charged once, and one walk back up (_settle), shared by
insert and delete. A node over capacity splits in half, the halves
refreshed right first; a node under its floor is merged with a neighbour by
its parent, and split again if the merged list is over capacity; either
refolds the parent. Other nodes refold staircases only where they can
change. One hiding rule says where: a key is hidden by the keys after it
when it is not below one of them, that is, when it is at least their least
(keys are totally ordered tuples, never NaN), and an attriting catenation
then drops it. A point gained or lost that the points to its right in its
leaf hide is on no staircase and dominates nothing its hider does not, so
the leaf keeps its queue version; as x is distinct, the leaf tests this by
height alone: some point to the right is at least as high
(_hidden_in_leaf). Otherwise the walk refolds up to the first ancestor
whose changed child has its old and new minima hidden by its right
siblings' staircases (_child_hidden): the fold attrites that child wholly.
From the first node that keeps its staircase and its size, the walk only
resets extents, and it stops at the first node whose extent does not move:
a node's extent is its end children's, so no node above moves either. Nodes
keep no point count; the index keeps one. A refold folds only the children
that the hiding rule leaves visible.

A 3-sided query (x in [lo, hi], y >= ymin) is one right-to-left descent to
the band's O(log n) canonical pieces along its two boundary paths: whole
subtrees in the band, and the leaves it cuts. A running key starts at
(-ymin, x above all). A cut leaf reports each in-band point whose key is
below it; a whole subtree is skipped unopened if the key hides its
staircase's minimum, and drained below the key otherwise; each lowers the
key to its least key. Catenating the pieces keeps an element exactly when it
is live in its piece and below every key after it, so the descent reports
what catenating them and draining below (-ymin, x above all) would, without
building the catenation. The drain is one walk inside the query's operation,
so it reads each record that holds a reported point once: about one block
per b points on top of the node fetches. maxima() is the query
over the root's whole extent with ymin = -inf.

Coordinates must not be NaN, and x must be distinct across the live set.

Block accounting: fetching a node costs one block for its routing data plus
ceil(w / B) for the w words of staircase records an operation may touch (its
queue's critical records). The critical records of a version are fixed when
it is handed out, so each node keeps that fetch price (price) beside its
queue version, set whenever the version is. A query charges each node it
visits; an update adds up its path's prices before it changes anything and
charges the sum once. A query that drains a node's staircase, or a refold
that folds it, first brings those records into its operation's memory
(cpqa.bring_in), where they stay until the operation ends. A query has
fetched every node it drains; a refold has fetched the child on the update's
path, and its siblings' records are charged nothing.
The queue machinery itself then reads nothing cold, with one measured
exception: bias inside concat_sequence can load Bq records that no child
lists among its critical records. That happens on anti-correlated points
only, never on uniform ones. Every index operation is an outermost
operation scope, so when it ends the records of at least b words that its
queue operations displaced are written back. Anti-correlated staircases
reach that size often; at b = 16 uniform ones seldom do, so there most
index operations write nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter

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
    keys (-y, -x) with y >= y_min, x = -inf included. The ordering is
    complete, so the bound may stand on either side of any comparison."""

    __slots__ = ()

    def __gt__(self, other) -> bool:
        return True

    def __ge__(self, other) -> bool:
        return True

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return False


_ABOVE_ALL = _AboveAll()
_XMAX = attrgetter("xmax")


def _hidden_in_leaf(items, j, y) -> bool:
    """Whether a point at height y just left of items[j:] is hidden by them:
    one is at least as high. x is distinct and increases along items, so
    this is the hiding rule over their skyline keys."""
    for i in range(j, len(items)):
        if items[i][1] >= y:
            return True
    return False


def _point(p) -> tuple:
    x, y = p[0], p[1]
    if x != x or y != y:
        raise ValueError("NaN coordinate: %r" % ((x, y),))
    return (x, y)


def _derive_params(B: int, epsilon: float) -> tuple[int, int]:
    if not 0 <= epsilon <= 1:
        raise ValueError("epsilon must lie in [0, 1], got %r" % (epsilon,))
    fanout = round(2 * B**epsilon)
    if fanout < 4:
        # below 4 a node of one child does not underflow, so a subtree whose
        # last point is deleted would stay among its parent's children
        raise ValueError("fanout round(2 * B**epsilon) = %d is below 4 (B=%r, epsilon=%r)" % (fanout, B, epsilon))
    b = max(1, round(B ** (1.0 - epsilon)))
    return fanout, b


class _Node:
    """A leaf's points or an internal node's children, in x order, and the
    staircase and extent they make up."""

    __slots__ = ("leaf", "items", "queue", "price", "xmin", "xmax")

    def __init__(self, leaf: bool, items: list):
        self.leaf = leaf
        self.items = items
        self.queue = None
        self.price = 0
        self.xmin = None
        self.xmax = None


class SkylineIndex:
    """Fully dynamic maxima index with simulated block-transfer costs.

    B is the block size in words, epsilon in [0, 1] (else ValueError)
    splits it between tree fanout (round(2 * B**epsilon), at least 4, else
    ValueError) and staircase buffering (b about B**(1 - epsilon)). All
    queries and updates run against one shared IoAccount; read its counters
    for the accumulated cost.
    """

    def __init__(self, points=(), *, B: int = 64, epsilon: float = 1 / 3):
        self.fanout, self.b = _derive_params(B, epsilon)
        # by node.leaf, internal first: the most items a node may hold, and
        # the fewest it holds without underflowing
        self._capacity = (2 * self.fanout, self.b)
        self._floor = tuple(max(1, c // 4) for c in self._capacity)
        self.account = IoAccount(IoConfig(B, 4096 * B, self.b))
        self.B = B
        self.root: _Node | None = None
        pts = sorted(map(_point, points))
        for i in range(1, len(pts)):
            if pts[i - 1][0] == pts[i][0]:
                raise ValueError("duplicate x coordinate: %r" % (pts[i][0],))
        self._count = len(pts)  # live points
        if pts:
            self._bulk_build(pts)

    # -- observation ---------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __contains__(self, point) -> bool:
        if self.root is None:
            return False
        point = (point[0], point[1])
        return point in self._path(point[0])[0][-1].items

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
        if x_lo != x_lo or x_hi != x_hi or y_min != y_min:
            raise ValueError("NaN query bound: %r" % ((x_lo, x_hi, y_min),))
        if self.root is None or x_lo > x_hi:
            return []
        out: list = []
        with self.account.operation():
            self._report(self.root, x_lo, x_hi, (-y_min, _ABOVE_ALL), out)
        out.reverse()
        return out

    def _report(self, node: _Node, lo, hi, best, out: list):
        """Append to out, right to left, the maxima in node's subtree and
        the band whose key is below best; return the least key appended, or
        best if none."""
        self._charge_node(node)
        # no node is empty: every node but the root holds its floor of items
        if node.xmax < lo or node.xmin > hi:
            return best
        if lo <= node.xmin and node.xmax <= hi:
            q = node.queue
            if not q.cached_min.key < best:
                # best hides the staircase's minimum, so all of it
                return best
            cpqa.bring_in(q)
            out += [el.payload for el in reversed(cpqa.drain(q, below=best))]
            return q.cached_min.key
        if node.leaf:
            for p in reversed(node.items):
                if lo <= p[0] <= hi:
                    key = skyline_key(p)
                    if key < best:
                        out.append(p)
                        best = key
            return best
        for ch in reversed(node.items):
            # a child holds its floor of items, so its extent is set
            if ch.xmax >= lo and ch.xmin <= hi:
                best = self._report(ch, lo, hi, best, out)
        return best

    # -- updates -----------------------------------------------------------------

    def insert(self, point) -> None:
        point = _point(point)
        with self.account.operation():
            if self.root is None:
                self.root = self._node(True, [point])
                self._count = 1
                return
            nodes, route, price = self._path(point[0])
            self.account.charge_read_blocks(price)
            items = nodes[-1].items
            j = bisect_left(items, point)
            if (j < len(items) and items[j][0] == point[0]) or (j and items[j - 1][0] == point[0]):
                raise ValueError("duplicate x coordinate: %r" % (point[0],))
            items.insert(j, point)
            self._count += 1
            self._settle(nodes, route, _hidden_in_leaf(items, j + 1, point[1]))

    def delete(self, point) -> bool:
        point = (point[0], point[1])
        if self.root is None:
            return False
        with self.account.operation():
            nodes, route, price = self._path(point[0])
            self.account.charge_read_blocks(price)
            items = nodes[-1].items
            j = bisect_left(items, point)
            if j == len(items) or items[j] != point:
                return False
            del items[j]
            self._count -= 1
            self._settle(nodes, route, _hidden_in_leaf(items, j, point[1]))
        return True

    def _settle(self, nodes: list, route: list, keep: bool) -> None:
        """Walk up from the leaf nodes[-1], which gained or lost a point and
        kept its staircase if keep: split, merge or refresh each node as its
        size and staircase ask, up to the first node that keeps both; from
        there only extents move, up to the first node whose extent stays."""
        for k in range(len(nodes) - 1, -1, -1):
            node = nodes[k]
            if k and len(node.items) < self._floor[node.leaf]:
                # the parent has a sibling to merge with: it holds its floor
                # of fanout // 2 >= 2 children, or is a root of at least two
                self._rebalance_child(nodes[k - 1], route[k - 1])
                keep = False
                continue
            if keep and len(node.items) <= self._capacity[node.leaf]:
                # no underflow test above: only the walk changes node sizes,
                # and a parent's extent is its end children's
                for node in nodes[k::-1]:
                    if not self._recount(node):
                        break
                return
            old = node.queue
            split = self._refresh_or_split(node)
            if k == 0:
                break
            if split is not None:
                nodes[k - 1].items.insert(route[k - 1] + 1, split)
            keep = split is None and self._child_hidden(nodes[k - 1], route[k - 1], old)
        if split is not None:
            self.root = self._node(False, [node, split])
        elif not node.items:
            self.root = None
        elif not node.leaf and len(node.items) == 1:
            self.root = node.items[0]

    # -- node maintenance ----------------------------------------------------------

    def _path(self, x) -> "tuple[list[_Node], list[int], int]":
        """The nodes from the root to the leaf that routes x, the index of
        each internal one's child on the way, and the sum of their prices.
        A node routes x to its first child whose xmax is at least x, or its
        last."""
        node = self.root
        nodes, route, price = [node], [], node.price
        while not node.leaf:
            items = node.items
            i = bisect_left(items, x, 0, len(items) - 1, key=_XMAX)
            node = items[i]
            nodes.append(node)
            route.append(i)
            price += node.price
        return nodes, route, price

    def _charge_node(self, node: _Node) -> None:
        self.account.charge_read_blocks(node.price)

    def _fold_points(self, pts):
        # the staircase of points in x order: right to left, a point survives
        # only if it is higher than every point after it
        keep, top = [], None
        for p in reversed(pts):
            if top is None or p[1] > top:
                keep.append(cpqa.Element(skyline_key(p), p))
                top = p[1]
        keep.reverse()
        return cpqa.from_run(self.account, keep)

    def _node(self, leaf: bool, items: list) -> _Node:
        node = _Node(leaf, items)
        self._refresh(node)
        return node

    def _refresh(self, node: _Node) -> None:
        """Rebuild the node's staircase and extent from its items.

        Updates call it where a staircase may change (see _child_hidden); above
        that only extents are reset (_recount). The fold takes only the
        children whose minimum is below every right sibling's: the right to
        left fold's _catenate(q, acc) returns acc untouched for any other.
        It first brings their critical records into the operation's memory,
        uncharged. It sets price with the queue: the node's fetch price.
        """
        items = node.items
        if node.leaf:
            q = self._fold_points(items)
        else:
            # every child holds a point, so every staircase has a minimum
            queues, low = [], None
            for ch in reversed(items):
                m = ch.queue.cached_min.key
                if low is None or m < low:
                    low = m
                    queues.append(ch.queue)
            queues.reverse()
            for q in queues:
                cpqa.bring_in(q)
            q = cpqa.concat_sequence(queues)
        node.queue = q
        node.price = 1 + -(-sum(r.size for r in cpqa.critical_records(q)) // self.B)
        self._recount(node)

    def _recount(self, node: _Node) -> bool:
        """Reset node's extent from its items and return whether it moved;
        an update that keeps node's staircase does only this."""
        items = node.items
        if node.leaf:
            extent = (items[0][0], items[-1][0]) if items else (None, None)
        else:
            extent = (items[0].xmin, items[-1].xmax)
        if extent == (node.xmin, node.xmax):
            return False
        node.xmin, node.xmax = extent
        return True

    def _refresh_or_split(self, node: _Node) -> "_Node | None":
        """Refresh the node, or split it in half when it is over capacity and
        return the new right half."""
        items = node.items
        if len(items) <= self._capacity[node.leaf]:
            self._refresh(node)
            return None
        half = len(items) // 2
        right = self._node(node.leaf, items[half:])
        node.items = items[:half]
        self._refresh(node)
        return right

    def _bulk_build(self, pts: list) -> None:
        # a last run under its floor joins the one before it: joined children
        # stay under 2 * fanout, and joined points past b split evenly
        with self.account.operation():
            level, leaf = pts, True
            while leaf or len(level) > 1:
                n = len(level)
                starts = list(range(0, n, self.b if leaf else self.fanout))
                if len(starts) > 1 and n - starts[-1] < self._floor[leaf]:
                    starts.pop()
                    if n - starts[-1] > self._capacity[leaf]:
                        starts.append((starts[-1] + n) // 2)
                level = [self._node(leaf, level[i:j]) for i, j in zip(starts, starts[1:] + [n])]
                leaf = False
            self.root = level[0]

    def _child_hidden(self, node: _Node, i: int, old) -> bool:
        """Whether child i, whose staircase was old, leaves node's as it was:
        its version is unchanged, or its right siblings hide its old and new
        minima (it holds its floor of items, so both exist). concat_sequence
        folds right to left and _catenate(q, acc) returns acc untouched when
        acc's minimum key is <= q's, so the fold and its bias skip it."""
        new = node.items[i].queue
        if new is old:
            return True
        later = [ch.queue.cached_min.key for ch in node.items[i + 1 :]]
        return bool(later) and min(later) <= min(old.cached_min.key, new.cached_min.key)

    def _rebalance_child(self, node: _Node, idx: int) -> None:
        # merge the child with a neighbour; an over-full merge splits again
        i = max(idx - 1, 0)
        lo = node.items[i]
        lo.items = lo.items + node.items.pop(i + 1).items
        right = self._refresh_or_split(lo)
        if right is not None:
            node.items.insert(i + 1, right)
