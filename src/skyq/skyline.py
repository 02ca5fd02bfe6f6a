"""Dynamic planar 3-sided range-skyline index over the attrition queues.

Points live in the leaves of a balanced order tree keyed by x. Every node
carries a persistent queue version holding the maxima staircase of its
subtree: points are taken left to right with key (-y, -x) (skyline_key), so
appending a point attrites exactly the earlier points it dominates. A leaf
holds at most b points, so its staircase is built by one right-to-left sweep
into one record (cpqa.from_run). An internal node's staircase is the
attriting catenation of its children's staircases, which the queues fold in
O(1) block transfers per node.

A 3-sided query (x in [lo, hi], y >= ymin) decomposes the x-band into O(log n)
canonical subtrees, catenates their staircases in x order, and drains the
result while y stays above the floor. Reported points arrive in increasing x
and cost roughly one block per b points on top of the decomposition.

Coordinates must be pairwise distinct in x and in y across the live set.

Block accounting: fetching a node costs one block for its routing data plus
ceil(words / B) for the staircase records an operation may touch (its queue's
critical records). Those records are pinned while the node takes part in a
query or rebuild, so the queue machinery itself runs without hidden reads.
"""

from __future__ import annotations

from contextlib import contextmanager

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


def _derive_params(B: int, epsilon: float) -> tuple[int, int]:
    fanout = max(2, round(2 * B**epsilon))
    leaf_cap = max(1, round(B ** (1.0 - epsilon)))
    return fanout, leaf_cap


class _Node:
    __slots__ = ("leaf", "points", "children", "queue", "xmin", "xmax", "count")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.points: list = []
        self.children: list[_Node] = []
        self.queue = None
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
        fanout, leaf_cap = _derive_params(B, epsilon)
        self.fanout = fanout
        self.leaf_cap = leaf_cap
        self.account = IoAccount(IoConfig(B, 4096 * B, leaf_cap))
        self.b = leaf_cap
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
            node = self._child_for(node, x)
        return point in node.points

    def counters(self) -> IoCounters:
        return self.account.snapshot()

    def maxima(self) -> list:
        """The live maxima staircase, in increasing x."""
        if self.root is None:
            return []
        with self.account.operation():
            self._charge_node(self.root)
            with self._pinning([self.root.queue]):
                return [el.payload for el in cpqa.drain(self.root.queue)]

    # -- queries ---------------------------------------------------------------

    def query3(self, x_lo, x_hi, y_min) -> list:
        """Maxima among the points with x in [x_lo, x_hi] and y >= y_min."""
        if self.root is None or x_lo > x_hi:
            return []
        segments: list = []
        with self.account.operation():
            self._decompose(self.root, x_lo, x_hi, segments)
            queues = []
            for kind, val in segments:
                if kind == "node":
                    queues.append(val.queue)
                else:
                    q = self._fold_points(val)
                    if q.cached_min is not None:
                        queues.append(q)
            if not queues:
                return []
            with self._pinning(val.queue for kind, val in segments if kind == "node"):
                aux = cpqa.concat_sequence(queues)
                out = []
                while aux.cached_min is not None:
                    el = cpqa.find_min(aux)
                    if el.payload[1] < y_min:
                        break
                    out.append(el.payload)
                    _, aux = cpqa.delete_min(aux)
        return out

    def _decompose(self, node: _Node, lo, hi, segments: list) -> None:
        # canonical cover of the x-band, segments kept in x order
        self._charge_node(node)
        if node.count == 0 or node.xmax < lo or node.xmin > hi:
            return
        if lo <= node.xmin and node.xmax <= hi:
            segments.append(("node", node))
            return
        if node.leaf:
            pts = [p for p in node.points if lo <= p[0] <= hi]
            if pts:
                segments.append(("points", pts))
            return
        for ch in node.children:
            if ch.xmax is not None and ch.xmax >= lo and ch.xmin <= hi:
                self._decompose(ch, lo, hi, segments)

    # -- updates -----------------------------------------------------------------

    def insert(self, point) -> None:
        point = (point[0], point[1])
        if self.root is None:
            with self.account.operation():
                leaf = _Node(True)
                leaf.points = [point]
                self._refresh_leaf(leaf)
                self.root = leaf
            return
        with self.account.operation():
            split = self._insert_rec(self.root, point)
            if split is not None:
                old = self.root
                root = _Node(False)
                root.children = [old, split]
                self._refresh_internal(root)
                self.root = root

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
                    while not self.root.leaf and len(self.root.children) == 1:
                        self.root = self.root.children[0]
        return removed

    # -- node maintenance ----------------------------------------------------------

    def _child_for(self, node: _Node, x):
        for ch in node.children[:-1]:
            if x <= ch.xmax:
                return ch
        return node.children[-1]

    def _charge_node(self, node: _Node) -> None:
        # routing data plus the staircase records an operation may touch
        self.account.charge_read_words(self.B)
        q = node.queue
        if q is not None and q.cached_min is not None:
            words = sum(r.size for r in cpqa.critical_records(q))
            if words:
                self.account.charge_read_words(words)

    @contextmanager
    def _pinning(self, queues):
        """Register and pin the critical records of the given queues that
        are not pinned yet, and unpin exactly those on exit, which drops
        their registrations."""
        account = self.account
        mine = []
        for q in queues:
            for rec in cpqa.critical_records(q):
                if not account.is_pinned(rec.rid):
                    account.register(rec.rid, rec.size)
                    account.pin(rec.rid)
                    mine.append(rec.rid)
        try:
            yield
        finally:
            for rid in mine:
                account.unpin(rid)

    def _fold_points(self, pts):
        return cpqa.from_run(self.account, [cpqa.Element(skyline_key(p), p) for p in pts])

    def _prep(self, q):
        while (q.Bq or q.D) and cpqa.delta(q) < 2:
            q = cpqa.bias(q)
        return q

    def _refresh_leaf(self, node: _Node) -> None:
        node.queue = self._fold_points(node.points)
        node.count = len(node.points)
        if node.points:
            node.xmin = node.points[0][0]
            node.xmax = node.points[-1][0]
        else:
            node.xmin = node.xmax = None

    def _refresh_internal(self, node: _Node) -> None:
        queues = [ch.queue for ch in node.children if ch.queue.cached_min is not None]
        if queues:
            with self._pinning(queues):
                node.queue = self._prep(cpqa.concat_sequence(queues))
        else:
            node.queue = cpqa.empty(self.account)
        node.count = sum(ch.count for ch in node.children)
        node.xmin = node.children[0].xmin
        node.xmax = node.children[-1].xmax

    def _bulk_build(self, pts: list) -> None:
        with self.account.operation():
            cap = self.leaf_cap
            level: list[_Node] = []
            for i in range(0, len(pts), cap):
                leaf = _Node(True)
                leaf.points = pts[i : i + cap]
                self._refresh_leaf(leaf)
                level.append(leaf)
            fan = self.fanout
            while len(level) > 1:
                nxt: list[_Node] = []
                for i in range(0, len(level), fan):
                    group = level[i : i + fan]
                    if len(group) == 1 and nxt:
                        # a stray child joins the previous group
                        prev = nxt.pop()
                        group = prev.children + group
                    if len(group) <= 2 * fan:
                        halves = [group]
                    else:
                        halves = [group[: len(group) // 2], group[len(group) // 2 :]]
                    for part in halves:
                        node = _Node(False)
                        node.children = part
                        self._refresh_internal(node)
                        nxt.append(node)
                level = nxt
            self.root = level[0]

    def _insert_rec(self, node: _Node, point) -> "_Node | None":
        self._charge_node(node)
        if node.leaf:
            for p in node.points:
                if p[0] == point[0]:
                    raise ValueError("duplicate x coordinate: %r" % (point[0],))
            node.points.append(point)
            node.points.sort()
            if len(node.points) <= self.leaf_cap:
                self._refresh_leaf(node)
                return None
            half = len(node.points) // 2
            right = _Node(True)
            right.points = node.points[half:]
            node.points = node.points[:half]
            self._refresh_leaf(node)
            self._refresh_leaf(right)
            return right
        ch = self._child_for(node, point[0])
        split = self._insert_rec(ch, point)
        if split is not None:
            node.children.insert(node.children.index(ch) + 1, split)
        if len(node.children) > 2 * self.fanout:
            half = len(node.children) // 2
            right = _Node(False)
            right.children = node.children[half:]
            node.children = node.children[:half]
            self._refresh_internal(right)
            self._refresh_internal(node)
            return right
        self._refresh_internal(node)
        return None

    def _delete_rec(self, node: _Node, point) -> bool:
        self._charge_node(node)
        if node.leaf:
            if point not in node.points:
                return False
            node.points.remove(point)
            self._refresh_leaf(node)
            return True
        ch = self._child_for(node, point[0])
        if not self._delete_rec(ch, point):
            return False
        idx = node.children.index(ch)
        low = max(1, self.fanout // 2) if not ch.leaf else max(1, self.leaf_cap // 4)
        size = len(ch.points) if ch.leaf else len(ch.children)
        if size < low and len(node.children) > 1:
            self._rebalance_child(node, idx)
        self._refresh_internal(node)
        return True

    def _rebalance_child(self, node: _Node, idx: int) -> None:
        ch = node.children[idx]
        sib_idx = idx - 1 if idx > 0 else idx + 1
        sib = node.children[sib_idx]
        lo, hi = (sib, ch) if sib_idx < idx else (ch, sib)
        if ch.leaf:
            merged = lo.points + hi.points
            if len(merged) <= self.leaf_cap:
                lo.points = merged
                self._refresh_leaf(lo)
                node.children.pop(node.children.index(hi))
            else:
                half = len(merged) // 2
                lo.points = merged[:half]
                hi.points = merged[half:]
                self._refresh_leaf(lo)
                self._refresh_leaf(hi)
        else:
            merged = lo.children + hi.children
            if len(merged) <= 2 * self.fanout:
                lo.children = merged
                self._refresh_internal(lo)
                node.children.pop(node.children.index(hi))
            else:
                half = len(merged) // 2
                lo.children = merged[:half]
                hi.children = merged[half:]
                self._refresh_internal(lo)
                self._refresh_internal(hi)
