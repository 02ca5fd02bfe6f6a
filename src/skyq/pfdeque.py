"""Persistent catenable deques.

Immutable double-ended sequences with structure sharing. Every operation
returns a new deque and leaves the receiver untouched, so arbitrarily many
versions can stay live at once and any version can be concatenated with any
other. Internally a height-balanced join tree with items at the leaves:
push/inject/pop/eject and catenate are all O(log n) worst case, which is the
bound the rest of the package budgets for spine work. replace_first and
replace_last rewrite an end item by copying the one path down to its leaf:
O(log n) new nodes, and no joining or rebalancing, since no height or count
changes.
"""

from __future__ import annotations

from typing import Any, Iterator

__all__ = ["EmptyDequeError", "PDeque"]


class EmptyDequeError(Exception):
    """Raised when first/last/pop/eject/rest/front or replace_first/
    replace_last hit an empty deque."""


class _Node:
    __slots__ = ("left", "right", "item", "height", "count")

    def __init__(self, left, right, item, height, count):
        self.left = left
        self.right = right
        self.item = item
        self.height = height
        self.count = count


def _leaf(item: Any) -> _Node:
    return _Node(None, None, item, 1, 1)


def _mk(left: _Node, right: _Node) -> _Node:
    return _Node(left, right, None,
                 (left.height if left.height > right.height else right.height) + 1,
                 left.count + right.count)


def _bal(left: _Node, right: _Node) -> _Node:
    # Standard AVL-style rebalance for a height gap of at most 2 between
    # subtrees that are each internally balanced.
    if left.height > right.height + 1:
        ll, lr = left.left, left.right
        if ll.height >= lr.height:
            return _mk(ll, _bal(lr, right))
        return _mk(_mk(ll, lr.left), _mk(lr.right, right))
    if right.height > left.height + 1:
        rl, rr = right.left, right.right
        if rr.height >= rl.height:
            return _bal(_mk(left, rl), rr)  # type: ignore[arg-type]
        return _mk(_mk(left, rl.left), _mk(rl.right, rr))
    return _mk(left, right)


def _join(left: _Node | None, right: _Node | None) -> _Node | None:
    if left is None:
        return right
    if right is None:
        return left
    if left.height > right.height + 1:
        return _bal(left.left, _join(left.right, right))  # type: ignore[arg-type]
    if right.height > left.height + 1:
        return _bal(_join(left, right.left), right.right)  # type: ignore[arg-type]
    return _mk(left, right)


def _pop_front(node: _Node) -> tuple[Any, _Node | None]:
    if node.height == 1:
        return node.item, None
    item, rest = _pop_front(node.left)
    return item, _join(rest, node.right)


def _pop_back(node: _Node) -> tuple[Any, _Node | None]:
    if node.height == 1:
        return node.item, None
    item, rest = _pop_back(node.right)
    return item, _join(node.left, rest)


def _replace_end(node: _Node, item: Any, front: bool) -> _Node:
    if node.height == 1:
        return _leaf(item)
    if front:
        return _Node(_replace_end(node.left, item, True), node.right, None, node.height, node.count)
    return _Node(node.left, _replace_end(node.right, item, False), None, node.height, node.count)


def _get(node: _Node, index: int) -> Any:
    while node.height > 1:
        lc = node.left.count
        if index < lc:
            node = node.left
        else:
            index -= lc
            node = node.right
    return node.item


class PDeque:
    """An immutable catenable deque. Create with PDeque.empty() or of()."""

    __slots__ = ("_root",)

    def __init__(self, _root: _Node | None = None):
        self._root = _root

    @classmethod
    def empty(cls) -> "PDeque":
        return _EMPTY

    @classmethod
    def of(cls, items) -> "PDeque":
        d = _EMPTY
        for item in items:
            d = d.inject(item)
        return d

    def __len__(self) -> int:
        return self._root.count if self._root is not None else 0

    def __bool__(self) -> bool:
        return self._root is not None

    def __iter__(self) -> Iterator[Any]:
        stack = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            if node.height == 1:
                yield node.item
            node = node.right

    def push(self, item: Any) -> "PDeque":
        """New deque with item prepended."""
        return PDeque(_join(_leaf(item), self._root))

    def inject(self, item: Any) -> "PDeque":
        """New deque with item appended."""
        return PDeque(_join(self._root, _leaf(item)))

    def pop(self) -> tuple[Any, "PDeque"]:
        """(first item, deque without it)."""
        if self._root is None:
            raise EmptyDequeError("pop of empty deque")
        item, rest = _pop_front(self._root)
        return item, PDeque(rest)

    def eject(self) -> tuple[Any, "PDeque"]:
        """(last item, deque without it)."""
        if self._root is None:
            raise EmptyDequeError("eject of empty deque")
        item, rest = _pop_back(self._root)
        return item, PDeque(rest)

    def replace_first(self, item: Any) -> "PDeque":
        """New deque with its first item replaced: rest().push(item) in one
        path copy."""
        if self._root is None:
            raise EmptyDequeError("replace_first of empty deque")
        return PDeque(_replace_end(self._root, item, True))

    def replace_last(self, item: Any) -> "PDeque":
        """New deque with its last item replaced: front().inject(item) in one
        path copy."""
        if self._root is None:
            raise EmptyDequeError("replace_last of empty deque")
        return PDeque(_replace_end(self._root, item, False))

    def first(self) -> Any:
        if self._root is None:
            raise EmptyDequeError("first of empty deque")
        node = self._root
        while node.height > 1:
            node = node.left
        return node.item

    def last(self) -> Any:
        if self._root is None:
            raise EmptyDequeError("last of empty deque")
        node = self._root
        while node.height > 1:
            node = node.right
        return node.item

    def rest(self) -> "PDeque":
        """Everything but the first item."""
        return self.pop()[1]

    def front(self) -> "PDeque":
        """Everything but the last item."""
        return self.eject()[1]

    def get(self, index: int) -> Any:
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(index)
        return _get(self._root, index)

    def catenate(self, other: "PDeque") -> "PDeque":
        """New deque holding self's items followed by other's."""
        return PDeque(_join(self._root, other._root))

    def __repr__(self) -> str:
        return "PDeque([%s])" % ", ".join(repr(x) for x in self)


_EMPTY = PDeque(None)
