"""Ordered trees with weighted interior vertices, and their F-path map.

A weighted tree on n+1 edges is an ordered (plane) rooted tree where
every *interior* vertex - neither the root nor a leaf - carries an
integer weight in 1..outdegree.  The root and the leaves are unweighted.
The text form writes a leaf as ``L`` and a weighted vertex as
``(w child child ...)``; the root is the bracketed outer list:

    [(1 L L)]      root -> weight-1 vertex with two leaf children

Statistics matched to F-paths:

    outdeg(root) - 1   = height
    leaves - 1         = north
    weight-1 vertices  = aone

The bijection reads non-root vertices v_1.. v_{n+1} in preorder; step i
comes from vertex v_{n-i+2}: a leftmost child of an interior parent p
contributes (weight(p), weight(p) - outdeg(p) + 1), anything else (0,1).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .errors import FormViolation, GuardExceeded, WeightOnLeafOrRoot, WeightOutOfRange
from .fpath_core import DEFAULT_GUARD, FPath, StatTriple, fpath_height


@dataclass(frozen=True)
class WTree:
    """A vertex: ``weight`` is None on the root and on leaves."""

    weight: int | None
    children: tuple["WTree", ...] = ()

    def is_leaf(self) -> bool:
        return not self.children


LEAF = WTree(None)


def node(weight, *children) -> WTree:
    return WTree(weight, tuple(children))


def root(*children) -> WTree:
    return WTree(None, tuple(children))


def preorder(t: WTree) -> list[WTree]:
    """Vertices in depth-first left-to-right order, root first."""
    out = []
    stack = [t]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(reversed(v.children))
    return out


def validate_wtree(t: WTree) -> WTree:
    """Check the weight discipline; vertexes are numbered in preorder.
    A vertex that is not a WTree with a tuple of children raises
    :class:`FormViolation`."""
    if isinstance(t, WTree) and not t.children:
        raise FormViolation("tree must have at least one edge")
    stack = [t]
    idx = 0
    while stack:
        v = stack.pop()
        if not isinstance(v, WTree) or not isinstance(v.children, tuple):
            raise FormViolation(
                f"vertex {idx} is not a WTree with a tuple of children")
        if v is t or v.is_leaf():
            if v.weight is not None:
                raise WeightOnLeafOrRoot(idx, v.weight)
        else:
            deg = len(v.children)
            if not isinstance(v.weight, int) or not 1 <= v.weight <= deg:
                raise WeightOutOfRange(idx, v.weight, deg)
        idx += 1
        stack.extend(reversed(v.children))
    return t


def wtree_stats(t: WTree) -> StatTriple:
    """(outdeg(root) - 1, leaves - 1, weight-1 vertices)."""
    leaves = ones = 0
    for v in preorder(t):
        if v.is_leaf():
            leaves += 1
        if v.weight == 1:
            ones += 1
    return StatTriple(len(t.children) - 1, leaves - 1, ones)


# -------------------------------------------------------------- bijection


def _vertex_info(t: WTree) -> list[tuple[WTree, WTree, bool, bool]]:
    """Non-root vertices in preorder as
    (vertex, parent, is_leftmost_child, parent_is_root)."""
    info = []
    stack = [(c, t, pos == 0, True) for pos, c in enumerate(t.children)]
    stack.reverse()
    while stack:
        entry = stack.pop()
        info.append(entry)
        v = entry[0]
        for pos in range(len(v.children) - 1, -1, -1):
            stack.append((v.children[pos], v, pos == 0, False))
    return info


def phi_T(t: WTree) -> FPath:
    """Map a valid weighted tree on n+1 edges to an F-path of length n.
    A trusted core: the tree is not checked."""
    info = _vertex_info(t)
    n = len(info) - 1
    steps = []
    for i in range(1, n + 1):
        v, parent, leftmost, parent_is_root = info[n - i + 1]
        if leftmost and not parent_is_root:
            w = parent.weight
            steps.append((w, w - len(parent.children) + 1))
        else:
            steps.append((0, 1))
    return tuple(steps)


@dataclass
class _Build:
    weight: int | None
    slots: int
    children: list["_Build"] = field(default_factory=list)


def _freeze(b: _Build) -> WTree:
    """The WTree of ``b``, built children first from a breadth-first
    list of the vertices, so depth is unbounded."""
    order = [b]
    for v in order:
        order.extend(v.children)
    frozen: dict[int, WTree] = {}
    for v in reversed(order):
        frozen[id(v)] = WTree(
            v.weight, tuple(frozen[id(c)] for c in v.children))
    return frozen[id(b)]


def psi_T(q: FPath) -> WTree:
    """Inverse of :func:`phi_T`, building the tree with a slot stack.

    The root opens with height(q)+1 child slots.  Vertices v_1..v_{n+1}
    are created in preorder; v_j (j >= 2) consumes step s_{n-j+2}: a
    non-north step turns the previous vertex v_{j-1} into an interior
    vertex with that step's weight and a - b + 1 slots and makes v_j its
    first child, a north step attaches v_j to the deepest vertex with a
    free slot.  A trusted core: ``q`` must be a valid F-path.
    """
    n = len(q)
    root_b = _Build(None, fpath_height(q) + 1)
    stack = [root_b]
    prev: _Build | None = None
    for j in range(1, n + 2):
        v = _Build(None, 0)
        if j == 1:
            step = None
        else:
            step = q[n - j + 1]  # s_{n-j+2}, 1-based
        if step is not None and step != (0, 1):
            a, b = step
            prev.weight = a
            prev.slots = a - b + 1
            stack.append(prev)
        while stack[-1].slots == 0:
            stack.pop()
        top = stack[-1]
        top.children.append(v)
        top.slots -= 1
        prev = v
    return _freeze(root_b)


# ------------------------------------------------------------ direct sums


def wtree_direct_sum(t: WTree, s: WTree) -> WTree:
    """New root whose child list is s's children then t's children.

    (phi_T reads steps right to left, so the *left* summand of the step
    sequence contributes the right group of subtrees.)
    """
    return WTree(None, tuple(s.children) + tuple(t.children))


# ------------------------------------------------------------ enumeration


def _shapes(edges: int) -> list[WTree]:
    """Subtree shapes (unweighted) hanging below one edge."""
    return [WTree(None, kids) for kids in _forests(edges)]


def _forests(edges: int) -> list[tuple[WTree, ...]]:
    if edges == 0:
        return [()]
    out = []
    for first_edges in range(edges):
        for first in _shapes(first_edges):
            for rest in _forests(edges - 1 - first_edges):
                out.append((first,) + rest)
    return out


def _weighted(shape: WTree, is_root: bool) -> list[WTree]:
    """All weight assignments of a shape, preorder-lexicographic."""
    if shape.is_leaf():
        return [LEAF]
    child_lists = list(product(*(_weighted(c, False) for c in shape.children)))
    if is_root:
        return [WTree(None, kids) for kids in child_lists]
    deg = len(shape.children)
    return [
        WTree(w, kids) for w in range(1, deg + 1) for kids in child_lists
    ]


def gen_wtrees(n_plus_1: int, guard: int = DEFAULT_GUARD) -> tuple[WTree, ...]:
    """All weighted trees on n_plus_1 edges, by shape then weights.

    Shapes are ordered recursively by the edge count of the first
    subtree (ascending), matching :func:`_forests`; within a shape the
    preorder weight vector runs lexicographically.
    """
    if n_plus_1 < 1:
        raise FormViolation("need at least one edge")
    if n_plus_1 - 1 > guard:
        raise GuardExceeded(n_plus_1 - 1, guard)
    out: list[WTree] = []
    for kids in _forests(n_plus_1):
        out.extend(_weighted(WTree(None, kids), True))
    return tuple(out)
