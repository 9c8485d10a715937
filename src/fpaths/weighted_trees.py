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
In preorder, v_j is the leftmost child of v_{j-1} exactly when v_{j-1} is
not a leaf, so phi_T and psi_T read and write the *preorder code*, the
``(weight, outdegree)`` pair of each vertex, root first, which
determines the tree: the steps s_1..s_n are the code of v_n..v_1.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import FormViolation, GuardExceeded, WeightOnLeafOrRoot, WeightOutOfRange
from .fpath_core import DEFAULT_GUARD, NORTH, FPath, StatTriple


@dataclass(frozen=True, eq=False)
class WTree:
    """A vertex: ``weight`` is None on the root and on leaves.

    ``==`` and ``hash`` walk the tree with explicit stacks, so depth is
    unbounded; ``==`` skips a shared subtree by identity.
    """

    weight: int | None
    children: tuple["WTree", ...] = ()

    def is_leaf(self) -> bool:
        return not self.children

    def __eq__(self, other):
        if not isinstance(other, WTree):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            s, t = stack.pop()
            if s is t:
                continue
            if s.weight != t.weight or len(s.children) != len(t.children):
                return False
            stack.extend(zip(s.children, t.children))
        return True

    def __hash__(self):
        return hash(preorder_code(self))


LEAF = WTree(None)


def preorder(t: WTree) -> list[WTree]:
    """Vertices in depth-first left-to-right order, root first."""
    out = []
    stack = [t]
    while stack:
        v = stack.pop()
        out.append(v)
        stack += v.children[::-1]
    return out


def preorder_code(t: WTree) -> tuple[tuple[int | None, int], ...]:
    """``(weight, outdegree)`` of every vertex in preorder, root first:
    the code that determines the tree."""
    return tuple([(v.weight, len(v.children)) for v in preorder(t)])


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


def phi_T(t: WTree) -> FPath:
    """Map a valid weighted tree on n+1 edges to an F-path of length n:
    a vertex of weight w and outdegree d > 0 gives (w, w - d + 1), a leaf
    (0, 1).  A trusted core: the tree is not checked."""
    code = preorder_code(t)
    return tuple((w, w - d + 1) if d else NORTH
                 for w, d in reversed(code[1:-1]))


def psi_T(q: FPath) -> WTree:
    """Inverse of :func:`phi_T`, in one pass over the steps.

    Read left to right, the steps are the preorder code of v_n, ..., v_1:
    a non-north step (a, b) is a vertex of weight a and outdegree
    a - b + 1, a north step a leaf.  Before v_n comes v_{n+1}, always a
    leaf, and after v_1 the root, which takes the height(q) + 1 subtrees
    left over.  So the tree is built right to left in preorder: each
    vertex takes its children, leftmost on top, from a stack of finished
    subtrees.  A trusted core: ``q`` must be a valid F-path.
    """
    stack = [LEAF]
    for a, b in q:
        if a:
            d = a - b + 1
            kids = tuple(reversed(stack[-d:]))
            del stack[-d:]
            stack.append(WTree(a, kids))
        else:
            stack.append(LEAF)
    return WTree(None, tuple(reversed(stack)))


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
