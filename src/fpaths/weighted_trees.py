"""Ordered trees with weighted interior vertices, and their F-path map.

A weighted tree on n+1 edges is an ordered (plane) rooted tree where
every *interior* vertex - neither the root nor a leaf - carries an
integer weight in 1..outdegree.  The root and the leaves are unweighted.
The text form writes a leaf as ``L`` and a weighted vertex as
``(w child child ...)``; the root is the bracketed outer list.

A tree is held as its *preorder code*: the ``(weight, outdegree)`` pair
of every vertex in depth-first left-to-right order, root first, with
weight None on the root and on the leaves.  The code determines the
tree, so equality and hashing are the tuple's own:

    >>> from fpaths.families import parse_wtree
    >>> parse_wtree("[(1 L L)]")    # root -> weight-1 vertex, two leaves
    ((None, 1), (1, 2), (None, 0), (None, 0))

Statistics matched to F-paths:

    outdeg(root) - 1   = height
    leaves - 1         = north
    weight-1 vertices  = aone

The bijection reads non-root vertices v_1.. v_{n+1} in preorder; step i
comes from vertex v_{n-i+2}: a leftmost child of an interior parent p
contributes (weight(p), weight(p) - outdeg(p) + 1), anything else (0,1).
In preorder, v_j is the leftmost child of v_{j-1} exactly when v_{j-1} is
not a leaf, so the steps s_1..s_n are the code of v_n..v_1.
"""
from __future__ import annotations

from itertools import product
from operator import index

from .errors import (
    FormViolation,
    WeightOnLeafOrRoot,
    WeightOutOfRange,
    int_text,
)
from .fpath_core import NORTH, FPath, StatTriple, fpath_height

#: A tree: its preorder code of ``(weight, outdegree)`` pairs, root first.
WTree = tuple[tuple[int | None, int], ...]

LEAF = (None, 0)


def validate_wtree(t: WTree) -> WTree:
    """Check the code and the weight discipline in one scan that counts
    the child slots still open; vertexes are numbered in preorder, the
    root 0.  Anything but a tuple of ``(weight, outdegree)`` pairs whose
    outdegrees, integers >= 0, fill the tree exactly at its last vertex
    raises :class:`FormViolation`.  Returns the code with both fields read
    by ``operator.index``: ``True`` becomes 1 and a float is refused."""
    if not isinstance(t, tuple) or not t:
        raise FormViolation(
            "a tree is a non-empty tuple of (weight, outdegree) pairs")
    code = []
    open_ = 1                   # the root fills the first slot
    for idx, v in enumerate(t):
        if not open_:
            raise FormViolation(f"vertex {idx} lies past the end of the tree")
        try:
            w, d = v if isinstance(v, tuple) else ()
            d = index(d)
        except (TypeError, ValueError):
            d = -1
        if d < 0:
            raise FormViolation(
                f"vertex {idx} is not a (weight, outdegree >= 0) pair")
        if not idx and not d:
            raise FormViolation("tree must have at least one edge")
        if not idx or not d:
            if w is not None:
                raise WeightOnLeafOrRoot(idx, w)
        elif not isinstance(w, int) or not 1 <= w <= d:
            raise WeightOutOfRange(idx, w, d)
        code.append((w if w is None else index(w), d))
        open_ += d - 1
    if open_:
        raise FormViolation(f"the tree is missing {int_text(open_)} vertexes")
    return tuple(code)


def wtree_stats(t: WTree) -> StatTriple:
    """(outdeg(root) - 1, leaves - 1, weight-1 vertices)."""
    weights, degrees = zip(*t)
    return StatTriple(t[0][1] - 1, degrees.count(0) - 1, weights.count(1))


# -------------------------------------------------------------- bijection


def phi_T(t: WTree) -> FPath:
    """Map a valid weighted tree on n+1 edges to an F-path of length n:
    a vertex of weight w and outdegree d > 0 gives (w, w - d + 1), a leaf
    (0, 1).  A trusted core: the tree is not checked."""
    return tuple((w, w - d + 1) if d else NORTH for w, d in t[-2:0:-1])


def psi_T(q: FPath) -> WTree:
    """Inverse of :func:`phi_T`: read right to left, the steps are the
    code of v_1, ..., v_n, a step (a, b) with a > 0 being a vertex of
    weight a and outdegree a - b + 1 and a north step a leaf.  The root
    comes first, with the height(q) + 1 subtrees left over, and v_{n+1},
    always a leaf, last.  A trusted core: ``q`` must be a valid F-path.
    """
    return ((None, fpath_height(q) + 1),
            *[(a, a - b + 1) if a else LEAF for a, b in reversed(q)], LEAF)


# ------------------------------------------------------------ direct sums


def wtree_direct_sum(t: WTree, s: WTree) -> WTree:
    """New root whose child list is s's children then t's children.

    (phi_T reads steps right to left, so the *left* summand of the step
    sequence contributes the right group of subtrees.)
    """
    return ((None, t[0][1] + s[0][1]),) + s[1:] + t[1:]


# ------------------------------------------------------------ enumeration


def _forests(edges: int) -> list[tuple[int, ...]]:
    """Preorder outdegree sequences of the ordered forests hanging below
    a vertex with ``edges`` edges under it, by the edge count of the first
    subtree (ascending), then recursively.  A forest of v vertices and e
    inner edges has v - e trees, the outdegree of its subtree's root."""
    if edges == 0:
        return [()]
    return [(len(first) - sum(first),) + first + rest
            for first_edges in range(edges)
            for first in _forests(first_edges)
            for rest in _forests(edges - 1 - first_edges)]


def gen_wtrees(n_plus_1: int) -> tuple[WTree, ...]:
    """All weighted trees on n_plus_1 edges, by shape then weights.

    Shapes are in :func:`_forests` order; within a shape the preorder
    weight vector runs lexicographically.  Every vertex of outdegree d
    takes its pair from one list per d built once, so the trees share
    their pairs.  A trusted core: n_plus_1 must be an integer >= 1,
    checked by ``FAMILIES["tree"].generate``.
    """
    pairs = [[LEAF]] + [[(w, d) for w in range(1, d + 1)]
                        for d in range(1, n_plus_1 + 1)]
    return tuple(tree for kids in _forests(n_plus_1)
                 for tree in product([(None, len(kids) - sum(kids))],
                                     *[pairs[d] for d in kids]))
