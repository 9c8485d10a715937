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

    >>> from fpaths.weighted_trees import parse_wtree
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

import re
from itertools import islice, product
from operator import index

from .errors import (
    FormViolation,
    ParseError,
    WeightOnLeafOrRoot,
    WeightOutOfRange,
    int_text,
)
from .fpath_core import NORTH, FPath, StatTriple, fpath_height, require_str

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


def render_wtree(t: WTree) -> str:
    """Text form, written from the code in one pass over a stack of the
    children each open vertex still has to write, so depth is unbounded."""
    out = []
    left = [t[0][1]]
    for w, d in t[1:]:
        left[-1] -= 1
        if d:
            out.append(f" ({w}")
            left.append(d)
        else:
            out.append(" L")
            while left and not left[-1]:
                left.pop()
                out.append(")" if left else "]")
    return "[" + "".join(out)[1:]


#: One token of a tree's text, after the spaces before it: a '(' with the
#: spaces and the ASCII weight text after it, or any one character.
_TREE_TOKEN = re.compile(r" *(\( *[-0-9]*|.)", re.DOTALL)


def parse_wtree(text: str) -> WTree:
    """Parse ``[ subtree* ]`` with subtree = ``L`` | ``( weight subtree+ )``
    into the preorder code, checking the weights in the same pass; the
    first weight outside 1..outdegree in preorder is named once the text
    has parsed.  Depth is unbounded, and an error's offset is found by
    matching the tokens again."""
    s = require_str(text).strip()
    if s[:1] != "[":
        raise ParseError(0, "expected '['")
    tokens = _TREE_TOKEN.findall(s, 1)

    def at(k):
        return next(islice(_TREE_TOKEN.finditer(s, 1), k, None)).start(1)

    weights: list[int | None] = [None]
    degrees = [0]
    parents = []
    cur = 0                     # the vertex whose children come next
    bad = None
    for k, tok in enumerate(tokens):
        if tok == "L":
            weight = None
        elif tok == ")" and parents:
            d = degrees[cur]
            if not d:
                raise ParseError(at(k) + 1, "weighted vertex needs children")
            # Checked here, not by validate_wtree on the finished code:
            # that second scan costs about a quarter more per parse.
            if not 1 <= weights[cur] <= d and (bad is None or cur < bad):
                bad = cur
            cur = parents.pop()
            continue
        elif tok[0] == "(":
            try:
                weight = int(tok[1:])
            except ValueError:
                digits = tok[1:].lstrip(" ")
                why = f"bad weight {digits!r}" if digits else "expected a weight"
                raise ParseError(at(k) + len(tok) - len(digits), why) from None
        elif tok == "]" and not parents:
            if k + 1 < len(tokens):
                raise ParseError(at(k + 1), "trailing characters")
            break
        else:
            raise ParseError(at(k), f"expected 'L' or '(', got {tok!r}")
        degrees[cur] += 1
        weights.append(weight)
        degrees.append(0)
        if weight is not None:
            parents.append(cur)
            cur = len(degrees) - 1
    else:  # the text ran out before the root closed
        raise ParseError(len(s), f"missing {')' if parents else ']'!r}")
    if not degrees[0]:
        raise FormViolation("tree must have at least one edge")
    if bad is not None:
        raise WeightOutOfRange(bad, weights[bad], degrees[bad])
    return tuple(zip(weights, degrees))


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
