"""Core F-path objects: validation, statistics, involution, direct sums.

An *F-path* of length n is a sequence of steps from

    F = {(a, b) : a >= 1, b <= 1}  ∪  {(0, 1)}

such that every prefix satisfies sum(dx) <= sum(dy).  Steps are pairs
``(a, b)`` of ints, paths are tuples of steps.  The empty path is the
single path of length 0.

Statistics (``fpath_stats``):

    height  terminal sum(dy) - sum(dx)
    north   number of (0, 1) steps
    aone    number of steps with a == 1
    bone    number of steps with b == 1  (includes the (0, 1) steps)

Every path satisfies ``height <= north <= bone``.

>>> q = validate_fpath([(0, 1), (2, 1)])
>>> fpath_stats(q)
(StatTriple(h=0, l=1, a1=0), 2)
"""
from __future__ import annotations

from operator import index
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    FormViolation,
    GuardExceeded,
    PrefixViolation,
    StepNotInF,
    int_text,
)

FStep = tuple[int, int]
FPath = tuple[FStep, ...]

NORTH: FStep = (0, 1)

#: Largest common index n (the F-path length) that :func:`common_index`
#: accepts.  Counts grow roughly 4.4x per unit of n, so 10 (~half a
#: million paths) is the largest size that is comfortable to materialize
#: by accident.
MAX_N = 10


class StatTriple(NamedTuple):
    """The joint statistic (height, north, aone) carried by every family."""

    h: int
    l: int
    a1: int


def require_str(value) -> str:
    """``value`` itself if it is a str; anything else raises
    :class:`FormViolation`."""
    if not isinstance(value, str):
        raise FormViolation(f"expected a string, got {type(value).__name__}")
    return value


def _entries(values, what: str):
    """An iterator over ``values``; a non-iterable raises
    :class:`FormViolation`."""
    try:
        return iter(values)
    except TypeError:
        raise FormViolation(f"expected a sequence of {what}, "
                            f"got {type(values).__name__}") from None


def int_entries(values) -> tuple[int, ...]:
    """``values`` as a tuple of ints.  A non-iterable ``values``, or an
    entry that is not an integer (a float is refused, not truncated),
    raises :class:`FormViolation`, naming the entry's 1-based position."""
    out = []
    for pos, v in enumerate(_entries(values, "integers"), 1):
        try:
            out.append(index(v))
        except TypeError:
            raise FormViolation(f"entry {int_text(v, repr)} at position "
                                f"{pos} is not an integer") from None
    return tuple(out)


def validate_fpath(steps: Iterable[Iterable[int]]) -> FPath:
    """Normalize ``steps`` to a tuple of int pairs and check the F-path axioms.

    Raises :class:`StepNotInF` with the 0-based position of a step that
    is not a pair of integers in F (a float is refused, not truncated),
    :class:`PrefixViolation` with the 1-based length of the shortest
    prefix where sum(dx) exceeds sum(dy), and :class:`FormViolation`
    when ``steps`` is not iterable.

    >>> validate_fpath([(2, 1), (0, 1)])
    Traceback (most recent call last):
        ...
    fpaths.errors.PrefixViolation: prefix of length 1 has sum(dx) > sum(dy)
    """
    path = []
    height = 0
    for pos, raw in enumerate(_entries(steps, "steps")):
        try:
            a, b = raw
            a, b = index(a), index(b)
        except (TypeError, ValueError):
            raise StepNotInF(raw, pos) from None
        if b > 1 or a < 1 and (a, b) != NORTH:
            raise StepNotInF((a, b), pos)
        height += b - a
        if height < 0:
            raise PrefixViolation(pos + 1)
        path.append((a, b))
    return tuple(path)


def fpath_height(q: FPath) -> int:
    """Terminal height sum(dy) - sum(dx) of a (pre-validated) path."""
    return sum(b - a for a, b in q)


def fpath_stats(q: FPath) -> tuple[StatTriple, int]:
    """Return ``(StatTriple(height, north, aone), bone)``.

    Trusted, like ``phi`` and ``psi``: run :func:`validate_fpath` first,
    or take the triple from the checked ``FAMILIES["fpath"].stats``.

    >>> fpath_stats(((0, 1), (1, 1)))
    (StatTriple(h=1, l=1, a1=1), 2)
    """
    h = l = a1 = bone = 0
    for a, b in q:
        h += b - a
        if (a, b) == NORTH:
            l += 1
        if a == 1:
            a1 += 1
        if b == 1:
            bone += 1
    return StatTriple(h, l, a1), bone


def involution_phi_F(q: FPath) -> FPath:
    """The step-local involution fixing (0,1) and mapping (a,b) -> (2-b, 2-a).

    It preserves every prefix height (hence validity), ``height`` and
    ``north``, and swaps ``aone <-> bone - north``.  Trusted, like
    :func:`fpath_stats`: check ``q`` with :func:`validate_fpath` first.

    >>> involution_phi_F(((0, 1), (3, -1)))
    ((0, 1), (3, -1))
    >>> involution_phi_F(((0, 1), (2, 1)))
    ((0, 1), (1, 0))
    """
    return tuple(s if s == NORTH else (2 - s[1], 2 - s[0]) for s in q)


# ------------------------------------------------------------ enumeration


def _extensions(height: int) -> Iterator[FStep]:
    # Canonical step order: (0,1) first, then a ascending, b descending.
    yield NORTH
    for a in range(1, height + 2):
        for b in range(1, a - height - 1, -1):
            yield (a, b)


def _gen(n: int, height: int) -> Iterator[FPath]:
    if n == 0:
        yield ()
        return
    for step in _extensions(height):
        a, b = step
        for rest in _gen(n - 1, height + b - a):
            yield (step,) + rest


def common_index(n) -> int:
    """The common index n of every family, checked once for all of them.

    A non-integer or negative n raises :class:`FormViolation` and one
    above :data:`MAX_N` raises :class:`GuardExceeded`.  The family
    generators behind ``FAMILIES[tag].generate`` are trusted cores that
    take their size only from here.
    """
    try:
        n = index(n)
    except TypeError:
        raise FormViolation(
            f"n must be an integer, got {int_text(n, repr)}") from None
    if n < 0:
        raise FormViolation(f"n must be >= 0, got {int_text(n)}")
    if n > MAX_N:
        raise GuardExceeded(n, MAX_N)
    return n


def gen_fpaths(n: int) -> tuple[FPath, ...]:
    """All F-paths of length ``n`` in canonical order; ``n`` is checked
    by :func:`common_index`.

    The order is lexicographic by step sequence, where steps sort with
    (0,1) first, then by a ascending and b descending — so the six paths
    of length 2 come out as

    >>> for q in gen_fpaths(2):
    ...     print(q)
    ((0, 1), (0, 1))
    ((0, 1), (1, 1))
    ((0, 1), (1, 0))
    ((0, 1), (2, 1))
    ((1, 1), (0, 1))
    ((1, 1), (1, 1))
    """
    return tuple(_gen(common_index(n), 0))


# ------------------------------------------------------------ direct sums


def fpath_direct_sum(q1: FPath, q2: FPath) -> FPath:
    """Concatenate with a fresh (0,1) separator: ``q1 + (0,1) + q2``.
    Trusted, like :func:`fpath_stats`: run :func:`validate_fpath` first."""
    return tuple(q1) + (NORTH,) + tuple(q2)


def fpath_decompose(q: FPath) -> list[FPath]:
    """Split ``q`` into height-0 components at its canonical separators.

    A path of height m decomposes uniquely as
    ``R_1 (0,1) R_2 (0,1) ... (0,1) R_{m+1}`` where each ``R_i`` is an
    F-path of height 0.  The i-th separator is the *last* (0,1) step whose
    prefix height equals i: any later (0,1) landing at height i would put
    a dip below i after an earlier candidate, and only (0,1) steps gain
    height, so that choice is forced.

    Returns the list ``[R_1, ..., R_{m+1}]`` (length ``height(q) + 1``).
    One pass keeps ``last[i - 1]``, the last (0,1) landing at height i:
    one landing at h drops the entries above h, which the path can only
    reach again through later (0,1) steps.  Trusted, like
    :func:`fpath_stats`: check ``q`` with :func:`validate_fpath` first.

    >>> fpath_decompose(((0, 1), (1, 0), (0, 1)))
    [((0, 1), (1, 0)), ()]
    """
    last = []
    h = 0
    for pos, step in enumerate(q):
        a, b = step
        h += b - a
        if step == NORTH:
            last[h - 1:] = [pos]
    parts = []
    start = 0
    for p in last[:h]:
        parts.append(tuple(q[start:p]))
        start = p + 1
    parts.append(tuple(q[start:]))
    return parts
