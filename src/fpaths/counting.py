"""Exact counting of F-paths by step classes and by joint statistics.

Everything here is arbitrary-precision integer arithmetic.  Each closed
form is a product of binomials divided by (n+1); the division is always
performed last and checked exact (:class:`InexactDivision` guards
against formula regressions - it never fires on correct inputs).

Step classes used by :func:`f_refined` (a path of length n with l north
steps and statistics as in :mod:`.fpath_core`):

    i   steps (1, 1)
    j   steps (1, b) with b <= 0
    k   steps (a, 1) with a >= 2
    l   steps (0, 1)
    n'  steps (a, b) with a >= 2, b <= 0   (n' = n - i - j - k - l)

so ``aone = i + j`` and ``bone = i + k + l``.
"""
from __future__ import annotations

from math import comb

from .errors import InexactDivision

BigCount = int


def comb0(n: int, k: int) -> BigCount:
    """Binomial coefficient that is 0 outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def series_coeff(t: int, s: int) -> BigCount:
    """Coefficient of x^t in (1 - x)^(-s), as an exact integer.

    This is C(t+s-1, s-1) for t, s >= 0, with the conventions
    series_coeff(t, 0) = [t == 0] and 0 for t < 0.

    >>> [series_coeff(t, 3) for t in range(5)]
    [1, 3, 6, 10, 15]
    """
    if t < 0:
        return 0
    if s == 0:
        return 1 if t == 0 else 0
    return comb0(t + s - 1, s - 1)


def multinomial(n: int, parts) -> BigCount:
    """Multinomial coefficient n! / prod(p!); 0 if any part is negative
    or the parts do not sum to n."""
    parts = list(parts)
    if any(p < 0 for p in parts) or sum(parts) != n:
        return 0
    out = 1
    rest = n
    for p in parts:
        out *= comb(rest, p)
        rest -= p
    return out


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise InexactDivision(num, den)
    return q


# ------------------------------------------------------- refined counts


def f_refined(n: int, i: int, j: int, k: int, l: int, m: int) -> BigCount:
    """Number of F-paths of length n, height m, with step-class signature
    (i, j, k, l) as described in the module docstring.

    >>> f_refined(2, 1, 0, 0, 1, 1)
    2
    >>> f_refined(2, 0, 0, 1, 1, 0)
    1
    """
    if min(i, j, k, l, m) < 0 or m > n:
        return 0
    n_prime = n - i - j - k - l
    if n_prime < 0:
        return 0
    s = 2 * n_prime + j + k
    t = l - m - s
    return _exact_div(
        (m + 1)
        * multinomial(n + 1, (i, j, k, l + 1, n_prime))
        * series_coeff(t, s),
        n + 1,
    )


def a_joint(n: int, h: int, l: int, m: int) -> BigCount:
    """Number of F-paths of length n with aone = h, north = l, height = m.

    (The argument names follow the closed form; the triple carried around
    the package as ``StatTriple(h, l, a1)`` has multiplicity
    ``a_joint(n, h=a1, l=l, m=h)``.)

    >>> a_joint(2, 1, 1, 1)
    2
    """
    if min(h, l, m) < 0 or max(h, l, m) > n:
        return 0
    s = 2 * (n - l) - h
    t = n - m - s
    return _exact_div(
        (m + 1) * comb0(n + 1, l + 1) * comb0(n - l, h) * series_coeff(t, s),
        n + 1,
    )


# ------------------------------------------------------------- marginals
#
# Seven specializations of a_joint with any subset of (h, l, m) starred.
# Each is its own closed form (summing a_joint would hide formula bugs in
# the very identities the verification harness checks).


def _a_hl(n, h, l):
    return _exact_div(
        comb0(n + 1, l + 1) * comb0(n - l, h) * comb0(n + 1, 2 * l + h - n),
        n + 1,
    )


def _a_hm(n, h, m):
    acc = 0
    for i in range(0, n - h + 1):
        s = 2 * n - h - 2 * i
        t = n - m - s
        acc += comb0(n - h + 1, i + 1) * series_coeff(t, s)
    return _exact_div((m + 1) * comb0(n + 1, h) * acc, n + 1)


def _a_lm(n, l, m):
    return _exact_div(
        (m + 1) * comb0(n + 1, l + 1) * series_coeff(l - m, 2 * (n - l)),
        n + 1,
    )


def _a_h(n, h):
    acc = 0
    for i in range(0, n - h + 1):
        acc += comb0(n - h + 1, i) * comb0(n + 1, 2 * i + h + 1)
    return _exact_div(comb0(n + 1, h) * acc, n + 1)


def _a_l(n, l):
    return _exact_div(comb0(n + 1, l + 1) * comb0(2 * n - l + 1, l), n + 1)


def _a_m(n, m):
    acc = 0
    for i in range(0, n + 1):
        acc += comb0(n + 1, i) * series_coeff(n - m - i, 2 * i)
    return _exact_div((m + 1) * acc, n + 1)


def a_total(n: int) -> BigCount:
    """Total number of F-paths of length n: 1, 2, 6, 21, 80, 322, ...

    >>> [a_total(n) for n in range(7)]
    [1, 2, 6, 21, 80, 322, 1347]
    """
    acc = 0
    for i in range(0, n + 1):
        acc += comb0(n + 1, i + 1) * comb0(2 * n - i + 1, i)
    return _exact_div(acc, n + 1)


def a_marginal(n: int, h: int | None = None, l: int | None = None,
               m: int | None = None) -> BigCount:
    """Count F-paths of length n with any subset of (aone=h, north=l,
    height=m) fixed; a ``None`` argument is summed over ("starred").

    >>> a_marginal(5, h=2)
    110
    >>> a_marginal(5, l=3)
    140
    >>> a_marginal(4)
    80
    """
    fixed = (h is not None, l is not None, m is not None)
    if n < 0:
        return 0
    match fixed:
        case (True, True, True):
            return a_joint(n, h, l, m)
        case (True, True, False):
            return _a_hl(n, h, l)
        case (True, False, True):
            return _a_hm(n, h, m)
        case (False, True, True):
            return _a_lm(n, l, m)
        case (True, False, False):
            return _a_h(n, h)
        case (False, True, False):
            return _a_l(n, l)
        case (False, False, True):
            return _a_m(n, m)
        case _:
            return a_total(n)


def sequence(max_n: int) -> list[BigCount]:
    """The sequence a_total(0..max_n) as a list."""
    return [a_total(n) for n in range(max_n + 1)]
