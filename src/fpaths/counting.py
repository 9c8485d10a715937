"""Exact counting of F-paths by step classes and by joint statistics.

Everything here is arbitrary-precision integer arithmetic.  Each closed
form is a product of binomials divided by (n+1); the division is always
performed last and checked exact (:class:`InexactDivision` guards
against formula regressions - it never fires on correct inputs).  The
summed closed forms step each term from the previous one by an exact
ratio p/q of small integers, not one ``comb`` per term: every factor of
p and q is linear in the step number, so the factors are built once per
call as ``range`` objects, those common to p and q cancel, and each
step's p and q are multiplied at C level.  The steps go in blocks of
``_BLOCK``: a block multiplies its small ratios together and sums its
terms over one common denominator, so that it makes two big divisions,
not one per term, each checked exact (see :func:`_stepped_sum`).
:func:`a_joint` returns its zero cells before any binomial.

Along a single-axis row r(v) = ``a_marginal(n, h=v)`` (or ``l=v``, or
``m=v``) with n fixed, the cells obey a linear recurrence with
polynomial coefficients, sum over k = 0..order of c_k(n, v)·r(v + k) = 0
(creative telescoping; Petkovsek-Wilf-Zeilberger, *A = B*, 1996): of
order 3 along the h- and m-rows and of order 1 along the l-row.
:func:`a_marginal` keeps, per axis, one immutable tuple (n, v, the last
``order`` cells up to r(v)), replaced whole on every in-range call.
When it is asked for r(v + 1) of the same n right after r(v), and holds
``order`` cells, it takes one recurrence step, dividing by the leading
coefficient with a checked division; any other call, and the m-row's
cell r(n), where that coefficient vanishes, evaluates the closed form.
So tabulating a row in order costs O(n) big-integer steps instead of
O(n^2).  A call never returns a stored value: asking for the same cell
twice evaluates it twice.  Each call reads the state once and writes it
once, so threads tabulating rows at once only take more closed forms.
:func:`sequence` steps the totals by their recurrence in n with the
same stepper, on a fourth axis: the row of n = 0 whose cell v is
a_total(v).  Every public function reads every argument with
``operator.index``, so a non-integer raises :class:`FormViolation`;
an integer out of range counts 0, and an n past :data:`MAX_COUNT_N`
raises :class:`GuardExceeded` unless its count is 0 without
arithmetic.  :func:`a_joint` and :func:`a_marginal` let plain ints skip
``operator.index``.

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

from functools import partial, reduce
from itertools import islice, repeat
from math import comb
from operator import index, mul

from .errors import FormViolation, GuardExceeded, InexactDivision, int_text
from .fpath_core import int_entries

BigCount = int

#: Largest n that :func:`a_total`, :func:`a_marginal`, :func:`a_joint`,
#: :func:`f_refined` and :func:`sequence` take; a larger one raises
#: :class:`GuardExceeded` before any big arithmetic, where the answer is
#: not 0 without it.  a(n) has about 0.7176·n digits, and at n = 50,000
#: ``a_total`` took 1.2 s on a 2-core host.
MAX_COUNT_N = 50_000

#: Largest top n of a binomial C(n, k) that :func:`series_coeff` and
#: :func:`multinomial` compute; a larger one raises
#: :class:`GuardExceeded`.  The counts above call them with tops of at
#: most 2n + 1 for every n <= :data:`MAX_COUNT_N`.
MAX_BINOMIAL_N = 2 * MAX_COUNT_N + 1


def comb0(n: int, k: int) -> BigCount:
    """Binomial coefficient that is 0 outside 0 <= k <= n."""
    n, k = _int(n), _int(k)
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def series_coeff(t: int, s: int) -> BigCount:
    """Coefficient of x^t in (1 - x)^(-s), as an exact integer.

    This is C(t+s-1, s-1) for s >= 1, (-1)^t C(-s, t) for s <= 0 (a
    polynomial, so series_coeff(t, 0) = [t == 0]) and 0 for t < 0.

    >>> [series_coeff(t, 3) for t in range(5)]
    [1, 3, 6, 10, 15]
    >>> [series_coeff(t, -2) for t in range(4)]
    [1, -2, 1, 0]

    A binomial top t+s-1 or -s past :data:`MAX_BINOMIAL_N` raises
    :class:`GuardExceeded` when t >= 0.
    """
    t, s = _int(t), _int(s)
    if t < 0:
        return 0
    if s <= 0:
        return (-1) ** t * comb(_capped(-s, MAX_BINOMIAL_N), t)
    return comb(_capped(t + s - 1, MAX_BINOMIAL_N), s - 1)


def multinomial(n: int, parts) -> BigCount:
    """Multinomial coefficient n! / prod(p!); 0 if any part is negative
    or the parts do not sum to n, else an n past :data:`MAX_BINOMIAL_N`
    raises :class:`GuardExceeded`."""
    n, parts = _int(n), int_entries(parts)
    if any(p < 0 for p in parts) or sum(parts) != n:
        return 0
    _capped(n, MAX_BINOMIAL_N)
    out = 1
    rest = n
    for p in parts:
        out *= comb(rest, p)
        rest -= p
    return out


def _int(value) -> int:
    """A count's argument, read with ``operator.index``."""
    try:
        return index(value)
    except TypeError:
        raise FormViolation(
            f"counts take integer arguments, got {int_text(value, repr)}"
        ) from None


def _capped(n: int, guard: int) -> int:
    """n, or :class:`GuardExceeded` when n > ``guard``, a ceiling:
    :data:`MAX_COUNT_N` or :data:`MAX_BINOMIAL_N`."""
    if n > guard:
        raise GuardExceeded(n, guard)
    return n


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise InexactDivision(num, den)
    return q


def _ratio_factors(runs) -> tuple[list, list]:
    """The factors of term(i+1) / term(i) for the runs of
    :func:`_stepped_sum`, as two lists (numerator, denominator) of pairs
    (c, e), each standing for the integer c + i·e.

    A binomial moves its top by da, then its bottom one unit at a time:
    C(a+1, b) = C(a, b)·(a+1)/(a+1-b), C(a-1, b) = C(a, b)·(a-b)/a and
    C(a, b+1) = C(a, b)·(a-b)/(b+1), with a and b themselves linear in i.
    A pair on both sides cancels.
    """
    num, den = [], []
    for a, b, da, db in runs:
        if da > 0:
            num.append((a + 1, da))
            den.append((a + 1 - b, da - db))
        elif da < 0:
            num.append((a - b, da - db))
            den.append((a, da))
        a += da
        num.append((a - b, da - db))
        den.append((b + 1, db))
        if db == 2:
            num.append((a - b - 1, da - db))
            den.append((b + 2, db))
    for f in num[:]:
        if f in den:
            num.remove(f)
            den.remove(f)
    return num, den


def _products(factors, steps: int):
    """Iterator over i in range(steps) of the product of c + i·e over
    ``factors``, multiplied at C level."""
    seqs = [range(c, c + steps * e, e) if e else repeat(c, steps)
            for c, e in factors]
    return reduce(partial(map, mul), seqs) if seqs else repeat(1, steps)


#: Steps of :func:`_stepped_sum` per pair of big divisions.
_BLOCK = 32


def _stepped_sum(count: int, *runs) -> BigCount:
    """Sum over i in range(count) of the product over ``runs`` of
    C(a + i·da, b + i·db), one run being a tuple (a, b, da, db) with
    da in (-1, 0, 1) and db in (1, 2).

    The first term t is seeded with ``math.comb``.  Each later one is the
    one before times p/q, where p and q are the products of the cancelled
    factors of :func:`_ratio_factors`.  The steps go in blocks of
    ``_BLOCK``.  From P = Q = 1 and T = 0, each step of a block sets
    P ← P·p, Q ← Q·q and T ← T·q + P, on integers far smaller than t:
    the k-th term after t is t·P_k/Q_k, and the block's terms after t
    sum to t·T/Q.  Two big divisions end the block, each checked exact.
    t·T/Q guards the block's sum, which is exact when every term is an
    integer; t·P/Q guards the next block's t, and the last block, which
    has no next, skips it.  So a wrong factor is checked at the end of
    its own block, and two divisions per block replace one per term.  Every
    term must be non-zero, so that no ratio divides by zero; nothing is
    stepped past the last term.
    """
    if count < 1:
        return 0
    term = 1
    for a, b, _, _ in runs:
        term *= comb(a, b)
    total = term
    num, den = _ratio_factors(runs)
    steps = zip(_products(num, count - 1), _products(den, count - 1))
    for left in range(count - 1, 0, -_BLOCK):
        block_p = block_q = 1
        block_t = 0
        for p, q in islice(steps, _BLOCK):
            block_p *= p
            block_q *= q
            block_t = block_t * q + block_p
        total += _exact_div(term * block_t, block_q)
        if left > _BLOCK:
            term = _exact_div(term * block_p, block_q)
    return total


# ------------------------------------------------------- refined counts


def f_refined(n: int, i: int, j: int, k: int, l: int, m: int) -> BigCount:
    """Number of F-paths of length n, height m, with step-class signature
    (i, j, k, l) as described in the module docstring.

    >>> f_refined(2, 1, 0, 0, 1, 1)
    2
    >>> f_refined(2, 0, 0, 1, 1, 0)
    1
    """
    n, i, j, k, l, m = map(_int, (n, i, j, k, l, m))
    if min(i, j, k, l, m) < 0 or m > n:
        return 0
    _capped(n, MAX_COUNT_N)
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
    # Inlined _int, _capped, _exact_div and series_coeff: this runs once
    # per cell of a joint table.  Plain ints skip operator.index.
    if not (type(n) is type(h) is type(l) is type(m) is int):
        try:
            n, h, l, m = index(n), index(h), index(l), index(m)
        except TypeError:
            raise FormViolation(
                f"counts take integer arguments, got {int_text((n, h, l, m))}"
            ) from None
    k = n - l
    s = 2 * k - h
    t = n - m - s
    # Most cells are zero: C(n-l, h) or series_coeff(t, s) vanishes.  Then
    # s >= n - l >= 0 and m <= n - s <= n.
    if not (0 <= h <= k and t >= 0 and l >= 0 and m >= 0):
        return 0
    if n > MAX_COUNT_N:
        raise GuardExceeded(n, MAX_COUNT_N)
    # series_coeff(t, s) is C(t+s-1, s-1), or [t == 0] when s == 0,
    # that is when l == n and h == 0.
    num = ((m + 1) * comb(n + 1, l + 1) * comb(k, h)
           * (comb(t + s - 1, s - 1) if s else t == 0))
    q, r = divmod(num, n + 1)
    if r:
        raise InexactDivision(num, n + 1)
    return q


# ------------------------------------------------------------- marginals
#
# Seven specializations of a_joint with any subset of (h, l, m) starred.
# Each is its own closed form (summing a_joint would hide formula bugs in
# the very identities the verification harness checks).  a_marginal calls
# them only with n >= 0 and every fixed value in 0..n.  The summed forms
# add only their non-zero terms, each stepped by _stepped_sum.


def _a_hl(n, h, l):
    return _exact_div(
        comb0(n + 1, l + 1) * comb0(n - l, h) * comb0(n + 1, 2 * l + h - n),
        n + 1,
    )


def _a_hm(n, h, m):
    # sum over i = 0..n-h of C(n-h+1, i+1)·series_coeff(t, s), with
    # s = 2n-h-2i and t = n-m-s = h-n-m+2i.  A term with s >= 1 is
    # C(n-m-1, t), non-zero for t >= 0 (i >= lo) and s >= 1 (i <= hi);
    # the one s == 0 term (h = 0, i = n) is [t == 0].  At m = n, lo > hi.
    lo = max(0, (n + m - h + 1) // 2)
    hi = min(n - h, (2 * n - h - 1) // 2)
    acc = int(h == 0 and m == n) + _stepped_sum(
        hi - lo + 1, (n - h + 1, lo + 1, 0, 1),
        (n - m - 1, h - n - m + 2 * lo, 0, 2))
    return _exact_div((m + 1) * comb0(n + 1, h) * acc, n + 1)


def _a_lm(n, l, m):
    return _exact_div(
        (m + 1) * comb0(n + 1, l + 1) * series_coeff(l - m, 2 * (n - l)),
        n + 1,
    )


def _a_h(n, h):
    # sum over i = 0..n-h of C(n-h+1, i)·C(n+1, 2i+h+1); the second
    # factor vanishes past i = (n-h) // 2.
    count = (n - h) // 2 + 1
    acc = _stepped_sum(count, (n - h + 1, 0, 0, 1), (n + 1, h + 1, 0, 2))
    return _exact_div(comb0(n + 1, h) * acc, n + 1)


def _a_l(n, l):
    return _exact_div(comb0(n + 1, l + 1) * comb0(2 * n - l + 1, l), n + 1)


def _a_m(n, m):
    # sum over i = 0..n of C(n+1, i)·series_coeff(n-m-i, 2i).  The s == 0
    # term (i = 0) is [m == n]; for 1 <= i <= n-m the series coefficient
    # is C(n-m+i-1, 2i-1), and it vanishes past i = n-m.
    acc = int(m == n) + _stepped_sum(
        n - m, (n + 1, 1, 0, 1), (n - m, 1, 1, 2))
    return _exact_div((m + 1) * acc, n + 1)


# -------------------------------------------------- stepped marginal rows
#
# Each function below gives (c_0, ..., c_order) with
# sum over k of c_k·r(v + k) = 0 along one single-axis row of length n.


def _h_recurrence(n, h):
    return ((h - n) * (h - 2 * n - 3) * (h - n - 1),
            -(h + 1) * (2 * h * h - 4 * h * n + n * n - 5 * n - 6),
            -4 * (h + 1) * (h + 2) * (h - 2 * n - 2),
            8 * (h + 1) * (h + 2) * (h + 3))


def _l_recurrence(n, l):
    return (-2 * (l - n) ** 2 * (2 * l - 2 * n - 1),
            (l + 1) * (l + 2) * (l - 2 * n - 1))


def _m_recurrence(n, m):
    # c_3 vanishes at m = n - 3: the cell r(n) takes the closed form.
    return (-(m + 2) * (m + 3) * (m + 4) * (m - n),
            (m + 1) * (m + 3) * (m + 4) * (2 * m - 3 * n + 1),
            -(m + 1) * (m + 2) * (m + 4) * (2 * m - n + 5),
            (m + 1) * (m + 2) * (m + 3) * (m - n + 3))


#: Per axis, (n, v, the last cells up to r(v)) of the last in-range call;
#: the axis "total" is the row of n = 0 whose cell v is a_total(v).
_last_cells = dict.fromkeys(("h", "l", "m", "total"), (-1, -1, ()))


def _row_cell(axis, order, n, v, closed, recurrence):
    """r(v) = closed(n, v), stepped by ``recurrence`` when the axis's last
    call was r(v - 1) of this n and holds ``order`` cells."""
    last_n, last_v, cells = _last_cells[axis]
    if last_n != n or last_v != v - 1:
        cells = ()
    lead = 0
    if len(cells) == order:
        coeffs = recurrence(n, v - order)
        lead = coeffs[order]
    if lead:
        # The sums written out: sum(map(mul, ...)) costs twice as much.
        if order == 3:
            c0, c1, c2, _ = coeffs
            r0, r1, r2 = cells
            r = _exact_div(-(c0 * r0 + c1 * r1 + c2 * r2), lead)
            cells = (r1, r2, r)
        else:
            r = _exact_div(-coeffs[0] * cells[0], lead)
            cells = (r,)
    else:
        r = closed(n, v)
        cells = (*cells, r)[-order:]
    _last_cells[axis] = (n, v, cells)
    return r


def a_total(n: int) -> BigCount:
    """Total number of F-paths of length n: 1, 2, 6, 21, 80, 322, ...

    >>> [a_total(n) for n in range(7)]
    [1, 2, 6, 21, 80, 322, 1347]
    """
    n = _int(n)
    if n < 0:
        return 0
    _capped(n, MAX_COUNT_N)
    # sum over i = 0..n of C(n+1, i+1)·C(2n+1-i, i); every term is
    # non-zero.
    acc = _stepped_sum(n + 1, (n + 1, 1, 0, 1), (2 * n + 1, 0, -1, 1))
    return _exact_div(acc, n + 1)


def a_marginal(n: int, h: int | None = None, l: int | None = None,
               m: int | None = None) -> BigCount:
    """Count F-paths of length n with any subset of (aone=h, north=l,
    height=m) fixed; a ``None`` argument is summed over ("starred").
    A fixed value outside 0..n, or n < 0, gives 0.

    With one value fixed, a call for the cell right after the one the
    same axis was last asked for, at the same n, takes one recurrence
    step from the cells kept for that axis (see the module docstring);
    every other call evaluates the closed form.  Either way the value is
    computed, never returned from a store.  Every argument is read
    before any range test; :func:`a_joint` and :func:`a_marginal` let
    plain ints skip ``operator.index``.

    >>> a_marginal(5, h=2)
    110
    >>> a_marginal(5, l=3)
    140
    >>> a_marginal(4)
    80
    """
    n = n if type(n) is int else _int(n)
    h = h if h is None or type(h) is int else _int(h)
    l = l if l is None or type(l) is int else _int(l)
    m = m if m is None or type(m) is int else _int(m)
    _capped(n, MAX_COUNT_N)
    if l is None is m:
        if h is None:
            return a_total(n)
        return (_row_cell("h", 3, n, h, _a_h, _h_recurrence)
                if 0 <= h <= n else 0)
    if h is None is m:
        return (_row_cell("l", 1, n, l, _a_l, _l_recurrence)
                if 0 <= l <= n else 0)
    if h is None is l:
        return (_row_cell("m", 3, n, m, _a_m, _m_recurrence)
                if 0 <= m <= n else 0)
    # A starred value reads as 0, which is in range whenever n >= 0.
    if not (0 <= (h or 0) <= n and 0 <= (l or 0) <= n and 0 <= (m or 0) <= n):
        return 0
    if m is None:
        return _a_hl(n, h, l)
    if l is None:
        return _a_hm(n, h, m)
    if h is None:
        return _a_lm(n, l, m)
    return a_joint(n, h, l, m)


def _total_recurrence(n):
    """(c_0, ..., c_3) with sum over k of c_k·a_total(n + k) = 0."""
    return (-3 * (n + 1) * (n + 2) * (19 * n + 72),
            -2 * (n + 2) * (38 * n * n + 239 * n + 369),
            -4 * (95 * n ** 3 + 930 * n * n + 3004 * n + 3198),
            2 * (n + 4) * (2 * n + 9) * (19 * n + 53))


def sequence(max_n: int) -> list[BigCount]:
    """The sequence a_total(0..max_n) as a list: 1, 2, 6, then each value
    one step of the order-3 recurrence in n from the three before it,
    every division checked exact, by the rows' stepper on the axis
    ``"total"``.

    >>> sequence(6)
    [1, 2, 6, 21, 80, 322, 1347]
    """
    return [_row_cell("total", 3, 0, v, lambda _, k: a_total(k),
                      lambda _, k: _total_recurrence(k))
            for v in range(_capped(_int(max_n), MAX_COUNT_N) + 1)]
