"""Counting formulas against brute-force distributions and pinned tables."""
import decimal
import itertools
import math
import operator
import random
import sys
import threading
from collections import Counter
from decimal import Decimal

import pytest

from fpaths import counting
from fpaths.counting import (
    a_joint,
    a_marginal,
    a_total,
    comb0,
    f_refined,
    multinomial,
    sequence,
    series_coeff,
)
from fpaths.errors import FormViolation, GuardExceeded, InexactDivision
from fpaths.fpath_core import fpath_stats, gen_fpaths
from oracles import joint_dp, step_class_dp

SEQUENCE = (1, 2, 6, 21, 80, 322, 1347, 5798, 25512)

TABLE_H = (
    (1,),
    (1, 1),
    (2, 3, 1),
    (5, 9, 6, 1),
    (13, 30, 26, 10, 1),
    (36, 100, 110, 60, 15, 1),
)
TABLE_L = (
    (1,),
    (1, 1),
    (1, 4, 1),
    (1, 9, 10, 1),
    (1, 16, 42, 20, 1),
    (1, 25, 120, 140, 35, 1),
)


# Oracles: the summed closed forms as plain sums of comb0/series_coeff
# products, one pair of binomials per term over the full summation range.
# Outside 0 <= v <= n a statistic value has no paths.


def _in_range(n, *values):
    return n >= 0 and all(0 <= v <= n for v in values)


def oracle_total(n):
    if n < 0:
        return 0
    acc = 0
    for i in range(0, n + 1):
        acc += comb0(n + 1, i + 1) * comb0(2 * n - i + 1, i)
    return acc // (n + 1)


def oracle_h(n, h):
    if not _in_range(n, h):
        return 0
    acc = 0
    for i in range(0, n - h + 1):
        acc += comb0(n - h + 1, i) * comb0(n + 1, 2 * i + h + 1)
    return comb0(n + 1, h) * acc // (n + 1)


def oracle_m(n, m):
    if not _in_range(n, m):
        return 0
    acc = 0
    for i in range(0, n + 1):
        acc += comb0(n + 1, i) * series_coeff(n - m - i, 2 * i)
    return (m + 1) * acc // (n + 1)


def oracle_hm(n, h, m):
    if not _in_range(n, h, m):
        return 0
    acc = 0
    for i in range(0, n - h + 1):
        s = 2 * n - h - 2 * i
        t = n - m - s
        acc += comb0(n - h + 1, i + 1) * series_coeff(t, s)
    return (m + 1) * comb0(n + 1, h) * acc // (n + 1)


def signature(q):
    """(i, j, k, l) step classes plus height, independent of counting.py."""
    i = j = k = l = 0
    h = 0
    for a, b in q:
        h += b - a
        if (a, b) == (0, 1):
            l += 1
        elif a == 1 and b == 1:
            i += 1
        elif a == 1:
            j += 1
        elif b == 1:
            k += 1
    return i, j, k, l, h


# ---------------------------------------------------------- small helpers


def test_comb0_boundaries():
    assert comb0(5, 2) == 10
    assert comb0(5, -1) == 0
    assert comb0(5, 6) == 0
    assert comb0(-1, 0) == 0
    assert comb0(0, 0) == 1


def test_series_coeff_against_convolution():
    # expand (1-x)^(-s) by repeated polynomial multiplication: by
    # 1/(1-x) = 1 + x + x^2 + ... for s > 0, by 1 - x for s < 0
    for s in range(-5, 6):
        coeffs = [1] + [0] * 10
        factor = [1] * 11 if s > 0 else [1, -1]
        for _ in range(abs(s)):
            new = [0] * 11
            for i, c in enumerate(coeffs):
                for j, g in enumerate(factor):
                    if i + j <= 10:
                        new[i + j] += c * g
            coeffs = new
        for t in range(11):
            assert series_coeff(t, s) == coeffs[t], (t, s)
    assert series_coeff(-1, 3) == 0
    assert series_coeff(0, 0) == 1
    assert series_coeff(1, 0) == 0


def test_multinomial_against_factorials():
    assert multinomial(5, (2, 2, 1)) == math.factorial(5) // (2 * 2 * 1)
    assert multinomial(4, (2, 2, 1)) == 0  # wrong total
    assert multinomial(3, (4, -1)) == 0    # negative part
    assert multinomial(0, (0, 0)) == 1
    assert multinomial(7, (3, 2, 2)) == 210


@pytest.mark.parametrize("call, name, top", [
    (lambda: series_coeff(10**19, 10**19), "t + s - 1", 2 * 10**19 - 1),
    (lambda: series_coeff(3 * 10**5, 3 * 10**5), "t + s - 1",
     6 * 10**5 - 1),
    (lambda: series_coeff(1, counting.MAX_BINOMIAL_N + 1), "t + s - 1",
     counting.MAX_BINOMIAL_N + 1),
    (lambda: series_coeff(0, -counting.MAX_BINOMIAL_N - 1), "-s",
     counting.MAX_BINOMIAL_N + 1),
    (lambda: multinomial(2 * 10**19, [10**19, 10**19]), "n", 2 * 10**19),
    (lambda: multinomial(counting.MAX_BINOMIAL_N + 1,
                         [counting.MAX_BINOMIAL_N + 1]), "n",
     counting.MAX_BINOMIAL_N + 1),
], ids=["huge", "slow", "series-top", "polynomial-top", "multinomial-huge",
        "multinomial-top"])
def test_binomial_helpers_refuse_a_top_past_the_ceiling(call, name, top):
    """A binomial top past MAX_BINOMIAL_N raises GuardExceeded, naming
    the top and the ceiling, before any arithmetic: these calls used to
    raise OverflowError or run for seconds.  ``series_coeff`` names its
    top t + s - 1, or -s when s <= 0; ``multinomial``'s top is its n."""
    cap = counting.MAX_BINOMIAL_N
    with pytest.raises(GuardExceeded) as caught:
        call()
    assert str(caught.value) == f"{name} must be <= {cap}, got {top}"
    assert (caught.value.requested, caught.value.guard,
            caught.value.name) == (top, cap, name)


def test_binomial_helpers_take_the_tops_the_counts_use():
    """Tops up to MAX_BINOMIAL_N = 2·MAX_COUNT_N + 1 are computed, and
    the counts at n = MAX_COUNT_N, whose binomial tops reach 2n - 1 and
    n + 1 here, stay under the ceiling."""
    cap, n = counting.MAX_BINOMIAL_N, counting.MAX_COUNT_N
    assert cap == 2 * n + 1
    assert series_coeff(0, cap + 1) == 1          # C(cap, cap)
    assert series_coeff(0, -cap) == 1             # C(cap, 0)
    assert series_coeff(cap + 5, -cap) == 0       # k past the top
    assert series_coeff(-1, 10**19) == 0          # t < 0: no binomial
    assert multinomial(cap, [cap - 1, 1]) == cap
    assert multinomial(10**19, [10**19, 1]) == 0  # parts miss the total
    assert a_marginal(n, l=0, m=0) == 1           # series top 2n - 1
    assert f_refined(n, 0, 0, 0, n, n) == 1       # multinomial top n + 1


# ------------------------------------------------------------ closed forms


def test_f_refined_pinned_values():
    assert f_refined(2, 1, 0, 0, 1, 1) == 2
    assert f_refined(2, 0, 0, 1, 1, 0) == 1
    for n in range(9):
        assert f_refined(n, 0, 0, 0, n, n) == 1  # the all-north path


def test_f_refined_against_brute_signatures():
    for n in range(7):
        dist = Counter(signature(q) for q in gen_fpaths(n))
        for i in range(n + 1):
            for j in range(n + 1 - i):
                for k in range(n + 1 - i - j):
                    for l in range(n + 1 - i - j - k):
                        for m in range(n + 1):
                            want = dist.get((i, j, k, l, m), 0)
                            assert f_refined(n, i, j, k, l, m) == want


def test_step_class_dp_against_enumeration():
    for n, dist in enumerate(step_class_dp(6)):
        want = Counter()
        for q in gen_fpaths(n):
            i, j, k, l, h = signature(q)
            want[h, i, j, k, l] += 1
        assert dist == want, n


def test_f_refined_against_step_class_dp():
    """Every signature for n <= 12, past the exhaustive range, borders
    -1 and n+1 included and the class total up to n + 1."""
    for n, dist in enumerate(step_class_dp(12)):
        sides = range(-1, n + 2)
        for i, j, k, l in itertools.product(sides, repeat=4):
            if i + j + k + l > n + 1:
                continue
            for m in sides:
                want = dist.get((m, i, j, k, l), 0)
                assert f_refined(n, i, j, k, l, m) == want, (n, i, j, k, l, m)


def test_f_refined_sums_to_total():
    for n in range(7):
        total = 0
        for i in range(n + 1):
            for j in range(n + 1 - i):
                for k in range(n + 1 - i - j):
                    for l in range(n + 1 - i - j - k):
                        for m in range(n + 1):
                            total += f_refined(n, i, j, k, l, m)
        assert total == a_total(n)


def test_a_joint_against_brute():
    for n in range(6):
        dist = Counter(fpath_stats(q)[0] for q in gen_fpaths(n))
        for m in range(n + 1):          # height
            for l in range(n + 1):      # north
                for h in range(n + 1):  # aone
                    want = dist.get((m, l, h), 0)
                    assert a_joint(n, h=h, l=l, m=m) == want


@pytest.fixture(scope="module")
def dp_layers():
    """``joint_dp``'s layers for n = 0..40, from one pass."""
    return list(joint_dp(40))


def test_joint_dp_against_enumeration():
    for n, dist in enumerate(joint_dp(5)):
        assert dist == Counter(fpath_stats(q)[0] for q in gen_fpaths(n))


def test_a_joint_against_transfer_dp(dp_layers):
    # Every cell past the exhaustive range, borders -1 and n+1 included,
    # up to n = 40, past the benchmark's cubes at n = 34..38.
    for n, dist in enumerate(dp_layers):
        for m in range(-1, n + 2):          # height
            for l in range(-1, n + 2):      # north
                for h in range(-1, n + 2):  # aone
                    want = dist.get((m, l, h), 0)
                    assert a_joint(n, h=h, l=l, m=m) == want, (n, h, l, m)


#: ``a_marginal``'s keyword for each place of a ``joint_dp`` key.
DP_AXES = ("m", "l", "h")


def test_marginals_against_transfer_dp(dp_layers):
    """All seven marginal forms (one or two of h, l, m fixed, or none)
    against the projections of the DP, borders -1 and n+1 included."""
    for n, dist in enumerate(dp_layers):
        for r in range(3):
            for fixed in itertools.combinations(range(3), r):
                proj = Counter()
                for key, c in dist.items():
                    proj[tuple(key[i] for i in fixed)] += c
                for vals in itertools.product(range(-1, n + 2), repeat=r):
                    kw = {DP_AXES[i]: v for i, v in zip(fixed, vals)}
                    assert a_marginal(n, **kw) == proj.get(vals, 0), (n, kw)


def test_a_joint_out_of_range():
    assert a_joint(3, -1, 0, 0) == 0
    assert a_joint(3, 0, 4, 0) == 0
    assert a_joint(3, 0, 0, 5) == 0
    # Past the -1 border, m + 1 no longer vanishes.
    assert a_joint(3, 0, 1, -2) == 0


# --------------------------------------------------------------- marginals


def test_marginals_against_brute():
    for n in range(6):
        triples = [fpath_stats(q)[0] for q in gen_fpaths(n)]
        for v in range(n + 1):
            assert a_marginal(n, h=v) == sum(1 for t in triples if t.a1 == v)
            assert a_marginal(n, l=v) == sum(1 for t in triples if t.l == v)
            assert a_marginal(n, m=v) == sum(1 for t in triples if t.h == v)
            for w in range(n + 1):
                assert a_marginal(n, h=v, l=w) == sum(
                    1 for t in triples if t.a1 == v and t.l == w
                )
                assert a_marginal(n, h=v, m=w) == sum(
                    1 for t in triples if t.a1 == v and t.h == w
                )
                assert a_marginal(n, l=v, m=w) == sum(
                    1 for t in triples if t.l == v and t.h == w
                )
        assert a_marginal(n) == len(triples)


def test_marginals_against_joint_sums_wide():
    for n in range(0, 13):
        js = {
            (h, l, m): a_joint(n, h, l, m)
            for h in range(n + 1)
            for l in range(n + 1)
            for m in range(n + 1)
        }
        for h in range(n + 1):
            assert a_marginal(n, h=h) == sum(
                js[h, l, m] for l in range(n + 1) for m in range(n + 1)
            )
        for l in range(n + 1):
            assert a_marginal(n, l=l) == sum(
                js[h, l, m] for h in range(n + 1) for m in range(n + 1)
            )
        for m in range(n + 1):
            assert a_marginal(n, m=m) == sum(
                js[h, l, m] for h in range(n + 1) for l in range(n + 1)
            )


def test_marginal_pinned_values():
    assert a_marginal(5, h=2) == 110
    assert a_marginal(5, l=3) == 140
    for n in range(9):
        assert a_marginal(n, l=0) == 1  # the staircase-free bottom row
    # the all-north corner: only the path (0,1)^n
    for n in range(9):
        assert a_joint(n, h=0, l=n, m=n) == 1
        for m in range(n):
            assert a_marginal(n, l=n, m=m) == 0
        assert a_marginal(n, l=n, m=n) == 1


def test_tables():
    for n, row in enumerate(TABLE_H):
        assert tuple(a_marginal(n, h=h) for h in range(n + 1)) == row
    for n, row in enumerate(TABLE_L):
        assert tuple(a_marginal(n, l=l) for l in range(n + 1)) == row
    for n in range(6):
        assert sum(TABLE_H[n]) == SEQUENCE[n]
        assert sum(TABLE_L[n]) == SEQUENCE[n]


def test_sequence():
    assert tuple(sequence(8)) == SEQUENCE
    assert sequence(0) == [1]
    # the closed form stays exact well past the pinned range
    assert all(isinstance(v, int) and v > 0 for v in sequence(30))


def test_total_matches_marginal_sums():
    for n in range(13):
        assert a_total(n) == sum(a_marginal(n, m=m) for m in range(n + 1))


# ------------------------------------------- ratio-stepped sums vs oracles


def test_summed_forms_match_oracles_small():
    for n in range(-1, 41):
        assert a_total(n) == oracle_total(n), n
        for v in range(-3, n + 4):
            assert a_marginal(n, h=v) == oracle_h(n, v), (n, v)
            assert a_marginal(n, m=v) == oracle_m(n, v), (n, v)
            for w in range(-3, n + 4):
                assert a_marginal(n, h=v, m=w) == oracle_hm(n, v, w), (n, v, w)


@pytest.mark.parametrize("n", [300, 1000])
def test_summed_forms_match_oracles_large(n):
    rng = random.Random(n)
    assert a_total(n) == oracle_total(n)
    values = [0, 1, n - 1, n] + [rng.randint(2, n - 2) for _ in range(3)]
    for v in values:
        assert a_marginal(n, h=v) == oracle_h(n, v), v
        assert a_marginal(n, m=v) == oracle_m(n, v), v
        w = rng.choice(values)
        assert a_marginal(n, h=v, m=w) == oracle_hm(n, v, w), (v, w)


def test_out_of_range_counts_are_zero():
    # Negative heights gave negative counts, and a_total(-1) divided by 0.
    for n in (-3, -1):
        assert a_total(n) == 0
        assert a_marginal(n) == 0
    for n in range(6):
        for v in (-3, -2, -1, n + 1, n + 3):
            for kw in ({"h": v}, {"l": v}, {"m": v}):
                assert a_marginal(n, **kw) == 0, (n, kw)
            for w in range(-1, n + 2):
                for kw in ({"h": v, "l": w}, {"h": v, "m": w},
                           {"l": v, "m": w}, {"h": w, "m": v},
                           {"l": w, "m": v}, {"h": w, "l": v}):
                    assert a_marginal(n, **kw) == 0, (n, kw)
                assert a_marginal(n, h=v, l=w, m=w) == 0


# ------------------------------------------------------------- stepping


#: Every run shape (da, db) that the summed closed forms may use.
RUN_SHAPES = list(itertools.product((-1, 0, 1), (1, 2)))


def _stepped_cases(shape):
    """Runs (a, b, da, db) and counts with every term non-zero."""
    da, db = shape
    for a in range(9):
        for b in range(4):
            for count in range(6):
                if all(0 <= b + i * db <= a + i * da for i in range(count)):
                    yield (a, b, da, db), count


def _direct_sum(count, *runs):
    return sum(math.prod(comb0(a + i * da, b + i * db)
                         for a, b, da, db in runs)
               for i in range(count))


def _cancels(runs):
    """Whether a factor common to p and q cancels in these runs."""
    num, den = counting._ratio_factors(runs)
    full = sum(2 + 2 * (da != 0) + 2 * (db == 2) for _, _, da, db in runs)
    return len(num) + len(den) < full


@pytest.mark.parametrize("shape", RUN_SHAPES)
def test_stepped_sum_single_runs(shape):
    counts = set()
    for run, count in _stepped_cases(shape):
        assert counting._stepped_sum(count, run) == _direct_sum(count, run)
        counts.add(count)
    assert {0, 1} <= counts


def test_stepped_sum_pairs_of_runs():
    rng = random.Random(12)
    cancels = set()
    for s1, s2 in itertools.product(RUN_SHAPES, repeat=2):
        cases1, cases2 = list(_stepped_cases(s1)), list(_stepped_cases(s2))
        for _ in range(40):
            (r1, c1), (r2, c2) = rng.choice(cases1), rng.choice(cases2)
            count = min(c1, c2)
            got = counting._stepped_sum(count, r1, r2)
            assert got == _direct_sum(count, r1, r2), (count, r1, r2)
            cancels.add(_cancels((r1, r2)))
    assert cancels == {False, True}


#: Counts that stop a block one step short, end it, go one step past it
#: or into a third block, and a few hundred.
BLOCK = counting._BLOCK
LONG_COUNTS = (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 300)


def _long_run(shape, count, rng):
    """A run of this shape whose first ``count`` terms are non-zero:
    b + i·db <= a + i·da for every i < count."""
    da, db = shape
    b = rng.randint(0, 5)
    return b + (db - da) * (count - 1) + rng.randint(0, 5), b, da, db


def _cancelling_partner(r1, shape, count):
    """A run of this shape, fit for ``count`` terms, one of whose ratio
    factors cancels against one of ``r1``'s; None if there is none."""
    da, db = shape
    num, den = counting._ratio_factors([r1])
    for c, _ in num + den:
        for a, b in itertools.product(range(c - 3, c + 4), range(6)):
            r2 = (a, b, da, db)
            if a >= b + (db - da) * (count - 1) and _cancels((r1, r2)) \
                    and not _cancels((r1,)) and not _cancels((r2,)):
                return r2
    return None


@pytest.mark.parametrize("count", LONG_COUNTS)
def test_stepped_sum_many_blocks(count):
    rng = random.Random(count)
    for shape in RUN_SHAPES:
        for _ in range(3):
            run = _long_run(shape, count, rng)
            assert counting._stepped_sum(count, run) == \
                _direct_sum(count, run), (count, run)
    cancels = []
    for s1, s2 in itertools.product(RUN_SHAPES, repeat=2):
        r1 = _long_run(s1, count, rng)
        for r2 in (_long_run(s2, count, rng),
                   _cancelling_partner(r1, s2, count)):
            if r2 is not None:
                got = counting._stepped_sum(count, r1, r2)
                assert got == _direct_sum(count, r1, r2), (count, r1, r2)
                cancels.append(_cancels((r1, r2)))
    assert cancels.count(True) >= 10 and False in cancels


def _comb_sums(n, v):
    """The sums of _a_h, _a_m and _a_hm (at m = v // 3) at the cell v,
    before their last division, straight from ``math.comb``."""
    c = math.comb
    m = v // 3
    h_sum = sum(c(n - v + 1, i) * c(n + 1, 2 * i + v + 1)
                for i in range((n - v) // 2 + 1))
    # series_coeff(t, 2i) = C(t + 2i - 1, 2i - 1) for i >= 1, t >= 0.
    m_sum = int(v == n) + sum(c(n + 1, i) * c(n - v + i - 1, 2 * i - 1)
                              for i in range(1, n - v + 1))
    hm_sum = int(v == 0 and m == n) + sum(
        c(n - v + 1, i + 1) * c(n - m - 1, v - n - m + 2 * i)
        for i in range(n - v + 1)
        if v - n - m + 2 * i >= 0 and 2 * n - v - 2 * i >= 1)
    return h_sum, m_sum, hm_sum


@pytest.mark.parametrize("n", [1000, 2000])
def test_summed_forms_at_large_n_match_comb_sums(n):
    """a_total, _a_h, _a_m and _a_hm at n = 1000 and 2000, whose sums
    run over many blocks, against plain ``math.comb`` sums."""
    c = math.comb
    total = sum(c(n + 1, i + 1) * c(2 * n + 1 - i, i) for i in range(n + 1))
    assert a_total(n) == total // (n + 1)
    rng = random.Random(n)
    for v in [0, 1, n // 3, n - 1, n, rng.randrange(2, n - 1)]:
        h_sum, m_sum, hm_sum = _comb_sums(n, v)
        m = v // 3
        assert counting._a_h(n, v) == c(n + 1, v) * h_sum // (n + 1), v
        assert counting._a_m(n, v) == (v + 1) * m_sum // (n + 1), v
        assert counting._a_hm(n, v, m) == \
            (m + 1) * c(n + 1, v) * hm_sum // (n + 1), v


def test_stepped_sum_guard_is_live(monkeypatch):
    # One denominator factor off by one: a step's division leaves a
    # remainder, and the per-step check must catch it.
    real = counting._ratio_factors

    def off_by_one(runs):
        num, den = real(runs)
        (c, e), *rest = den
        return num, [(c + 1, e), *rest]

    # Whatever cell an earlier call left in the m-row's state, a repeated
    # call evaluates the closed form, so the one below reaches the sum.
    a_marginal(40, m=3)
    monkeypatch.setattr(counting, "_ratio_factors", off_by_one)
    with pytest.raises(InexactDivision) as caught:
        a_marginal(40, m=3)
    # Raised by the step, not by the final division by n + 1.
    assert [e.name for e in caught.traceback[-2:]] == ["_stepped_sum",
                                                       "_exact_div"]


def test_stepped_sum_next_term_guard_is_live(monkeypatch):
    # Every ratio 1, but the denominator 2 at step 30 (from 0): the first
    # block's terms after t = 1 are 30 ones, 1/2 and 1/2, which sum to an
    # integer, so only the guard on the next block's t, 1/2, can catch
    # it.  ``_stepped_sum`` asks for the 69 numerators first, then the
    # denominators.
    made = iter([[1] * 69, [2 if i == 30 else 1 for i in range(69)]])
    monkeypatch.setattr(counting, "_products",
                        lambda factors, steps: iter(next(made)))
    with pytest.raises(InexactDivision) as caught:
        counting._stepped_sum(70, (1, 0, 0, 1))
    assert [e.name for e in caught.traceback[-2:]] == ["_stepped_sum",
                                                       "_exact_div"]
    assert (caught.value.numerator, caught.value.denominator) == (1, 2)


def test_joint_guard_is_live(monkeypatch):
    # Every binomial one too large: a non-zero cell's division by n + 1
    # leaves a remainder, and a_joint's own check must catch it.
    real = counting.comb
    monkeypatch.setattr(counting, "comb", lambda n, k: real(n, k) + 1)
    for cell in [(2, 1, 1, 1), (36, 10, 15, 3), (36, 2, 20, 4)]:
        with pytest.raises(InexactDivision) as caught:
            a_joint(*cell)
        assert caught.traceback[-1].name == "a_joint", cell


# ------------------------------------------------- direct sums as counts
#
# A path of height m splits uniquely as R_1 N R_2 ... N R_{m+1}, with
# height-0 parts R_i and one north step N per separator, so the counts
# of height m are those of (m+1)-tuples of height-0 paths.  These
# identities tie the closed forms and the stepped rows to the direct
# sums, independently of the recurrences.  A series is a list over the
# x-degree of Counters keyed by the monomial y^l z^a1 as l·64 + a1
# (l, a1 <= 25), or by 0 where there is no y or z.


def _times(f, g, degree):
    """f·g with every x-degree above ``degree`` dropped."""
    out = []
    for k in range(degree + 1):
        acc = Counter()
        for i in range(k + 1):
            for e1, c1 in f[i].items():
                for e2, c2 in g[k - i].items():
                    acc[e1 + e2] += c1 * c2
        out.append(acc)
    return out


def test_m_row_and_totals_are_powers_of_the_height_0_series():
    """a_marginal(n, m=h) == [x^(n-h)] R^(h+1) and A = R/(1 - x·R) for
    n <= 120, with R(x) = sum of a_marginal(n, m=0)·x^n and A the
    totals."""
    top = 120
    rows = [[a_marginal(n, m=h) for h in range(n + 1)] for n in range(top + 1)]
    series = [Counter({0: row[0]}) for row in rows]
    power = series
    for h in range(top + 1):
        for n in range(h, top + 1):
            assert rows[n][h] == power[n - h][0], (n, h)
        power = _times(power, series, top - h - 1)
    r = [row[0] for row in rows]
    totals = sequence(top)
    for n in range(top + 1):
        want = r[n] + sum(totals[k] * r[n - 1 - k] for k in range(n))
        assert a_total(n) == totals[n] == want, n


def test_joint_cells_are_powers_of_the_height_0_series():
    """a_joint(n, a1, l, m) == [x^(n-m) y^(l-m) z^a1] R(x, y, z)^(m+1)
    for n <= 25, with R the m = 0 slice: a separator adds one north
    step, and nothing to a1."""
    top = 25
    series = [Counter({l * 64 + a1: a_joint(n, a1, l, 0)
                       for l in range(n + 1) for a1 in range(n + 1)
                       if a_joint(n, a1, l, 0)})
              for n in range(top + 1)]
    power = series
    for m in range(top + 1):
        for n in range(m, top + 1):
            got = {(l, a1): a_joint(n, a1, l, m)
                   for l in range(n + 1) for a1 in range(n + 1)}
            want = {(l, a1): power[n - m][(l - m) * 64 + a1] if l >= m else 0
                    for l in range(n + 1) for a1 in range(n + 1)}
            assert got == want, (n, m)
        power = _times(power, series, top - m - 1)


# ------------------------------------------ the counts as algebraic series
#
# A series is the list of its coefficients, x^0 first.  Each cubic is
# checked coefficientwise on truncated products, with exact ints.


def _series_times(f, g, degree):
    """f·g with every degree above ``degree`` dropped."""
    return [sum(map(operator.mul, f[:k + 1], reversed(g[:k + 1])))
            for k in range(degree + 1)]


def _at(f, k):
    return f[k] if k >= 0 else 0


def test_totals_satisfy_their_cubic():
    """A = sum of a(n)·x^n satisfies x^3·A^3 + 2x^2·A^2 + (2x - 1)·A + 1
    = 0, checked to n = 700."""
    top = 700
    a = sequence(top)
    a2 = _series_times(a, a, top)
    a3 = _series_times(a2, a, top)
    for n in range(top + 1):
        assert (_at(a3, n - 3) + 2 * _at(a2, n - 2) + 2 * _at(a, n - 1)
                - a[n] + (n == 0)) == 0, n


def test_height_0_series_satisfies_its_cubic():
    """R = sum of a_marginal(n, m=0)·x^n satisfies x^2·R^3 - (2x + x^2)·R^2
    + (1 + x)·R - 1 = 0, checked to n = 700."""
    top = 700
    r = [a_marginal(n, m=0) for n in range(top + 1)]
    r2 = _series_times(r, r, top)
    r3 = _series_times(r2, r, top)
    for n in range(top + 1):
        assert (_at(r3, n - 2) - 2 * _at(r2, n - 1) - _at(r2, n - 2)
                + r[n] + _at(r, n - 1) - (n == 0)) == 0, n


def test_totals_are_the_lagrange_coefficients():
    """a(n) = [y^n] φ(y)^(n+1) / (n + 1) with φ = 1 + 2y + 2y^2 + y^3,
    so w = sum of a(n)·x^(n+1) solves w = x·φ(w): for n <= 200 and at
    n = 500 and 1000.  ``power`` is φ^(n+1) truncated at degree 1000,
    multiplied by φ once per n."""
    checked = {n: a_total(n) for n in (*range(201), 500, 1000)}
    top = max(checked)
    power = [1] + [0] * top
    for n in range(top + 1):
        power = [power[d] + 2 * _at(power, d - 1) + 2 * _at(power, d - 2)
                 + _at(power, d - 3) for d in range(top + 1)]
        if n in checked:
            assert power[n] == (n + 1) * checked[n], n


#: π to 50 decimals.
PI = "3.14159265358979323846264338327950288419716939937510"


def test_totals_grow_like_the_lagrange_estimate():
    """a(n) ~ C·γ^(n+1)·(n+1)^(-3/2) (Meir-Moon 1978; Flajolet-Sedgewick,
    *Analytic Combinatorics*, ch. VII), where τ solves τ·φ'(τ) = φ(τ),
    that is 2τ^3 + 2τ^2 - 1 = 0, γ = φ'(τ) and C = √(φ(τ)/(2π·φ''(τ))).
    a(n) is below the estimate by less than 1/n of it at n = 100, 1000
    and 3000; at 50 digits, rounding is far below either bound."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        tau = Decimal(1) / 2
        for _ in range(10):  # Newton's method: 6 steps reach 50 digits
            tau -= ((2 * tau + 2) * tau * tau - 1) / ((6 * tau + 4) * tau)
        assert abs((2 * tau + 2) * tau * tau - 1) < Decimal("1e-45")
        phi = 1 + tau * (2 + tau * (2 + tau))
        gamma = 2 + tau * (4 + 3 * tau)
        assert abs(gamma - Decimal("5.2191362")) < Decimal("1e-7")
        c = (phi / (2 * Decimal(PI) * (4 + 6 * tau))).sqrt()
        assert abs(c - Decimal("0.2520302")) < Decimal("1e-7")
        for n in (100, 1000, 3000):
            estimate = c * gamma ** (n + 1) / (n + 1) / Decimal(n + 1).sqrt()
            gap = 1 - Decimal(a_total(n)) / estimate
            assert 0 < gap < Decimal(1) / n, (n, gap)


# ------------------------------------------- recurrences: rows and totals


#: The closed forms, taken at import: the oracle of every stepped row.
CLOSED = {"h": counting._a_h, "l": counting._a_l, "m": counting._a_m}
#: The order of each row's recurrence.
ORDER = {"h": 3, "l": 1, "m": 3}


def _closed(n, axis, v):
    return CLOSED[axis](n, v) if 0 <= v <= n else 0


def _row(n, axis, values=None):
    values = range(n + 1) if values is None else values
    return [a_marginal(n, **{axis: v}) for v in values]


def test_sequence_recurrence_matches_a_total():
    assert sequence(300) == [a_total(n) for n in range(301)]
    seq = sequence(2999)
    assert len(seq) == 3000
    assert seq[1000] == a_total(1000)
    assert seq[2999] == a_total(2999)
    assert all(sequence(k) == [] for k in (-1, -2, -3, -100))
    assert sequence(0) == [1]
    assert sequence(1) == [1, 2] and sequence(2) == [1, 2, 6]


def test_sequence_guard_is_live(monkeypatch):
    real = counting._total_recurrence

    def off_by_one(n):
        c0, *rest = real(n)
        return c0 + 1, *rest

    monkeypatch.setattr(counting, "_total_recurrence", off_by_one)
    with pytest.raises(InexactDivision):
        sequence(20)


def test_stepped_rows_match_closed_forms():
    for n in [*range(151), 316, 1000]:
        for axis in "hlm":
            want = [CLOSED[axis](n, v) for v in range(n + 1)]
            assert _row(n, axis) == want, (n, axis)


def _reverse(n):
    return [(n, "h", v) for v in range(n, -1, -1)]


def _two_axes(n):
    return [(n, axis, v) for v in range(n + 1) for axis in "hm"]


def _two_ns(n):
    return [(k, "m", v) for v in range(n + 1) for k in (n, n + 1)]


def _axis_switch(n):
    half = n // 2
    return [*((n, "h", v) for v in range(half + 1)),
            *((n, "m", v) for v in range(half + 1, n + 1)),
            *((n, "l", v) for v in range(half + 1)),
            *((n, "h", v) for v in range(half + 1, n + 1))]


def _out_of_range_inside(n):
    calls = [(n, axis, v) for axis in "hlm" for v in range(n + 1)]
    calls.insert(n // 2, (n, "h", -1))
    calls.insert(n + 2 + n // 2, (n, "l", n + 1))
    calls.insert(2 * n + 4 + n // 2, (n, "m", n + 1))
    return calls


@pytest.mark.parametrize("pattern", [_reverse, _two_axes, _axis_switch,
                                     _two_ns, _out_of_range_inside])
@pytest.mark.parametrize("n", [3, 4, 40, 151])
def test_stepped_rows_any_access_pattern(pattern, n):
    for k, axis, v in pattern(n):
        assert a_marginal(k, **{axis: v}) == _closed(k, axis, v), (k, axis, v)


def test_sequence_and_the_rows_step_apart():
    """``sequence`` steps on an axis of its own: interleaved cell by cell
    with in-order h-, l- and m-rows and with single ``a_total`` calls,
    every value is the closed form's."""
    totals = [sum(math.comb(n + 1, i + 1) * math.comb(2 * n + 1 - i, i)
                  for i in range(n + 1)) // (n + 1) for n in range(61)]
    for n in range(61):
        for v in range(n + 1):
            for axis in "hlm":
                assert a_marginal(n, **{axis: v}) == _closed(n, axis, v)
            assert sequence(v) == totals[:v + 1], (n, v)
            assert a_total(n - v) == totals[n - v]


@pytest.fixture
def evaluations(monkeypatch):
    """Counts closed-form row evaluations per axis."""
    counts = Counter()
    for axis, closed in CLOSED.items():
        def counted(n, v, axis=axis, closed=closed):
            counts[axis] += 1
            return closed(n, v)
        monkeypatch.setattr(counting, f"_a_{axis}", counted)
    return counts


@pytest.mark.parametrize("n", [0, 2, 3, 5, 60])
@pytest.mark.parametrize("axis", "hlm")
def test_stepped_row_is_no_cache(evaluations, axis, n):
    closed_cells = min(n + 1, ORDER[axis]) + (axis == "m" and n >= 3)
    want = [CLOSED[axis](n, v) for v in range(n + 1)]
    assert _row(n, axis) == want
    assert evaluations[axis] == closed_cells
    # A repeated batch gets no help from the one before it.
    assert _row(n, axis) == want
    assert evaluations[axis] == 2 * closed_cells
    # Neither does a repeated cell, nor one out of order.
    for v in (n, n, n // 2):
        before = evaluations[axis]
        assert a_marginal(n, **{axis: v}) == want[v]
        assert evaluations[axis] == before + 1
    # A cell out of range neither reads nor breaks the row's state.
    evaluations.clear()
    assert [*_row(n, axis, range(n // 2)), a_marginal(n, **{axis: -1}),
            a_marginal(n, **{axis: n + 1}),
            *_row(n, axis, range(n // 2, n + 1))] == [
        *want[:n // 2], 0, 0, *want[n // 2:]]
    assert evaluations[axis] == closed_cells


@pytest.mark.parametrize("axis", "hlm")
@pytest.mark.parametrize("k", [0, -1])
def test_step_guard_is_live(monkeypatch, axis, k):
    # One recurrence coefficient off by one: the step's division leaves
    # a remainder, and its check must catch it.
    real = getattr(counting, f"_{axis}_recurrence")

    def off_by_one(n, v):
        coeffs = list(real(n, v))
        coeffs[k] += 1
        return tuple(coeffs)

    monkeypatch.setattr(counting, f"_{axis}_recurrence", off_by_one)
    with pytest.raises(InexactDivision) as caught:
        _row(60, axis)
    # Raised by the step, not by a closed form.
    assert [e.name for e in caught.traceback[-2:]] == ["_row_cell",
                                                       "_exact_div"]


def test_stepped_rows_in_two_threads():
    # Two threads share the per-axis state; with a tiny switch interval
    # their h-rows at n = 200 and 201 interleave cell by cell.
    jobs = [(200, "h"), (201, "h"), (200, "m"), (201, "l")]
    got = {}
    start = threading.Barrier(2)

    def tabulate(mine):
        start.wait()
        for _ in range(3):
            for n, axis in mine:
                got.setdefault((n, axis), []).append(_row(n, axis))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=tabulate, args=(jobs[i::2],))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(switch)
    for (n, axis), rows in got.items():
        want = [CLOSED[axis](n, v) for v in range(n + 1)]
        assert rows == [want] * 3, (n, axis)
    assert len(got) == len(jobs)


# ------------------------------------------------------- argument types


def test_a_total_rejects_non_integers():
    with pytest.raises(FormViolation):
        a_total(2.0)
    assert a_total(True) == 2


def test_helpers_reject_non_integers():
    for call in (lambda: series_coeff(-1.5, 3), lambda: series_coeff(2.0, 3),
                 lambda: series_coeff(2, None), lambda: comb0(2, 1.5),
                 lambda: comb0("5", 2), lambda: multinomial(5, (2.0, 3)),
                 lambda: multinomial(5, 3), lambda: multinomial(5.0, (2, 3))):
        with pytest.raises(FormViolation):
            call()
    assert series_coeff(True, 3) == 3 and comb0(5, True) == 5
    assert multinomial(5, iter([2, 3])) == 10


def test_a_joint_rejects_non_integers():
    with pytest.raises(FormViolation) as caught:
        a_joint(5, 1, 2, 1.0)
    assert str(caught.value) == (
        "counts take integer arguments, got (5, 1, 2, 1.0)")
    with pytest.raises(FormViolation):
        a_joint(5, None, 2, 1)
    assert a_joint(5, -1, 2, 1) == a_joint(5, 1, 2, 9) == 0


def test_a_marginal_rejects_non_integers():
    with pytest.raises(FormViolation):
        a_marginal(5, h=1.5)
    with pytest.raises(FormViolation):
        a_marginal(5.0)
    with pytest.raises(FormViolation):
        a_marginal(5, l="2")
    # Every argument is read before any range test, on every pattern with
    # a fixed value: an out-of-range int never hides a later non-integer.
    for n, fixed in ((-1, {"h": 1.5}), (-1, {"l": "2"}), (-1, {"m": 1.5}),
                     (5, {"h": 9, "l": 1.5}), (5, {"h": 9, "m": 1.5}),
                     (5, {"l": 9, "m": "2"}), (-1, {"h": 1, "l": 1, "m": "2"}),
                     (5, {"h": 1, "l": 9, "m": 1.5})):
        with pytest.raises(FormViolation):
            a_marginal(n, **fixed)
    assert a_marginal(5, m=-1) == a_marginal(5, h=6) == 0


class _Sub(int):
    pass


class _Index:
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def _marginal(args, stars):
    """a_marginal at (n, h, l, m) = ``args``, with the places that
    ``stars`` marks left out."""
    return a_marginal(args[0], **{k: v for k, v, star in
                                  zip("hlm", args[1:], stars) if not star})


@pytest.mark.parametrize("kind", [_Sub, _Index, bool])
def test_counts_read_any_integer_type(kind):
    """An int subclass, a bool and an ``__index__`` object count as the
    plain int they stand for, in every place of a_joint and a_marginal."""
    n = 1 if kind is bool else 6
    values = (0, 1) if kind is bool else range(-1, n + 2)
    for cell in itertools.product([n], values, values, values):
        for at in range(4):
            args = list(cell)
            args[at] = kind(args[at])
            assert a_joint(*args) == a_joint(*cell), args
            for stars in itertools.product((False, True), repeat=3):
                assert _marginal(args, stars) == _marginal(cell, stars), (
                    args, stars)


def test_f_refined_rejects_non_integers():
    with pytest.raises(FormViolation):
        f_refined(2, 1, 0, 0, 1, 1.0)
    with pytest.raises(FormViolation):
        f_refined(2.0, 1, 0, 0, 1, 1)
    assert f_refined(2, 1, 0, 0, 1, 3) == f_refined(2, -1, 0, 0, 1, 1) == 0


def test_sequence_rejects_non_integers():
    with pytest.raises(FormViolation):
        sequence(3.0)
    assert sequence(-1) == []


def test_exact_div_names_a_numerator_past_the_digit_limit():
    # 5000 digits: past CPython's int-to-str limit, so the message's
    # digits must come from a conversion that does not apply it.
    num = 10**4999 + 1
    with pytest.raises(InexactDivision) as caught:
        counting._exact_div(num, 10)
    assert (caught.value.numerator, caught.value.denominator) == (num, 10)
    assert str(caught.value) == \
        "1" + "0" * 4998 + "1 is not divisible by 10"


# ---------------------------------------------------------- the ceiling on n

CAP = counting.MAX_COUNT_N


@pytest.mark.parametrize("call", [
    lambda n: a_total(n),
    lambda n: a_marginal(n),
    lambda n: a_marginal(n, h=1),
    lambda n: a_marginal(n, l=1),
    lambda n: a_marginal(n, m=1),
    lambda n: a_marginal(n, h=1, m=1),
    lambda n: a_joint(n, 0, n, n),
    lambda n: f_refined(n, 0, 0, 0, n, n),
    lambda n: sequence(n),
], ids=["total", "star", "h", "l", "m", "hm", "joint", "refined", "sequence"])
def test_counts_refuse_an_n_past_the_ceiling(call):
    """Past MAX_COUNT_N every count that needs arithmetic raises
    GuardExceeded, naming the ceiling, before it does any: at n = 10**20
    the closed forms used to run for minutes."""
    for n in (CAP + 1, 10**20):
        with pytest.raises(GuardExceeded) as caught:
            call(n)
        assert str(caught.value) == f"n must be <= {CAP}, got {n}"
        assert (caught.value.requested, caught.value.guard) == (n, CAP)


def test_counts_that_need_no_arithmetic_stay_0_past_the_ceiling():
    big = 10**20
    assert a_total(-big) == a_marginal(-big, h=1) == 0
    assert a_joint(big, 1, 1, 1) == 0           # a zero cell of the cube
    assert a_joint(big, big + 1, 0, 0) == 0     # a value outside 0..n
    assert f_refined(big, -1, 0, 0, 0, 0) == 0
    assert a_joint(CAP, 0, CAP, CAP) == 1       # the all-north path
