"""F-path core: validation, stats, involution, enumeration, direct sums.

The enumeration oracle here is deliberately dumb: filter the full
cartesian product of a bounded step universe by the prefix condition.
For paths of length n every step has a <= n (since sum(dx) <= sum(dy)
<= n) and b >= -(n-1), so the universe below is exhaustive.
"""
import itertools

import pytest

from fpaths.errors import PrefixViolation, StepNotInF
from fpaths.fpath_core import (
    StatTriple,
    fpath_decompose,
    fpath_direct_sum,
    fpath_stats,
    gen_fpaths,
    involution_phi_F,
    validate_fpath,
)

COUNTS = (1, 2, 6, 21, 80, 322, 1347)


def oracle_fpaths(n):
    """Brute-force F-path enumeration (set of tuples)."""
    universe = [(0, 1)] + [
        (a, b) for a in range(1, n + 1) for b in range(-n, 2)
    ]
    found = set()
    for seq in itertools.product(universe, repeat=n):
        sx = sy = 0
        good = True
        for a, b in seq:
            sx += a
            sy += b
            if sx > sy:
                good = False
                break
        if good:
            found.add(seq)
    return found


F2_CANONICAL = (
    ((0, 1), (0, 1)),
    ((0, 1), (1, 1)),
    ((0, 1), (1, 0)),
    ((0, 1), (2, 1)),
    ((1, 1), (0, 1)),
    ((1, 1), (1, 1)),
)


class TestValidate:
    def test_accepts_and_normalizes(self):
        q = validate_fpath([[0, 1], (1, 1)])
        assert q == ((0, 1), (1, 1))

    def test_empty(self):
        assert validate_fpath([]) == ()

    def test_bools_become_ints(self):
        q = validate_fpath([(False, True), (True, True)])
        assert q == ((0, 1), (1, 1))
        assert all(type(v) is int for step in q for v in step)

    def test_accepts_a_generator(self):
        steps = ((a, 1) for a in (0, 1, 0))
        assert validate_fpath(steps) == ((0, 1), (1, 1), (0, 1))

    def test_single_steps_against_the_definition(self):
        for a, b in itertools.product(range(-3, 5), range(-3, 4)):
            in_f = (a, b) == (0, 1) or (a >= 1 and b <= 1)
            try:
                validate_fpath([(0, 1), (0, 1), (0, 1), (a, b)])
            except StepNotInF as exc:
                assert not in_f and exc.position == 3, (a, b)
            except PrefixViolation:
                assert in_f and a - b > 3, (a, b)
            else:
                assert in_f, (a, b)

    @pytest.mark.parametrize("bad", [
        (0, 0), (0, 2), (-1, 1), (1, 2), (2, 3),
        # not a pair of integers; a float is refused, not truncated
        (1,), (0, 1, 2), ("a", 1), (1.5, 1),
    ])
    def test_step_not_in_f(self, bad):
        with pytest.raises(StepNotInF) as info:
            validate_fpath([(0, 1), bad])
        assert info.value.position == 1

    def test_prefix_violation_index_is_one_based(self):
        with pytest.raises(PrefixViolation) as info:
            validate_fpath([(2, 1), (0, 1)])
        assert info.value.index == 1

    def test_prefix_violation_later(self):
        with pytest.raises(PrefixViolation) as info:
            validate_fpath([(0, 1), (0, 1), (4, 1)])
        assert info.value.index == 3


class TestStats:
    def test_empty(self):
        assert fpath_stats(()) == (StatTriple(0, 0, 0), 0)

    def test_hand_values(self):
        st, bone = fpath_stats(((0, 1), (2, 1)))
        assert st == StatTriple(0, 1, 0)
        assert bone == 2
        st, bone = fpath_stats(((1, 1), (1, 1)))
        assert st == StatTriple(0, 0, 2)
        assert bone == 2

    def test_chain_inequality(self):
        for n in range(6):
            for q in gen_fpaths(n):
                (h, l, _), bone = fpath_stats(q)
                assert h <= l <= bone


class TestInvolution:
    def test_fixed_and_swapped_steps(self):
        assert involution_phi_F(((0, 1),)) == ((0, 1),)
        assert involution_phi_F(((2, 1),)) == ((1, 0),)
        assert involution_phi_F(((3, -1),)) == ((3, -1),)
        assert involution_phi_F(((1, 1),)) == ((1, 1),)

    def test_relations_exhaustive(self):
        for n in range(6):
            for q in gen_fpaths(n):
                r = involution_phi_F(q)
                assert involution_phi_F(r) == q
                (h1, l1, a1), bone1 = fpath_stats(q)
                (h2, l2, a2), bone2 = fpath_stats(r)
                assert (h2, l2) == (h1, l1)
                assert a2 == bone1 - l1
                assert bone2 == a1 + l1

    def test_preserves_validity(self):
        for q in gen_fpaths(5):
            validate_fpath(involution_phi_F(q))


class TestGenerate:
    def test_counts(self):
        for n, want in enumerate(COUNTS[:6]):
            assert len(gen_fpaths(n)) == want

    def test_matches_oracle(self):
        for n in range(5):
            got = gen_fpaths(n)
            assert len(set(got)) == len(got)
            assert set(got) == oracle_fpaths(n)

    def test_canonical_order_n2(self):
        assert gen_fpaths(2) == F2_CANONICAL

    def test_all_validate(self):
        for q in gen_fpaths(4):
            assert validate_fpath(q) == q


class TestDirectSum:
    def test_definition(self):
        q1 = ((0, 1), (1, 0))
        q2 = ((1, 1),)
        assert fpath_direct_sum(q1, q2) == ((0, 1), (1, 0), (0, 1), (1, 1))

    def test_decompose_height_zero_is_single(self):
        for n in range(6):
            for q in gen_fpaths(n):
                if fpath_stats(q)[0].h == 0:
                    assert fpath_decompose(q) == [q]

    def test_decompose_recompose_identity(self):
        import functools

        for n in range(6):
            for q in gen_fpaths(n):
                comps = fpath_decompose(q)
                assert len(comps) == fpath_stats(q)[0].h + 1
                for c in comps:
                    assert fpath_stats(c)[0].h == 0
                    validate_fpath(c)
                assert functools.reduce(fpath_direct_sum, comps) == q

    def test_decompose_inverts_sum_of_height_zero(self):
        zeros = [q for q in gen_fpaths(2) if fpath_stats(q)[0].h == 0]
        for q1 in zeros:
            for q2 in zeros:
                assert fpath_decompose(fpath_direct_sum(q1, q2)) == [q1, q2]

    def test_pinned_fifteen_step_decomposition(self):
        from fpaths.verify_harness import PINNED_COMPONENTS, PINNED_Q

        assert tuple(fpath_decompose(PINNED_Q)) == PINNED_COMPONENTS
