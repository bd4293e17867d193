"""Aligned-simplex closed forms and the slice-integration volume oracle."""

import dataclasses
import itertools
import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornervol import (
    AlignedSimplex,
    convex_hull,
    corner_power_integral,
    corollary_mixed_volume,
    equality_family,
    fubini_sum_volume,
    godbersen_equality_values,
    lemma_mixed_volume,
    minkowski_sum,
    mixed_volume_pair,
    negate,
    scale,
    simplex_sum_series,
    standard_simplex,
    sum_decomposition_check,
    volume,
)


scalars = st.builds(F, st.integers(1, 8), st.integers(1, 3))


@st.composite
def equality_bodies(draw):
    """An ``equality_family`` body of either case, in dimension 1 to 4."""
    n = draw(st.integers(1, 4))
    alphas = draw(st.lists(scalars, min_size=n, max_size=n))
    if draw(st.booleans()):
        return equality_family(1, alphas)
    return equality_family(2, alphas, draw(scalars))


class TestAlignedSimplex:
    def test_holds_only_its_scalars(self):
        s = AlignedSimplex([2, F(1, 2), 0])
        assert [f.name for f in dataclasses.fields(s)] == ["alphas"]
        assert (s.alphas, s.dim) == ((2, F(1, 2), 0), 3)
        with pytest.raises(ValueError, match="nonnegative"):
            AlignedSimplex((1, -1))

    @pytest.mark.parametrize("points", [
        [(0, 0), (-1, 0), (0, 1)],
        [(0, 0), (1, 0), (0, 1), (-1, -1)],
        [(0, 0), (1, 1)],
    ], ids=["negative-axis-end", "origin-inside", "off-the-axes"])
    def test_refuses_other_polytopes(self, points):
        # The square and an axis segment without the origin are refused by
        # ``mixvol --method closed-form`` in test_cli.
        assert AlignedSimplex.recognize(convex_hull(points)) is None

    @pytest.mark.usefixtures("strict_hull")
    @given(equality_bodies())
    @settings(max_examples=40, deadline=None)
    def test_recognizes_every_equality_piece(self, a):
        # Flat pieces included: every piece of case 1 off the + orthant.
        for piece in a.pieces:
            s = AlignedSimplex.recognize(piece)
            assert s is not None and s.to_polytope() == piece


class TestLemmaClosedForm:
    def test_unit_alphas(self):
        s = AlignedSimplex((1, 1, 1, 1))
        for j in range(5):
            assert lemma_mixed_volume(s, j) == F(1, factorial(4))

    def test_direct_application(self):
        s = AlignedSimplex((3, 2, 1))
        assert lemma_mixed_volume(s, 2) == 1  # max{6, 3, 2} / 3!

    def test_against_engine_all_j(self):
        s = AlignedSimplex((3, 2, 1))
        d = standard_simplex(3)
        for j in range(4):
            assert lemma_mixed_volume(s, j) == mixed_volume_pair(s.to_polytope(), d, j)

    @pytest.mark.parametrize("n", [2, 3])
    def test_against_engine_exhaustive(self, n):
        d = standard_simplex(n)
        for alphas in itertools.product(range(6), repeat=n):
            s = AlignedSimplex(alphas)
            p = s.to_polytope()
            for j in range(n + 1):
                assert lemma_mixed_volume(s, j) == mixed_volume_pair(p, d, j)

    def test_monotone_in_each_alpha(self):
        base = AlignedSimplex((2, 1, 3))
        bigger = AlignedSimplex((2, 4, 3))
        for j in range(4):
            assert lemma_mixed_volume(base, j) <= lemma_mixed_volume(bigger, j)

    def test_homogeneous_of_degree_j(self):
        s = AlignedSimplex((2, 1, 3))
        c = F(5, 2)
        scaled = AlignedSimplex(tuple(c * a for a in s.alphas))
        for j in range(4):
            assert lemma_mixed_volume(scaled, j) == c**j * lemma_mixed_volume(s, j)

    def test_j_out_of_range(self):
        with pytest.raises(ValueError):
            lemma_mixed_volume(AlignedSimplex((1, 2)), 3)


class TestCorollaryClosedForm:
    def test_unit_betas_reduce_to_lemma(self):
        s = AlignedSimplex((3, 0, 2))
        t = AlignedSimplex((1, 1, 1))
        for j in range(4):
            assert corollary_mixed_volume(s, t, j) == lemma_mixed_volume(s, j)

    def test_direct_application(self):
        s = AlignedSimplex((2, 1))
        t = AlignedSimplex((1, 3))
        assert corollary_mixed_volume(s, t, 1) == 3  # max{2*3, 1*1} / 2!

    def test_permutation_covariance(self):
        s = AlignedSimplex((4, 1, 2))
        t = AlignedSimplex((1, 3, 2))
        for perm in itertools.permutations(range(3)):
            ps = AlignedSimplex(tuple(s.alphas[i] for i in perm))
            pt = AlignedSimplex(tuple(t.alphas[i] for i in perm))
            for j in range(4):
                assert corollary_mixed_volume(ps, pt, j) == corollary_mixed_volume(s, t, j)

    def test_zero_beta_fallback_matches_engine(self):
        rng = random.Random(67)
        for _ in range(15):
            n = rng.choice([2, 3])
            s = AlignedSimplex([rng.randint(0, 4) for _ in range(n)])
            t = AlignedSimplex([rng.randint(0, 4) for _ in range(n)])
            for j in range(n + 1):
                assert corollary_mixed_volume(s, t, j) == mixed_volume_pair(
                    s.to_polytope(), t.to_polytope(), j
                )


class TestFubiniRecursion:
    def test_segment_summand(self):
        for alpha in (F(1, 2), F(1), F(3)):
            k_sub = convex_hull([(0, 0), (0, alpha)], 2)
            assert fubini_sum_volume(2, k_sub) == F(1, 2) + alpha

    def test_full_support_is_direct_volume(self):
        k_sub = convex_hull([(0, 0), (2, 0), (1, 1)], 2)
        direct = volume(minkowski_sum(standard_simplex(2), k_sub))
        assert fubini_sum_volume(2, k_sub, k=2) == direct

    def test_origin_summand(self):
        from cornervol import origin

        assert fubini_sum_volume(3, origin(3)) == F(1, 6)

    def test_containment_enforced(self):
        bad = convex_hull([(0, 0, 0), (1, 0, 0)], 3)
        with pytest.raises(ValueError):
            fubini_sum_volume(3, bad, k=1)

    def test_matches_hull_on_aligned_simplices(self):
        # K supported on the trailing coordinates, ambient dimension 3.
        for alphas in itertools.product(range(3), repeat=2):
            pts = [(0, 0, 0)]
            for i, a in enumerate(alphas):
                pts.append(tuple(a if j == i + 1 else 0 for j in range(3)))
            k_sub = convex_hull(pts, 3)
            direct = volume(minkowski_sum(standard_simplex(3), k_sub))
            assert fubini_sum_volume(3, k_sub) == direct


class TestCornerPowerIntegral:
    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("power", range(5))
    def test_against_iterated_integration(self, m, power):
        # Repeated exact 1-D integration of (budget)^p over the simplex.
        coeff, deg = F(1), power
        for _ in range(m):
            coeff /= deg + 1
            deg += 1
        assert corner_power_integral(m, power) == coeff

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            corner_power_integral(-1, 0)


class TestSumSeries:
    def test_lambda_zero(self):
        assert simplex_sum_series(AlignedSimplex((5, 7)), 0) == F(1, 2)

    def test_worked_example(self):
        assert simplex_sum_series(AlignedSimplex((3, 2)), 1) == F(13, 2)

    def test_unit_alphas_doubling(self):
        s = AlignedSimplex((1, 1, 1))
        assert simplex_sum_series(s, 1) == F(2**3, 6)

    @pytest.mark.parametrize("lam", [0, F(1, 2), 1, 2])
    def test_matches_hull_volume(self, lam):
        s = AlignedSimplex((3, 1, 2))
        direct = volume(minkowski_sum(standard_simplex(3), scale(s.to_polytope(), lam)))
        assert simplex_sum_series(s, lam) == direct


class TestEqualityGap:
    def test_worked_example(self):
        op, same = godbersen_equality_values((1, 1), 1)
        assert (op, same) == (F(1, 2), F(1))

    def test_j_zero_equal(self):
        op, same = godbersen_equality_values((3, 2, 1), 0)
        assert op == same == F(6, 6)

    def test_gap_positive_in_range(self):
        rng = random.Random(71)
        for _ in range(20):
            k = rng.choice([2, 3, 4])
            alphas = [F(rng.randint(1, 8), rng.choice((1, 2))) for _ in range(k)]
            for j in range(k + 1):
                op, same = godbersen_equality_values(alphas, j)
                if 1 <= j <= k - 1:
                    assert same > op
                else:
                    assert same == op

    def test_values_match_engine(self):
        alphas = (4, 2, 1)
        mirror = negate(AlignedSimplex(alphas).to_polytope())
        d = standard_simplex(3)
        for j in range(4):
            op, same = godbersen_equality_values(alphas, j)
            assert op == mixed_volume_pair(d, negate(mirror), j)
            assert same == mixed_volume_pair(d, mirror, j)


class TestSumDecomposition:
    @pytest.mark.parametrize("alphas", [(3, 2, 1), (2, 2, 0), (1, 1, 1), (4, 1, 1), (3, 1)])
    def test_identity(self, alphas):
        lhs, rhs = sum_decomposition_check(AlignedSimplex(alphas))
        assert lhs == rhs
