"""Mixed volumes: the Cayley engine, the probe oracle, and polarization cross-checks."""

import itertools
import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornervol import mixed
from cornervol import (
    convex_hull,
    linear_map,
    minkowski_sum,
    mixed_volume_pair,
    mixed_volume_tuple,
    negate,
    origin,
    standard_simplex,
    unit_cube,
    volume,
    volume_polynomial,
)
from cornervol.geometry import matrix_det


def rand_poly(rng, n, count=6, lo=0, hi=4):
    return convex_hull(
        [tuple(F(rng.randint(lo, hi)) for _ in range(n)) for _ in range(count)], n
    )


class TestVolumePolynomial:
    def test_simplex_self_sum(self):
        poly = volume_polynomial(standard_simplex(2), standard_simplex(2))
        assert poly.coeffs == (F(1, 2), F(1), F(1, 2))

    def test_endpoints(self):
        rng = random.Random(23)
        k, t = rand_poly(rng, 3), rand_poly(rng, 3)
        poly = volume_polynomial(k, t)
        assert poly.coeffs[3] == volume(k)
        assert poly.coeffs[0] == volume(t)

    def test_point_summand(self):
        poly = volume_polynomial(standard_simplex(2), origin(2))
        assert poly.coeffs == (F(0), F(0), F(1, 2))

    def test_evaluation_matches_probes(self):
        rng = random.Random(29)
        k, t = rand_poly(rng, 2), rand_poly(rng, 2)
        poly = volume_polynomial(k, t)
        from cornervol import scale

        for step in range(5):
            assert poly.value_at(step) == volume(minkowski_sum(k, scale(t, step)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            volume_polynomial(standard_simplex(2), standard_simplex(3))


# Rationals with mixed denominators, so the Cayley points need real scaling.
coords = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3, 5)))

# How the pair is shaped: both generic, K or T flattened into the hyperplane
# x_n = 0, T a single point, or both flattened so that K + T is
# lower-dimensional and every coefficient is 0.
SHAPES = ("generic", "flat-k", "flat-t", "point-t", "flat-sum")


@st.composite
def body_pairs(draw):
    n = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(SHAPES))

    def points(flat: bool, max_size: int = 6):
        pts = draw(st.lists(st.tuples(*[coords] * n), min_size=1, max_size=max_size))
        if flat:
            pts = [p[:-1] + (F(0),) for p in pts]
        return convex_hull(pts, n)

    k = points(shape in ("flat-k", "flat-sum"))
    t = points(shape in ("flat-t", "flat-sum"), 1 if shape == "point-t" else 6)
    return shape, k, t


class TestRouteAgreement:
    """The Cayley engine against the independent probe-interpolation oracle."""

    @pytest.mark.usefixtures("strict_hull")
    @given(body_pairs())
    @settings(max_examples=80, deadline=None)
    def test_cayley_equals_probes(self, pair):
        shape, k, t = pair
        cayley = volume_polynomial(k, t)
        probes = mixed.volume_polynomial_by_probes(k, t)
        assert cayley.coeffs == probes.coeffs
        if shape == "flat-sum":
            assert all(c == 0 for c in cayley.coeffs)

    @pytest.mark.usefixtures("strict_hull")
    @given(body_pairs())
    @settings(max_examples=40, deadline=None)
    def test_swap_reverses_coefficients(self, pair):
        _, k, t = pair
        forward = volume_polynomial(k, t)
        backward = volume_polynomial(t, k)
        assert backward.coeffs == forward.coeffs[::-1]

    def test_dim4_hull_against_negation(self):
        rng = random.Random(67)
        for _ in range(3):
            k = rand_poly(rng, 4, count=9, lo=-3, hi=3)
            t = negate(k)
            probes = mixed.volume_polynomial_by_probes(k, t)
            assert volume_polynomial(k, t).coeffs == probes.coeffs

    def test_probes_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mixed.volume_polynomial_by_probes(standard_simplex(2), standard_simplex(3))

    def test_wrong_triangulation_fails_endpoint_check(self, monkeypatch):
        # Doubling every cell doubles coeffs[n], which then differs from Vol(K).
        real = mixed.triangulate

        def doubled(points, dim):
            cells, denom = real(points, dim)
            return [(ids, 2 * det) for ids, det in cells], denom

        monkeypatch.setattr(mixed, "triangulate", doubled)
        k, t = unit_cube(2), standard_simplex(2).translate((F(1, 7), 0))
        with pytest.raises(RuntimeError, match="Cayley route"):
            volume_polynomial(k, t)


class TestMixedVolumePair:
    def test_square_triangle(self):
        assert mixed_volume_pair(unit_cube(2), standard_simplex(2), 1) == 1

    def test_identical_bodies(self):
        s = standard_simplex(3)
        for j in range(4):
            assert mixed_volume_pair(s, s, j) == F(1, 6)

    def test_simplex_against_negation(self):
        s = standard_simplex(3)
        for j in range(4):
            expected = F(1, factorial(j) * factorial(3 - j))
            assert mixed_volume_pair(s, negate(s), j) == expected

    def test_symmetry(self):
        rng = random.Random(31)
        k, t = rand_poly(rng, 3), rand_poly(rng, 3)
        for j in range(4):
            assert mixed_volume_pair(k, t, j) == mixed_volume_pair(t, k, 3 - j)

    def test_j_out_of_range(self):
        with pytest.raises(ValueError):
            mixed_volume_pair(unit_cube(2), unit_cube(2), 3)

    def test_translation_invariance(self):
        rng = random.Random(37)
        k, t = rand_poly(rng, 2), rand_poly(rng, 2)
        shifted = t.translate((F(5, 3), -2))
        for j in range(3):
            assert mixed_volume_pair(k, t, j) == mixed_volume_pair(k, shifted, j)

    def test_gl_equivariance(self):
        rng = random.Random(41)
        k, t = rand_poly(rng, 3), rand_poly(rng, 3)
        a = [(1, 2, 0), (0, 1, 1), (1, 0, 1)]
        d = abs(matrix_det(a))
        for j in range(4):
            assert mixed_volume_pair(linear_map(k, a), linear_map(t, a), j) == d * mixed_volume_pair(k, t, j)

    def test_nonnegativity_random(self):
        rng = random.Random(43)
        for n in (2, 3):
            k, t = rand_poly(rng, n, lo=-3, hi=3), rand_poly(rng, n, lo=-3, hi=3)
            for j in range(n + 1):
                assert mixed_volume_pair(k, t, j) >= 0


class TestMixedVolumeTuple:
    def test_all_copies_is_volume(self):
        rng = random.Random(47)
        k = rand_poly(rng, 3)
        assert mixed_volume_tuple([k, k, k]) == volume(k)

    def test_agreement_with_pair(self):
        rng = random.Random(53)
        for n in (2, 3, 4):
            k, t = rand_poly(rng, n), rand_poly(rng, n)
            for j in range(n + 1):
                assert mixed_volume_tuple([k] * j + [t] * (n - j)) == mixed_volume_pair(k, t, j)

    def test_permutation_symmetry_exhaustive(self):
        rng = random.Random(59)
        bodies = [rand_poly(rng, 3, count=4) for _ in range(3)]
        base = mixed_volume_tuple(bodies)
        for perm in itertools.permutations(bodies):
            assert mixed_volume_tuple(list(perm)) == base

    def test_multilinearity(self):
        rng = random.Random(61)
        k1, k1p, k2, k3 = (rand_poly(rng, 3, count=4) for _ in range(4))
        lhs = mixed_volume_tuple([minkowski_sum(k1, k1p), k2, k3])
        rhs = mixed_volume_tuple([k1, k2, k3]) + mixed_volume_tuple([k1p, k2, k3])
        assert lhs == rhs

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            mixed_volume_tuple([unit_cube(2)])
