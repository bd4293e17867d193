"""Anti-blocking bodies: construction, validation, decomposition identities."""

import itertools
import json
import random
import sys
from fractions import Fraction as F
from math import comb, factorial
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornervol import antiblocking, assembly, geometry
from cornervol import hull as hull_mod
from cornervol import (
    AntiBlockingBody,
    CoordSubspace,
    ab_hull,
    ab_join_volume,
    ab_opposite_mixed,
    convex_hull,
    member,
    mixed_volume_pair,
    negate,
    origin,
    project,
    random_ab_body,
    random_assembly,
    reverse_kleitman_check,
    rs_projection_check,
    standard_simplex,
    unit_cube,
    validate_ab,
    volume,
)
from cornervol.antiblocking import join_with_negation, projected_volume
from cornervol.geometry import VPolytope
from cornervol.io import assembly_from_obj, assembly_to_obj, dumps


def lp_oracle(poly):
    """Down-closure by the masking test: one phase-1 LP per masked vertex
    coordinate, independent of the hull engine that validate_ab uses."""
    if any(x < 0 for v in poly.vertices for x in v):
        return False
    return all(
        member(poly, v[:i] + (F(0),) + v[i + 1:])
        for v in poly.vertices
        for i, x in enumerate(v)
        if x != 0
    )


# Nonnegative rationals with mixed denominators.
coords = st.builds(F, st.integers(0, 4), st.sampled_from((1, 2, 3, 5)))

# How the candidate is built: the hull or the down-closure of random points;
# either of those squeezed into the hyperplane x_axis = 0; either of those as a
# raw VPolytope that lists the average of the vertices as a redundant point; a
# down-closure with one vertex moved; or one with a coordinate made negative.
KINDS = ("points", "flat", "redundant", "moved", "negative")


@st.composite
def candidates(draw):
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(KINDS))
    point = st.tuples(*[coords] * n)
    pts = draw(st.lists(point, min_size=1, max_size=4))
    if kind == "flat":
        axis = draw(st.integers(0, n - 1))
        pts = [p[:axis] + (F(0),) + p[axis + 1:] for p in pts]
    if kind in ("points", "flat", "redundant"):
        base = ab_hull(pts, n).body if draw(st.booleans()) else convex_hull(pts, n)
        if kind != "redundant":
            return base
        m = len(base.vertices)
        centroid = tuple(sum(c) / m for c in zip(*base.vertices))
        return VPolytope(n, tuple(sorted(set(base.vertices) | {centroid})))
    verts = list(ab_hull(pts, n).vertices)
    k = draw(st.integers(0, len(verts) - 1))
    if kind == "moved":
        verts[k] = draw(point)
    else:
        i = draw(st.integers(0, n - 1))
        verts[k] = verts[k][:i] + (-draw(coords) - 1,) + verts[k][i + 1:]
    return convex_hull(verts, n)


class TestAbHull:
    def test_single_generator_box(self):
        b = ab_hull([(1, 2)])
        assert b.body == convex_hull([(0, 0), (1, 0), (0, 2), (1, 2)])

    def test_basis_vectors_simplex(self):
        b = ab_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert b.body == standard_simplex(3)

    def test_two_generators(self):
        b = ab_hull([(2, 0), (1, 1)])
        assert b.body == convex_hull([(0, 0), (2, 0), (1, 1), (0, 1)])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ab_hull([(1, -1)])

    def test_monotone_in_generators(self):
        rng = random.Random(3)
        for _ in range(10):
            gens = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(3)]
            small = ab_hull(gens[:2], 3)
            big = ab_hull(gens, 3)
            assert all(member(big.body, v) for v in small.vertices)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_constructor_soundness(self, gens):
        assert validate_ab(ab_hull(gens, 3).body)


class TestValidateAb:
    def test_simplex_valid(self):
        assert validate_ab(standard_simplex(3))

    def test_diagonal_segment_invalid(self):
        assert not validate_ab(convex_hull([(1, 0), (0, 1)]))

    def test_negative_coordinate_invalid(self):
        assert not validate_ab(convex_hull([(0, 0), (-1, 0), (0, 1)]))

    def test_full_subspace_version_agrees(self):
        # The single-coordinate masking check must match the all-subspace
        # definition (every projection stays inside the body).
        rng = random.Random(5)
        cases = [convex_hull([(1, 0), (0, 1)]), standard_simplex(2).translate((1, 0))]
        for _ in range(10):
            cases.append(random_ab_body(rng, 3).body)
            pts = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(4)]
            cases.append(convex_hull(pts, 3))
        for poly in cases:
            if any(x < 0 for v in poly.vertices for x in v):
                continue
            n = poly.dim
            full = all(
                member(poly, w)
                for r in range(n + 1)
                for idx in itertools.combinations(range(n), r)
                for w in project(poly, CoordSubspace(n, idx)).vertices
            )
            assert validate_ab(poly) == full

    def test_redundant_raw_vertex_list(self):
        # (1/2, 1/2) is not a vertex; the hull of V and its maskings drops it,
        # which must not count as a down-closure failure.
        h = F(1, 2)
        poly = VPolytope(2, ((F(0), F(0)), (F(0), F(1)), (h, h), (F(1), F(0))))
        assert validate_ab(poly)
        assert lp_oracle(poly)
        bad = VPolytope(2, ((F(0), F(1)), (h, h), (F(1), F(0))))
        assert not validate_ab(bad)
        assert not lp_oracle(bad)

    @given(candidates())
    @settings(max_examples=150, deadline=None)
    def test_hull_route_equals_lp_oracle(self, poly):
        with patch.object(hull_mod, "strict_checks", True):
            assert validate_ab(poly) == lp_oracle(poly)

    def test_from_polytope_gate(self):
        with pytest.raises(ValueError):
            AntiBlockingBody.from_polytope(convex_hull([(1, 0), (0, 1)]))


def count_hull_calls(monkeypatch):
    """Record the dimension of every hull_of_points call, in every module binding it."""
    calls = []
    real = hull_mod.hull_of_points

    def counting(points, dim):
        calls.append(dim)
        return real(points, dim)

    for name, module in list(sys.modules.items()):
        if name.startswith("cornervol") and getattr(module, "hull_of_points", None) is real:
            monkeypatch.setattr(module, "hull_of_points", counting)
    return calls


class TestFacetRoute:
    """Edge cases of the facet-sign route, each decided by the LP oracle too."""

    @staticmethod
    def check(poly, expected):
        assert lp_oracle(poly) == expected
        assert validate_ab(poly) == expected

    def test_origin_against_a_point_off_it(self):
        self.check(origin(3), True)
        self.check(convex_hull([(0, 0, 0)]), True)
        self.check(convex_hull([(0, 1, 0)]), False)
        self.check(VPolytope(2, ((F(1, 2), F(0)),)), False)

    def test_intervals(self):
        self.check(convex_hull([(0,), (F(5, 2),)]), True)
        self.check(convex_hull([(0,), (1,), (3,)]), True)
        self.check(convex_hull([(1,), (3,)]), False)
        self.check(convex_hull([(F(1, 3),), (F(1, 2),)]), False)
        # The same intervals along an axis of R^3.
        self.check(convex_hull([(0, 0, 0), (0, 0, 2)]), True)
        self.check(convex_hull([(0, 0, 1), (0, 0, 2)]), False)

    def test_antidiagonal_segment(self):
        self.check(convex_hull([(1, 0), (0, 1)]), False)
        self.check(convex_hull([(0, 0), (1, 1)]), False)

    def test_flat_in_a_coordinate_hyperplane(self):
        self.check(ab_hull([(0, 2, 1), (0, 1, 2)], 3).body, True)
        self.check(ab_hull([(0, 3, 0), (0, 0, 1)], 3).body, True)
        self.check(convex_hull([(0, 1, 1), (0, 2, 1), (0, 1, 2)]), False)
        # Flat, holding the origin, but its plane is no coordinate subspace.
        self.check(convex_hull([(0, 0, 0), (1, 1, 0), (0, 0, 1)]), False)

    def test_raw_and_from_points_agree(self, monkeypatch):
        # Built raw, a polytope misses the hull memo and pays one hull, once;
        # built by from_points, it seeded the memo and validation pays none.
        good = ab_hull([(2, 1, 0), (1, 0, 2), (0, 1, 1)], 3).vertices
        shifted = tuple((v[0] + 1,) + v[1:] for v in good)  # off the origin
        calls = count_hull_calls(monkeypatch)
        for verts, expected in ((good, True), (shifted, False)):
            monkeypatch.setattr(geometry, "_hull_cache", {})
            raw = VPolytope(3, verts)
            self.check(raw, expected)
            self.check(raw, expected)
            assert calls == [3]
            monkeypatch.setattr(geometry, "_hull_cache", {})
            self.check(convex_hull(verts, 3), expected)
            assert calls == [3, 3]
            calls.clear()
        h = F(1, 2)
        redundant = VPolytope(2, ((F(0), F(0)), (F(0), F(1)), (h, h), (F(1), F(0))))
        self.check(redundant, True)
        assert calls == [2]

    def test_from_points_polytope_needs_no_hull(self, monkeypatch):
        poly = ab_hull([(2, 1), (1, 2)], 2).body
        bad = convex_hull([(0, 0), (2, 0), (1, 2)])
        calls = count_hull_calls(monkeypatch)
        assert validate_ab(poly)
        assert not validate_ab(bad)
        assert calls == []

    def test_loading_a_glued_assembly_hulls_nothing_inside_validation(self, monkeypatch):
        text = dumps(assembly_to_obj(random_assembly("facet-route-load", 3, "glued")))
        calls = count_hull_calls(monkeypatch)
        inside = []
        real = antiblocking.validate_ab

        def tracking(poly):
            before = len(calls)
            ok = real(poly)
            inside.append(len(calls) - before)
            return ok

        monkeypatch.setattr(antiblocking, "validate_ab", tracking)
        monkeypatch.setattr(assembly, "validate_ab", tracking)
        assembly_from_obj(json.loads(text))
        assert inside == [0] * 8


class TestOppositeMixed:
    def test_simplex_pair_values(self):
        s = AntiBlockingBody(standard_simplex(3))
        for j in range(4):
            assert ab_opposite_mixed(s, s, j) == F(1, factorial(j) * factorial(3 - j))

    def test_j_equals_n_is_volume(self):
        rng = random.Random(7)
        k = random_ab_body(rng, 3)
        kp = random_ab_body(rng, 3)
        assert ab_opposite_mixed(k, kp, 3) == volume(k.body)
        assert ab_opposite_mixed(k, kp, 0) == volume(kp.body)

    def test_matches_engine(self):
        rng = random.Random(11)
        for n in (2, 3):
            for _ in range(4):
                k, kp = random_ab_body(rng, n), random_ab_body(rng, n)
                for j in range(n + 1):
                    assert ab_opposite_mixed(k, kp, j) == mixed_volume_pair(
                        k.body, negate(kp.body), j
                    )

    def test_join_volume(self):
        s = AntiBlockingBody(standard_simplex(2))
        assert ab_join_volume(s, s) == 2
        k = ab_hull([(2, 1)])
        pt = AntiBlockingBody(convex_hull([(0, 0)]))
        assert ab_join_volume(k, pt) == volume(k.body)

    def test_join_matches_hull(self):
        rng = random.Random(13)
        for n in (2, 3):
            for _ in range(4):
                k, kp = random_ab_body(rng, n), random_ab_body(rng, n)
                assert ab_join_volume(k, kp) == volume(join_with_negation(k, kp))


class TestProjectionSection:
    def test_projection_equals_section(self):
        # For a down-closed body the projection is the part of the body inside
        # the subspace: mutual vertex membership in both directions.
        rng = random.Random(17)
        for _ in range(6):
            k = random_ab_body(rng, 3)
            for r in (1, 2):
                for idx in itertools.combinations(range(3), r):
                    proj = project(k.body, CoordSubspace(3, idx))
                    assert all(member(k.body, v) for v in proj.vertices)

    def test_projected_volume_rejects_bad_indices(self):
        # A repeated or out-of-range coordinate names no coordinate subspace.
        k = AntiBlockingBody(standard_simplex(3))
        for indices in ((0, 0), (0, 5), (1, 0)):
            with pytest.raises(ValueError, match="strictly ascending"):
                projected_volume(k, indices)
        assert projected_volume(k, (0, 2)) == F(1, 2)
        assert projected_volume(k, ()) == 1


class TestReverseKleitman:
    def test_simplex_example(self):
        s = AntiBlockingBody(standard_simplex(2))
        rep = reverse_kleitman_check(s, s, 1)
        assert (rep.lhs, rep.rhs, rep.holds) == (F(1, 2), F(1), True)

    def test_endpoints_equal(self):
        rng = random.Random(19)
        k, t = random_ab_body(rng, 3), random_ab_body(rng, 3)
        for j in (0, 3):
            rep = reverse_kleitman_check(k, t, j)
            assert rep.lhs == rep.rhs

    def test_holds_on_random_pairs(self):
        rng = random.Random(23)
        for n in (2, 3):
            for _ in range(5):
                k, t = random_ab_body(rng, n), random_ab_body(rng, n)
                for j in range(n + 1):
                    assert reverse_kleitman_check(k, t, j).holds


class TestRogersShephardProjection:
    def test_simplex_attains_bound(self):
        s = AntiBlockingBody(standard_simplex(4))
        for r in range(5):
            for idx in itertools.combinations(range(4), r):
                rep = rs_projection_check(s, CoordSubspace(4, idx))
                assert rep.is_equality

    def test_cube(self):
        c = AntiBlockingBody(unit_cube(3))
        rep = rs_projection_check(c, CoordSubspace(3, (0, 1)))
        assert rep.product == 1
        assert rep.bound == comb(3, 2)
        assert rep.holds

    def test_random_bodies(self):
        rng = random.Random(29)
        for _ in range(6):
            k = random_ab_body(rng, 3)
            for idx in ((0,), (1, 2), (0, 2)):
                assert rs_projection_check(k, CoordSubspace(3, idx)).holds
