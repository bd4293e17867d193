"""Anti-blocking bodies: construction, validation, decomposition identities."""

import itertools
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction as F
from math import comb, factorial
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornervol import antiblocking, geometry
from cornervol import hull as hull_mod
from cornervol import (
    AntiBlockingBody,
    OrthantAssembly,
    ab_hull,
    ab_join_volume,
    ab_opposite_mixed,
    convex_hull,
    join_hull,
    member,
    mixed_volume_pair,
    negate,
    origin,
    project,
    random_ab_body,
    random_assembly,
    standard_simplex,
    unit_cube,
    validate_ab,
    volume,
)
from cornervol.antiblocking import normalized_shadow_volumes, projected_volume
from cornervol.geometry import VPolytope, hull_data, shadow
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
# either of those squeezed into the hyperplane x_axis = 0; a down-closure with
# one vertex moved; or one with a coordinate made negative.  A raw list with a
# redundant point is refused at its first hull, so it is no candidate
# (``test_redundant_raw_vertex_list``).
KINDS = ("points", "flat", "moved", "negative")


@st.composite
def candidates(draw):
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(KINDS))
    point = st.tuples(*[coords] * n)
    pts = draw(st.lists(point, min_size=1, max_size=4))
    if kind == "flat":
        axis = draw(st.integers(0, n - 1))
        pts = [p[:axis] + (F(0),) + p[axis + 1:] for p in pts]
    if kind in ("points", "flat"):
        return ab_hull(pts, n).body if draw(st.booleans()) else convex_hull(pts, n)
    verts = list(ab_hull(pts, n).body.vertices)
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

    def test_cap_comes_before_the_maskings(self, monkeypatch):
        # A generator has up to 2^n maskings, each of which calls Fraction.
        monkeypatch.delenv("CORNER_MIXVOL_MAX_DIM", raising=False)
        monkeypatch.setattr(antiblocking, "Fraction", None)
        with pytest.raises(geometry.DimensionCapError, match="dimension 7 exceeds cap 6"):
            ab_hull([(1,) * 7], 7)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ab_hull([(1, -1)])

    @pytest.mark.parametrize("args, named", [
        (([(1, 2), (1, 2, 3)],), r"generator \(1, 2, 3\) has 3 coordinates, not 2"),
        (([(1, 2, 3)], 2), r"generator \(1, 2, 3\) has 3 coordinates, not 2"),
        (([(1, 2)], 3), r"generator \(1, 2\) has 2 coordinates, not 3"),
    ])
    def test_rejects_a_generator_of_another_length(self, monkeypatch, args, named):
        # Refused before any masking is enumerated, as the cap is.
        monkeypatch.setattr(antiblocking, "Fraction", None)
        with pytest.raises(ValueError, match=named):
            ab_hull(*args)

    def test_monotone_in_generators(self):
        rng = random.Random(3)
        for _ in range(10):
            gens = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(3)]
            small = ab_hull(gens[:2], 3)
            big = ab_hull(gens, 3)
            assert all(member(big.body, v) for v in small.body.vertices)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_constructor_soundness(self, gens):
        assert validate_ab(ab_hull(gens, 3).body)


def all_maskings(gens, n):
    """The hull of every masking of every generator, dominated or not: the
    down-closure as ``ab_hull`` built it before it dropped the maskings
    that cannot be vertices."""
    pts = set()
    for g in gens:
        g = tuple(F(x) for x in g)
        support = [i for i, x in enumerate(g) if x]
        for keep in itertools.product((False, True), repeat=len(support)):
            masked = list(g)
            for flag, i in zip(keep, support):
                if not flag:
                    masked[i] = F(0)
            pts.add(tuple(masked))
    return convex_hull(pts, n)


@st.composite
def generator_sets(draw):
    """Dimension 1-5 and nonnegative rational generators, at times with the
    zero generator or a repeated one among them."""
    n = draw(st.integers(1, 5))
    gens = draw(st.lists(st.tuples(*[coords] * n), min_size=1, max_size=4))
    if draw(st.booleans()):
        gens.append((F(0),) * n)
    if draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    return n, draw(st.permutations(gens))


def shadow_oracle(poly, size):
    """``normalized_shadow_volumes`` from the hull of the projected vertices."""
    unit = factorial(size) * poly.denom ** size
    return tuple(volume(shadow(poly, e)) * unit if e else 1
                 for e in itertools.combinations(range(poly.dim), size))


@pytest.mark.usefixtures("strict_hull")
class TestVertexMaskings:
    """``ab_hull`` hulls only the maskings that can be vertices, and a
    down-closed polytope's shadows are read off its faces; each against the
    route it replaced."""

    @given(generator_sets())
    @settings(max_examples=80, deadline=None)
    def test_pruned_maskings_give_the_same_body(self, drawn):
        n, gens = drawn
        body = ab_hull(gens, n).body
        oracle = all_maskings(gens, n)
        assert body == oracle
        assert hull_data(body) == hull_data(oracle)

    @given(generator_sets())
    @settings(max_examples=60, deadline=None)
    def test_faces_give_the_shadow_volumes(self, drawn):
        n, gens = drawn
        k = ab_hull(gens, n)
        for size in range(n + 1):
            assert normalized_shadow_volumes(k.body, size) == shadow_oracle(k.body, size)
            for e in itertools.combinations(range(n), size):
                assert projected_volume(k, e) == (volume(shadow(k.body, e)) if e else 1)

    @given(st.integers(0, 10 ** 6), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_faces_of_every_glued_piece(self, seed, n):
        a = random_assembly(f"faces-{seed}", n, "glued")
        for p in a.pieces:
            assert ab_hull(p.vertices, n).body == p == all_maskings(p.vertices, n)
            for size in range(n + 1):
                assert normalized_shadow_volumes(p, size) == shadow_oracle(p, size)

    def test_rejects_a_body_that_is_not_down_closed(self):
        # Its face on {0} is the point (1), while its shadow there is [0, 1].
        poly = convex_hull([(1, 0), (0, 1), (1, 1)])
        assert volume(shadow(poly, (0,))) == 1
        with pytest.raises(ValueError, match="polytope is not down-closed"):
            normalized_shadow_volumes(poly, 1)

    def test_a_face_the_engine_finds_redundant_is_an_engine_bug(self, monkeypatch):
        poly = ab_hull([(F(7, 3), F(5, 3), F(4, 3))], 3).body
        real = hull_mod.hull_of_points

        def dropping(points, dim):
            data = real(points, dim)
            return replace(data, vertices=data.vertices[1:]) if dim < 3 else data

        monkeypatch.setattr(geometry, "hull_of_points", dropping)
        with pytest.raises(RuntimeError, match="not canonical.*engine bug"):
            normalized_shadow_volumes(poly, 2)


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
                for w in project(poly, idx).vertices
            )
            assert validate_ab(poly) == full

    def test_redundant_raw_vertex_list(self):
        # (1/2, 1/2) is no vertex: validation takes the list's hull, which
        # refuses it, whether the points it spans are down-closed or not.
        # The LP oracle reads the points as given.
        h = F(1, 2)
        poly = VPolytope(2, ((F(0), F(0)), (F(0), F(1)), (h, h), (F(1), F(0))))
        bad = VPolytope(2, ((F(0), F(1)), (h, h), (F(1), F(0))))
        for raw, down_closed in ((poly, True), (bad, False)):
            with pytest.raises(ValueError, match=r"holds \(1/2, 1/2\), which is no vertex"):
                validate_ab(raw)
            assert lp_oracle(raw) == down_closed

    @given(candidates())
    @settings(max_examples=150, deadline=None)
    def test_hull_route_equals_lp_oracle(self, poly):
        with patch.object(hull_mod, "strict_checks", True):
            assert validate_ab(poly) == lp_oracle(poly)

    def test_from_polytope_gate(self):
        with pytest.raises(ValueError):
            AntiBlockingBody(convex_hull([(1, 0), (0, 1)]))


class TestAntiBlockingBody:
    """The type enforces down-closure and names a witness when it refuses."""

    @pytest.mark.parametrize("points, reason", [
        ([(1, 0), (0, 1)], r"it holds \(1, 0\) but not \(0, 0\)"),
        ([(1, 1), (2, 1), (1, 2)], r"it holds \(2, 1\) but not \(0, 1\)"),
        ([(0, 0), (-1, 0), (0, 1)], r"vertex \(-1, 0\) has a negative coordinate"),
    ], ids=["segment", "translated-simplex", "negative-vertex"])
    def test_rejects_with_a_witness(self, points, reason):
        with pytest.raises(ValueError, match=f"^polytope is not down-closed: {reason}$"):
            AntiBlockingBody(convex_hull(points))

    def test_refuses_a_raw_list_with_a_redundant_point(self):
        # The list spans a down-closed triangle, but (1/2, 1/2) is no vertex
        # of it: volume, the type and an assembly of it all refuse the list
        # at its first hull, which stores nothing.
        h = F(1, 2)
        raw = VPolytope(2, ((F(0), F(0)), (F(0), F(1)), (h, h), (F(1), F(0))))
        named = r"vertex list holds \(1/2, 1/2\), which is no vertex of its hull"
        for build, prefix in ((volume, ""), (AntiBlockingBody, ""),
                              (lambda p: OrthantAssembly(2, (p,) * 4),
                               r"piece at \+\+ is not anti-blocking: ")):
            with pytest.raises(ValueError, match="^" + prefix + named):
                build(raw)
            assert raw not in geometry._hull_cache
        assert volume(convex_hull(raw.vertices)) == h


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
        good = ab_hull([(2, 1, 0), (1, 0, 2), (0, 1, 1)], 3).body.vertices
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
        # A redundant raw list is refused at its hull and not memoized, so
        # each attempt pays that hull again.
        h = F(1, 2)
        redundant = VPolytope(2, ((F(0), F(0)), (F(0), F(1)), (h, h), (F(1), F(0))))
        for attempt in (1, 2):
            with pytest.raises(ValueError, match="no vertex of its hull"):
                validate_ab(redundant)
            assert calls == [2] * attempt

    def test_from_points_polytope_needs_no_hull(self, monkeypatch):
        poly = ab_hull([(2, 1), (1, 2)], 2).body
        bad = convex_hull([(0, 0), (2, 0), (1, 2)])
        calls = count_hull_calls(monkeypatch)
        assert validate_ab(poly)
        assert not validate_ab(bad)
        assert calls == []

    def test_loading_a_glued_assembly_hulls_nothing_inside_validation(self, monkeypatch):
        a = random_assembly("facet-route-load", 3, "glued")
        text = dumps(assembly_to_obj(a))
        calls = count_hull_calls(monkeypatch)
        inside = []
        real = antiblocking.validate_ab

        def tracking(poly):
            before = len(calls)
            ok = real(poly)
            inside.append(len(calls) - before)
            return ok

        monkeypatch.setattr(antiblocking, "validate_ab", tracking)
        assembly_from_obj(json.loads(text))
        # One validation per distinct piece.
        assert inside == [0] * len(set(a.pieces))


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
                assert ab_join_volume(k, kp) == volume(join_hull(k.body, negate(kp.body)))


class TestProjectionSection:
    def test_projection_equals_section(self):
        # For a down-closed body the projection is the part of the body inside
        # the subspace: mutual vertex membership in both directions.
        rng = random.Random(17)
        for _ in range(6):
            k = random_ab_body(rng, 3)
            for r in (1, 2):
                for idx in itertools.combinations(range(3), r):
                    proj = project(k.body, idx)
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
    """V_n(K[j], T[n-j]) <= V_n(K[j], -T[n-j]), both sides from the Cayley engine."""

    def test_simplex_example(self):
        s = standard_simplex(2)
        assert mixed_volume_pair(s, s, 1) == F(1, 2)
        assert mixed_volume_pair(s, negate(s), 1) == 1

    def test_endpoints_equal(self):
        rng = random.Random(19)
        k, t = random_ab_body(rng, 3).body, random_ab_body(rng, 3).body
        for j in (0, 3):
            assert mixed_volume_pair(k, t, j) == mixed_volume_pair(k, negate(t), j)

    def test_holds_on_random_pairs(self):
        rng = random.Random(23)
        for n in (2, 3):
            for _ in range(5):
                k, t = random_ab_body(rng, n).body, random_ab_body(rng, n).body
                for j in range(n + 1):
                    assert mixed_volume_pair(k, t, j) <= mixed_volume_pair(k, negate(t), j)


def projection_product(k, idx):
    """Vol(P_E K) Vol(P_(E^c) K) for the coordinate set E = idx."""
    rest = tuple(i for i in range(k.dim) if i not in idx)
    return projected_volume(k, idx) * projected_volume(k, rest)


class TestRogersShephardProjection:
    """Vol(P_E K) Vol(P_(E^c) K) <= C(n, |E|) Vol(K), the cap that
    ``proof_chain_audit`` checks piece by piece."""

    def test_simplex_attains_bound(self):
        s = AntiBlockingBody(standard_simplex(4))
        for r in range(5):
            for idx in itertools.combinations(range(4), r):
                assert projection_product(s, idx) == comb(4, r) * volume(s.body)

    def test_cube(self):
        c = AntiBlockingBody(unit_cube(3))
        assert projection_product(c, (0, 1)) == 1
        assert comb(3, 2) * volume(c.body) == 3

    def test_random_bodies(self):
        rng = random.Random(29)
        for _ in range(6):
            k = random_ab_body(rng, 3)
            for idx in ((0,), (1, 2), (0, 2)):
                assert projection_product(k, idx) <= comb(3, len(idx)) * volume(k.body)
