"""Geometry core: hulls, volumes, transforms, membership."""

import itertools
import random
from fractions import Fraction as F
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cornervol import hull as hull_mod
from cornervol import (
    convex_hull,
    join_hull,
    linear_map,
    member,
    minkowski_sum,
    negate,
    origin,
    project,
    scale,
    standard_simplex,
    unit_cube,
    volume,
)
from cornervol import geometry
from cornervol.geometry import VPolytope, shadow
from cornervol.linalg import det_int


def shoelace(poly) -> F:
    """Independent 2D area oracle: exact shoelace on angularly sorted vertices."""
    verts = list(poly.vertices)
    cx = sum(v[0] for v in verts) / len(verts)
    cy = sum(v[1] for v in verts) / len(verts)

    def half(v):
        dx, dy = v[0] - cx, v[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cross(a, b):
        return (a[0] - cx) * (b[1] - cy) - (b[0] - cx) * (a[1] - cy)

    import functools

    def cmp(a, b):
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        c = cross(a, b)
        return 0 if c == 0 else (-1 if c > 0 else 1)

    verts.sort(key=functools.cmp_to_key(cmp))
    total = F(0)
    for a, b in zip(verts, verts[1:] + verts[:1]):
        total += a[0] * b[1] - b[0] * a[1]
    return abs(total) / 2


def reflect(p, signs):
    """The image of ``p`` under the diagonal matrix of ``signs``: a reflection
    through the coordinate hyperplanes where a sign is -1."""
    n = len(signs)
    return linear_map(p, [[s if i == k else 0 for k in range(n)] for i, s in enumerate(signs)])


def rand_points(rng, n, count, lo=-4, hi=4):
    return [tuple(F(rng.randint(lo, hi)) for _ in range(n)) for _ in range(count)]


# Rationals with mixed denominators.
coords = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3, 5)))


@st.composite
def polytope_pairs(draw):
    """Raw polytopes P and Q with entries given as ints or Fractions.

    Q spells P's values again (ints where the denominator is 1), changes one
    denominator, reverses the order of P's denominators, or is drawn afresh.
    """
    n = draw(st.integers(1, 3))
    entry = st.tuples(st.integers(-3, 3), st.sampled_from((1, 2, 3, 4)))
    rows_of = st.lists(st.tuples(*[entry] * n), min_size=1, max_size=4)

    def build(rows, spell=F):
        return VPolytope(n, tuple(sorted({tuple(spell(a, b) for a, b in r) for r in rows})))

    rows = draw(rows_of)
    variant = draw(st.sampled_from(("spelling", "one-denominator", "reversed", "fresh")))
    if variant == "spelling":
        return build(rows), build(rows, lambda a, b: a if b == 1 else F(a, b))
    if variant == "one-denominator":
        (a, b), *rest = rows[0]
        other = draw(st.sampled_from([d for d in (1, 2, 3, 4) if d != b]))
        return build(rows), build([((a, other), *rest)] + rows[1:])
    if variant == "reversed":
        denoms = iter([b for r in rows for _, b in r][::-1])
        return build(rows), build([tuple((a, next(denoms)) for a, _ in r) for r in rows])
    return build(rows), build(draw(rows_of))


def keep_of(draw, n):
    """A nonempty strictly ascending tuple of coordinates in range(n)."""
    return tuple(sorted(draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))))


@st.composite
def shadow_cases(draw):
    """A polytope in dims 1-4, coordinates to keep, and coordinates of those."""
    n = draw(st.integers(1, 4))
    pts = draw(st.lists(st.tuples(*[coords] * n), min_size=1, max_size=7))
    outer = keep_of(draw, n)
    return convex_hull(pts, n), outer, keep_of(draw, len(outer))


@st.composite
def point_sets(draw):
    """Points in dims 1-4: general, flat (the last coordinate copies the
    first), or one point repeated."""
    n = draw(st.integers(1, 4))
    pts = draw(st.lists(st.tuples(*[coords] * n), min_size=1, max_size=8))
    kind = draw(st.sampled_from(("general", "flat", "point")))
    if kind == "flat" and n > 1:
        pts = [p[:-1] + (p[0],) for p in pts]
    if kind == "point":
        pts = pts[:1] * 3
    return n, pts


class TestConvexHull:
    def test_interior_point_removed(self):
        p = convex_hull([(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 4))])
        assert p.vertices == convex_hull([(0, 0), (1, 0), (0, 1)]).vertices

    def test_segment_allowed(self):
        p = convex_hull([(0, 0), (1, 1)])
        assert len(p.vertices) == 2
        assert volume(p) == 0

    def test_minkowski_pentagon(self):
        pent = minkowski_sum(unit_cube(2), standard_simplex(2))
        expected = convex_hull([(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)])
        assert pent == expected

    def test_membership_oracle_agrees(self):
        # Vertices are exactly the points not contained in the hull of the rest.
        rng = random.Random(1)
        for n in (2, 3):
            pts = rand_points(rng, n, 9)
            p = convex_hull(pts, n)
            for q in pts:
                others = [r for r in pts if r != q]
                inside = member(convex_hull(others, n), q)
                assert inside == (tuple(q) not in p.vertices)

    def test_empty_and_mismatch_errors(self):
        with pytest.raises(ValueError):
            convex_hull([])
        with pytest.raises(ValueError):
            convex_hull([(0, 0), (0, 0, 0)], 2)

    def test_raw_constructor_rejects_non_canonical_order(self):
        a, b = (F(0), F(0)), (F(1), F(0))
        assert VPolytope(2, (a, b)).vertices == (a, b)
        with pytest.raises(ValueError, match="lex-ascending"):
            VPolytope(2, (b, a))
        with pytest.raises(ValueError, match="lex-ascending"):
            VPolytope(2, (a, b, b))

    @given(polytope_pairs())
    @example((VPolytope(1, ((F(1, 2),),)), VPolytope(1, ((F(1, 3),),))))
    @example((VPolytope(2, ((F(1, 2), F(1, 3)),)), VPolytope(2, ((F(1, 3), F(1, 2)),))))
    @settings(max_examples=200, deadline=None)
    def test_equal_exactly_when_vertex_tuples_are_equal(self, pair):
        p, q = pair
        same = p.vertices == q.vertices
        assert (p == q) == same and (q == p) == same
        if same:
            assert hash(p) == hash(q)

    def test_point_order_gives_one_key(self):
        # The hash is stored at construction; equal polytopes must share it, so
        # the memos keyed by polytopes still find each other's entries.
        from cornervol import mixed

        pts = [(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, 0), (2, 3, F(1, 2))]
        p, q = convex_hull(pts, 3), convex_hull(pts[::-1], 3)
        raw = VPolytope(3, p.vertices)
        assert p == q == raw and p is not q
        assert hash(p) == hash(q) == hash(raw)
        t = standard_simplex(3)
        first = mixed.volume_polynomial(p, t)
        before = mixed.volume_polynomial.cache_info()
        assert mixed.volume_polynomial(q, t) is first
        after = mixed.volume_polynomial.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    @given(point_sets())
    @settings(max_examples=100, deadline=None)
    def test_raw_canonical_list_is_its_hull(self, case):
        # A raw polytope on a hull's vertex list is that hull, key and all,
        # and its first hull accepts it.
        n, pts = case
        p = convex_hull(pts, n)
        raw = VPolytope(n, p.vertices)
        assert raw == p and hash(raw) == hash(p)
        with patch.object(geometry, "_hull_cache", {}):
            assert geometry.hull_data(raw).vertices == p.vertices

    def test_ascending_mixed_dimensions_raise_the_engines_error(self):
        with pytest.raises(ValueError, match="point of dimension 2 in dimension-1 hull"):
            convex_hull([(0,), (0, 1)])

    def test_cap_holds_for_a_memoized_list(self, monkeypatch):
        cube = unit_cube(3)
        assert convex_hull(cube.vertices, 3) == cube
        monkeypatch.setenv("CORNER_MIXVOL_MAX_DIM", "2")
        with pytest.raises(ValueError, match="dimension 3 exceeds cap 2"):
            convex_hull(cube.vertices, 3)

    @given(point_sets())
    @settings(max_examples=100, deadline=None)
    def test_memoized_canonical_list_takes_no_hull(self, case):
        n, pts = case
        p = convex_hull(pts, n)
        calls = []

        def counting(points, dim):
            calls.append(dim)
            return hull_mod.hull_of_points(points, dim)

        with patch.object(geometry, "hull_of_points", counting):
            assert convex_hull(p.vertices, n) == p
            assert calls == []
            # Under strict checks a hit is compared with one engine hull.
            with patch.object(hull_mod, "strict_checks", True):
                assert convex_hull(p.vertices, n) == p
            assert calls == [n]

    @given(point_sets())
    @settings(max_examples=100, deadline=None)
    def test_negation_derives_its_hull_data_from_the_memo(self, case):
        n, pts = case
        p = convex_hull(pts, n)
        neg = reflect(p, (-1,) * n)
        symmetric = neg == p  # then -P's data are P's, already memoized
        calls = []

        def counting(points, dim):
            calls.append(dim)
            return hull_mod.hull_of_points(points, dim)

        # No hull; under strict checks the derived data meet one engine hull.
        for strict in (False, True):
            if not symmetric:
                geometry._hull_cache.pop(neg, None)
            with patch.object(geometry, "hull_of_points", counting), \
                    patch.object(hull_mod, "strict_checks", strict):
                assert negate.__wrapped__(p) == neg
            assert len(calls) == (strict and not symmetric)
            calls.clear()
            assert geometry.hull_data(neg) == hull_mod.hull_of_points(neg.vertices, n)

    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
                    min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_hull_idempotent(self, pts):
        p = convex_hull(pts, 3)
        assert convex_hull(p.vertices, 3) == p


class TestVolume:
    def test_unit_cube(self):
        assert volume(unit_cube(3)) == 1

    def test_simplex(self):
        assert volume(standard_simplex(3)) == F(1, 6)

    def test_pentagon_shoelace(self):
        pent = minkowski_sum(unit_cube(2), standard_simplex(2))
        assert volume(pent) == F(7, 2)
        assert shoelace(pent) == F(7, 2)

    def test_random_2d_matches_shoelace(self):
        rng = random.Random(7)
        for _ in range(25):
            p = convex_hull(rand_points(rng, 2, 8))
            if volume(p) == 0:
                continue
            assert volume(p) == shoelace(p)

    @pytest.mark.parametrize("lam", [0, F(1, 2), 1, 2, 3])
    def test_scaling_law(self, lam):
        p = convex_hull([(0, 0, 0), (2, 0, 1), (0, 3, 0), (1, 1, 2), (0, 0, 2)])
        assert volume(scale(p, lam)) == F(lam) ** 3 * volume(p)

    def test_scale_half_simplex(self):
        assert volume(scale(standard_simplex(3), F(1, 2))) == F(1, 48)

    def test_reflect_preserves_volume(self):
        rng = random.Random(3)
        for n in (2, 3, 4):
            p = convex_hull(rand_points(rng, n, n + 4), n)
            for signs in itertools.product((-1, 1), repeat=n):
                assert volume(reflect(p, signs)) == volume(p)

    def test_translation_invariance(self):
        p = convex_hull([(0, 0), (3, 1), (1, 4)])
        assert volume(p.translate((F(-7, 3), 5))) == volume(p)

    def test_linear_map_determinant_law(self):
        rng = random.Random(11)
        p = convex_hull(rand_points(rng, 3, 7))
        for _ in range(10):
            a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            d = det_int(a)
            if d == 0:
                continue
            assert volume(linear_map(p, a)) == abs(d) * volume(p)

    def test_singular_map_flattens(self):
        p = unit_cube(2)
        img = linear_map(p, [(1, 1), (1, 1)])
        assert volume(img) == 0

    def test_monotone_under_inclusion(self):
        rng = random.Random(5)
        for _ in range(10):
            pts = rand_points(rng, 3, 10)
            big = convex_hull(pts, 3)
            small = convex_hull(pts[:5], 3)
            assert all(member(big, v) for v in small.vertices)
            assert volume(small) <= volume(big)


class TestSubspaces:
    """The volume of a body relative to a coordinate subspace that holds it
    is the volume of its shadow there."""

    def test_relative_volume_segment(self):
        seg = convex_hull([(0, 0, 0), (0, 3, 0)])
        assert volume(shadow(seg, (1,))) == 3

    def test_relative_volume_triangle(self):
        t = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        assert volume(shadow(t, (0, 1))) == F(1, 2)

    def test_relative_volume_scaled(self):
        t = convex_hull([(0, 0, 0), (2, 0, 0), (0, 0, 3)])
        assert volume(shadow(t, (0, 2))) == 3

    def test_projection(self):
        assert project(standard_simplex(2), (0,)) == convex_hull([(0, 0), (1, 0)])
        p = convex_hull([(0, 0), (2, 0), (0, 3)])
        assert project(p, (1,)) == convex_hull([(0, 0), (0, 3)])
        box = reflect(unit_cube(2), (-1, 1))
        q = join_hull(box, unit_cube(2))  # [-1,1] x [0,1]
        assert project(q, (0,)) == convex_hull([(-1, 0), (1, 0)])
        assert project(q, ()) == origin(2)

    def test_shadow_rejects_bad_keep(self):
        for keep in ((), (0, 0), (1, 0), (-1, 0), (0, 3)):
            with pytest.raises(ValueError, match="strictly ascending"):
                shadow(standard_simplex(3), keep)

    @given(shadow_cases())
    @settings(max_examples=100, deadline=None)
    def test_shadow_properties(self, case):
        p, outer, inner = case
        n = p.dim
        with patch.object(hull_mod, "strict_checks", True):
            dropped = [tuple(v[i] for i in outer) for v in p.vertices]
            assert shadow(p, outer) == convex_hull(dropped, len(outer))
            assert shadow(p, tuple(range(n))) is p
            composed = tuple(outer[i] for i in inner)
            assert shadow(shadow(p, outer), inner) == shadow(p, composed)
            # The second route hulls the projection in R^n first.
            assert volume(shadow(p, outer)) == volume(shadow(project(p, outer), outer))

    def test_bad_subspace(self):
        for keep in ((0, 0), (5,), (1, 0), (-1,)):
            with pytest.raises(ValueError, match="strictly ascending"):
                project(standard_simplex(2), keep)


class TestMemberAndJoin:
    def test_member_examples(self):
        tri = standard_simplex(2)
        assert member(tri, (F(1, 3), F(1, 3)))
        assert not member(tri, (1, 1))
        pent = minkowski_sum(unit_cube(2), standard_simplex(2))
        assert member(pent, (2, 1))

    def test_member_dimension_mismatch(self):
        with pytest.raises(ValueError):
            member(standard_simplex(2), (1, 0, 0))

    def test_join_cross_polytope(self):
        tri = standard_simplex(2)
        cross = join_hull(tri, negate(tri))
        assert volume(cross) == 2
        assert cross == convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1)])

    def test_join_identity_and_interval(self):
        p = convex_hull([(0, 0), (1, 2), (3, 0)])
        assert join_hull(p, p) == p
        a = convex_hull([(0,), (1,)], 1)
        b = convex_hull([(-1,), (0,)], 1)
        assert join_hull(a, b) == convex_hull([(-1,), (1,)], 1)

    def test_commutativity(self):
        rng = random.Random(13)
        for n in (2, 3):
            p = convex_hull(rand_points(rng, n, 6), n)
            q = convex_hull(rand_points(rng, n, 6), n)
            assert minkowski_sum(p, q) == minkowski_sum(q, p)
            assert join_hull(p, q) == join_hull(q, p)

    def test_sum_with_point_translates(self):
        p = convex_hull([(0, 0), (1, 2), (3, 0)])
        pt = convex_hull([(5, -1)])
        assert minkowski_sum(p, pt) == p.translate((5, -1))

    def test_simplex_plus_vertical_segment(self):
        alpha = F(5, 2)
        seg = convex_hull([(0, 0), (0, alpha)])
        q = minkowski_sum(standard_simplex(2), seg)
        assert q == convex_hull([(0, 0), (1, 0), (1, alpha), (0, 1 + alpha)])
        assert volume(q) == F(1, 2) + alpha


class TestTransforms:
    def test_reflect_examples(self):
        # Through both axes the reflection is the negation, which negate
        # builds from the vertices without a hull.
        assert reflect(standard_simplex(2), (-1, -1)) == negate(standard_simplex(2)) == (
            convex_hull([(0, 0), (-1, 0), (0, -1)]))
        p = convex_hull([(1, 2), (0, 0), (2, 0)])
        assert reflect(p, (1, 1)) == p

    def test_scale_examples(self):
        assert scale(standard_simplex(2), 2) == convex_hull([(0, 0), (2, 0), (0, 2)])
        p = convex_hull([(0, 1), (1, 0), (1, 1)])
        assert scale(p, 1) == p
        assert scale(p, 0) == origin(2)
        with pytest.raises(ValueError):
            scale(p, -1)

    def test_diagonal_map_to_unit_simplex(self):
        # Rescaling each axis by 1/beta_i carries conv(0, beta_i e_i) onto the
        # unit coordinate simplex.
        betas = (F(3), F(1, 2), F(5))
        p = convex_hull(
            [(0, 0, 0)] + [tuple(betas[i] if j == i else 0 for j in range(3)) for i in range(3)]
        )
        diag = [[F(1, betas[i]) if i == j else F(0) for j in range(3)] for i in range(3)]
        assert linear_map(p, diag) == standard_simplex(3)


@given(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=10),
    st.sampled_from([0, F(1, 2), 1, 2]),
)
@settings(max_examples=60, deadline=None)
def test_scale_volume_property(pts, lam):
    p = convex_hull(pts, 2)
    assert volume(scale(p, lam)) == F(lam) ** 2 * volume(p)
