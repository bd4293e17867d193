"""Structural checks of the incremental hull engine."""

import hashlib
import itertools
import random
from fractions import Fraction as F
from math import factorial
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cornervol import hull as hull_mod
from cornervol.hull import hull_of_points
from cornervol.linalg import rank_rows


def rand_pts(rng, n, count, lo=-5, hi=5):
    return [tuple(F(rng.randint(lo, hi)) for _ in range(n)) for _ in range(count)]


def test_closed_boundary_on_random_inputs(strict_hull):
    rng = random.Random(17)
    for n in (2, 3, 4):
        for _ in range(12):
            pts = rand_pts(rng, n, 4 * n + rng.randint(0, 8))
            data = hull_of_points(pts, n)
            assert data.volume >= 0


def test_structured_degenerate_inputs(strict_hull):
    # Grids and boxes exercise the coplanar facet-extension path.
    grid = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    data = hull_of_points(grid, 3)
    assert data.volume == 8
    assert len(data.vertices) == 8

    # Lattice cross-polytope with face-interior lattice points.
    pts = [(2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 2), (0, 0, -2),
           (1, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 0)]
    data = hull_of_points(pts, 3)
    assert data.volume == F(32, 3)  # (4/3) r^3 at r = 2
    assert len(data.vertices) == 6


def test_rank_detection():
    pts = [(0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 1, 0)]
    data = hull_of_points(pts, 3)
    assert data.rank == 2
    assert data.volume == 0
    assert set(data.vertices) == {
        (F(0), F(0), F(0)),
        (F(2), F(2), F(0)),
        (F(0), F(1), F(0)),
    }


def test_affine_basis_takes_first_independent_points():
    # The pivots turn up as column 2, then column 0; they are returned ascending,
    # so the degenerate hull keeps the ambient coordinate order.
    pts = [(0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 5), (2, 0, 7)]
    assert hull_mod._affine_basis(pts, 3) == ([0, 1, 3], [0, 2])
    data = hull_of_points(pts, 3)
    assert data.rank == 2
    assert data.vertices == tuple(sorted(hull_mod.as_vec(pts[i]) for i in (0, 2, 3, 4)))


# Rationals with mixed denominators.
coords = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3)))


@st.composite
def embedded_point_sets(draw):
    """Rank-k points in R^n as images of R^k under an injective affine map.

    The preimages contain the standard simplex, so they span R^k.  The map has
    more than k nonzero rows, so the image is not a coordinate subspace.
    """
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, n - 1))
    matrix = [[draw(coords) for _ in range(k)] for _ in range(n)]
    assume(rank_rows(matrix) == k)
    assume(sum(1 for row in matrix if any(row)) > k)
    offset = [draw(coords) for _ in range(n)]
    simplex = [tuple(F(int(i == j)) for j in range(k)) for i in range(-1, k)]
    pre = simplex + draw(st.lists(st.tuples(*[coords] * k), max_size=6))

    def image(x):
        return tuple(c + sum(a * t for a, t in zip(row, x)) for row, c in zip(matrix, offset))

    return n, k, pre, image


@settings(max_examples=80, deadline=None)
@given(embedded_point_sets())
def test_degenerate_hull_is_the_image_of_the_hull_in_its_span(case):
    n, k, pre, image = case
    with patch.object(hull_mod, "strict_checks", True):
        data = hull_of_points([image(x) for x in pre], n)
        sub = hull_of_points(pre, k)
    assert data.rank == k
    assert data.volume == 0
    assert data.vertices == tuple(sorted(image(v) for v in sub.vertices))


def test_duplicate_points_collapse():
    data = hull_of_points([(1, 1), (1, 1), (0, 0), (0, 0)], 2)
    assert len(data.vertices) == 2


def test_equal_points_in_any_form_collapse_to_one_fraction_vertex():
    data = hull_of_points([(1, 0), (F(2, 2), 0), ("1", "0")], 2)
    assert data.rank == 0
    assert data.vertices == ((F(1), F(0)),)
    assert all(type(x) is F for x in data.vertices[0])
    data = hull_of_points([(1, 0), (F(2, 2), 0), ("1", "0"), ("0", F(0))], 2)
    assert data.vertices == ((F(0), F(0)), (F(1), F(0)))
    assert all(type(x) is F for v in data.vertices for x in v)


def test_single_point():
    data = hull_of_points([(3, 4, 5)], 3)
    assert data.rank == 0
    assert data.volume == 0


def test_fraction_coordinates_scaled_exactly():
    pts = [(F(1, 3), F(1, 7)), (F(2, 3), F(1, 7)), (F(1, 3), F(8, 7)), (F(2, 3), F(8, 7))]
    data = hull_of_points(pts, 2)
    assert data.volume == F(1, 3)


def test_facet_offsets_do_not_depend_on_redundant_points():
    # A redundant point with denominator 3 must not rescale the offsets: they
    # are in the vertices' denominator lcm, here 1, as when built from them.
    data = hull_of_points([(0, 0), (2, 0), (0, 2), (2, 2), (F(1, 3), F(1, 3))], 2)
    assert data.facets == hull_of_points(data.vertices, 2).facets
    assert data.facets == (((-1, 0), 0), ((0, -1), 0), ((0, 1), 2), ((1, 0), 2))


def test_numpy_fallback_on_huge_coordinates(strict_hull):
    # Coordinates big enough to trip the int64 guard; results stay exact.
    big = 10**12
    pts = [(0, 0, 0), (big, 0, 0), (0, big, 0), (0, 0, big), (big, big, big)]
    data = hull_of_points(pts, 3)
    # Corner simplex (big^3 / 6) plus the pyramid from the far corner (big^3 / 3).
    assert data.volume == F(big**3, 2)


def brute_facets(pts, n):
    import itertools

    from cornervol.linalg import hyperplane_normal

    planes = set()
    for sub in itertools.combinations(range(len(pts)), n):
        base = pts[sub[0]]
        diffs = [tuple(int(pts[i][j] - base[j]) for j in range(n)) for i in sub[1:]]
        normal = hyperplane_normal(diffs)
        if normal is None:
            continue
        b = sum(a * x for a, x in zip(normal, base))
        vals = [sum(a * x for a, x in zip(normal, p)) - b for p in pts]
        if all(v <= 0 for v in vals):
            planes.add((normal, b))
        if all(v >= 0 for v in vals):
            planes.add((tuple(-a for a in normal), -b))
    return planes


def brute_volume(pts, n):
    """Independent oracle: supporting-plane enumeration + facet pyramids."""
    from cornervol.linalg import rank_int_rows

    pts = sorted(set(pts))
    if n == 1:
        return F(max(p[0] for p in pts) - min(p[0] for p in pts))
    base = pts[0]
    rows = [tuple(int(p[j] - base[j]) for j in range(n)) for p in pts[1:]]
    if not rows or rank_int_rows(rows) < n:
        return F(0)
    total = F(0)
    for normal, b in brute_facets(pts, n):
        h = b - sum(a * x for a, x in zip(normal, base))
        if h == 0:
            continue
        face = [p for p in pts if sum(a * x for a, x in zip(normal, p)) == b]
        k = max(range(n), key=lambda i: abs(normal[i]))
        dropped = [tuple(p[i] for i in range(n) if i != k) for p in face]
        total += F(abs(h), 1) * brute_volume(dropped, n - 1) / abs(normal[k]) / n
    return total


def test_volume_against_bruteforce_oracle(strict_hull):
    rng = random.Random("oracle")
    cases = []
    for n in (2, 3):
        for _ in range(12):
            cases.append((n, [tuple(rng.randint(-3, 3) for _ in range(n))
                              for _ in range(rng.randint(n + 1, 8))]))
    for _ in range(8):  # adversarial 0/1/2 lattice sets, heavy coplanarity
        cases.append((3, [tuple(rng.randint(0, 2) for _ in range(3))
                          for _ in range(rng.randint(4, 8))]))
    for _ in range(5):
        cases.append((4, [tuple(rng.randint(0, 2) for _ in range(4))
                          for _ in range(rng.randint(5, 9))]))
    for n, pts in cases:
        expected = brute_volume(pts, n)
        assert hull_of_points(pts, n).volume == expected
        tri = hull_mod.triangulate(sorted({hull_mod.as_vec(p) for p in pts}), n)
        if tri is None:
            assert expected == 0
        else:
            cells, denom = tri
            assert sum(det for _, det in cells) == factorial(n) * denom**n * expected


def test_vertices_against_membership_oracle():
    from cornervol import convex_hull, member

    rng = random.Random("oracle-verts")
    for n in (2, 3):
        for _ in range(10):
            pts = sorted({tuple(F(rng.randint(-3, 3)) for _ in range(n))
                          for _ in range(rng.randint(n + 1, 9))})
            data = hull_of_points(pts, n)
            expected = [
                v for v in pts
                if len(pts) == 1 or not member(convex_hull([w for w in pts if w != v], n), v)
            ]
            assert list(data.vertices) == expected


@st.composite
def coplanar_rich_sets(draw):
    """Points of the grid {0, 1, 2}^n with edge midpoints and facet centres.

    Grid points already sit in the middle of edges and at the centres of the
    faces of the cube [0, 2]^n.  Half the sets hold the cube's corner simplex
    conv(0, 2e_1, ..., 2e_n), so they span R^n; the others are often flat.
    The midpoints of drawn pairs and the centroids of drawn n-sets add points
    inside the faces and edges of the drawn hull.
    """
    n = draw(st.integers(2, 5))
    grid = st.tuples(*[st.integers(0, 2)] * n)
    pts = draw(st.lists(grid, min_size=2, max_size=9, unique=True))
    if draw(st.booleans()):  # the corner simplex of the cube: full rank
        pts += [tuple(2 * (i == j) for j in range(n)) for i in range(-1, n)]
    idx = st.integers(0, len(pts) - 1)
    for i, j in draw(st.lists(st.tuples(idx, idx), max_size=3)):
        pts.append(tuple(F(a + b, 2) for a, b in zip(pts[i], pts[j])))
    for group in draw(st.lists(st.lists(idx, min_size=n, max_size=n), max_size=2)):
        pts.append(tuple(F(sum(c), n) for c in zip(*(pts[i] for i in group))))
    return n, sorted({hull_mod.as_vec(p) for p in pts})


@pytest.mark.usefixtures("strict_hull")
@given(coplanar_rich_sets())
@settings(max_examples=100, deadline=None)
def test_incidence_vertices_on_coplanar_inputs(case):
    # Under strict_checks the incidence vertices are also compared with the
    # scan of every point against every facet.
    from cornervol import member
    from cornervol.geometry import VPolytope

    n, pts = case
    data = hull_of_points(pts, n)
    expected = tuple(
        v for v in pts
        if len(pts) == 1 or not member(VPolytope(n, tuple(w for w in pts if w != v)), v)
    )
    assert data.vertices == expected


def test_dimension_bounds(monkeypatch):
    from cornervol import convex_hull

    monkeypatch.delenv("CORNER_MIXVOL_MAX_DIM", raising=False)
    with pytest.raises(ValueError, match="dimension 7 exceeds cap 6 .*CORNER_MIXVOL_MAX_DIM"):
        convex_hull([(0,) * 7], 7)
    monkeypatch.setenv("CORNER_MIXVOL_MAX_DIM", "7")
    pts = [(0,) * 7] + [tuple(1 if j == i else 0 for j in range(7)) for i in range(7)]
    assert len(convex_hull(pts, 7).vertices) == 8
    with pytest.raises(ValueError):
        hull_of_points([], 2)


def moment_curve(n, ts):
    return [tuple(F(t**k) for k in range(1, n + 1)) for t in ts]


def gale_facets(m, n):
    """Facets of the cyclic polytope of m moment-curve points in R^n, as index sets.

    Gale's evenness condition: an n-set S is a facet when every two indices
    outside S have an even number of members of S between them.
    """
    facets = set()
    for s in itertools.combinations(range(m), n):
        outside = [i for i in range(m) if i not in s]
        if all(sum(1 for x in s if a < x < b) % 2 == 0
               for a, b in itertools.combinations(outside, 2)):
            facets.add(frozenset(s))
    return facets


def test_cyclic_polytope_pieces_and_neighbours(strict_hull):
    # Moment-curve points are in general position, so the live pieces are the
    # facets; each piece's neighbour k must be the one other facet that holds
    # the ridge omitting its vertex k.
    for n in (2, 3, 4, 5):
        m = n + 5
        live = placed(moment_curve(n, range(m)), n).live_pieces()
        pieces = {frozenset(piece[0]): pid for pid, piece in live.items()}
        assert len(pieces) == len(live)
        assert set(pieces) == gale_facets(m, n)
        for facet, pid in pieces.items():
            verts, nbrs = live[pid][0], live[pid][4]
            for k, other in enumerate(nbrs):
                ridge = facet - {verts[k]}
                assert [pieces[f] for f in pieces if ridge < f and f != facet] == [other]


def sphere_with_escapes():
    """Lattice points of radius 3 scaled by 2^31, then two points just beyond.

    The sphere's planes have small normals, so its construction scans in int64
    with more than 32 pieces alive; each escape point sees a plane whose
    normal is about 2^31, which fails the int64 guard partway through.
    """
    c = 2**31
    sphere = sorted({p for p in itertools.product(range(-3, 4), repeat=3)
                     if sum(x * x for x in p) == 9})
    k = 17 * c // 10  # (k, k, k) lies beyond the facet x + y + z = 5c
    base = [tuple(F(c * x) for x in p) for p in sphere]
    return base, [(F(k + 1), F(k + 2), F(k + 3)), (F(-k - 5), F(k + 7), F(-k - 11))]


def batched_sphere_with_escapes():
    """Lattice points of radius^2 50 scaled by 2^18, and two sets of escapes.

    The sphere has more than ``BATCH_PIECES`` pieces and inserts batched.
    Every escape lies just beyond a facet +-x +- y +- z = 12c.  The first two
    sit one lattice step from the centres of two such facets; the planes
    they make have normals of about 2^19, so the batch guard fails at the
    next insertion and the pieces go back to the Python form, while the scan
    guard holds.  The other four are spread over the facet x + y + z = 12c:
    their cones are nearly flat, their normals reach about 2^41, and the scan
    guard fails too, after the hand-back.
    """
    c = 2**18
    sphere = sorted({p for p in itertools.product(range(-7, 8), repeat=3)
                     if sum(x * x for x in p) == 50})
    base = [tuple(F(c * x) for x in p) for p in sphere]
    near = [(4 * c + 1, 4 * c + 2, 4 * c + 3), (-4 * c - 5, 4 * c + 7, -4 * c - 11)]
    spread = [(4 * c + dx, 4 * c + dy, 4 * c - dx - dy + eps) for dx, dy, eps in (
        (-15280, -88791, 25), (160020, 228843, 29), (-156062, -234575, 18),
        (-197820, -37662, 8))]
    return base, [tuple(map(F, p)) for p in near], [tuple(map(F, p)) for p in spread]


def placed(pts, n):
    int_pts, _ = hull_mod._scale_to_int(pts)
    independent, _ = hull_mod._affine_basis(int_pts, n)
    return hull_mod._place(n, int_pts, independent)


def moment_cases():
    """Points in convex position with more pieces than the scan buffer's first
    capacity; the last three reach the batched form."""
    return [(n, moment_curve(n, range(-count, count + 1)))
            for n, count in ((2, 40), (3, 12), (4, 8), (5, 6), (4, 14), (5, 9), (6, 7))]


def test_scan_buffer_grows_past_its_capacity(strict_hull):
    for n, pts in moment_cases():
        placing = placed(pts, n)
        assert placing._next_id > hull_mod._Placing.INITIAL_ROWS
        assert placing._buf is not None and len(placing._buf) >= placing._next_id


def test_int64_guard_trips_partway(strict_hull):
    base, escapes = sphere_with_escapes()
    placing = placed(base, 3)
    assert placing._buf is not None and placing.live_count >= 32
    assert placed(base + escapes, 3)._buf is None


def test_int64_guards_trip_after_batching_began(strict_hull):
    base, near, spread = batched_sphere_with_escapes()
    placing = placed(base, 3)
    assert placing.batched_inserts and placing._batchable
    # The batch guard fails: the pieces are handed back, the scan buffer stays.
    placing = placed(base + near, 3)
    assert placing.batched_inserts and not placing._batchable
    assert placing.pieces is not None and placing._buf is not None
    # Then the scan guard fails too.
    placing = placed(base + spread, 3)
    assert placing.batched_inserts and not placing._batchable and placing._buf is None


def test_scans_agree_with_pure_int_fallback(strict_hull, monkeypatch):
    base, escapes = sphere_with_escapes()
    batched_base, near, spread = batched_sphere_with_escapes()
    cases = moment_cases() + [(3, base + escapes), (3, batched_base + near),
                              (3, batched_base + spread)]
    scanned = [(hull_of_points(pts, n), hull_mod.triangulate(pts, n)) for n, pts in cases]
    monkeypatch.setattr(hull_mod, "_INT64_BOUND", 0)
    for (n, pts), expected in zip(cases, scanned):
        placing = placed(pts, n)
        assert placing._buf is None and not placing.batched_inserts
        assert (hull_of_points(pts, n), hull_mod.triangulate(pts, n)) == expected


def cayley_set(k, t):
    return [v + (F(0),) for v in k.vertices] + [w + (F(1),) for w in t.vertices]


def engine_digest(pts, n):
    """Digest of a placing's cells (what ``triangulate`` returns) and live
    pieces, and of ``hull_of_points``."""
    placing = placed(pts, n)
    state = [(pid,) + piece[:4] + (tuple(piece[4]),)
             for pid, piece in placing.live_pieces().items()]
    h = hashlib.sha256()
    h.update(repr((placing.cells, state, placing._next_id)).encode())
    h.update(repr(hull_of_points(pts, n)).encode())
    return h.hexdigest()[:16], placing.batched_inserts


# Recorded from the engine before the batched form existed: the batched
# insertion must leave piece ids, planes, contents, neighbours and cells as
# the Python loop makes them.
BATCHED_DIGESTS = {
    "glued-3": "b47bba85673d0fc2",
    "glued-4": "af1cbd1bd932fa0a",
    "moment-4": "91e63d202afedd58",
    "moment-5": "bca0c371fad77c8f",
    "moment-6": "81f25dd8fcec8f6e",
}


def test_batched_insertion_matches_the_python_loop(strict_hull):
    from cornervol import negate, random_assembly

    cases = {}
    for n in (3, 4):  # the Cayley set of K and -K, as the direct route takes it
        body = random_assembly(f"batched-{n}", n, "glued").hull
        cases[f"glued-{n}"] = (n + 1, cayley_set(body, negate(body)))
    for n, pts in moment_cases()[-3:]:
        cases[f"moment-{n}"] = (n, pts)
    for name, (n, pts) in cases.items():
        digest, batched = engine_digest(pts, n)
        assert batched, name
        assert digest == BATCHED_DIGESTS[name], name
