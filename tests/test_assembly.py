"""Orthant assemblies: validation, decompositions, the inequality and its audit."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornervol import assembly, geometry, mixed
from cornervol import hull as hull_mod
from cornervol import (
    AntiBlockingBody,
    AssemblyError,
    OrthantAssembly,
    ab_hull,
    all_signs,
    assemble,
    convex_hull,
    equality_family,
    from_unconditional,
    godbersen_check,
    lab_mixed,
    lab_volume,
    mixed_volume_pair,
    negate,
    negate_assembly,
    origin,
    proof_chain_audit,
    random_ab_body,
    random_assembly,
    reflect,
    standard_simplex,
    unit_cube,
    volume,
)
from cornervol.geometry import VPolytope, hull_data
from cornervol.hull import hull_of_points


class TestAssemble:
    def test_unconditional_simplex_is_cross_polytope(self):
        pieces = {sv: AntiBlockingBody(standard_simplex(2)) for sv in all_signs(2)}
        a = assemble(2, pieces)
        assert a.hull == convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1)])

    def test_missing_pieces_default_to_origin(self):
        # A single nontrivial orthant must still be consistent: its projections
        # onto shared subspaces have to collapse to the origin, so only the
        # all-origin assembly validates this way.
        a = assemble(2, {})
        assert volume(a.hull) == 0

    def test_mismatched_cap_rejected(self):
        pieces = {
            (1, 1): AntiBlockingBody(standard_simplex(2)),
            (-1, 1): ab_hull([(F(1, 2), 0), (0, F(1, 2))]),
        }
        with pytest.raises(AssemblyError, match="projection mismatch"):
            assemble(2, pieces)

    def test_non_downclosed_piece_rejected(self):
        # The piece type refuses it before assemble can see it.
        with pytest.raises(ValueError, match="not down-closed"):
            AntiBlockingBody(convex_hull([(1, 0), (0, 1)]))

    def test_equality_families_validate(self):
        assemble(3, dict(equality_family(1, (1, 2, 3)).pieces))
        assemble(2, dict(equality_family(2, (1, 1), beta1=2).pieces))

    def test_dimension_one_validates(self):
        a = assemble(1, {(1,): ab_hull([(2,)]), (-1,): ab_hull([(F(1, 3),)])})
        assert a.hull == convex_hull([(F(-1, 3),), (2,)])
        assert lab_volume(a) == volume(a.hull) == F(7, 3)


def flat_assembly_pieces():
    """A glued dim-2 assembly padded into R^3 with a zero third coordinate.

    Both signs of the third coordinate get the same piece, so the assembly
    lies in the coordinate plane spanned by e_1 and e_2.
    """
    glued = random_assembly("flat-pad", 2, "glued")
    pieces = {}
    for (s1, s2), piece in glued.pieces:
        padded = AntiBlockingBody(convex_hull([v + (F(0),) for v in piece.vertices], 3))
        pieces[(s1, s2, 1)] = pieces[(s1, s2, -1)] = padded
    return pieces


class TestFlatAssembly:
    def test_validates_on_its_support(self):
        a = assemble(3, flat_assembly_pieces())
        assert lab_volume(a) == 0
        assert volume(a.hull) == 0

    def test_changed_twin_rejected(self):
        # Replace one twin by a down-closed body with the same axis intervals
        # (its box, or its axis triangle when it is the box), so only the
        # comparison across the third coordinate can tell them apart.
        pieces = flat_assembly_pieces()
        twin = pieces[(1, 1, -1)]
        x = max(v[0] for v in twin.vertices)
        y = max(v[1] for v in twin.vertices)
        box = ab_hull([(x, y, 0)])
        pieces[(1, 1, -1)] = box if box != twin else ab_hull([(x, 0, 0), (0, y, 0)])
        with pytest.raises(AssemblyError, match=r"projection mismatch .* \(0, 1\)"):
            assemble(3, pieces)


class TestFromUnconditional:
    def test_cube(self):
        a = from_unconditional(AntiBlockingBody(unit_cube(3)))
        import itertools

        two_sided = convex_hull(list(itertools.product((-1, 1), repeat=3)), 3)
        assert a.hull == two_sided

    def test_volume_scales_by_orthant_count(self):
        rng = random.Random(1)
        from cornervol import random_ab_body

        k = random_ab_body(rng, 3)
        a = from_unconditional(k)
        assert lab_volume(a) == 2**3 * volume(k.body)
        assert volume(a.hull) == lab_volume(a)


# Rationals with mixed denominators for the rational generators.
coords = st.builds(F, st.integers(0, 4), st.sampled_from((1, 2, 3, 5)))
PIECE_KINDS = ("random", "random-flat", "cube", "simplex", "rational")


@st.composite
def unconditional_pieces(draw):
    """An anti-blocking piece in dimension 1 to 5: seeded random bodies (full or
    possibly flat), the unit cube, the standard simplex, or the down-closure of
    rational generators (possibly flat or the origin alone)."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(PIECE_KINDS))
    if kind.startswith("random"):
        rng = random.Random(draw(st.integers(0, 2**16)))
        return random_ab_body(rng, n, draw(st.integers(1, 3)), full_dim=kind == "random")
    if kind == "cube":
        return AntiBlockingBody(unit_cube(n))
    if kind == "simplex":
        return AntiBlockingBody(standard_simplex(n))
    return ab_hull(draw(st.lists(st.tuples(*[coords] * n), min_size=1, max_size=3)), n)


class TestUnconditionalHull:
    """The hull of equal pieces is derived from the piece, not hulled."""

    @pytest.mark.usefixtures("strict_hull")
    @given(unconditional_pieces())
    @settings(max_examples=60, deadline=None)
    def test_derived_hull_data_match_the_engine(self, piece):
        n = piece.dim
        reflected = sorted({tuple(s * x for s, x in zip(sign, v))
                            for sign in all_signs(n) for v in piece.vertices})
        assert hull_data(from_unconditional(piece).hull) == hull_of_points(reflected, n)

    def test_non_downclosed_equal_pieces_rejected(self):
        # The derivation for anti-blocking pieces would get K wrong for this
        # triangle, so it can be no piece at all.
        with pytest.raises(ValueError, match=r"holds \(1, 1\) but not \(0, 1\)"):
            AntiBlockingBody(convex_hull([(0, 0), (2, 0), (1, 1)], 2))


GLUED_KINDS = ("glued", "negated", "equality", "flat")
FALLBACK_KINDS = ("equality", "flat")


@st.composite
def glued_candidates(draw):
    """(kind, assembly): a glued assembly in dimension 1 to 4 or its negation,
    or one whose hull must come from the engine because its pieces differ and
    some are flat: a case-1 equality family, or the flat padded assembly."""
    kind = draw(st.sampled_from(GLUED_KINDS))
    if kind == "flat":
        return kind, OrthantAssembly(3, flat_assembly_pieces())
    n = draw(st.integers(1, 4))
    if kind == "equality":
        return kind, equality_family(1, draw(st.lists(coords.filter(bool), min_size=n, max_size=n)))
    glued = random_assembly(f"derived-{draw(st.integers(0, 2**16))}", n, "glued")
    return kind, glued if kind == "glued" else negate_assembly(glued)


class TestGluedHull:
    """A glued body's hull is derived from its pieces, which glue to a convex
    body because the constructor checks their shared projections."""

    @pytest.mark.usefixtures("strict_hull")
    @given(glued_candidates())
    @settings(max_examples=25, deadline=None)
    def test_derived_hull_data_match_the_engine(self, candidate):
        kind, a = candidate
        assert (assembly._derived_hull(a) is None) == (kind in FALLBACK_KINDS)
        assert hull_data(a.hull) == hull_of_points(sorted(assembly._reflected_vertices(a)), a.dim)
        # A piece shifted off the origin is no longer down-closed.
        shifted = a.pieces[-1][1].body.translate((1,) * a.dim)
        with pytest.raises(ValueError, match="not down-closed"):
            AntiBlockingBody(shifted)
        # Every glued piece is full-dimensional, so from dimension 2 on an
        # orthant left to the origin disagrees with its neighbours.
        if kind == "glued" and a.dim >= 2:
            pieces = dict(a.pieces)
            pieces[a.pieces[0][0]] = AntiBlockingBody(origin(a.dim))
            with pytest.raises(AssemblyError, match="projection mismatch"):
                OrthantAssembly(a.dim, pieces)

    def test_assemble_takes_no_hull_of_the_body(self, monkeypatch):
        # The consistency check reads the pieces' memoized vertex lists, and
        # the body's hull is derived from their hull data: no hull at all.
        pieces = dict(random_assembly("derived-count", 3, "glued").pieces)
        geometry._shadow.cache_clear()
        dims = []
        real = geometry.hull_of_points

        def recording(points, dim):
            dims.append(dim)
            return real(points, dim)

        monkeypatch.setattr(geometry, "hull_of_points", recording)
        a = assemble(3, pieces)
        assert volume(a.hull) == lab_volume(a)
        assert dims == []

    @pytest.mark.parametrize("int64", [True, False], ids=["int64", "python-int"])
    def test_scan_decides_the_route(self, monkeypatch, int64):
        # With the engine's scans in int64 or in Python ints, a glued body's
        # hull is derived from its pieces and a flat one's is the engine's;
        # either way it is the engine's hull of the reflected vertices.
        if not int64:
            monkeypatch.setattr(hull_mod, "_INT64_BOUND", 0)
        glued = random_assembly("derived-scan", 3, "glued")
        derived = assembly._derived_hull(OrthantAssembly(3, glued.pieces))
        assert derived == convex_hull(assembly._reflected_vertices(glued), 3)
        flat = OrthantAssembly(3, flat_assembly_pieces())
        assert assembly._derived_hull(flat) is None
        assert flat.hull == convex_hull(assembly._reflected_vertices(flat), 3)
        # A box beside three triangles: the pieces disagree on their shared
        # coordinate subspaces, so they are no assembly, and their union is
        # not convex either.
        triangle = AntiBlockingBody(standard_simplex(2))
        pieces = {s: triangle for s in all_signs(2)}
        pieces[(1, 1)] = ab_hull([(2, 2)])
        with pytest.raises(AssemblyError, match="projection mismatch"):
            OrthantAssembly(2, pieces)
        reflected = {tuple(s * x for s, x in zip(sign, v))
                     for sign, piece in pieces.items() for v in piece.vertices}
        hull = convex_hull(reflected, 2)
        assert hull == convex_hull([(2, 2), (2, 0), (0, 2), (-1, 0), (0, -1)])
        with pytest.raises(AssemblyError, match="union of pieces is not convex"):
            assembly._check_convex_union(pieces, hull)

    def test_redundant_raw_piece_assembles(self):
        # The raw piece lists (0, 1), which is no vertex of its hull; the
        # consistency check reads the canonical vertices, so it agrees with
        # its hull at the other signs.
        raw = AntiBlockingBody(VPolytope(2, ((F(0), F(0)), (F(0), F(1)), (F(0), F(2)), (F(1), F(0)))))
        hull = AntiBlockingBody(convex_hull(raw.vertices, 2))
        pieces = {s: hull for s in all_signs(2)}
        pieces[(1, 1)] = raw
        a = assemble(2, pieces)
        assert a == OrthantAssembly(2, pieces)
        assert a.hull == convex_hull([(1, 0), (0, 2), (-1, 0), (0, -2)])
        assert lab_volume(a) == volume(a.hull) == 4


CONSISTENT_KINDS = ("glued", "negated", "flat", "equality", "unconditional")


@st.composite
def consistent_families(draw):
    """A piece family that agrees on its shared coordinate subspaces: a glued
    assembly in dimension 1 to 4 or its negation, the flat padded assembly,
    an equality family, or the reflections of one random piece."""
    kind = draw(st.sampled_from(CONSISTENT_KINDS))
    if kind == "flat":
        return assemble(3, flat_assembly_pieces())
    n = draw(st.sampled_from((1, 2, 3, 4)))
    seed = draw(st.integers(0, 2**16))
    if kind in ("glued", "negated"):
        glued = random_assembly(f"convex-{seed}", n, "glued")
        return glued if kind == "glued" else negate_assembly(glued)
    if kind == "equality":
        alphas = draw(st.lists(coords.filter(bool), min_size=n, max_size=n))
        if draw(st.booleans()):
            return equality_family(1, alphas)
        return equality_family(2, alphas, draw(coords.filter(bool)))
    rng = random.Random(seed)
    return from_unconditional(random_ab_body(rng, n, draw(st.integers(1, 3)),
                                             full_dim=draw(st.booleans())))


class TestConvexUnion:
    """Down-closed pieces that agree on their shared coordinate subspaces glue
    to a convex body (the proof is in ``assemble``), so the volume check that
    ``assemble`` runs only under strict checks never fails on them."""

    @pytest.mark.usefixtures("strict_hull")
    @given(consistent_families())
    @settings(max_examples=60, deadline=None)
    def test_consistent_pieces_glue_to_a_convex_body(self, a):
        assembly._check_convex_union(a.piece_map, a.hull)
        reflected = sorted(assembly._reflected_vertices(a))
        assert lab_volume(a) == hull_of_points(reflected, a.dim).volume


class TestEqualityFamily:
    def test_case1_unit_is_simplex(self):
        a = equality_family(1, (1, 1, 1))
        assert a.hull == standard_simplex(3)

    def test_case1_volume(self):
        a = equality_family(1, (2, 3))
        assert lab_volume(a) == F(2 * 3, 2)

    def test_case2_segment(self):
        a = equality_family(2, (1,), beta1=1)
        assert a.hull == convex_hull([(-1,), (1,)], 1)

    def test_case2_triangle(self):
        a = equality_family(2, (1, 1), beta1=1)
        assert a.hull == convex_hull([(1, 0), (-1, 0), (0, 1)])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            equality_family(1, (1, 0))
        with pytest.raises(ValueError):
            equality_family(2, (1, 1))
        with pytest.raises(ValueError):
            equality_family(3, (1,))


class TestDecompositions:
    def test_lab_volume_cross_polytope(self):
        a = from_unconditional(AntiBlockingBody(standard_simplex(2)))
        assert lab_volume(a) == 2

    @pytest.mark.usefixtures("strict_hull")
    def test_lab_volume_matches_hull(self, glued_bank):
        # A derived hull's volume is the piece sum by construction; rebuilt
        # under strict checks, each derived hull is compared with the engine's.
        for a in glued_bank[:10]:
            assert lab_volume(a) == volume(OrthantAssembly(a.dim, a.pieces).hull)

    def test_lab_mixed_self_is_volume(self):
        a = random_assembly("self", 2, "glued")
        for j in range(3):
            assert lab_mixed(a, a, j) == lab_volume(a)

    def test_lab_mixed_cross_polytope_symmetric(self):
        a = from_unconditional(AntiBlockingBody(standard_simplex(2)))
        b = negate_assembly(a)
        assert lab_mixed(a, b, 1) == 2

    def test_lab_mixed_matches_hulls_on_distinct_pairs(self):
        rng = random.Random(9)
        for n in (2, 3):
            for trial in range(3):
                a = random_assembly(f"pair-a-{n}-{trial}", n, "glued")
                b = random_assembly(f"pair-b-{n}-{trial}", n, "unconditional")
                ha, hb = a.hull, b.hull
                for j in range(n + 1):
                    assert lab_mixed(a, b, j) == mixed_volume_pair(ha, hb, j)

    def test_sum_volume_decomposes_over_orthants(self):
        # Vol(A + B) splits orthant by orthant: the pieces of the sum are the
        # sums of the pieces, and they only overlap in measure zero.
        from cornervol import minkowski_sum

        for n in (2, 3):
            for trial in range(3):
                a = random_assembly(f"sumdec-a-{n}-{trial}", n, "glued")
                b = random_assembly(f"sumdec-b-{n}-{trial}", n, "glued")
                direct = volume(minkowski_sum(a.hull, b.hull))
                per_orthant = sum(
                    volume(minkowski_sum(piece.body, b.piece(sign).body))
                    for sign, piece in a.pieces
                )
                assert direct == per_orthant


class TestSharedProjections:
    def test_full_quantifier_version(self, glued_bank):
        # Validation uses adjacent sign flips; the property it guarantees is
        # the full statement: equal projections for every sign pair agreeing
        # on the subspace, over every coordinate subspace.
        import itertools

        from cornervol import CoordSubspace, project

        for a in glued_bank[:4]:
            n = a.dim
            for r in range(n + 1):
                for idx in itertools.combinations(range(n), r):
                    sub = CoordSubspace(n, idx)
                    groups = {}
                    for sign, piece in a.pieces:
                        key = tuple(sign[i] for i in idx)
                        groups.setdefault(key, []).append(project(piece.body, sub))
                    for projections in groups.values():
                        assert all(p == projections[0] for p in projections)


class TestFaces:
    @pytest.mark.usefixtures("strict_hull")
    @given(unconditional_pieces())
    @settings(max_examples=60, deadline=None)
    def test_face_is_the_projection(self, piece):
        # The consistency check compares a down-closed piece's face x_i = 0
        # in place of its projection along e_i.  In dimension 1 that face is
        # the origin, for every piece.
        n = piece.dim
        for i in range(n):
            face = [v[:i] + v[i + 1:] for v in hull_data(piece.body).vertices if not v[i]]
            if n == 1:
                assert face == [()]
            else:
                keep = tuple(k for k in range(n) if k != i)
                assert face == list(geometry.shadow(piece.body, keep).vertices)


class TestNegation:
    def test_unconditional_fixed(self):
        a = from_unconditional(AntiBlockingBody(unit_cube(2)))
        assert negate_assembly(a) == a

    def test_case1_flips_orthant(self):
        a = equality_family(1, (2, 1))
        na = negate_assembly(a)
        assert na.hull == negate(a.hull)

    def test_involution_and_hull_identity(self, glued_bank):
        for a in glued_bank[:8]:
            na = negate_assembly(a)
            assert negate_assembly(na) == a
            assert na.hull == reflect(a.hull, (-1,) * a.dim)


class TestGodbersen:
    def test_simplex_family_equality(self):
        a = equality_family(1, (1, 1, 1))
        rep = godbersen_check(a, 1)
        assert rep.mixed == F(1, 2)
        assert rep.bound == F(1, 2)
        assert rep.is_equality and not rep.trivial

    def test_cube_ratio_half(self):
        a = from_unconditional(AntiBlockingBody(unit_cube(2)))
        rep = godbersen_check(a, 1)
        assert (rep.mixed, rep.bound, rep.ratio) == (4, 8, F(1, 2))

    def test_trivial_endpoints(self):
        a = from_unconditional(AntiBlockingBody(unit_cube(2)))
        for j in (0, 2):
            rep = godbersen_check(a, j)
            assert rep.is_equality and rep.trivial

    def test_requires_full_dimension(self):
        a = assemble(2, {})
        with pytest.raises(ValueError, match="full-dimensional"):
            godbersen_check(a, 1)


class TestProofChainAudit:
    def test_equality_family_all_tight(self):
        for a in (equality_family(1, (1, 2, 3)), equality_family(2, (1, 2), beta1=3)):
            for j in range(1, a.dim):
                audit = proof_chain_audit(a, j)
                assert audit.ratio == 1
                assert all(s.slack == 0 for s in audit.steps)

    def test_cube_slack_at_projection_bound(self):
        a = from_unconditional(AntiBlockingBody(unit_cube(2)))
        audit = proof_chain_audit(a, 1)
        assert audit.ratio == F(1, 2)
        slack_steps = [s.name for s in audit.steps if s.relation == "<=" and s.slack > 0]
        assert slack_steps == ["projection-product-bound"]

    def test_swapped_pairs_share_one_triangulation(self, monkeypatch):
        # (P_s, P_-s) and (P_-s, P_s) are one pair swapped, and the relaxed
        # (P_s, -P_-s) and (P_-s, -P_s) one pair swapped and negated: a glued
        # dim-3 body triangulates 4 pairs for each sum, not 8.
        calls = []
        real = mixed.triangulate
        monkeypatch.setattr(mixed, "triangulate",
                            lambda points, dim: calls.append(dim) or real(points, dim))
        a = random_assembly("shared-pairs", 3, "glued")
        split = lab_mixed(a, negate_assembly(a), 1)
        assert len(calls) == 4
        audit = proof_chain_audit(a, 1)
        assert len(calls) == 4 + 1 + 4  # the direct pair, then the relaxed sum
        assert audit.steps[0].rhs == split and audit.all_hold

    def test_exact_steps_on_random_assemblies(self, glued_bank):
        for a in glued_bank[:6]:
            for j in range(a.dim + 1):
                audit = proof_chain_audit(a, j)
                assert audit.exact_steps_hold
                assert audit.all_hold


class TestRandomAssembly:
    def test_deterministic(self):
        a = random_assembly(42, 3, "glued")
        b = random_assembly(42, 3, "glued")
        assert a == b

    def test_unconditional_is_symmetric(self):
        a = random_assembly(4, 3, "unconditional")
        assert negate_assembly(a) == a
        h = a.hull
        assert reflect(h, (-1, 1, -1)) == h

    def test_glued_soundness_sweep(self):
        # Generator construction must satisfy validation every time; 200
        # samples, dimension 3 every fourth draw.
        for i in range(200):
            n = 3 if i % 4 == 0 else 2
            a = random_assembly(f"sweep-{i}", n, "glued")
            assert lab_volume(a) == volume(a.hull)

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            random_assembly(0, 2, "bogus")
