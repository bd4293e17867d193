"""Orthant assemblies: validation, decompositions, the inequality and its audit."""

import itertools
import random
from fractions import Fraction as F
from math import comb, factorial

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
    ab_opposite_mixed,
    assemble,
    convex_hull,
    equality_family,
    from_unconditional,
    godbersen_check,
    lab_mixed,
    linear_map,
    mixed_volume_pair,
    negate,
    negate_assembly,
    origin,
    proof_chain_audit,
    random_assembly,
    standard_simplex,
    unit_cube,
    volume,
)
from cornervol.antiblocking import COORD_MAX, projected_volume, random_ab_body
from cornervol.assembly import (
    AuditStep,
    EngineDisagreementError,
    ProofChainAudit,
)
from cornervol.geometry import VPolytope, hull_data
from cornervol.hull import hull_of_points
from cornervol.io import assembly_from_obj, assembly_to_obj, mask_from_str, polytope_from_obj


def sign_vectors(n):
    """The 2^n sign vectors in orthant-mask order, the first coordinate's sign
    changing fastest: the m-th is -1 exactly at the set bits of m."""
    return [s[::-1] for s in itertools.product((1, -1), repeat=n)]


def sign_string(sign):
    return "".join("-" if s < 0 else "+" for s in sign)


def diagonal(signs):
    """The diagonal matrix of ``signs``, whose ``linear_map`` reflects through
    the coordinate hyperplanes where a sign is -1."""
    return [[s if i == k else 0 for k in range(len(signs))] for i, s in enumerate(signs)]


class TestAssemble:
    def test_unconditional_simplex_is_cross_polytope(self):
        a = assemble(2, [standard_simplex(2)] * 4)
        assert a.hull == convex_hull([(1, 0), (0, 1), (-1, 0), (0, -1)])

    def test_missing_pieces_default_to_origin(self):
        # A file may omit an orthant, which then holds the origin.  A single
        # nontrivial orthant must still be consistent: its projections onto
        # shared subspaces have to collapse to the origin, so only the
        # all-origin assembly validates this way.
        a = assembly_from_obj({"dim": 2, "pieces": {}})
        assert a.pieces == (origin(2),) * 4
        assert volume(a.hull) == 0

    def test_mismatched_cap_rejected(self):
        # Masks 0 and 1 are the orthants ++ and -+.
        pieces = [standard_simplex(2), ab_hull([(F(1, 2), 0), (0, F(1, 2))]).body,
                  origin(2), origin(2)]
        with pytest.raises(AssemblyError, match="projection mismatch"):
            assemble(2, pieces)

    def test_faces_compared_across_denominators(self):
        # The pieces at ++ and -+ have vertex denominators 2 and 1, so their
        # faces x_0 = 0 are compared as integer rows over the lcm 2.
        notched = ab_hull([(1, 0), (F(1, 2), 1), (0, 1)]).body
        square = ab_hull([(1, 1)]).body
        pieces = [notched, square, notched, square]  # ++, -+, +-, --
        assert volume(assemble(2, pieces).hull) == 2 * F(3, 4) + 2
        pieces[1] = pieces[3] = ab_hull([(1, 2)]).body
        with pytest.raises(AssemblyError, match=r"orthants \+\+ and -\+ on the coordinates \(1,\)"):
            assemble(2, pieces)

    def test_wrong_count_or_dimension_refused(self):
        square = unit_cube(2)
        with pytest.raises(AssemblyError, match="need 4 pieces by orthant mask, got 3"):
            OrthantAssembly(2, (square,) * 3)
        with pytest.raises(AssemblyError, match="need 8 pieces by orthant mask, got 4"):
            OrthantAssembly(3, (square,) * 4)
        # The piece of another dimension is named by its orthant, at every mask.
        for m, sign in enumerate(sign_vectors(2)):
            pieces = [square] * 4
            pieces[m] = unit_cube(3)
            with pytest.raises(AssemblyError) as err:
                OrthantAssembly(2, pieces)
            assert str(err.value) == f"piece at {sign_string(sign)} is no polytope of dimension 2"
        # A mapping from sign strings to pieces is no tuple of polytopes.
        with pytest.raises(AssemblyError, match=r"piece at \+\+ is no polytope"):
            OrthantAssembly(2, dict.fromkeys(["++", "-+", "+-", "--"], square))

    def test_projection_mismatch_names_both_orthants(self):
        # Down-closed from (1, 1, 0) and (1, 0, 1) in the coordinates (i, k, l),
        # the planted piece shares the cube's faces x_k = 0 and x_l = 0 but
        # not its face x_i = 0, a triangle; so at mask m | 1 << i, beside a
        # cube at mask m, it disagrees with that neighbour alone.
        signs = sign_vectors(3)
        for i in range(3):
            k, l = (x for x in range(3) if x != i)
            gens = []
            for on in (k, l):
                g = [0, 0, 0]
                g[i] = g[on] = 1
                gens.append(tuple(g))
            planted = ab_hull(gens, 3).body
            for m in range(8):
                if m >> i & 1:
                    continue
                pieces = [unit_cube(3)] * 8
                pieces[m | 1 << i] = planted
                with pytest.raises(AssemblyError) as err:
                    OrthantAssembly(3, pieces)
                assert str(err.value) == (
                    f"projection mismatch between orthants {sign_string(signs[m])} and "
                    f"{sign_string(signs[m | 1 << i])} on the coordinates {(k, l)}")

    def test_non_downclosed_piece_rejected(self):
        # The constructor checks each piece through the piece type and names
        # the orthant of the one it refuses.
        segment = convex_hull([(1, 0), (0, 1)])
        with pytest.raises(ValueError, match="not down-closed"):
            AntiBlockingBody(segment)
        with pytest.raises(AssemblyError, match=r"^piece at \+- is not anti-blocking: polytope "
                                                r"is not down-closed"):
            OrthantAssembly(2, (origin(2), origin(2), segment, origin(2)))

    def test_equality_families_validate(self):
        assemble(3, equality_family(1, (1, 2, 3)).pieces)
        assemble(2, equality_family(2, (1, 1), beta1=2).pieces)

    def test_dimension_one_validates(self):
        a = assemble(1, [ab_hull([(2,)]).body, ab_hull([(F(1, 3),)]).body])
        assert a.hull == convex_hull([(F(-1, 3),), (2,)])
        assert a.piece_volume == volume(a.hull) == F(7, 3)


def flat_assembly_pieces():
    """A glued dim-2 assembly padded into R^3 with a zero third coordinate.

    Both signs of the third coordinate get the same piece, so the assembly
    lies in the coordinate plane spanned by e_1 and e_2.  Masks 4 to 7 are
    masks 0 to 3 with the third sign flipped.
    """
    glued = random_assembly("flat-pad", 2, "glued")
    return [convex_hull([v + (F(0),) for v in p.vertices], 3) for p in glued.pieces] * 2


class TestFlatAssembly:
    def test_validates_on_its_support(self):
        a = assemble(3, flat_assembly_pieces())
        assert a.piece_volume == 0
        assert volume(a.hull) == 0

    def test_changed_twin_rejected(self):
        # Replace one twin by a down-closed body with the same axis intervals
        # (its box, or its axis triangle when it is the box), so only the
        # comparison across the third coordinate can tell them apart.
        pieces = flat_assembly_pieces()
        twin = pieces[4]  # the orthant ++-
        x = max(v[0] for v in twin.vertices)
        y = max(v[1] for v in twin.vertices)
        box = ab_hull([(x, y, 0)]).body
        pieces[4] = box if box != twin else ab_hull([(x, 0, 0), (0, y, 0)]).body
        with pytest.raises(AssemblyError, match=r"projection mismatch .* \(0, 1\)"):
            assemble(3, pieces)


class TestFromUnconditional:
    def test_cube(self):
        a = from_unconditional(unit_cube(3))
        two_sided = convex_hull(list(itertools.product((-1, 1), repeat=3)), 3)
        assert a.hull == two_sided

    def test_volume_scales_by_orthant_count(self):
        k = random_ab_body(random.Random(1), 3)
        a = from_unconditional(k.body)
        assert a.piece_volume == 2**3 * volume(k.body)
        assert volume(a.hull) == a.piece_volume


# Rationals with mixed denominators for the rational generators.
coords = st.builds(F, st.integers(0, 4), st.sampled_from((1, 2, 3, 5)))
PIECE_KINDS = ("random", "random-flat", "cube", "simplex", "rational")


@st.composite
def integer_pieces(draw, n, full_dim):
    """The down-closure of 1 to 3 integer generators in [0, COORD_MAX]^n, and
    of one more with every coordinate at least 1 when ``full_dim``, so the
    polytope is full-dimensional then and possibly flat otherwise."""
    gens = draw(st.lists(st.tuples(*[st.integers(0, COORD_MAX)] * n), min_size=1, max_size=3))
    if full_dim:
        gens.append(draw(st.tuples(*[st.integers(1, COORD_MAX)] * n)))
    return ab_hull(gens, n).body


@st.composite
def unconditional_pieces(draw):
    """A down-closed piece in dimension 1 to 5: integer bodies (full or
    possibly flat), the unit cube, the standard simplex, or the down-closure of
    rational generators (possibly flat or the origin alone)."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(PIECE_KINDS))
    if kind.startswith("random"):
        return draw(integer_pieces(n, kind == "random"))
    if kind == "cube":
        return unit_cube(n)
    if kind == "simplex":
        return standard_simplex(n)
    return ab_hull(draw(st.lists(st.tuples(*[coords] * n), min_size=1, max_size=3)), n).body


class TestUnconditionalHull:
    """The hull of equal pieces is derived from the piece, not hulled."""

    @pytest.mark.usefixtures("strict_hull")
    @given(unconditional_pieces())
    @settings(max_examples=60, deadline=None)
    def test_derived_hull_data_match_the_engine(self, piece):
        n = piece.dim
        reflected = sorted({tuple(s * x for s, x in zip(sign, v))
                            for sign in sign_vectors(n) for v in piece.vertices})
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
        shifted = a.pieces[-1].translate((1,) * a.dim)
        with pytest.raises(ValueError, match="not down-closed"):
            AntiBlockingBody(shifted)
        # Every glued piece is full-dimensional, so from dimension 2 on an
        # orthant left to the origin disagrees with its neighbours.
        if kind == "glued" and a.dim >= 2:
            pieces = list(a.pieces)
            pieces[0] = origin(a.dim)
            with pytest.raises(AssemblyError, match="projection mismatch"):
                OrthantAssembly(a.dim, pieces)

    def test_assemble_takes_no_hull_of_the_body(self, monkeypatch):
        # The consistency check reads the pieces' memoized vertex lists, and
        # the body's hull is derived from their hull data: no hull at all.
        pieces = random_assembly("derived-count", 3, "glued").pieces
        dims = []
        real = geometry.hull_of_points

        def recording(points, dim):
            dims.append(dim)
            return real(points, dim)

        monkeypatch.setattr(geometry, "hull_of_points", recording)
        a = assemble(3, pieces)
        assert volume(a.hull) == a.piece_volume
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
        pieces = (ab_hull([(2, 2)]).body,) + (standard_simplex(2),) * 3
        with pytest.raises(AssemblyError, match="projection mismatch"):
            OrthantAssembly(2, pieces)
        reflected = {tuple(s * x for s, x in zip(sign, v))
                     for sign, piece in zip(sign_vectors(2), pieces) for v in piece.vertices}
        hull = convex_hull(reflected, 2)
        assert hull == convex_hull([(2, 2), (2, 0), (0, 2), (-1, 0), (0, -1)])
        with pytest.raises(AssemblyError, match="union of pieces is not convex"):
            assembly._check_convex_union(pieces, hull)

    def test_redundant_raw_piece_is_refused(self):
        # The raw piece lists (0, 1), which is no vertex of its hull, so it is
        # refused as a piece; its hull glues at every sign.
        raw = VPolytope(2, ((F(0), F(0)), (F(0), F(1)), (F(0), F(2)), (F(1), F(0))))
        with pytest.raises(AssemblyError, match=r"^piece at \+\+ is not anti-blocking: "
                                                r"vertex list holds \(0, 1\), which is no vertex"):
            OrthantAssembly(2, (raw,) * 4)
        pieces = (convex_hull(raw.vertices, 2),) * 4
        a = assemble(2, pieces)
        assert a == OrthantAssembly(2, pieces)
        assert a.hull == convex_hull([(1, 0), (0, 2), (-1, 0), (0, -2)])
        assert a.piece_volume == volume(a.hull) == 4


CONSISTENT_KINDS = ("glued", "negated", "flat", "equality", "unconditional")


@st.composite
def consistent_families(draw):
    """A piece family that agrees on its shared coordinate subspaces: a glued
    assembly in dimension 1 to 4 or its negation, the flat padded assembly,
    an equality family, or the reflections of one integer piece."""
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
    return from_unconditional(draw(integer_pieces(n, draw(st.booleans()))))


class TestConvexUnion:
    """Down-closed pieces that agree on their shared coordinate subspaces glue
    to a convex body (the proof is in ``assemble``), so the volume check that
    ``assemble`` runs only under strict checks never fails on them."""

    @pytest.mark.usefixtures("strict_hull")
    @given(consistent_families())
    @settings(max_examples=60, deadline=None)
    def test_consistent_pieces_glue_to_a_convex_body(self, a):
        assembly._check_convex_union(a.pieces, a.hull)
        reflected = sorted(assembly._reflected_vertices(a))
        assert a.piece_volume == hull_of_points(reflected, a.dim).volume


class TestEqualityFamily:
    def test_case1_unit_is_simplex(self):
        a = equality_family(1, (1, 1, 1))
        assert a.hull == standard_simplex(3)

    def test_case1_volume(self):
        a = equality_family(1, (2, 3))
        assert a.piece_volume == F(2 * 3, 2)

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
        a = from_unconditional(standard_simplex(2))
        assert a.piece_volume == 2

    @pytest.mark.usefixtures("strict_hull")
    def test_lab_volume_matches_hull(self, glued_bank):
        # A derived hull's volume is the piece sum by construction; rebuilt
        # under strict checks, each derived hull is compared with the engine's.
        for a in glued_bank[:10]:
            assert a.piece_volume == volume(OrthantAssembly(a.dim, a.pieces).hull)

    def test_lab_mixed_self_is_volume(self):
        a = random_assembly("self", 2, "glued")
        for j in range(3):
            assert lab_mixed(a, a, j) == a.piece_volume

    def test_lab_mixed_cross_polytope_symmetric(self):
        a = from_unconditional(standard_simplex(2))
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
                    volume(minkowski_sum(p, q)) for p, q in zip(a.pieces, b.pieces))
                assert direct == per_orthant


class TestSharedProjections:
    def test_full_quantifier_version(self, glued_bank):
        # Validation uses adjacent sign flips; the property it guarantees is
        # the full statement: equal projections for every sign pair agreeing
        # on the subspace, over every coordinate subspace.
        import itertools

        from cornervol import project

        for a in glued_bank[:4]:
            n = a.dim
            for r in range(n + 1):
                for idx in itertools.combinations(range(n), r):
                    groups = {}
                    for sign, piece in zip(sign_vectors(n), a.pieces):
                        key = tuple(sign[i] for i in idx)
                        groups.setdefault(key, []).append(project(piece, idx))
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
            face = [v[:i] + v[i + 1:] for v in hull_data(piece).vertices if not v[i]]
            if n == 1:
                assert face == [()]
            else:
                keep = tuple(k for k in range(n) if k != i)
                assert face == list(geometry.shadow(piece, keep).vertices)


class TestNegation:
    def test_unconditional_fixed(self):
        a = from_unconditional(unit_cube(2))
        assert negate_assembly(a) == a

    def test_case1_flips_orthant(self):
        a = equality_family(1, (2, 1))
        na = negate_assembly(a)
        assert na.hull == negate(a.hull)

    def test_involution_and_hull_identity(self, glued_bank):
        for a in glued_bank[:8]:
            na = negate_assembly(a)
            assert negate_assembly(na) == a
            assert na.hull == linear_map(a.hull, diagonal((-1,) * a.dim))


class TestOrthantOrder:
    """Pieces are stored by orthant mask: the m-th sign is -1 exactly at the
    set bits of m, so the opposite orthant is ~m and the neighbour along e_i
    is m ^ 1 << i."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bit_i_is_the_sign_of_coordinate_i(self, n):
        signs = sign_vectors(n)
        strings = [assembly.mask_to_str(m, n) for m in range(1 << n)]
        assert len(set(strings)) == len(signs) == 1 << n
        for m, sign in enumerate(signs):
            assert [m >> i & 1 for i in range(n)] == [int(s == -1) for s in sign]
            assert strings[m] == sign_string(sign)
            assert strings[~m] == sign_string(tuple(-s for s in sign))

    def test_pieces_are_stored_in_mask_order(self):
        # A file names each piece by its sign string, in any order; loaded,
        # the piece of sign string k sits at mask_from_str(k).
        a = random_assembly("order", 3, "glued")
        obj = assembly_to_obj(a)
        obj["pieces"] = dict(reversed(obj["pieces"].items()))
        loaded = assembly_from_obj(obj)
        assert loaded == a
        for key, raw in obj["pieces"].items():
            assert loaded.pieces[mask_from_str(key, 3)] == polytope_from_obj(raw)

    @pytest.mark.parametrize("kind", ["glued", "unconditional", "equality", "flat", "loaded"])
    def test_stored_pieces_build_the_assembly_again(self, kind):
        if kind == "glued":
            a = random_assembly("round-trip", 3, "glued")
        elif kind == "unconditional":
            a = random_assembly("round-trip", 3, "unconditional")
        elif kind == "equality":
            a = equality_family(2, (1, F(3, 2), 2), 1)
        elif kind == "flat":
            a = assemble(3, flat_assembly_pieces())
        else:
            # The file omits the orthant --, whose piece is the origin.
            obj = assembly_to_obj(equality_family(1, (1, 2)))
            del obj["pieces"]["--"]
            a = assembly_from_obj(obj)
            assert a == equality_family(1, (1, 2))
        assert OrthantAssembly(a.dim, a.pieces) == a
        # The opposite of mask m is ~m, which indexes the reversed tuple.
        assert negate_assembly(a).pieces == a.pieces[::-1]

    def test_orthant_split_is_lab_mixed_against_the_negation(self):
        for n in (1, 2, 3):
            a = random_assembly(f"order-split-{n}", n, "glued")
            na = negate_assembly(a)
            for j in range(n + 1):
                assert a.split_coeffs[j] / comb(n, j) == lab_mixed(a, na, j)


class TestGodbersen:
    def test_simplex_family_equality(self):
        a = equality_family(1, (1, 1, 1))
        rep = godbersen_check(a, 1)
        assert rep.mixed == F(1, 2)
        assert rep.bound == F(1, 2)
        assert rep.is_equality and not rep.trivial

    def test_cube_ratio_half(self):
        a = from_unconditional(unit_cube(2))
        rep = godbersen_check(a, 1)
        assert (rep.mixed, rep.bound, rep.ratio) == (4, 8, F(1, 2))

    def test_trivial_endpoints(self):
        a = from_unconditional(unit_cube(2))
        for j in (0, 2):
            rep = godbersen_check(a, j)
            assert rep.is_equality and rep.trivial

    def test_requires_full_dimension(self):
        a = assemble(2, [origin(2)] * 4)
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
        a = from_unconditional(unit_cube(2))
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
        # Every other j reads the same three polynomials.
        for j in range(a.dim + 1):
            assert proof_chain_audit(a, j).all_hold
        assert len(calls) == 4 + 1 + 4

    def test_exact_steps_on_random_assemblies(self, glued_bank):
        for a in glued_bank[:6]:
            for j in range(a.dim + 1):
                # proof_chain_audit raises if an exact step fails.
                assert proof_chain_audit(a, j).all_hold

    def test_failed_exact_step_raises(self, monkeypatch):
        a = random_assembly("failed-step", 2, "glued")
        real = assembly.mixed_volume_pair
        monkeypatch.setattr(assembly, "mixed_volume_pair", lambda k, t, j: real(k, t, j) + 1)
        with pytest.raises(EngineDisagreementError, match="exact audit step 'orthant-split'"):
            proof_chain_audit(a, 1)


class TestAssemblySums:
    """The j-independent sums an assembly keeps equal the per-pair sums they
    replace, at every j."""

    @staticmethod
    def assert_sums_match(a):
        n = a.dim
        piece = dict(zip(sign_vectors(n), a.pieces))
        opposite = {s: piece[tuple(-x for x in s)] for s in piece}
        assert a.piece_volume == sum(map(volume, piece.values()), F(0))
        for j in range(n + 1):
            split = sum((mixed_volume_pair(p, opposite[s], j) for s, p in piece.items()), F(0))
            relaxed = sum((mixed_volume_pair(p, negate(opposite[s]), j)
                           for s, p in piece.items()), F(0))
            assert a.split_coeffs[j] / comb(n, j) == split
            assert a.relaxed_coeffs[j] / comb(n, j) == relaxed
        denom = a.shadow_denom
        for size in range(n + 1):
            subsets = list(itertools.combinations(range(n), size))
            for p, table in zip(a.pieces, a.shadow_tables(size)):
                assert table == tuple(
                    factorial(size) * denom ** size * projected_volume(AntiBlockingBody(p), e)
                    for e in subsets)

    def test_glued_bank(self, glued_bank):
        for a in glued_bank:
            self.assert_sums_match(a)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unconditional_bodies(self, n):
        for seed in range(2):
            self.assert_sums_match(random_assembly(f"sums-{n}-{seed}", n, "unconditional"))

    def test_rational_pieces(self):
        a = equality_family(2, (1, F(3, 2), 1), 2)
        assert a.shadow_denom == 2
        self.assert_sums_match(a)

    def test_a_repeated_pair_is_looked_up_once(self, monkeypatch):
        # All 2^n orthants of an unconditional body hold the pair (P, P), and
        # its relaxed pairs are all (P, -P).
        looked_up = []
        real = assembly.volume_polynomial
        monkeypatch.setattr(assembly, "volume_polynomial",
                            lambda k, t: looked_up.append((k, t)) or real(k, t))
        a = random_assembly("sums-once", 3, "unconditional")
        p = a.pieces[0]
        assert a.split_coeffs == tuple(8 * c for c in real(p, p).coeffs)
        assert a.relaxed_coeffs == tuple(8 * c for c in real(p, negate(p)).coeffs)
        assert looked_up == [(p, p), (p, negate(p))]
        for j in range(a.dim + 1):
            godbersen_check(a, j)
            proof_chain_audit(a, j)
        assert len(looked_up) == 2


def fraction_opposite_mixed(k, kp, j):
    """``ab_opposite_mixed`` as a Fraction loop over ``projected_volume``."""
    n = k.dim
    total = F(0)
    for subset in itertools.combinations(range(n), j):
        rest = tuple(i for i in range(n) if i not in subset)
        total += projected_volume(k, subset) * projected_volume(kp, rest)
    return total / comb(n, j)


def fraction_audit(a, j):
    """``proof_chain_audit`` with every projection link summed in Fractions
    from ``projected_volume``: the oracle of the integer audit."""
    n = a.dim
    hull = a.hull
    signs = sign_vectors(n)
    piece = {s: AntiBlockingBody(p) for s, p in zip(signs, a.pieces)}  # by sign

    direct = mixed_volume_pair(hull, negate(hull), j)
    split_sum = sum(
        (mixed_volume_pair(piece[s].body, piece[tuple(-x for x in s)].body, j) for s in signs),
        F(0),
    )
    relaxed_sum = sum(
        (mixed_volume_pair(piece[s].body, negate(piece[tuple(-x for x in s)].body), j)
         for s in signs),
        F(0),
    )
    projection_sum = sum(
        (fraction_opposite_mixed(piece[s], piece[tuple(-x for x in s)], j) for s in signs),
        F(0),
    )
    choose = comb(n, j)
    reindexed_total = F(0)
    rs_bound = F(0)
    bijection_ok = rs_holds = True
    for subset in itertools.combinations(range(n), j):
        rest = tuple(i for i in range(n) if i not in subset)
        for tau in signs:
            sigma = tuple(t if i in subset else -t for i, t in enumerate(tau))
            term = projected_volume(piece[tau], subset) * projected_volume(piece[tau], rest)
            if term != (projected_volume(piece[sigma], subset)
                        * projected_volume(piece[tuple(-x for x in sigma)], rest)):
                bijection_ok = False
            cap = choose * volume(piece[tau].body)
            if term > cap:
                rs_holds = False
            reindexed_total += term
            rs_bound += cap
    reindexed = reindexed_total / choose
    rs_bound /= choose

    bound = comb(n, j) * a.piece_volume
    steps = (
        AuditStep("orthant-split", "==", direct, split_sum, direct == split_sum),
        AuditStep("opposite-orthant-relaxation", "<=", split_sum, relaxed_sum,
                  split_sum <= relaxed_sum),
        AuditStep("projection-split", "==", relaxed_sum, projection_sum,
                  relaxed_sum == projection_sum),
        AuditStep("reindex-bijection", "==", projection_sum, reindexed,
                  projection_sum == reindexed and bijection_ok),
        AuditStep("projection-product-bound", "<=", reindexed, rs_bound,
                  reindexed <= rs_bound and rs_holds),
        AuditStep("bound-identity", "==", rs_bound, bound, rs_bound == bound),
    )
    return ProofChainAudit(n, j, steps, bound, direct / bound)


def scaled(a, qs):
    """The assembly under the diagonal map diag(1/q_1, ..., 1/q_n), whose
    pieces get vertex denominators above 1 when some q_i is."""
    diag = [[F(1, q) if i == k else 0 for k in range(a.dim)] for i, q in enumerate(qs)]
    return assemble(a.dim, [linear_map(p, diag) for p in a.pieces])


AUDITED_KINDS = ("glued", "rational", "equality")


@st.composite
def audited_assemblies(draw):
    """A full-dimensional assembly in dimension 1 to 3: a glued one, a glued
    one with rational vertices (``scaled``), or an equality family with
    rational parameters, whose pieces are flat off the positive orthant."""
    kind = draw(st.sampled_from(AUDITED_KINDS))
    n = draw(st.integers(1, 3))
    if kind == "equality":
        alphas = draw(st.lists(coords.filter(bool), min_size=n, max_size=n))
        if draw(st.booleans()):
            return equality_family(1, alphas)
        return equality_family(2, alphas, draw(coords.filter(bool)))
    glued = random_assembly(f"audit-{draw(st.integers(0, 2**16))}", n, "glued")
    if kind == "glued":
        return glued
    return scaled(glued, draw(st.lists(st.sampled_from((1, 2, 3)), min_size=n, max_size=n)))


def assert_audit_matches_the_oracle(a):
    for j in range(a.dim + 1):
        assert proof_chain_audit(a, j) == fraction_audit(a, j)
        for p, q in zip(a.pieces, reversed(a.pieces)):
            p, q = AntiBlockingBody(p), AntiBlockingBody(q)
            assert ab_opposite_mixed(p, q, j) == fraction_opposite_mixed(p, q, j)


class TestIntegerAudit:
    """The projection links summed in one integer unit equal the Fraction
    sums over ``projected_volume``."""

    @pytest.mark.usefixtures("strict_hull")
    @given(audited_assemblies())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_fraction_oracle(self, a):
        assert_audit_matches_the_oracle(a)

    @pytest.mark.usefixtures("strict_hull")
    def test_matches_the_fraction_oracle_in_dimension_four(self):
        # Seconds under strict checks, so one glued body, with rational vertices.
        a = scaled(random_assembly("audit-d4-7", 4, "glued"), (1, 2, 1, 3))
        assert min(p.denom for p in a.pieces) > 1
        assert_audit_matches_the_oracle(a)

    def test_pieces_with_different_denominators(self):
        # Only the pieces on the + side of e_1 reach 3/2 e_1.
        a = equality_family(2, (1, F(3, 2), 1), 2)
        assert {p.denom for p in a.pieces} == {1, 2}
        assert_audit_matches_the_oracle(a)


class TestRandomAssembly:
    def test_deterministic(self):
        a = random_assembly(42, 3, "glued")
        b = random_assembly(42, 3, "glued")
        assert a == b

    def test_unconditional_is_symmetric(self):
        a = random_assembly(4, 3, "unconditional")
        assert negate_assembly(a) == a
        h = a.hull
        assert linear_map(h, diagonal((-1, 1, -1))) == h

    def test_glued_soundness_sweep(self):
        # Generator construction must satisfy validation every time; 200
        # samples, dimension 3 every fourth draw.
        for i in range(200):
            n = 3 if i % 4 == 0 else 2
            a = random_assembly(f"sweep-{i}", n, "glued")
            assert a.piece_volume == volume(a.hull)

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            random_assembly(0, 2, "bogus")
