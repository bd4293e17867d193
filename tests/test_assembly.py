"""Orthant assemblies: validation, decompositions, the inequality and its audit."""

import random
from fractions import Fraction as F

import pytest

from cornervol import (
    AntiBlockingBody,
    AssemblyError,
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
    proof_chain_audit,
    random_assembly,
    reflect,
    standard_simplex,
    unit_cube,
    volume,
)


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
        bad = AntiBlockingBody(convex_hull([(1, 0), (0, 1)]))  # not down-closed
        with pytest.raises(AssemblyError, match="anti-blocking"):
            assemble(2, {sv: bad for sv in all_signs(2)})

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

    def test_lab_volume_matches_hull(self, glued_bank):
        for a in glued_bank[:10]:
            assert lab_volume(a) == volume(a.hull)

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
