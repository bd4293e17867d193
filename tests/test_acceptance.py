"""Acceptance suite: one test per criterion, one printed verdict line each.

Every check is an exact identity or a strict/equal comparison of rationals;
there are no tolerances anywhere.  The shared instance banks come from
conftest and are deterministic, so reruns verify the same instances.
"""

import itertools
import random
from fractions import Fraction as F
from math import comb, factorial

from cornervol import (
    AlignedSimplex,
    AntiBlockingBody,
    ab_join_volume,
    ab_opposite_mixed,
    corollary_mixed_volume,
    equality_family,
    from_unconditional,
    fubini_sum_volume,
    godbersen_check,
    godbersen_equality_values,
    join_hull,
    lab_mixed,
    lemma_mixed_volume,
    minkowski_sum,
    mixed_volume_pair,
    negate,
    negate_assembly,
    proof_chain_audit,
    random_assembly,
    standard_simplex,
    sum_decomposition_check,
    unit_cube,
    volume,
)
from cornervol.cli import main
from cornervol.geometry import VPolytope, convex_hull


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def aligned_polytope(alphas) -> VPolytope:
    return AlignedSimplex(alphas).to_polytope()


def test_criterion_01_lemma_vs_engine():
    checked = 0
    ok = True
    d3 = standard_simplex(3)
    for alphas in itertools.product(range(4), repeat=3):
        s = AlignedSimplex(alphas)
        p = s.to_polytope()
        for j in range(4):
            ok = ok and lemma_mixed_volume(s, j) == mixed_volume_pair(p, d3, j)
            checked += 1
    rng = random.Random("criterion-1")
    d4 = standard_simplex(4)
    for _ in range(50):
        s = AlignedSimplex([rng.randint(0, 5) for _ in range(4)])
        p = s.to_polytope()
        for j in range(5):
            ok = ok and lemma_mixed_volume(s, j) == mixed_volume_pair(p, d4, j)
            checked += 1
    verdict(1, ok, f"aligned-simplex closed form == Cayley engine ({checked} checks)")


def test_criterion_02_corollary_vs_engine():
    rng = random.Random("criterion-2")
    checked = 0
    ok = True
    for trial in range(100):
        n = (2, 3, 4)[trial % 3]
        alphas = [rng.randint(0, 4) for _ in range(n)]
        betas = [rng.randint(0, 4) for _ in range(n)]
        s, t = AlignedSimplex(alphas), AlignedSimplex(betas)
        ps, pt = s.to_polytope(), t.to_polytope()
        for j in range(n + 1):
            ok = ok and corollary_mixed_volume(s, t, j) == mixed_volume_pair(ps, pt, j)
            checked += 1
    verdict(2, ok, f"two-simplex closed form == Cayley engine ({checked} checks, zeros included)")


def test_criterion_03_projection_split_formula(ab_pair_bank):
    checked = 0
    ok = True
    for n, k, kp in ab_pair_bank:
        for j in range(n + 1):
            ok = ok and ab_opposite_mixed(k, kp, j) == mixed_volume_pair(
                k.body, negate(kp.body), j
            )
            checked += 1
    verdict(3, ok, f"projection-split mixed volumes == Cayley engine on "
                   f"{len(ab_pair_bank)} pairs ({checked} checks)")


def test_criterion_04_join_volume_formula(ab_pair_bank):
    ok = True
    for n, k, kp in ab_pair_bank:
        ok = ok and ab_join_volume(k, kp) == volume(join_hull(k.body, negate(kp.body)))
    verdict(4, ok, f"join-volume sum == direct hull volume on {len(ab_pair_bank)} pairs")


def test_criterion_05_orthant_decompositions(unconditional_bank, glued_bank):
    checked = 0
    ok = True
    for a in unconditional_bank + glued_bank:
        ok = ok and a.piece_volume == volume(a.hull)
        checked += 1
        neg = negate_assembly(a)
        h = a.hull
        nh = negate(h)
        for j in range(a.dim + 1):
            ok = ok and lab_mixed(a, neg, j) == mixed_volume_pair(h, nh, j)
            checked += 1
    # Distinct-body pairs exercise the two-argument identity directly.
    by_dim: dict[int, list] = {}
    for a in glued_bank:
        by_dim.setdefault(a.dim, []).append(a)
    for dim, group in by_dim.items():
        for a, b in zip(group[0::2], group[1::2]):
            ha, hb = a.hull, b.hull
            for j in range(dim + 1):
                ok = ok and lab_mixed(a, b, j) == mixed_volume_pair(ha, hb, j)
                checked += 1
    verdict(5, ok, f"orthant-decomposed volumes and mixed volumes == hull computations "
                   f"({len(unconditional_bank)} unconditional + {len(glued_bank)} glued, "
                   f"{checked} checks)")


def _distinct_full_dim_glued(count: int, dims=(2, 3)) -> list:
    out = []
    idx = 0
    while len(out) < count:
        n = dims[len(out) % len(dims)]
        a = random_assembly(f"catalogue-{idx}", n, "glued")
        idx += 1
        full_pieces = {piece for piece in a.pieces if volume(piece) > 0}
        if len(full_pieces) < 2:
            continue
        if len(a.hull.vertices) <= n + 1:
            continue  # could be a simplex; the catalogue must avoid them
        out.append(a)
    return out


def test_criterion_06_inequality_and_equality_cases(
    unconditional_bank, glued_bank, extra_assembly_bank
):
    sweep = unconditional_bank + glued_bank + extra_assembly_bank
    assert len(sweep) >= 200
    ok = True
    worst = F(0)
    for a in sweep:
        for j in range(a.dim + 1):
            rep = godbersen_check(a, j)
            ok = ok and rep.ratio is not None and rep.ratio <= 1
            worst = max(worst, rep.ratio)
    rng = random.Random("criterion-6-families")
    equal_ok = True
    for trial in range(20):
        n = (2, 3, 4)[trial % 3]
        alphas = [F(rng.randint(1, 8), rng.choice((1, 2))) for _ in range(n)]
        if trial % 2 == 0:
            fam = equality_family(1, alphas)
        else:
            fam = equality_family(2, alphas, beta1=F(rng.randint(1, 8), rng.choice((1, 2))))
        for j in range(1, n):
            equal_ok = equal_ok and godbersen_check(fam, j).is_equality
    strict_ok = True
    catalogue = [
        from_unconditional(unit_cube(n)) for n in (2, 3)
    ] + [
        from_unconditional(standard_simplex(n)) for n in (2, 3)
    ] + _distinct_full_dim_glued(20)
    for a in catalogue:
        for j in range(1, a.dim):
            rep = godbersen_check(a, j)
            strict_ok = strict_ok and rep.ratio < 1
    ok_all = ok and equal_ok and strict_ok
    verdict(6, ok_all,
            f"bound holds on {len(sweep)} assemblies (max ratio {worst}); "
            f"equality families tight; catalogue of {len(catalogue)} non-simplices strict")


def test_criterion_07_simplex_equality_values():
    ok = True
    for n in (2, 3, 4, 5):
        d = standard_simplex(n)
        ab = AntiBlockingBody(d)
        for j in range(n + 1):
            expected = F(comb(n, j), factorial(n))
            via_projection = ab_opposite_mixed(ab, ab, j)
            via_engine = mixed_volume_pair(d, negate(d), j)
            ok = ok and via_projection == expected == via_engine
            ok = ok and expected == comb(n, j) * volume(d)
    verdict(7, ok, "unit-simplex mixed volumes against the negation equal C(n,j)/n! "
                   "for n = 2..5, both computation paths")


def test_criterion_08_reverse_kleitman(ab_pair_bank):
    checked = 0
    ok = True
    for n, k, t in ab_pair_bank:
        for j in range(n + 1):
            ok = ok and mixed_volume_pair(k.body, t.body, j) <= mixed_volume_pair(
                k.body, negate(t.body), j)
            checked += 1
    verdict(8, ok, f"same-orthant <= opposite-orthant mixed volumes on "
                   f"{len(ab_pair_bank)} pairs ({checked} checks)")


def test_criterion_09_proof_chain(unconditional_bank, glued_bank):
    ok = True
    audited = 0
    for a in unconditional_bank + glued_bank:
        for j in range(a.dim + 1):
            audit = proof_chain_audit(a, j)  # raises if an exact step fails
            ok = ok and audit.all_hold
            audited += 1
    rng = random.Random("criterion-9-gap")
    gap_ok = True
    for _ in range(30):
        k = rng.choice([2, 3, 4])
        alphas = [F(rng.randint(1, 9), rng.choice((1, 2, 3))) for _ in range(k)]
        for j in range(1, k):
            lo, hi = godbersen_equality_values(alphas, j)
            gap_ok = gap_ok and hi > lo
    verdict(9, ok and gap_ok,
            f"exact chain steps hold in {audited} audits; strictness gap positive "
            f"for k in 2..4")


def test_criterion_10_slice_recursion_and_decomposition():
    ok = True
    checked = 0
    for n in (2, 3, 4):
        dn = standard_simplex(n)
        for k in range(1, n):
            for alphas in itertools.product(range(4), repeat=k):
                pts = [(F(0),) * n]
                for i, a in enumerate(alphas):
                    pts.append(tuple(F(a) if col == n - k + i else F(0) for col in range(n)))
                k_sub = convex_hull(pts, n)
                direct = volume(minkowski_sum(dn, k_sub))
                ok = ok and fubini_sum_volume(n, k_sub, k=k) == direct
                checked += 1
    for n in (2, 3, 4):
        for alphas in itertools.combinations_with_replacement(range(4), n):
            lhs, rhs = sum_decomposition_check(AlignedSimplex(alphas))
            ok = ok and lhs == rhs
            checked += 1
    verdict(10, ok, f"slice recursion and last-axis decomposition match hull volumes "
                    f"({checked} cases)")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    specs = [
        ["godbersen", "--trials", "6", "--dim", "2", "--seed", "11", "--style", "mixed"],
        ["godbersen", "--trials", "2", "--dim", "3", "--seed", "3", "--format", "csv"],
        ["godbersen", "--family", "equality-2", "--trials", "3", "--dim", "2", "--seed", "4"],
        ["gen", "--style", "glued", "--dim", "3", "--seed", "8"],
    ]
    ok = True
    for i, argv in enumerate(specs):
        a = tmp_path / f"run-{i}-a.out"
        b = tmp_path / f"run-{i}-b.out"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    verdict(11, ok, f"{len(specs)} seeded CLI runs reproduce byte-identical reports")
