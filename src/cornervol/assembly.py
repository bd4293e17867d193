"""Locally anti-blocking bodies as validated orthant assemblies.

A body of this class is stored as its family of orthant pieces, each kept in
positive-orthant coordinates; the geometric piece for a sign vector is the
reflection of the stored piece.  Validation enforces both the shared-projection
consistency between orthants and convexity of the glued union, so every
accepted assembly really is a convex body.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from .antiblocking import (
    AntiBlockingBody,
    ab_hull,
    ab_opposite_mixed,
    projected_volume,
    random_ab_body,
    validate_ab,
)
from .geometry import (
    VPolytope,
    convex_hull,
    negate,
    shadow,
    volume,
)
from .mixed import mixed_volume_pair

SignVector = tuple[int, ...]


class AssemblyError(ValueError):
    """Raised when a piece family does not glue to a convex body."""


class EngineDisagreementError(RuntimeError):
    """Two independent computation paths returned different exact values."""


def all_signs(n: int) -> list[SignVector]:
    return [s for s in itertools.product((1, -1), repeat=n)]


def _origin_piece(n: int) -> AntiBlockingBody:
    return AntiBlockingBody(VPolytope(n, ((Fraction(0),) * n,)))


@dataclass(frozen=True)
class OrthantAssembly:
    """Sign-indexed family of anti-blocking pieces forming a convex body."""

    dim: int
    pieces: tuple[tuple[SignVector, AntiBlockingBody], ...]

    @cached_property
    def piece_map(self) -> dict[SignVector, AntiBlockingBody]:
        return dict(self.pieces)

    def piece(self, sign: SignVector) -> AntiBlockingBody:
        return self.piece_map[tuple(sign)]

    @cached_property
    def hull(self) -> VPolytope:
        pts = set()
        for sign, piece in self.pieces:
            for v in piece.vertices:
                pts.add(tuple(x if s > 0 else -x for s, x in zip(sign, v)))
        return convex_hull(pts, self.dim)

    def is_full_dimensional(self) -> bool:
        return volume(self.hull) > 0


def _normalize_pieces(dim: int, pieces) -> tuple[tuple[SignVector, AntiBlockingBody], ...]:
    table: dict[SignVector, AntiBlockingBody] = {}
    for sign, piece in dict(pieces).items():
        sv = tuple(int(s) for s in sign)
        if len(sv) != dim or any(s not in (-1, 1) for s in sv):
            raise AssemblyError(f"bad sign vector {sign}")
        if piece.dim != dim:
            raise AssemblyError("piece dimension mismatch")
        table[sv] = piece
    filler = _origin_piece(dim)
    full = tuple((sv, table.get(sv, filler)) for sv in sorted(all_signs(dim)))
    return full


def _check_consistency(dim: int, piece_map: dict[SignVector, AntiBlockingBody]) -> None:
    # Shared projections between orthants: comparing each adjacent sign flip on
    # the full complementary subspace covers every subspace pair by projection
    # composition and transitivity.  In dimension 1 that subspace is {0}.
    if dim == 1:
        return
    for i in range(dim):
        keep = tuple(j for j in range(dim) if j != i)
        for sign in all_signs(dim):
            if sign[i] != 1:
                continue
            other = tuple(-s if j == i else s for j, s in enumerate(sign))
            if shadow(piece_map[sign].body, keep) != shadow(piece_map[other].body, keep):
                raise AssemblyError(
                    f"projection mismatch between orthants {sign_to_str(sign)} and "
                    f"{sign_to_str(other)} on the coordinates {keep}"
                )


def _check_convex_union(piece_map: dict[SignVector, AntiBlockingBody], hull: VPolytope) -> None:
    # The union of the pieces is convex iff it fills its own hull, which for
    # interior-disjoint pieces is an exact volume identity.  When the whole
    # assembly lies in a proper coordinate subspace the check runs there:
    # orthant signs on the vanishing coordinates are quotiented out, because
    # pieces differing only in those signs coincide.
    support = tuple(sorted({
        i
        for piece in piece_map.values()
        for v in piece.vertices
        for i, x in enumerate(v)
        if x != 0
    }))
    if not support:
        return
    # Pieces sharing a reduced sign have one shadow: _check_consistency compared each single-sign
    # flip on coordinates containing the support; in dimension 1 the two signs differ on it.
    reduced: dict[SignVector, AntiBlockingBody] = {}
    for sign, piece in piece_map.items():
        reduced.setdefault(tuple(sign[i] for i in support), piece)
    total = sum((volume(shadow(piece.body, support)) for piece in reduced.values()), Fraction(0))
    hull_vol = volume(shadow(hull, support))
    if total != hull_vol:
        raise AssemblyError(
            f"union of pieces is not convex: piece volumes sum to {total}, "
            f"their hull has volume {hull_vol}"
        )


def assemble(dim: int, pieces) -> OrthantAssembly:
    """Validate and build an assembly from a sign-to-piece mapping.

    Missing orthants default to the degenerate piece {0}.  Raises
    AssemblyError on a down-closure failure, a projection mismatch between
    orthants, or a non-convex union.
    """
    full = _normalize_pieces(dim, pieces)
    piece_map = dict(full)
    for sign, piece in full:
        if not validate_ab(piece.body):
            raise AssemblyError(f"piece at {sign_to_str(sign)} is not anti-blocking")
    _check_consistency(dim, piece_map)
    assembly = OrthantAssembly(dim, full)
    _check_convex_union(piece_map, assembly.hull)
    return assembly


def sign_to_str(sign: SignVector) -> str:
    return "".join("+" if s > 0 else "-" for s in sign)


def from_unconditional(k_plus: AntiBlockingBody) -> OrthantAssembly:
    """The sign-symmetric body whose every orthant piece equals the given one."""
    n = k_plus.dim
    return OrthantAssembly(n, tuple((sv, k_plus) for sv in sorted(all_signs(n))))


def equality_family(case: int, alphas, beta1=None) -> OrthantAssembly:
    """The two families of axis-aligned simplices attaining the mixed-volume bound.

    Case 1 is conv(0, a_1 e_1, ..., a_n e_n); case 2 is
    conv(a_1 e_1, -b_1 e_1, a_2 e_2, ..., a_n e_n).  Every orthant piece is the
    corresponding face, so the assemblies validate as-is.
    """
    alphas = tuple(Fraction(a) for a in alphas)
    n = len(alphas)
    if any(a <= 0 for a in alphas):
        raise ValueError("alphas must be positive")
    if case == 1:
        if beta1 is not None:
            raise ValueError("case 1 takes no beta")
        pieces = {}
        for sv in all_signs(n):
            pts = [(Fraction(0),) * n]
            for i in range(n):
                if sv[i] > 0:
                    pts.append(tuple(alphas[i] if j == i else Fraction(0) for j in range(n)))
            pieces[sv] = AntiBlockingBody(convex_hull(pts, n))
        return assemble(n, pieces)
    if case == 2:
        if beta1 is None or Fraction(beta1) <= 0:
            raise ValueError("case 2 needs a positive beta")
        b1 = Fraction(beta1)
        pieces = {}
        for sv in all_signs(n):
            first = alphas[0] if sv[0] > 0 else b1
            pts = [(Fraction(0),) * n,
                   tuple(first if j == 0 else Fraction(0) for j in range(n))]
            for i in range(1, n):
                if sv[i] > 0:
                    pts.append(tuple(alphas[i] if j == i else Fraction(0) for j in range(n)))
            pieces[sv] = AntiBlockingBody(convex_hull(pts, n))
        return assemble(n, pieces)
    raise ValueError("case must be 1 or 2")


def lab_volume(a: OrthantAssembly) -> Fraction:
    """Volume as the sum of the orthant piece volumes."""
    return sum((volume(piece.body) for _, piece in a.pieces), Fraction(0))


def lab_mixed(a: OrthantAssembly, b: OrthantAssembly, j: int) -> Fraction:
    """Mixed volume V(A[j], B[n-j]) summed orthant by orthant.

    Reflecting both bodies of a pair by the same signs leaves the mixed volume
    unchanged, so each orthant term is computed on the stored positive pieces.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if not 0 <= j <= a.dim:
        raise ValueError("copy count out of range")
    total = Fraction(0)
    for sign, piece in a.pieces:
        total += mixed_volume_pair(piece.body, b.piece(sign).body, j)
    return total


def negate_assembly(a: OrthantAssembly) -> OrthantAssembly:
    """Pointwise negation: the piece at each sign comes from the opposite sign."""
    flipped = tuple(
        (sv, a.piece(tuple(-s for s in sv)))
        for sv in sorted(all_signs(a.dim))
    )
    return OrthantAssembly(a.dim, flipped)


@dataclass(frozen=True)
class GodbersenReport:
    j: int
    mixed: Fraction      # V_n(K[j], -K[n-j])
    bound: Fraction      # C(n, j) * Vol(K)
    ratio: Fraction | None
    is_equality: bool
    trivial: bool        # j in {0, n}: equality holds for free


def godbersen_check(a: OrthantAssembly, j: int) -> GodbersenReport:
    """Compare V_n(K[j], -K[n-j]) against C(n, j) Vol(K) for the assembly.

    The mixed volume is computed twice, orthant-by-orthant and directly on the
    global hull; any discrepancy raises EngineDisagreementError.
    """
    n = a.dim
    if not 0 <= j <= n:
        raise ValueError("copy count out of range")
    if not a.is_full_dimensional():
        raise ValueError("assembly must be full-dimensional")
    via_orthants = lab_mixed(a, negate_assembly(a), j)
    hull = a.hull
    direct = mixed_volume_pair(hull, negate(hull), j)
    if via_orthants != direct:
        raise EngineDisagreementError(
            f"orthant-sum mixed volume {via_orthants} != direct {direct} at j={j}"
        )
    bound = comb(n, j) * lab_volume(a)
    ratio = direct / bound if bound > 0 else None
    return GodbersenReport(j, direct, bound, ratio, direct == bound, j in (0, n))


@dataclass(frozen=True)
class AuditStep:
    name: str
    relation: str  # "==" or "<="
    lhs: Fraction
    rhs: Fraction
    holds: bool

    @property
    def slack(self) -> Fraction:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class ProofChainAudit:
    dim: int
    j: int
    steps: tuple[AuditStep, ...]
    bound: Fraction
    ratio: Fraction

    @property
    def exact_steps_hold(self) -> bool:
        return all(s.holds for s in self.steps if s.relation == "==")

    @property
    def all_hold(self) -> bool:
        return all(s.holds for s in self.steps)


def proof_chain_audit(a: OrthantAssembly, j: int) -> ProofChainAudit:
    """Audit the inequality chain behind the orthant-decomposition bound.

    Recomputes each link with independent machinery: the orthant split and the
    subspace re-indexing bijection must hold exactly; the relaxation to
    same-orthant pairs and the per-orthant projection product bound are the
    only two places inequality may enter.  An exact link failing raises
    EngineDisagreementError.
    """
    n = a.dim
    if not 0 <= j <= n:
        raise ValueError("copy count out of range")
    if not a.is_full_dimensional():
        raise ValueError("assembly must be full-dimensional")
    hull = a.hull
    signs = all_signs(n)
    piece = a.piece_map

    direct = mixed_volume_pair(hull, negate(hull), j)
    split_sum = sum(
        (mixed_volume_pair(piece[s].body, piece[tuple(-x for x in s)].body, j)
         for s in signs),
        Fraction(0),
    )
    relaxed_sum = sum(
        (mixed_volume_pair(piece[s].body, negate(piece[tuple(-x for x in s)].body), j)
         for s in signs),
        Fraction(0),
    )
    # Same quantity through the projection-split formula instead of the engine.
    projection_sum = sum(
        (ab_opposite_mixed(piece[s], piece[tuple(-x for x in s)], j) for s in signs),
        Fraction(0),
    )

    # Re-index each subspace sum by the sign vector that matches the piece on
    # E and its opposite off E; the products must agree term by term, and
    # each must stay below C(n, j) times its piece's volume.
    choose = comb(n, j)
    reindexed_total = Fraction(0)
    rs_bound = Fraction(0)
    bijection_ok = rs_holds = True
    for subset in itertools.combinations(range(n), j):
        rest = tuple(i for i in range(n) if i not in subset)
        for tau in signs:
            sigma = tuple(
                t if i in subset else -t for i, t in enumerate(tau)
            )
            term = (
                projected_volume(piece[tau], subset)
                * projected_volume(piece[tau], rest)
            )
            if term != (
                projected_volume(piece[sigma], subset)
                * projected_volume(piece[tuple(-x for x in sigma)], rest)
            ):
                bijection_ok = False
            cap = choose * volume(piece[tau].body)
            if term > cap:
                rs_holds = False
            reindexed_total += term
            rs_bound += cap
    reindexed = reindexed_total / choose
    rs_bound /= choose

    bound = comb(n, j) * lab_volume(a)
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
    for s in steps:
        if s.relation == "==" and not s.holds:
            raise EngineDisagreementError(
                f"exact audit step '{s.name}' failed: {s.lhs} != {s.rhs}"
            )
    return ProofChainAudit(n, j, steps, bound, direct / bound)


class GenerationError(RuntimeError):
    pass


def random_assembly(seed, n: int, style: str = "unconditional",
                    generators: int | None = None, coord_max: int = 4) -> OrthantAssembly:
    """Deterministic random assembly of the requested style.

    "unconditional" reflects one random down-closed piece into every orthant;
    "glued" samples, for every generator slot and coordinate, one value per
    sign, which makes adjacent orthant projections agree by construction.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(f"assembly:{seed}")
    if style == "unconditional":
        return from_unconditional(random_ab_body(rng, n, generators, coord_max))
    if style != "glued":
        raise ValueError(f"unknown style {style!r}")
    k = generators if generators is not None else n
    for _ in range(64):
        per_sign = [
            [
                {1: rng.randint(0, coord_max), -1: rng.randint(0, coord_max)}
                for _ in range(n)
            ]
            for _ in range(k)
        ]
        # One generator kept positive everywhere so each orthant piece is full-dim.
        anchor = [
            {1: rng.randint(1, coord_max), -1: rng.randint(1, coord_max)}
            for _ in range(n)
        ]
        per_sign.append(anchor)
        pieces = {}
        for sv in all_signs(n):
            gens = [tuple(Fraction(slot[i][sv[i]]) for i in range(n)) for slot in per_sign]
            pieces[sv] = ab_hull(gens, n)
        try:
            return assemble(n, pieces)
        except AssemblyError:
            continue
    raise GenerationError("failed to generate a valid glued assembly")
