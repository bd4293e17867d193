"""Locally anti-blocking bodies as validated orthant assemblies.

A body of this class is stored as its family of orthant pieces, each kept in
positive-orthant coordinates; the geometric piece for a sign vector is the
reflection of the stored piece.  Every piece is down-closed by type
(``AntiBlockingBody``), and the ``OrthantAssembly`` constructor enforces the
shared-projection consistency between orthants, from which convexity of the
glued union follows (``assemble``), so every assembly really is a convex body.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, lcm

from . import geometry
from . import hull as _hull
from .antiblocking import (
    COORD_MAX,
    AntiBlockingBody,
    ab_hull,
    ab_opposite_mixed,
    projected_volume,
    random_ab_body,
)
from .geometry import (
    VPolytope,
    convex_hull,
    hull_data,
    negate,
    shadow,
    volume,
)
from .hull import HullData
from .mixed import mixed_volume_pair

SignVector = tuple[int, ...]


class AssemblyError(ValueError):
    """Raised when a piece family does not glue to a convex body."""


class EngineDisagreementError(RuntimeError):
    """Two independent computation paths returned different exact values."""


def all_signs(n: int) -> list[SignVector]:
    return [s for s in itertools.product((1, -1), repeat=n)]


@dataclass(frozen=True)
class OrthantAssembly:
    """Sign-indexed family of anti-blocking pieces forming a convex body.

    ``pieces`` may be given as a mapping or a sequence of (sign, piece)
    pairs; the constructor fills every missing orthant with the degenerate
    piece {0}, stores the pairs sorted by sign, and raises AssemblyError
    unless the pieces agree on their shared coordinate subspaces
    (``_check_consistency``).  Every piece is down-closed by type, so every
    assembly is a convex body (the proof is in ``assemble``).
    """

    dim: int
    pieces: tuple[tuple[SignVector, AntiBlockingBody], ...]

    def __post_init__(self):
        table: dict[SignVector, AntiBlockingBody] = {}
        for sign, piece in dict(self.pieces).items():
            sv = tuple(int(s) for s in sign)
            if len(sv) != self.dim or any(s not in (-1, 1) for s in sv):
                raise AssemblyError(f"bad sign vector {sign}")
            if piece.dim != self.dim:
                raise AssemblyError("piece dimension mismatch")
            table[sv] = piece
        missing = [sv for sv in all_signs(self.dim) if sv not in table]
        if missing:
            filler = AntiBlockingBody(VPolytope(self.dim, ((Fraction(0),) * self.dim,)))
            table.update((sv, filler) for sv in missing)
        object.__setattr__(self, "pieces", tuple(sorted(table.items())))
        _check_consistency(self.dim, table)

    @cached_property
    def piece_map(self) -> dict[SignVector, AntiBlockingBody]:
        return dict(self.pieces)

    def piece(self, sign: SignVector) -> AntiBlockingBody:
        return self.piece_map[tuple(sign)]

    @cached_property
    def hull(self) -> VPolytope:
        """The convex body K: the union of the reflected pieces s.P_s.

        When every (down-closed) piece is full-dimensional, or all pieces
        are equal (flat ones too), K and its hull data are derived from the
        pieces' memoized hull data with no hull taken (``_derived_hull``);
        any other assembly goes through the hull engine over every vertex.

        Facets.  A full-dimensional down-closed piece P_s is cut out of the
        orthant by its facets a.x <= b with a >= 0 (Fulkerson 1971).  The
        union of the pieces is convex (the proof is in ``assemble``), so it
        is K, and K meets each closed orthant s in exactly s.P_s, since
        another piece meets that orthant only in a section it shares with
        P_s.  Such a facet is not a coordinate facet, so near a point of its
        relative interior off every coordinate hyperplane K is s.P_s, which
        lies on one side of the plane (s.a).x = b; the plane therefore
        supports the convex K, and it meets K in that (n-1)-dimensional
        facet.  Every facet of K meets some orthant in a facet of that
        piece, which is not a coordinate facet because every piece is
        full-dimensional.  So K's facets are exactly the reflected
        nonnegative-normal facets of the pieces.  Equal pieces, flat ones
        too, give K = {x : |x| in P}; P's coordinate facets lie inside K,
        where two orthant pieces meet, and drop out.

        Vertices.  Every vertex of K is s.w for a vertex w of P_s, and s can
        be taken +1 off supp(w), since the point lies in all those orthants;
        each reflected point is enumerated once that way.  Say w is covered
        along k when the piece has a vertex w + c e_k, c > 0 (equivalently
        it contains such a point: masking x_k in a convex combination of
        vertices giving w + c e_k yields the vertex w, so every vertex used
        is w + c_i e_k).  s.w is dropped exactly when some k outside supp(w)
        covers w in both P_s and P_(s^k), s^k being s with its k-th sign
        flipped; then s.w +- c e_k lie in K.  Otherwise s.w is a vertex.
        Proof: let T = supp(w).  K's section on R^T equals its projection
        there (the pieces are down-closed), and near s.w_T it is the section
        of s.P_s, of which w_T is a vertex; so s.w_T is a vertex of the
        projection.  The fibre of K over it is a locally anti-blocking body
        in the other coordinates, and 0 is extreme in such a body unless it
        contains +-c e_k for some k: a segment through 0 has an end x and
        an end -t x, and masking both to one k in supp(x) keeps them in the
        body.  Its points c e_k and -c e_k are w + c e_k in P_s and in
        P_(s^k), which exist exactly when w is covered along k there.  A
        point extreme in its fibre over a vertex of the projection is
        extreme in K.

        Volume is the sum of the pieces' volumes; rank and pivots are the
        pieces' (n and every coordinate unless all pieces are one flat P).
        Under ``hull.strict_checks`` the derived data are compared with the
        engine's hull of every reflected vertex.
        """
        return _derived_hull(self) or convex_hull(_reflected_vertices(self), self.dim)

    def is_full_dimensional(self) -> bool:
        return volume(self.hull) > 0


def _reflected_vertices(a: OrthantAssembly) -> set[tuple]:
    """Every vertex of every piece, reflected into its orthant."""
    return {tuple(x if s > 0 else -x for s, x in zip(sign, v))
            for sign, piece in a.pieces for v in piece.vertices}


def _mask(v) -> int:
    """Bit i set for each nonzero coordinate i."""
    return sum(1 << i for i, x in enumerate(v) if x)


def _derived_hull(a: OrthantAssembly) -> VPolytope | None:
    """K with its ``HullData`` read off the pieces', or None for the engine.

    The rule and its proofs are in ``OrthantAssembly.hull``.  Signs are bit
    masks of their negative coordinates.  Points and offsets are integers
    over the lcm of the pieces' vertex denominators, and K's offsets move to
    the lcm of its own.  The result seeds ``geometry._hull_cache``.
    """
    n = a.dim
    data = {piece.body: hull_data(piece.body) for _, piece in a.pieces}
    equal = len(data) == 1
    if not equal and any(d.rank < n for d in data.values()):
        return None  # some piece is flat
    scaled = {p: _hull._scale_to_int(d.vertices) for p, d in data.items()}
    denom = lcm(*(d_p for _, d_p in scaled.values()))
    # Per piece: its vertices over denom with their support masks; its
    # nonnegative-normal facets with offsets over denom and support masks in
    # R^n; and covered[w], whose bit k says a vertex w + c e_k, c > 0, exists.
    # frac maps a coordinate over denom to its Fraction.
    verts, facets, covered, frac = {}, {}, {}, {}
    for p, d in data.items():
        ws, d_p = scaled[p]
        up = denom // d_p
        ws = [tuple(x * up for x in w) for w in ws] if up > 1 else ws
        verts[p] = [(w, _mask(w)) for w in ws]
        for w, v in zip(ws, d.vertices):
            frac.update(zip(w, v))
        facets[p] = [(c, b * up, sum(1 << d.pivots[i] for i, x in enumerate(c) if x))
                     for c, b in d.facets if min(c) >= 0]
        cov = covered[p] = {}
        for u in ws:
            for k, x in enumerate(u):
                if x:
                    w = u[:k] + (0,) + u[k + 1:]
                    cov[w] = cov.get(w, 0) | 1 << k
    at = {_mask([s < 0 for s in sign]): piece.body for sign, piece in a.pieces}
    kept, planes = [], set()
    for neg, p in at.items():
        flip = [neg >> i & 1 for i in range(n)]
        pivots = data[p].pivots
        for c, b, supp in facets[p]:
            # Equal pieces give each reflection once, from the sign + off supp(c).
            if not (equal and neg & ~supp):
                planes.add((tuple([-x if flip[i] else x for i, x in zip(pivots, c)]), b))
        cov = covered[p]
        for w, supp in verts[p]:
            if neg & ~supp:
                continue  # enumerated from the sign that is + off supp(w)
            bits = cov.get(w, 0)
            if bits and (equal or any(
                    bits >> k & 1 and covered[at[neg | 1 << k]].get(w, 0) >> k & 1
                    for k in range(n))):
                continue
            kept.append(tuple([-x if f else x for f, x in zip(flip, w)]))
    kept.sort()
    for c in list(frac):
        frac.setdefault(-c, -frac[c])
    body = VPolytope(n, tuple(tuple([frac[c] for c in w]) for w in kept))
    d_k = body._key[1]
    first = data[a.pieces[0][1].body]
    derived = HullData(
        n, first.rank, body.vertices,
        sum((data[piece.body].volume for _, piece in a.pieces), Fraction(0)),
        first.pivots, tuple(sorted((c, b * d_k // denom) for c, b in planes)))
    if _hull.strict_checks:
        engine = _hull.hull_of_points(_reflected_vertices(a), n)
        if derived != engine:
            raise AssertionError(f"hull data derived from the pieces {derived} differ "
                                 f"from the engine's {engine}")
    geometry._hull_cache[body] = derived
    return body


def _check_consistency(dim: int, piece_map: dict[SignVector, AntiBlockingBody]) -> None:
    """Raise AssemblyError unless every adjacent pair of pieces agrees along e_i.

    The projection of a down-closed piece along e_i is its face x_i = 0,
    whose vertices are the piece's vertices with x_i = 0; so two pieces
    agree there exactly when those vertex lists do.  They are read off the
    memoized hull, since a raw piece may list redundant points.  Comparing
    each single-sign flip on the complementary subspace covers every
    subspace pair by projection composition and transitivity.
    """
    for i in range(dim):
        for sign in all_signs(dim):
            if sign[i] != 1:
                continue
            other = sign[:i] + (-1,) + sign[i + 1:]
            p, q = piece_map[sign].body, piece_map[other].body
            if p is not q and ([v for v in hull_data(p).vertices if not v[i]]
                               != [v for v in hull_data(q).vertices if not v[i]]):
                keep = tuple(j for j in range(dim) if j != i)
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
    """Build an assembly from a sign-to-piece mapping, and under
    ``hull.strict_checks`` compare its union with its hull by volume.

    The constructor fills missing orthants with {0} and raises
    AssemblyError unless the pieces agree on their shared coordinate
    subspaces.  Down-closed pieces that agree there always glue to a convex
    body.  At a point p of the union, a short step e from p into another
    piece s'.P_s' keeps every facet (s.a).x <= b of s.P_s active at p: p
    vanishes on the coordinates E where s and s' differ, so with a >= 0 the
    masking m of e off E has (s.a).e <= (s.a).m, and p + m lies in the
    section of s'.P_s' off E, which the pieces share, so (s.a).m <= 0.  The
    union is thus locally convex, hence convex (Tietze-Nakajima).
    ``_check_convex_union`` is the oracle for this argument.
    """
    assembly = OrthantAssembly(dim, pieces)
    if _hull.strict_checks:
        _check_convex_union(assembly.piece_map, assembly.hull)
    return assembly


def sign_to_str(sign: SignVector) -> str:
    return "".join("+" if s > 0 else "-" for s in sign)


def from_unconditional(k_plus: AntiBlockingBody) -> OrthantAssembly:
    """The sign-symmetric body whose every orthant piece equals the given one."""
    n = k_plus.dim
    return OrthantAssembly(n, [(sv, k_plus) for sv in all_signs(n)])


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
    return OrthantAssembly(a.dim, [(sv, a.piece(tuple(-s for s in sv))) for sv, _ in a.pieces])


def _orthant_split(a: OrthantAssembly, j: int) -> Fraction:
    """V(K[j], -K[n-j]) orthant by orthant: the sum over s of V(P_s[j], P_-s[n-j]).

    ``lab_mixed(a, negate_assembly(a), j)`` without building -K's assembly.
    """
    piece = a.piece_map
    return sum((mixed_volume_pair(p.body, piece[tuple(-x for x in s)].body, j)
                for s, p in a.pieces), Fraction(0))


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
    via_orthants = _orthant_split(a, j)
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
    split_sum = _orthant_split(a, j)
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


def random_assembly(seed, n: int, style: str = "unconditional") -> OrthantAssembly:
    """Deterministic random assembly of the requested style.

    "unconditional" reflects one random down-closed piece into every orthant;
    "glued" samples, for each of n generator slots and every coordinate, one
    value per sign in [0, COORD_MAX] (in [1, COORD_MAX] for one more, anchor
    slot), which makes adjacent orthant projections agree by construction.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(f"assembly:{seed}")
    if style == "unconditional":
        return from_unconditional(random_ab_body(rng, n))
    if style != "glued":
        raise ValueError(f"unknown style {style!r}")
    per_sign = [
        [
            {1: rng.randint(0, COORD_MAX), -1: rng.randint(0, COORD_MAX)}
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    # One generator kept positive everywhere so each orthant piece is full-dim.
    anchor = [
        {1: rng.randint(1, COORD_MAX), -1: rng.randint(1, COORD_MAX)}
        for _ in range(n)
    ]
    per_sign.append(anchor)
    pieces = {}
    for sv in all_signs(n):
        gens = [tuple(Fraction(slot[i][sv[i]]) for i in range(n)) for slot in per_sign]
        pieces[sv] = ab_hull(gens, n)
    try:
        return assemble(n, pieces)
    except AssemblyError as exc:
        # The pieces agree on their shared subspaces by construction.
        raise RuntimeError(f"generated assembly failed validation: {exc}") from exc
