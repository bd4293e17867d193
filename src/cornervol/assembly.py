"""Locally anti-blocking bodies as validated orthant assemblies.

A body of this class is stored as one polytope per orthant mask m, each kept
in positive-orthant coordinates; the geometric piece in orthant m is the
stored piece with its coordinates at the set bits of m negated.  An orthant
is named by its mask alone, and in text by its sign string (``mask_to_str``).
The ``OrthantAssembly`` constructor takes that tuple as it stores it, checks
each piece through ``AntiBlockingBody``, the one home of the down-closure
check, and enforces the shared-projection consistency between orthants, from
which convexity of the glued union follows (``assemble``), so every assembly
really is a convex body.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, lcm

from . import hull as _hull
from .antiblocking import (
    COORD_MAX,
    AntiBlockingBody,
    ab_hull,
    normalized_shadow_volumes,
    random_ab_body,
)
from .geometry import (
    VPolytope,
    cap_dim,
    convex_hull,
    hull_data,
    negate,
    shadow,
    store_hull_data,
    volume,
)
from .hull import HullData
from .mixed import mixed_volume_pair, volume_polynomial
from .simplex import AlignedSimplex


class AssemblyError(ValueError):
    """Raised when a piece family does not glue to a convex body."""


class EngineDisagreementError(RuntimeError):
    """Two independent computation paths returned different exact values."""


def mask_to_str(m: int, n: int) -> str:
    """The sign string of orthant mask m in dimension n: "-" at the set bits
    of m, "+" elsewhere (``io.mask_from_str`` reads it back)."""
    return "".join("-" if m >> i & 1 else "+" for i in range(n))


@dataclass(frozen=True)
class OrthantAssembly:
    """Mask-indexed family of anti-blocking pieces forming a convex body.

    ``pieces`` holds 2^dim ``VPolytope``s by orthant mask: ``pieces[m]`` is
    the piece, in positive-orthant coordinates, of the orthant that is
    negative at the set bits of m, whose sign string is ``mask_to_str(m,
    dim)``.  So the opposite of ``pieces[m]`` is ``pieces[~m]`` and its
    neighbour along e_i is ``pieces[m ^ 1 << i]``.  The constructor raises
    AssemblyError on a wrong count or a piece of another dimension, on a
    piece that is not down-closed (each distinct piece goes once through
    ``AntiBlockingBody``, whose witness the message carries), and unless the
    pieces agree on their shared coordinate subspaces
    (``_check_consistency``).  So every assembly is a convex body (the proof
    is in ``assemble``), and every piece is canonical, since validation
    hulls it (``hull_data``).
    """

    dim: int
    pieces: tuple[VPolytope, ...]

    def __post_init__(self):
        count = 1 << cap_dim(self.dim)
        pieces = tuple(self.pieces)
        if len(pieces) != count:
            raise AssemblyError(f"need {count} pieces by orthant mask, got {len(pieces)}")
        checked = set()
        for m, piece in enumerate(pieces):
            if not isinstance(piece, VPolytope) or piece.dim != self.dim:
                raise AssemblyError(f"piece at {mask_to_str(m, self.dim)} is no polytope of "
                                    f"dimension {self.dim}")
            if piece not in checked:
                try:
                    AntiBlockingBody(piece)
                except ValueError as exc:
                    raise AssemblyError(f"piece at {mask_to_str(m, self.dim)} is not "
                                        f"anti-blocking: {exc}") from exc
                checked.add(piece)
        object.__setattr__(self, "pieces", pieces)
        _check_consistency(self.dim, pieces)

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
        return _derived_hull(self) or convex_hull(set(_reflected_vertices(self)), self.dim)

    def is_full_dimensional(self) -> bool:
        return volume(self.hull) > 0

    # The values below do not depend on j, so each is computed on first use
    # and kept, like ``hull``: every check of one assembly reads its j-th entry.

    @cached_property
    def split_coeffs(self) -> tuple[Fraction, ...]:
        """Entry j is C(n, j) V(K[j], -K[n-j]) by the orthant split: the
        coefficient-wise sum over masks m of ``volume_polynomial(P_m, P_~m)``."""
        return _summed_coeffs((p, self.pieces[~m]) for m, p in enumerate(self.pieces))

    @cached_property
    def relaxed_coeffs(self) -> tuple[Fraction, ...]:
        """The same sum over the relaxed pairs (P_m, -P_~m)."""
        return _summed_coeffs((p, negate(self.pieces[~m])) for m, p in enumerate(self.pieces))

    @cached_property
    def piece_volume(self) -> Fraction:
        """The sum of the piece volumes, which is Vol(K)."""
        return sum(map(volume, self.pieces), Fraction(0))

    @cached_property
    def shadow_denom(self) -> int:
        """L, the lcm of the pieces' vertex denominators."""
        return lcm(*(p.denom for p in self.pieces))

    def shadow_tables(self, size: int) -> tuple[tuple[int, ...], ...]:
        """By orthant mask, the piece's ``normalized_shadow_volumes`` on the
        ``size``-sets over L (``shadow_denom``) instead of its own
        denominator D: every entry times (L/D)^size.  Built once per size."""
        tables = self._shadow_tables
        if size not in tables:
            out = []
            for p in self.pieces:
                up = (self.shadow_denom // p.denom) ** size
                table = normalized_shadow_volumes(p, size)
                out.append(tuple([x * up for x in table]) if up > 1 else table)
            tables[size] = tuple(out)
        return tables[size]

    @cached_property
    def _shadow_tables(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        return {}


def _summed_coeffs(pairs) -> tuple[Fraction, ...]:
    """The coefficient-wise sum of ``volume_polynomial`` over the pairs; a
    pair that repeats is looked up once and weighted by its count, so an
    unconditional body looks up one pair for all 2^n orthants."""
    counts = Counter(pairs)
    columns = zip(*(volume_polynomial(k, t).coeffs for k, t in counts))
    return tuple(sum((w * c for w, c in zip(counts.values(), column)), Fraction(0))
                 for column in columns)


def _reflected_vertices(a: OrthantAssembly):
    """Every piece's vertices reflected into its orthant, lazily, with repeats."""
    return (tuple([-x if m >> i & 1 else x for i, x in enumerate(v)])
            for m, p in enumerate(a.pieces) for v in p.vertices)


def _mask(v) -> int:
    """Bit i set for each nonzero coordinate i."""
    return sum(1 << i for i, x in enumerate(v) if x)


def _scaled_rows(polys) -> tuple[dict, int]:
    """The polytopes' vertices as integer rows over L, the lcm of their
    ``denom``s: by polytope, its ``rows`` scaled by L / D for its own D, with
    that factor; and L."""
    polys = set(polys)
    denom = lcm(*(p.denom for p in polys))
    ups = {p: denom // p.denom for p in polys}
    return {p: ([tuple([x * up for x in r]) for r in p.rows] if up > 1 else p.rows, up)
            for p, up in ups.items()}, denom


def _derived_hull(a: OrthantAssembly) -> VPolytope | None:
    """K with its ``HullData`` read off the pieces', or None for the engine.

    The rule and its proofs are in ``OrthantAssembly.hull``.  Pieces are read
    by orthant mask, whose set bits are the sign's negative coordinates.
    Points and offsets are integers over the lcm of the pieces' vertex
    denominators, and K's offsets move to the lcm of its own.  The data are
    memoized by ``store_hull_data``.
    """
    n = a.dim
    bodies = a.pieces
    data = {p: hull_data(p) for p in bodies}
    equal = len(data) == 1
    if not equal and any(d.rank < n for d in data.values()):
        return None  # some piece is flat
    scaled, denom = _scaled_rows(data)
    # Per piece: its vertices over denom with their support masks; its
    # nonnegative-normal facets with offsets over denom and support masks in
    # R^n; and covered[w], whose bit k says a vertex w + c e_k, c > 0, exists.
    # frac maps a coordinate over denom to its Fraction.
    verts, facets, covered, frac = {}, {}, {}, {}
    for p, d in data.items():
        ws, up = scaled[p]
        verts[p] = [(w, _mask(w)) for w in ws]
        for w, v in zip(ws, p.vertices):
            frac.update(zip(w, v))
        facets[p] = [(c, b * up, sum(1 << d.pivots[i] for i, x in enumerate(c) if x))
                     for c, b in d.facets if min(c) >= 0]
        cov = covered[p] = {}
        for u in ws:
            for k, x in enumerate(u):
                if x:
                    w = u[:k] + (0,) + u[k + 1:]
                    cov[w] = cov.get(w, 0) | 1 << k
    kept, planes = [], set()
    for neg, p in enumerate(bodies):
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
                    bits >> k & 1 and covered[bodies[neg | 1 << k]].get(w, 0) >> k & 1
                    for k in range(n))):
                continue
            kept.append(tuple([-x if f else x for f, x in zip(flip, w)]))
    kept.sort()
    for c in list(frac):
        frac.setdefault(-c, -frac[c])
    body = VPolytope(n, tuple(tuple([frac[c] for c in w]) for w in kept))
    first = data[bodies[0]]
    store_hull_data(body, HullData(
        n, first.rank, body.vertices,
        a.piece_volume,
        first.pivots, tuple(sorted((c, b * body.denom // denom) for c, b in planes))),
        _reflected_vertices(a))
    return body


def _check_consistency(dim: int, pieces) -> None:
    """Raise AssemblyError unless every adjacent pair of pieces agrees along e_i.

    ``pieces`` are polytopes by orthant mask, so the neighbour of the m-th
    along e_i is the (m | 1 << i)-th.  The projection
    of a down-closed piece along e_i is its face x_i = 0, whose vertices are
    the piece's vertices with x_i = 0, since every piece is canonical; so two
    pieces agree there exactly when those vertex lists do.  Comparing each
    single-sign flip on the complementary subspace covers every subspace pair
    by projection composition and transitivity.

    The vertices are compared as integer rows over one denominator
    (``_scaled_rows``).
    """
    scaled, _ = _scaled_rows(pieces)
    for i in range(dim):
        bit = 1 << i
        for m, p in enumerate(pieces):
            if m & bit:
                continue
            q = pieces[m | bit]
            if p is not q and ([r for r in scaled[p][0] if not r[i]]
                               != [r for r in scaled[q][0] if not r[i]]):
                keep = tuple(j for j in range(dim) if j != i)
                raise AssemblyError(
                    f"projection mismatch between orthants {mask_to_str(m, dim)} and "
                    f"{mask_to_str(m | bit, dim)} on the coordinates {keep}"
                )


def _check_convex_union(pieces: tuple[VPolytope, ...], hull: VPolytope) -> None:
    # The union of the pieces is convex iff it fills its own hull, which for
    # interior-disjoint pieces is an exact volume identity.  When the whole
    # assembly lies in a proper coordinate subspace the check runs there:
    # orthant signs on the vanishing coordinates are quotiented out, because
    # pieces differing only in those signs coincide.
    support = tuple(sorted({i for p in pieces for v in p.vertices for i, x in enumerate(v) if x}))
    if not support:
        return
    # Pieces whose masks agree on the support have one shadow: _check_consistency compared each
    # single-sign flip on coordinates containing the support; in dimension 1 the two signs differ
    # on it.  So the masks inside the support stand for all.
    off = ~sum(1 << i for i in support)
    total = sum((volume(shadow(p, support)) for m, p in enumerate(pieces) if not m & off),
                Fraction(0))
    hull_vol = volume(shadow(hull, support))
    if total != hull_vol:
        raise AssemblyError(
            f"union of pieces is not convex: piece volumes sum to {total}, "
            f"their hull has volume {hull_vol}"
        )


def assemble(dim: int, pieces) -> OrthantAssembly:
    """Build an assembly from its pieces by orthant mask, and under
    ``hull.strict_checks`` compare its union with its hull by volume.

    The constructor raises AssemblyError unless every piece is down-closed
    and the pieces agree on their shared coordinate subspaces.  Down-closed
    pieces that agree there always glue to a convex body.  At a point p of
    the union, a short step e from p into another piece s'.P_s' keeps every
    facet (s.a).x <= b of s.P_s active at p: p vanishes on the coordinates E
    where s and s' differ, so with a >= 0 the masking m of e off E has
    (s.a).e <= (s.a).m, and p + m lies in the section of s'.P_s' off E,
    which the pieces share, so (s.a).m <= 0.  The union is thus locally
    convex, hence convex (Tietze-Nakajima).
    ``_check_convex_union`` is the oracle for this argument.
    """
    assembly = OrthantAssembly(dim, pieces)
    if _hull.strict_checks:
        _check_convex_union(assembly.pieces, assembly.hull)
    return assembly


def from_unconditional(p: VPolytope) -> OrthantAssembly:
    """The sign-symmetric body whose every orthant piece is the down-closed
    polytope ``p``."""
    return OrthantAssembly(p.dim, (p,) * (1 << cap_dim(p.dim)))


def equality_family(case: int, alphas, beta1=None) -> OrthantAssembly:
    """The two families of axis-aligned simplices attaining the mixed-volume bound.

    Case 1 is conv(0, a_1 e_1, ..., a_n e_n); case 2 is
    conv(a_1 e_1, -b_1 e_1, a_2 e_2, ..., a_n e_n).  The piece at orthant
    mask m is the aligned simplex of the body's axis ends on that side: a_i
    where bit i of m is clear; where it is set, 0, or b_1 for axis 1 in
    case 2.  Every piece is a face of the body, so the assemblies validate
    as-is.
    """
    alphas = tuple(Fraction(a) for a in alphas)
    n = len(alphas)
    if any(a <= 0 for a in alphas):
        raise ValueError("alphas must be positive")
    if case == 1:
        if beta1 is not None:
            raise ValueError("case 1 takes no beta")
        beta1 = 0
    elif case == 2:
        if beta1 is None or Fraction(beta1) <= 0:
            raise ValueError("case 2 needs a positive beta")
    else:
        raise ValueError("case must be 1 or 2")
    minus = (Fraction(beta1),) + (Fraction(0),) * (n - 1)
    return assemble(n, [
        AlignedSimplex([b if m >> i & 1 else a
                        for i, (a, b) in enumerate(zip(alphas, minus))]).to_polytope()
        for m in range(1 << cap_dim(n))])


def lab_mixed(a: OrthantAssembly, b: OrthantAssembly, j: int) -> Fraction:
    """Mixed volume V(A[j], B[n-j]) summed orthant by orthant.

    Reflecting both bodies of a pair by the same signs leaves the mixed volume
    unchanged, so each orthant term is computed on the stored positive pieces.
    Pieces at one position of both ``pieces`` share their sign.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if not 0 <= j <= a.dim:
        raise ValueError("copy count out of range")
    total = Fraction(0)
    for p, q in zip(a.pieces, b.pieces):
        total += mixed_volume_pair(p, q, j)
    return total


def negate_assembly(a: OrthantAssembly) -> OrthantAssembly:
    """Pointwise negation: the piece at each sign comes from the opposite
    sign, and the opposite of mask m is ~m, so the pieces come reversed."""
    return OrthantAssembly(a.dim, a.pieces[::-1])


@dataclass(frozen=True)
class GodbersenReport:
    j: int
    mixed: Fraction      # V_n(K[j], -K[n-j])
    bound: Fraction      # C(n, j) * Vol(K)
    ratio: Fraction
    is_equality: bool
    trivial: bool        # j in {0, n}: equality holds for free


def godbersen_check(a: OrthantAssembly, j: int) -> GodbersenReport:
    """Compare V_n(K[j], -K[n-j]) against C(n, j) Vol(K) for the assembly.

    The mixed volume is computed twice, orthant-by-orthant and directly on the
    global hull; any discrepancy raises EngineDisagreementError.  The orthant
    sum over s of V(P_s[j], P_-s[n-j]) is ``split_coeffs[j]`` over C(n, j);
    it and Vol(K) are the assembly's, summed at its first check, so the n+1
    checks of one body sum them once.
    """
    n = a.dim
    if not 0 <= j <= n:
        raise ValueError("copy count out of range")
    if not a.is_full_dimensional():
        raise ValueError("assembly must be full-dimensional")
    via_orthants = a.split_coeffs[j] / comb(n, j)
    hull = a.hull
    direct = mixed_volume_pair(hull, negate(hull), j)
    if via_orthants != direct:
        raise EngineDisagreementError(
            f"orthant-sum mixed volume {via_orthants} != direct {direct} at j={j}"
        )
    bound = comb(n, j) * a.piece_volume
    return GodbersenReport(j, direct, bound, direct / bound, direct == bound, j in (0, n))


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
    def all_hold(self) -> bool:
        return all(s.holds for s in self.steps)


def proof_chain_audit(a: OrthantAssembly, j: int) -> ProofChainAudit:
    """Audit the inequality chain behind the orthant-decomposition bound.

    Recomputes each link with independent machinery: the orthant split and the
    subspace re-indexing bijection must hold exactly; the relaxation to
    same-orthant pairs and the per-orthant projection product bound are the
    only two places inequality may enter.  An exact link failing raises
    EngineDisagreementError.

    The mixed-volume links (orthant split, relaxation, direct) are the Cayley
    engine's values.  The projection links are summed in integers, in units
    of 1/(n! L^n) with L the lcm of the pieces' vertex denominators: L P_E is
    a lattice polytope for every piece P and coordinate set E, so
    N_P[E] = |E|! L^|E| Vol(P_E) is an integer (``normalized_shadow_volumes``
    gives it over the piece's own denominator, and ``shadow_tables`` over
    L).  A product Vol_j(P_E) Vol_(n-j)(Q_(E^c)) is N_P[E] N_Q[E^c] in
    units of 1/(j! (n-j)! L^n), and dividing a sum of them by C(n, j) makes
    the unit 1/(n! L^n).  The Rogers-Shephard cap Vol(P_E) Vol(P_(E^c)) <=
    C(n, j) Vol(P) reads N_P[E] N_P[E^c] <= N_P[full].  Each sum becomes one
    Fraction at the end.

    What does not depend on j is the assembly's, computed at its first
    audit or check and read by every later one: the orthant and relaxed
    coefficient sums (``split_coeffs``, ``relaxed_coeffs``), the piece
    volumes, L and the tables by size.  So auditing several j of one
    assembly in one process pays for those once.
    """
    n = a.dim
    if not 0 <= j <= n:
        raise ValueError("copy count out of range")
    if not a.is_full_dimensional():
        raise ValueError("assembly must be full-dimensional")
    hull = a.hull
    count = comb(n, j)

    direct = mixed_volume_pair(hull, negate(hull), j)
    split_sum = a.split_coeffs[j] / count
    relaxed_sum = a.relaxed_coeffs[j] / count

    # The pieces' N over L by orthant mask (the opposite of m is ~m) on the
    # j-sets, on the (n-j)-sets and on every coordinate.
    lo = a.shadow_tables(j)
    hi = a.shadow_tables(n - j)
    full = [t[0] for t in a.shadow_tables(n)]
    unit = factorial(n) * a.shadow_denom ** n
    every = (1 << n) - 1

    # Same quantity through the projection-split formula instead of the engine:
    # the piece at s on E against the piece at -s off E.
    projection = sum(x * y for m in range(1 << n)
                     for x, y in zip(lo[m], reversed(hi[every ^ m])))

    # Re-index each subspace sum by the orthant that matches the piece on
    # E and its opposite off E; the products must agree term by term, and
    # each must stay below its piece's cap.
    reindexed = 0
    bijection_ok = rs_holds = True
    for k, subset in enumerate(itertools.combinations(range(n), j)):
        on = sum(1 << i for i in subset)
        kc = count - 1 - k  # the complement of the k-th j-set
        for tau in range(1 << n):
            term = lo[tau][k] * hi[tau][kc]
            # sigma = tau on E, -tau off E; -sigma = tau off E.
            if term != lo[tau ^ every ^ on][k] * hi[tau ^ on][kc]:
                bijection_ok = False
            if term > full[tau]:
                rs_holds = False
            reindexed += term
    rs_bound = count * sum(full)

    projection_sum, reindexed_sum, rs_sum = (
        Fraction(x, unit) for x in (projection, reindexed, rs_bound))
    bound = count * a.piece_volume
    steps = (
        AuditStep("orthant-split", "==", direct, split_sum, direct == split_sum),
        AuditStep("opposite-orthant-relaxation", "<=", split_sum, relaxed_sum,
                  split_sum <= relaxed_sum),
        AuditStep("projection-split", "==", relaxed_sum, projection_sum,
                  relaxed_sum == projection_sum),
        AuditStep("reindex-bijection", "==", projection_sum, reindexed_sum,
                  projection == reindexed and bijection_ok),
        AuditStep("projection-product-bound", "<=", reindexed_sum, rs_sum,
                  reindexed <= rs_bound and rs_holds),
        AuditStep("bound-identity", "==", rs_sum, bound, rs_sum == bound),
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
    "glued" samples, for each of n generator slots and every coordinate i,
    one value for each side of axis i in [0, COORD_MAX] (in [1, COORD_MAX]
    for one more, anchor slot): the + side's at index 0, the - side's at 1,
    so the piece at orthant mask m reads index ``m >> i & 1``.  That makes
    adjacent orthant projections agree by construction.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(f"assembly:{seed}")
    if style == "unconditional":
        return from_unconditional(random_ab_body(rng, n).body)
    if style != "glued":
        raise ValueError(f"unknown style {style!r}")
    per_side = [
        [(rng.randint(0, COORD_MAX), rng.randint(0, COORD_MAX)) for _ in range(n)]
        for _ in range(n)
    ]
    # One generator kept positive everywhere so each orthant piece is full-dim.
    per_side.append([(rng.randint(1, COORD_MAX), rng.randint(1, COORD_MAX)) for _ in range(n)])
    pieces = []
    for m in range(1 << cap_dim(n)):
        gens = [tuple(Fraction(slot[i][m >> i & 1]) for i in range(n)) for slot in per_side]
        pieces.append(ab_hull(gens, n).body)
    try:
        return assemble(n, pieces)
    except AssemblyError as exc:
        # The pieces agree on their shared subspaces by construction.
        raise RuntimeError(f"generated assembly failed validation: {exc}") from exc
