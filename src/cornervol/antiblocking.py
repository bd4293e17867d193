"""Anti-blocking bodies (convex corners) and their decomposition identities.

An anti-blocking body lives in the closed nonnegative orthant and is
down-closed: together with any point it contains the whole box from the
origin to that point.  For such bodies coordinate projections coincide with
coordinate sections, which is what powers the projection-split formula for
mixed volumes of bodies in opposite orthants.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from .geometry import (
    VPolytope,
    Vec,
    as_vec,
    cap_dim,
    check_keep,
    convex_hull,
    hull_data,
    volume,
)
from .hull import _scale_to_int

# Largest coordinate of the seeded random generators.
COORD_MAX = 4


@dataclass(frozen=True)
class AntiBlockingBody:
    """A down-closed polytope in the nonnegative orthant.

    The constructor runs ``validate_ab`` and raises ValueError, naming a
    witness, on any other polytope; so every piece of an assembly is
    down-closed by type.
    """

    body: VPolytope

    def __post_init__(self):
        if not validate_ab(self.body):
            raise ValueError(_rejection(self.body))

    @property
    def dim(self) -> int:
        return self.body.dim


def _fmt(v: Vec) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def _rejection(poly: VPolytope) -> str:
    """Why ``validate_ab`` rejects the polytope, with a witness point.

    A body that is not down-closed misses a masking of one coordinate of a
    vertex, and a missing masking is a vertex of the hull of the vertices
    and all their maskings.
    """
    verts = poly.vertices
    negative = [v for v in verts if min(v) < 0]
    if negative:
        return f"polytope is not down-closed: vertex {_fmt(negative[0])} has a negative coordinate"
    below = {v[:i] + (0,) + v[i + 1:]: v for v in verts for i, x in enumerate(v) if x}
    missing = min(set(convex_hull([*verts, *below], poly.dim).vertices) - set(verts))
    return f"polytope is not down-closed: it holds {_fmt(below[missing])} but not {_fmt(missing)}"


def ab_hull(generators, dim: int | None = None) -> AntiBlockingBody:
    """Smallest anti-blocking body containing the given nonnegative points.

    Equals the hull of all coordinate maskings g_S of the generators (g on
    the coordinates S, 0 off them), i.e. the union of the boxes [0, g], and
    every vertex of it is such a masking (Fulkerson 1971).  The dimension
    meets the cap (``cap_dim``), and every generator its length and sign,
    before up to 2^n maskings per generator are enumerated.

    Only the maskings that can be vertices are handed to the engine: g_S is
    dropped when another generator h has h_i >= g_i on all of S and
    h_k > g_k for some k in S.  Then g_S lies strictly between two distinct
    points of the body, g_S with coordinate k set to 0 and g_S with
    coordinate k set to h_k, which is at most h_S; so it is no vertex, and
    the engine decides the same vertices, facets and volume from the
    smaller unordered set.  The comparisons read the generators as integer
    rows over one denominator.
    """
    gens = [as_vec(g) for g in generators]
    if not gens:
        raise ValueError("no generators")
    n = cap_dim(dim if dim is not None else len(gens[0]))
    for g in gens:
        if len(g) != n:
            raise ValueError(f"generator {_fmt(g)} has {len(g)} coordinates, not {n}")
        if any(x < 0 for x in g):
            raise ValueError("negative coordinate in generator")
    rows, _ = _scale_to_int(gens)
    zero = Fraction(0)
    pts = set()
    for g, row in zip(gens, rows):
        support = sum(1 << i for i, x in enumerate(row) if x)
        # Per generator h above g somewhere on g's support: the coordinates of
        # g's support where h is at least g, and those where it is above g.
        beats = []
        for h in rows:
            above = sum(1 << i for i, (x, y) in enumerate(zip(h, row)) if x > y) & support
            if above:
                beats.append((sum(1 << i for i, (x, y) in enumerate(zip(h, row)) if x >= y),
                              above))
        keep = support
        while True:
            if not any(keep & ~atleast == 0 and keep & above for atleast, above in beats):
                pts.add(tuple(x if keep >> i & 1 else zero for i, x in enumerate(g)))
            if not keep:
                break
            keep = (keep - 1) & support
    return AntiBlockingBody(convex_hull(pts, n))


def validate_ab(poly: VPolytope) -> bool:
    """Is the polytope down-closed inside the nonnegative orthant?

    A full-dimensional polytope in R^n_+ is down-closed exactly when each of
    its facets is a coordinate facet x_i >= 0 or has a nonnegative outward
    normal (Fulkerson 1971).  If: for a facet a.x <= b with a >= 0, lowering
    coordinates does not raise a.x.  Only if: on a facet whose normal has
    a_i < 0, a relative-interior point with x_i > 0 could be lowered in x_i
    and leave the body, so x_i vanishes on the whole facet, which is then
    x_i = 0.  A body that is not full-dimensional is down-closed exactly when
    its affine hull is the coordinate subspace of its support (it contains
    the origin and a segment along every support axis) and it is down-closed
    there; the hull engine measures such a set in its pivot coordinates, and
    those equal the support exactly in that case.  A single point is
    down-closed exactly when it is the origin.  The facets come from the
    memoized hull, free for a polytope built by ``from_points`` and paid
    once for one built raw; ``hull_data`` raises ValueError on a raw list
    that holds a point which is no vertex.
    The signs and the support are read off the polytope's integer ``rows``
    (its vertices times D > 0), so no ``Fraction`` is compared.
    """
    rows = poly.rows
    if min(map(min, rows)) < 0:
        return False
    if len(rows) == 1:
        return not any(rows[0])
    data = hull_data(poly)
    support = tuple(i for i, column in enumerate(zip(*rows)) if any(column))
    if data.pivots != support:
        return False
    return all(min(a) >= 0 or (b == 0 and sum(1 for c in a if c) == 1)
               for a, b in data.facets)


def _face(poly: VPolytope, keep: tuple[int, ...]) -> VPolytope:
    """The face of a down-closed P where x_i = 0 for every i outside
    ``keep``, in R^|keep|: P's shadow there, for a projection of a
    down-closed body is its section.  Its vertices are P's vertices
    supported in ``keep``, restricted to it; they keep P's strictly
    lex-ascending order (the dropped coordinates are all 0), and each is a
    vertex of the face, so the list is canonical and takes no hull to build.
    Keeping every coordinate returns ``poly`` itself.
    """
    if len(keep) == poly.dim:
        return poly
    off = [i for i in range(poly.dim) if i not in keep]
    return VPolytope(len(keep), tuple(tuple(v[i] for i in keep) for v, r in
                                      zip(poly.vertices, poly.rows) if not any(r[i] for i in off)))


def projected_volume(body: AntiBlockingBody, indices: tuple[int, ...]) -> Fraction:
    """|indices|-dimensional volume of the projection onto those coordinates,
    read off the body's face there (``_face``)."""
    check_keep(body.dim, indices)
    return Fraction(1) if not indices else volume(_face(body.body, indices))


@cache
def normalized_shadow_volumes(poly: VPolytope, size: int) -> tuple[int, ...]:
    """|E|! Vol(D P_E) for every ``size``-element coordinate set E, in
    ``itertools.combinations`` order; D is the polytope's ``denom``.

    P must be down-closed (``validate_ab``; ValueError otherwise), so its
    shadow on E is its face there (``_face``), a memoized hull shared by
    every piece that agrees with P on E.  D P has integer vertices, so each
    of its shadows is a lattice polytope and its normalized volume |E|! Vol
    is an integer; the conversion is exact, and a value that is not an
    integer, or a face list with a point that is no vertex, is an engine
    bug.  The shadow on the empty set has measure 1, and the shadow on every
    coordinate is P itself, so sizes 0 and n take no shadow hull.  The
    complement of the k-th set of one size is the k-th set from the end of
    the other size.
    """
    if not validate_ab(poly):
        raise ValueError(_rejection(poly))
    if not size:
        return (1,)
    scale = factorial(size) * poly.denom ** size
    out = []
    for keep in itertools.combinations(range(poly.dim), size):
        face = _face(poly, keep)
        try:
            x = volume(face) * scale
        except ValueError as exc:
            raise RuntimeError(f"face {face} of {poly} on {keep} is not canonical "
                               f"(engine bug): {exc}") from exc
        if x.denominator != 1:
            raise RuntimeError(f"normalized volume {x} of the shadow of {poly} on {keep} "
                               "is not an integer (engine bug)")
        out.append(x.numerator)
    return tuple(out)


def ab_opposite_mixed(k: AntiBlockingBody, kp: AntiBlockingBody, j: int) -> Fraction:
    """V_n(K[j], -K'[n-j]) via the projection-split sum over coordinate subspaces.

    Averages Vol_j(P_E K) * Vol_{n-j}(P_{E-perp} K') over all j-element
    coordinate subspaces E.  With D, D' the bodies' ``denom``s, the
    products are integers in units of 1/(j! (n-j)! D^j D'^(n-j))
    (``normalized_shadow_volumes``), so the average is their sum over
    n! D^j D'^(n-j).
    """
    n = k.dim
    if kp.dim != n:
        raise ValueError("dimension mismatch")
    if not 0 <= j <= n:
        raise ValueError("copy count out of range")
    lo = normalized_shadow_volumes(k.body, j)
    hi = normalized_shadow_volumes(kp.body, n - j)
    total = sum(x * y for x, y in zip(lo, reversed(hi)))
    return Fraction(total, factorial(n) * k.body.denom ** j * kp.body.denom ** (n - j))


def ab_join_volume(k: AntiBlockingBody, kp: AntiBlockingBody) -> Fraction:
    """Vol(K v -K'), summed from the opposite-orthant mixed volumes."""
    if kp.dim != k.dim:
        raise ValueError("dimension mismatch")
    n = k.dim
    return sum((ab_opposite_mixed(k, kp, n - j) for j in range(n + 1)), Fraction(0))


def random_ab_body(rng: random.Random, n: int) -> AntiBlockingBody:
    """Seeded random full-dimensional anti-blocking body: the down-closure
    of n integer generators with coordinates in [0, COORD_MAX], and of one
    more with every coordinate in [1, COORD_MAX] when none of them is
    positive everywhere."""
    gens = [tuple(rng.randint(0, COORD_MAX) for _ in range(n)) for _ in range(n)]
    if not any(all(x >= 1 for x in g) for g in gens):
        gens.append(tuple(rng.randint(1, COORD_MAX) for _ in range(n)))
    return ab_hull(gens, n)
