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
from math import comb

from .geometry import (
    CoordSubspace,
    VPolytope,
    Vec,
    as_vec,
    convex_hull,
    hull_data,
    join_hull,
    negate,
    shadow,
    volume,
)
from .mixed import mixed_volume_pair

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

    @property
    def vertices(self) -> tuple[Vec, ...]:
        return self.body.vertices


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

    Equals the hull of all coordinate maskings of the generators, i.e. the
    union of the boxes [0, g].
    """
    gens = [as_vec(g) for g in generators]
    if not gens:
        raise ValueError("no generators")
    n = dim if dim is not None else len(gens[0])
    pts = set()
    for g in gens:
        if any(x < 0 for x in g):
            raise ValueError("negative coordinate in generator")
        support = [i for i, x in enumerate(g) if x != 0]
        for keep in itertools.product((False, True), repeat=len(support)):
            masked = list(g)
            for flag, i in zip(keep, support):
                if not flag:
                    masked[i] = Fraction(0)
            pts.add(tuple(masked))
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
    once for one built raw, whose vertex list may hold redundant points.
    """
    verts = poly.vertices
    if any(x < 0 for v in verts for x in v):
        return False
    if len(verts) == 1:
        return not any(verts[0])
    data = hull_data(poly)
    support = tuple(i for i in range(poly.dim) if any(v[i] for v in verts))
    if data.pivots != support:
        return False
    return all(min(a) >= 0 or (b == 0 and sum(1 for c in a if c) == 1)
               for a, b in data.facets)


def projected_volume(body: AntiBlockingBody, indices: tuple[int, ...]) -> Fraction:
    """|indices|-dimensional volume of the projection onto those coordinates."""
    return Fraction(1) if not indices else volume(shadow(body.body, indices))


def ab_opposite_mixed(k: AntiBlockingBody, kp: AntiBlockingBody, j: int) -> Fraction:
    """V_n(K[j], -K'[n-j]) via the projection-split sum over coordinate subspaces.

    Averages Vol_j(P_E K) * Vol_{n-j}(P_{E-perp} K') over all j-element
    coordinate subspaces E.
    """
    n = k.dim
    if kp.dim != n:
        raise ValueError("dimension mismatch")
    if not 0 <= j <= n:
        raise ValueError("copy count out of range")
    total = Fraction(0)
    everything = tuple(range(n))
    for subset in itertools.combinations(everything, j):
        rest = tuple(i for i in everything if i not in subset)
        total += projected_volume(k, subset) * projected_volume(kp, rest)
    return total / comb(n, j)


def ab_join_volume(k: AntiBlockingBody, kp: AntiBlockingBody) -> Fraction:
    """Vol(K v -K'), summed from the opposite-orthant mixed volumes."""
    if kp.dim != k.dim:
        raise ValueError("dimension mismatch")
    n = k.dim
    return sum((ab_opposite_mixed(k, kp, n - j) for j in range(n + 1)), Fraction(0))


def join_with_negation(k: AntiBlockingBody, kp: AntiBlockingBody) -> VPolytope:
    """conv(K u -K'), the direct geometric object behind ab_join_volume."""
    return join_hull(k.body, negate(kp.body))


@dataclass(frozen=True)
class ReverseKleitmanReport:
    j: int
    lhs: Fraction  # V_n(K[j], T[n-j]), both bodies in the positive orthant
    rhs: Fraction  # V_n(K[j], -T[n-j])
    holds: bool
    is_equality: bool


def reverse_kleitman_check(k: AntiBlockingBody, t: AntiBlockingBody, j: int) -> ReverseKleitmanReport:
    """Check V_n(K[j], T[n-j]) <= V_n(K[j], -T[n-j]) on a concrete pair.

    Both sides go through the Cayley mixed-volume engine; nothing is assumed.
    Equality occurrences are recorded but not classified.
    """
    lhs = mixed_volume_pair(k.body, t.body, j)
    rhs = mixed_volume_pair(k.body, negate(t.body), j)
    return ReverseKleitmanReport(j, lhs, rhs, lhs <= rhs, lhs == rhs)


@dataclass(frozen=True)
class RSProjectionReport:
    indices: tuple[int, ...]
    product: Fraction  # Vol_j(P_E K) * Vol_{n-j}(P_{E-perp} K)
    bound: Fraction    # C(n, j) * Vol(K)
    holds: bool
    is_equality: bool


def rs_projection_check(k: AntiBlockingBody, sub: CoordSubspace) -> RSProjectionReport:
    """Rogers-Shephard for a projection/section pair of one body."""
    if sub.ambient_dim != k.dim:
        raise ValueError("subspace ambient dimension mismatch")
    idx = sub.indices
    rest = sub.complement().indices
    product = projected_volume(k, idx) * projected_volume(k, rest)
    bound = comb(k.dim, len(idx)) * volume(k.body)
    return RSProjectionReport(idx, product, bound, product <= bound, product == bound)


def random_ab_body(rng: random.Random, n: int, generators: int | None = None,
                   full_dim: bool = True) -> AntiBlockingBody:
    """Seeded random anti-blocking body: down-closure of integer generators.

    Samples `generators` points (n by default) with coordinates in
    [0, COORD_MAX]; when full_dim is requested and no generator is positive
    everywhere, one extra point with all coordinates >= 1 is added.
    """
    k = generators if generators is not None else n
    gens = [tuple(rng.randint(0, COORD_MAX) for _ in range(n)) for _ in range(k)]
    if full_dim and not any(all(x >= 1 for x in g) for g in gens):
        gens.append(tuple(rng.randint(1, COORD_MAX) for _ in range(n)))
    return ab_hull(gens, n)
