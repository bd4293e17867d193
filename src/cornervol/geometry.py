"""Exact V-representation polytopes and their basic operations.

All coordinates are ``fractions.Fraction``; every operation is a pure function
and every value is immutable after construction.  A ``VPolytope`` lists its
vertices in ascending lexicographic order, and every one that is hulled is
canonical: ``hull_data`` refuses a vertex list holding a point that is no
vertex of its hull, so the hull memo holds only irredundant lists and
structural equality is set equality.  A raw list that is never hulled still
compares structurally.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce

from . import hull as _hull
from .hull import HullData, Vec, as_vec, hull_of_points


# The one dimension cap; CORNER_MIXVOL_MAX_DIM replaces it (``max_dim``).
_CAP = 6


class DimensionCapError(ValueError):
    """A dimension below 1 or above ``max_dim()``."""


def max_dim() -> int:
    """The dimension cap: CORNER_MIXVOL_MAX_DIM when set, else 6.

    Hull and orthant costs grow exponentially with the dimension.  The
    variable is read here only, and it raises or lowers the cap at your own
    risk.  A value that is not an integer raises ValueError.
    """
    env = os.environ.get("CORNER_MIXVOL_MAX_DIM")
    if not env:
        return _CAP
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"CORNER_MIXVOL_MAX_DIM must be an integer, got {env!r}") from None


def cap_dim(n: int) -> int:
    """``n``, or DimensionCapError when it is below 1 or above ``max_dim()``:
    the one bound check, made before any hull (``VPolytope.from_points``) or
    2^n enumeration."""
    if n < 1:
        raise DimensionCapError("dimension must be positive")
    cap = max_dim()
    if n > cap:
        raise DimensionCapError(f"dimension {n} exceeds cap {cap} "
                                "(set CORNER_MIXVOL_MAX_DIM to override, at your own risk)")
    return n


@dataclass(frozen=True, eq=False)
class VPolytope:
    """Polytope given by its canonical (irredundant, lex-sorted) vertex list.

    ``denom`` is D, the lcm of the vertex denominators, and ``rows`` holds
    each vertex times D.  Equality and hashing read only those, which are
    equal exactly when the vertex tuples are, so a memo lookup that meets an
    equal polytope built again compares integers, not ``Fraction``s.
    """

    dim: int
    vertices: tuple[Vec, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if not self.vertices:
            raise ValueError("polytope needs at least one vertex")
        for v in self.vertices:
            if len(v) != self.dim:
                raise ValueError("vertex dimension mismatch")
        # Scaled and hashed once: the memos keyed by polytopes would otherwise
        # hash and compare every Fraction.
        scaled, denom = _hull._scale_to_int(self.vertices)
        # Canonical order is what makes ==, hash and the vertex-keyed caches
        # sound; irredundancy is checked at the first hull (``hull_data``).
        # The scaled rows keep the order of the vertices, since D > 0.
        for u, v in zip(scaled, scaled[1:]):
            if not u < v:
                raise ValueError("vertices must be strictly lex-ascending (use from_points)")
        rows = tuple(scaled)
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", hash((self.dim, denom, rows)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, VPolytope):
            return NotImplemented
        # Equal rows have equal lengths, so the dimensions agree too.
        return self._hash == other._hash and self.denom == other.denom and self.rows == other.rows

    @staticmethod
    def from_points(points, dim: int | None = None) -> "VPolytope":
        """The hull of the points, with its data stored in ``hull_data``'s memo.

        Points already strictly lex-ascending (the order that ``io`` writes)
        are looked up in the memo first, and returned as a polytope without a
        hull when the memo holds them: it holds only canonical polytopes, so
        a hit is its own hull.  Under ``hull.strict_checks`` a hit is compared
        with the engine's hull.
        """
        pts = [as_vec(p) for p in points]
        if not pts:
            raise ValueError("empty point set")
        n = cap_dim(dim if dim is not None else len(pts[0]))
        # Points the engine would reject skip the lookup, so they still raise its error.
        if all(len(v) == n for v in pts) and all(
                u < v for u, v in zip(pts, pts[1:])):
            poly = VPolytope(n, tuple(pts))
            data = _hull_cache.get(poly)
            if data is not None:
                if _hull.strict_checks and hull_of_points(pts, n) != data:
                    raise AssertionError(
                        f"memoized hull {data} of {poly} differs from the engine's")
                return poly
        data = hull_of_points(pts, n)
        poly = VPolytope(n, data.vertices)
        _hull_cache[poly] = data
        return poly

    def translate(self, t) -> "VPolytope":
        tv = as_vec(t)
        verts = tuple(sorted(tuple(a + b for a, b in zip(v, tv)) for v in self.vertices))
        return VPolytope(self.dim, verts)


# Hand-written rather than functools.cache so that from_points and
# store_hull_data can seed it.
_hull_cache: dict[VPolytope, HullData] = {}


def store_hull_data(poly: VPolytope, data: HullData, points) -> None:
    """Memoize hull data derived without the engine as the polytope's.

    ``points`` are points whose hull is ``poly``.  Under ``hull.strict_checks``
    the data are first compared with the engine's hull of them; otherwise
    ``points`` is not read.
    """
    if _hull.strict_checks:
        engine = hull_of_points(points, poly.dim)
        if data != engine:
            raise AssertionError(f"hull data derived for {poly} {data} differ "
                                 f"from the engine's {engine}")
    _hull_cache[poly] = data


def hull_data(poly: VPolytope) -> HullData:
    """The hull engine's data for the polytope's vertices, memoized.

    Free for a polytope built by ``from_points``, which stores the hull it
    built; a polytope built raw pays for one hull, once.  A raw list holding a
    point that is no vertex of its hull raises ValueError naming the first such
    point, and nothing is stored.  The engine's vertices are a subset of its
    input, so one length comparison decides.
    """
    data = _hull_cache.get(poly)
    if data is None:
        data = hull_of_points(poly.vertices, poly.dim)
        if len(data.vertices) < len(poly.vertices):
            kept = set(data.vertices)
            extra = next(v for v in poly.vertices if v not in kept)
            raise ValueError(f"vertex list holds ({', '.join(map(str, extra))}), "
                             "which is no vertex of its hull (use from_points)")
        _hull_cache[poly] = data
    return data


def convex_hull(points, dim: int | None = None) -> VPolytope:
    """Irredundant convex hull of rational points sharing one dimension."""
    return VPolytope.from_points(points, dim)


def volume(poly: VPolytope) -> Fraction:
    """Exact dim-dimensional Lebesgue volume (0 for lower-dimensional bodies)."""
    return hull_data(poly).volume


def check_keep(dim: int, keep: tuple[int, ...], nonempty: bool = False) -> None:
    """ValueError unless ``keep`` names a coordinate subspace of R^dim: it is
    strictly ascending inside range(dim), and nonempty when asked."""
    if (nonempty and not keep) or list(keep) != sorted(set(keep)) or keep and (
            keep[0] < 0 or keep[-1] >= dim):
        raise ValueError(
            f"coordinates to keep must be strictly ascending in range({dim}), got {keep!r}")


def shadow(poly: VPolytope, keep: tuple[int, ...]) -> VPolytope:
    """Hull of the vertices restricted to the coordinates ``keep``, in R^|keep|.

    ``keep`` must be nonempty and strictly ascending inside range(dim);
    keeping every coordinate returns ``poly`` itself.  For an anti-blocking
    body the shadow on a coordinate subspace is its projection and its section
    there at once, the quantity the projection-split formula multiplies; the
    ``antiblocking`` routes read it off that face, with no hull of projected
    points, and this general hull serves the other polytopes.
    """
    check_keep(poly.dim, keep, nonempty=True)
    if len(keep) == poly.dim:
        return poly
    return VPolytope.from_points({tuple(v[i] for i in keep) for v in poly.vertices}, len(keep))


def minkowski_sum(p: VPolytope, q: VPolytope) -> VPolytope:
    if p.dim != q.dim:
        raise ValueError("dimension mismatch in Minkowski sum")
    sums = {tuple(a + b for a, b in zip(v, w)) for v in p.vertices for w in q.vertices}
    return VPolytope.from_points(sums, p.dim)


def scale(p: VPolytope, lam) -> VPolytope:
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("negative scale factor")
    if lam == 0:
        return origin(p.dim)
    # Positive homothety preserves extremeness; re-sorting keeps canonical order.
    verts = tuple(sorted(tuple(lam * x for x in v) for v in p.vertices))
    return VPolytope(p.dim, verts)


@cache
def negate(p: VPolytope) -> VPolytope:
    """-P, with its hull data derived from P's when the memo holds those.

    Negation maps the hull of P onto the hull of -P: the vertices are
    negated and re-sorted, each facet a.x <= b becomes (-a).x <= b in the same
    pivot coordinates (a row echelon form of the direction space has the
    same pivots after a sign change), and the volume and rank stay.  Under
    ``hull.strict_checks`` the derived data are compared with the engine's.
    """
    neg = VPolytope(p.dim, tuple(sorted(tuple([-x for x in v]) for v in p.vertices)))
    data = _hull_cache.get(p)
    if data is not None and neg not in _hull_cache:
        store_hull_data(neg, HullData(
            data.dim, data.rank, neg.vertices, data.volume, data.pivots,
            tuple(sorted((tuple(-c for c in a), b) for a, b in data.facets))), neg.vertices)
    return neg


def project(p: VPolytope, keep: tuple[int, ...]) -> VPolytope:
    """Orthogonal projection onto the coordinates ``keep``, embedded in R^dim.

    ``keep`` must be strictly ascending inside range(dim), as for ``shadow``;
    the empty tuple projects onto the origin.
    """
    check_keep(p.dim, keep)
    pts = {
        tuple(x if i in keep else Fraction(0) for i, x in enumerate(v))
        for v in p.vertices
    }
    return VPolytope.from_points(pts, p.dim)


def join_hull(p: VPolytope, q: VPolytope) -> VPolytope:
    if p.dim != q.dim:
        raise ValueError("dimension mismatch in join")
    return VPolytope.from_points(p.vertices + q.vertices, p.dim)


def linear_map(p: VPolytope, matrix) -> VPolytope:
    """Image under a rational square matrix (rows of length dim).

    A singular matrix is allowed; the image is then lower-dimensional and its
    volume is zero.
    """
    rows = [as_vec(r) for r in matrix]
    if len(rows) != p.dim or any(len(r) != p.dim for r in rows):
        raise ValueError("matrix shape must be dim x dim")
    pts = {
        tuple(sum(r[j] * v[j] for j in range(p.dim)) for r in rows)
        for v in p.vertices
    }
    return VPolytope.from_points(pts, p.dim)


def member(p: VPolytope, point) -> bool:
    """Exact containment test: is the point a convex combination of vertices?

    Decided by rational phase-1 simplex (Bland's rule, no tolerance), kept
    independent of the hull engine so the two can cross-check each other.
    The library decides down-closure from the signs of the hull's facet
    normals (``antiblocking.validate_ab``) and reads the vertices off the
    hull's boundary; this LP is the tests' oracle for both.
    """
    x = as_vec(point)
    if len(x) != p.dim:
        raise ValueError("point dimension mismatch")
    verts = p.vertices
    m = len(verts)
    rows = [[verts[k][i] for k in range(m)] for i in range(p.dim)]
    rhs = list(x)
    rows.append([Fraction(1)] * m)
    rhs.append(Fraction(1))
    return _feasible_nonneg(rows, rhs)


def _feasible_nonneg(rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    """Is {A x = b, x >= 0} feasible?  Phase-1 simplex with Bland's rule."""
    nrows = len(rows)
    ncols = len(rows[0])
    tab = []
    for i in range(nrows):
        r = list(rows[i]) + [Fraction(0)] * nrows + [rhs[i]]
        if rhs[i] < 0:
            r = [-v for v in r]
        r[ncols + i] = Fraction(1)
        tab.append(r)
    total = ncols + nrows
    basis = [ncols + i for i in range(nrows)]
    # Reduced objective for min(sum of artificials): z_j - c_j over columns.
    obj = [Fraction(0)] * (total + 1)
    for r in tab:
        for j in range(total + 1):
            obj[j] += r[j]
    for i in range(nrows):
        obj[ncols + i] -= 1
    while True:
        enter = next((j for j in range(total) if obj[j] > 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(nrows):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][total] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise RuntimeError("unbounded phase-1 objective")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(nrows):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, tab[leave])]
        basis[leave] = enter
    return obj[total] == 0


def standard_simplex(n: int) -> VPolytope:
    """conv(0, e_1, ..., e_n)."""
    pts = [(Fraction(0),) * n]
    for i in range(n):
        pts.append(tuple(Fraction(1 if j == i else 0) for j in range(n)))
    return VPolytope.from_points(pts, n)


def unit_cube(n: int) -> VPolytope:
    pts = [tuple(Fraction(b) for b in bits) for bits in itertools.product((0, 1), repeat=n)]
    return VPolytope.from_points(pts, n)


def origin(n: int) -> VPolytope:
    return VPolytope(n, ((Fraction(0),) * n,))


def sum_polytopes(bodies) -> VPolytope:
    """Minkowski sum of a nonempty sequence, collapsing repeats into scalings."""
    bodies = list(bodies)
    if not bodies:
        raise ValueError("empty Minkowski sum")
    counts: dict[VPolytope, int] = {}
    for b in bodies:
        counts[b] = counts.get(b, 0) + 1
    parts = [scale(b, c) if c > 1 else b for b, c in counts.items()]
    return reduce(minkowski_sum, parts)
