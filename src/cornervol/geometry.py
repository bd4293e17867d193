"""Exact V-representation polytopes and their basic operations.

All coordinates are ``fractions.Fraction``; every operation is a pure function
and every value is immutable after construction.  A ``VPolytope`` is always
canonical: its vertex tuple is the irredundant extreme-point set in ascending
lexicographic order, so structural equality is set equality.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce

from . import hull as _hull
from .hull import HullData, Vec, as_vec, hull_of_points
from .linalg import det_fraction

__all__ = [
    "Vec",
    "VPolytope",
    "CoordSubspace",
    "convex_hull",
    "volume",
    "hull_data",
    "relative_volume",
    "shadow",
    "minkowski_sum",
    "scale",
    "reflect",
    "project",
    "member",
    "join_hull",
    "linear_map",
    "negate",
    "standard_simplex",
    "unit_cube",
    "origin",
    "sum_polytopes",
    "matrix_det",
    "max_dim",
]


def max_dim(default: int = _hull.MAX_DIM) -> int:
    """Dimension safety cap: CORNER_MIXVOL_MAX_DIM when set, else ``default``.

    The variable is read here only, and it replaces every cap, the library's
    and the CLI's, at your own risk.  A value that is not an integer raises
    ValueError.
    """
    env = os.environ.get("CORNER_MIXVOL_MAX_DIM")
    if not env:
        return default
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"CORNER_MIXVOL_MAX_DIM must be an integer, got {env!r}") from None


@dataclass(frozen=True, eq=False)
class VPolytope:
    """Polytope given by its canonical (irredundant, lex-sorted) vertex list.

    Equality and hashing read one integer key, ``(dim, D, scaled
    numerators)``, where D is the lcm of the vertex denominators and each
    coordinate x is stored as x * D.  Two polytopes have equal keys exactly
    when their vertex tuples are equal, so a memo lookup that meets an equal
    polytope built again compares integers, not ``Fraction``s.
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
        # Canonical order is what makes ==, hash and the vertex-keyed caches
        # sound; irredundancy is the constructors' job and is not re-checked.
        for u, v in zip(self.vertices, self.vertices[1:]):
            if not u < v:
                raise ValueError("vertices must be strictly lex-ascending (use from_points)")
        # Keyed and hashed once: the memos keyed by polytopes would otherwise
        # hash and compare every Fraction.
        scaled, denom = _hull._scale_to_int(self.vertices)
        key = (self.dim, denom, tuple(scaled))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, VPolytope):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    @staticmethod
    def from_points(points, dim: int | None = None) -> "VPolytope":
        pts = [as_vec(p) for p in points]
        if not pts:
            raise ValueError("empty point set")
        n = dim if dim is not None else len(pts[0])
        if n > max_dim():
            raise ValueError(
                f"dimension {n} exceeds cap {max_dim()} "
                "(set CORNER_MIXVOL_MAX_DIM to override)"
            )
        data = hull_of_points(pts, n)
        poly = VPolytope(n, data.vertices)
        _hull_cache[poly] = data
        return poly

    def translate(self, t) -> "VPolytope":
        tv = as_vec(t)
        verts = tuple(sorted(tuple(a + b for a, b in zip(v, tv)) for v in self.vertices))
        return VPolytope(self.dim, verts)


@dataclass(frozen=True)
class CoordSubspace:
    """Coordinate subspace sp{e_i : i in indices} of R^ambient_dim (0-based indices)."""

    ambient_dim: int
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(self.indices))
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate subspace indices")
        if idx and (idx[0] < 0 or idx[-1] >= self.ambient_dim):
            raise ValueError("subspace index out of range")
        object.__setattr__(self, "indices", idx)

    def complement(self) -> "CoordSubspace":
        inside = set(self.indices)
        return CoordSubspace(
            self.ambient_dim,
            tuple(i for i in range(self.ambient_dim) if i not in inside),
        )


# Hand-written rather than functools.cache so that from_points can seed it.
_hull_cache: dict[VPolytope, HullData] = {}


def hull_data(poly: VPolytope) -> HullData:
    """The hull engine's data for the polytope's vertices, memoized.

    Free for a polytope built by ``from_points``, which stores the hull it
    built; a polytope built raw pays for one hull, once.
    """
    data = _hull_cache.get(poly)
    if data is None:
        data = _hull_cache[poly] = hull_of_points(poly.vertices, poly.dim)
    return data


def convex_hull(points, dim: int | None = None) -> VPolytope:
    """Irredundant convex hull of rational points sharing one dimension."""
    return VPolytope.from_points(points, dim)


def volume(poly: VPolytope) -> Fraction:
    """Exact dim-dimensional Lebesgue volume (0 for lower-dimensional bodies)."""
    return hull_data(poly).volume


def relative_volume(poly: VPolytope, sub: CoordSubspace) -> Fraction:
    """Volume of a polytope inside a coordinate subspace containing it.

    The complementary coordinates must vanish on every vertex; they are
    dropped and the |indices|-dimensional volume is measured in the remaining
    coordinates.  The empty subspace has 0-dimensional measure 1.
    """
    if sub.ambient_dim != poly.dim:
        raise ValueError("subspace ambient dimension mismatch")
    inside = set(sub.indices)
    for v in poly.vertices:
        for i, x in enumerate(v):
            if i not in inside and x != 0:
                raise ValueError("polytope not contained in the subspace")
    if not sub.indices:
        return Fraction(1)
    return volume(shadow(poly, sub.indices))


def shadow(poly: VPolytope, keep: tuple[int, ...]) -> VPolytope:
    """Hull of the vertices restricted to the coordinates ``keep``, in R^|keep|.

    ``keep`` must be nonempty and strictly ascending inside range(dim);
    keeping every coordinate returns ``poly`` itself.  For an anti-blocking
    body the shadow on a coordinate subspace is its projection and its section
    there at once, the quantity the projection-split formula multiplies.
    """
    # Checked before the memo, which would hand back the first equal polytope it stored.
    return poly if keep == tuple(range(poly.dim)) else _shadow(poly, keep)


@cache
def _shadow(poly: VPolytope, keep: tuple[int, ...]) -> VPolytope:
    if not keep or keep[0] < 0 or keep[-1] >= poly.dim or sorted(set(keep)) != list(keep):
        raise ValueError(
            f"coordinates to keep must be strictly ascending in range({poly.dim}), "
            f"got {keep!r}"
        )
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
        return VPolytope(p.dim, ((Fraction(0),) * p.dim,))
    # Positive homothety preserves extremeness; re-sorting keeps canonical order.
    verts = tuple(sorted(tuple(lam * x for x in v) for v in p.vertices))
    return VPolytope(p.dim, verts)


def reflect(p: VPolytope, signs) -> VPolytope:
    signs = tuple(int(s) for s in signs)
    if len(signs) != p.dim or any(s not in (-1, 1) for s in signs):
        raise ValueError("sign vector must be +/-1 of matching dimension")
    verts = tuple(sorted(tuple(x if s > 0 else -x for s, x in zip(signs, v))
                         for v in p.vertices))
    return VPolytope(p.dim, verts)


@cache
def negate(p: VPolytope) -> VPolytope:
    return reflect(p, (-1,) * p.dim)


def project(p: VPolytope, sub: CoordSubspace) -> VPolytope:
    """Orthogonal projection onto a coordinate subspace, embedded in R^dim."""
    if sub.ambient_dim != p.dim:
        raise ValueError("subspace ambient dimension mismatch")
    inside = set(sub.indices)
    pts = {
        tuple(x if i in inside else Fraction(0) for i, x in enumerate(v))
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


def matrix_det(matrix) -> Fraction:
    rows = [list(as_vec(r)) for r in matrix]
    return det_fraction(rows)


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
