"""Exact convex hull, volume, and facet machinery in dimensions 1 through 8.

The engine is an incremental beneath-beyond construction over scaled integer
coordinates: every predicate (visibility, extremeness, facet activity) is an
exact integer comparison.  Only the n+1 boundary pieces of the initial
simplex get their plane from minors (``hyperplane_normal``).  Every later
piece is cut through a horizon ridge and the new point p, and its plane is
the ridge's two planes rotated onto p: a nonnegative integer combination of
the visible and the hidden plane, divided by the gcd of its normal, which is
the same primitive plane the minors give, in O(n) integer work.  Under
``strict_checks`` every rotated plane is compared with the minors.

numpy int64 is used purely as an accelerator for the visibility and
facet-activity scans.  Piece planes go into an append-only int64 buffer,
grown by doubling, with a mask of the live rows; it is dropped for the rest
of a construction once a magnitude bound shows that int64 could overflow,
and the scans go on in Python integers, so results never depend on floating
point or machine word size.

Degenerate inputs (affine rank below the ambient dimension) are canonicalized
inside their affine hull via exact rational coordinates; their ambient volume
is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

import numpy as np

from .linalg import AffineSpan, det_int, hyperplane_normal, rank_int_rows, vec_gcd

Vec = tuple[Fraction, ...]

MAX_DIM = 8

# int64 safety margin for the accelerated scans.
_INT64_BOUND = 2**62

# Enables expensive structural self-checks inside the engine (test use only).
strict_checks = False


@dataclass(frozen=True)
class HullData:
    dim: int
    rank: int
    vertices: tuple[Vec, ...]
    volume: Fraction


def _as_fraction_vec(point) -> Vec:
    return tuple(Fraction(x) for x in point)


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _ridge_keys(verts: tuple[int, ...]) -> list[frozenset[int]]:
    """The ridges of a boundary piece, each keyed by its vertex set."""
    return [frozenset(verts[:k] + verts[k + 1:]) for k in range(len(verts))]


class _Placing:
    """Beneath-beyond structure over full-rank integer points."""

    INITIAL_ROWS = 64  # scan buffer capacity before its first doubling

    def __init__(self, n: int, points: list[tuple[int, ...]], simplex_ids: list[int]):
        self.n = n
        self.points = points
        self.apex_id = simplex_ids[0]
        self.osum = tuple(sum(points[i][j] for i in simplex_ids) for j in range(n))
        self.pieces: dict[int, tuple[tuple[int, ...], tuple[int, ...], int]] = {}
        self.alive: set[int] = set()
        self.ridges: dict[frozenset[int], set[int]] = {}
        self._next_id = 0
        self._max_coord = max((abs(c) for p in points for c in p), default=1)
        self._max_normal = 1
        # Scan buffer: row pid holds (a..., b) of piece pid, live[pid] whether
        # it is alive.  Append-only, grown by doubling; dropped for good once
        # the int64 guard fails, since the guard's bound only grows.
        self._buf: np.ndarray | None = np.empty((self.INITIAL_ROWS, n + 1), dtype=np.int64)
        self._live = np.zeros(self.INITIAL_ROWS, dtype=bool)
        for omit in range(n + 1):
            verts = tuple(simplex_ids[i] for i in range(n + 1) if i != omit)
            self._add_piece(verts, *self._oriented_plane(verts))

    # -- pieces ------------------------------------------------------------

    def _oriented_plane(self, verts: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        base = self.points[verts[0]]
        diffs = [
            tuple(self.points[v][j] - base[j] for j in range(self.n))
            for v in verts[1:]
        ]
        normal = hyperplane_normal(diffs)
        if normal is None:
            raise RuntimeError("degenerate boundary piece")
        offset = sum(a * x for a, x in zip(normal, base))
        side = sum(a * x for a, x in zip(normal, self.osum)) - (self.n + 1) * offset
        if side == 0:
            raise RuntimeError("reference point on a boundary hyperplane")
        if side > 0:
            normal = tuple(-a for a in normal)
            offset = -offset
        return normal, offset

    def _rotated_plane(self, visible: int, invisible: int,
                       p: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """Outward plane through the ridge of two adjacent pieces and p.

        With s_v = a_v.p - b_v > 0 (p beyond the visible piece) and
        s_i = b_i - a_i.p >= 0 (p beneath the other), the combination
        s_i (a_v, b_v) + s_v (a_i, b_i) vanishes on the ridge and at p, and
        keeps the interior on its negative side; divided by the gcd of its
        normal it is the primitive plane ``_oriented_plane`` would compute.
        """
        _, a_v, b_v = self.pieces[visible]
        _, a_i, b_i = self.pieces[invisible]
        s_v = sum(a * x for a, x in zip(a_v, p)) - b_v
        s_i = b_i - sum(a * x for a, x in zip(a_i, p))
        normal = [s_i * x + s_v * y for x, y in zip(a_v, a_i)]
        g = vec_gcd(normal)
        if g == 0:
            raise RuntimeError("degenerate boundary piece")
        normal = tuple(c // g for c in normal)
        offset = (s_i * b_v + s_v * b_i) // g
        if sum(a * x for a, x in zip(normal, p)) != offset:
            raise RuntimeError("degenerate boundary piece")
        side = sum(a * x for a, x in zip(normal, self.osum)) - (self.n + 1) * offset
        if side >= 0:
            raise RuntimeError("reference point on a boundary hyperplane")
        return normal, offset

    def _add_piece(self, verts: tuple[int, ...], normal: tuple[int, ...], offset: int) -> int:
        pid = self._next_id
        self._next_id += 1
        self.pieces[pid] = (verts, normal, offset)
        self.alive.add(pid)
        for key in _ridge_keys(verts):
            self.ridges.setdefault(key, set()).add(pid)
        mag = max(map(abs, normal))
        if mag > self._max_normal:
            self._max_normal = mag
        if self._buf is not None:
            if not self._numpy_ok():
                self._buf = self._live = None
            else:
                if pid == len(self._buf):
                    self._buf = np.concatenate((self._buf, np.empty_like(self._buf)))
                    self._live = np.concatenate((self._live, np.zeros_like(self._live)))
                self._buf[pid] = normal + (offset,)
                self._live[pid] = True
        return pid

    def _kill_piece(self, pid: int) -> None:
        verts, _, _ = self.pieces[pid]
        self.alive.discard(pid)
        if self._buf is not None:
            self._live[pid] = False
        for key in _ridge_keys(verts):
            incident = self.ridges.get(key)
            if incident is not None:
                incident.discard(pid)
                if not incident:
                    del self.ridges[key]

    # -- scans -------------------------------------------------------------

    def _numpy_ok(self) -> bool:
        return self._max_coord * self._max_normal * (self.n + 1) < _INT64_BOUND

    def visible_from(self, p: tuple[int, ...]) -> list[int]:
        if len(self.alive) >= 32 and self._buf is not None:
            m = self._next_id
            vals = self._buf[:m, :-1] @ np.array(p, dtype=np.int64) - self._buf[:m, -1]
            return np.nonzero((vals > 0) & self._live[:m])[0].tolist()
        out = []
        for pid in self.alive:
            _, a, b = self.pieces[pid]
            if sum(x * y for x, y in zip(a, p)) > b:
                out.append(pid)
        return out

    # -- insertion ---------------------------------------------------------

    def insert(self, pid_new: int) -> bool:
        p = self.points[pid_new]
        visible = self.visible_from(p)
        if not visible:
            return False
        visible_set = set(visible)
        horizon: list[tuple[frozenset[int], tuple[tuple[int, ...], int]]] = []
        for pid in visible:
            verts, _, _ = self.pieces[pid]
            for key in _ridge_keys(verts):
                for other in self.ridges[key] - visible_set:
                    horizon.append((key, self._rotated_plane(pid, other, p)))
        for pid in visible:
            self._kill_piece(pid)
        for key, plane in horizon:
            verts = tuple(sorted(key)) + (pid_new,)
            if strict_checks and plane != self._oriented_plane(verts):
                raise AssertionError(f"rotated plane of {verts} differs from its minors")
            self._add_piece(verts, *plane)
        if strict_checks:
            self._check_closed()
        return True

    def _check_closed(self) -> None:
        for key, incident in self.ridges.items():
            if len(incident) != 2:
                raise AssertionError(f"ridge {sorted(key)} bounds {len(incident)} pieces")

    # -- extraction ----------------------------------------------------------

    def facet_planes(self) -> list[tuple[tuple[int, ...], int]]:
        seen = {}
        for pid in self.alive:
            _, a, b = self.pieces[pid]
            seen[(a, b)] = None
        return [k for k in seen]

    def apex_cones(self):
        """Full simplices of the placing triangulation, as (point ids, |det|).

        The apex (a vertex of the initial simplex) is coned over every live
        boundary piece that does not contain it; cones of zero determinant
        (pieces in a facet through the apex) are skipped.  |det| is n! times
        the simplex volume in the scaled integer coordinates.
        """
        apex_id = self.apex_id
        apex = self.points[apex_id]
        for pid in self.alive:
            verts, _, _ = self.pieces[pid]
            if apex_id in verts:
                continue
            rows = [
                [self.points[v][j] - apex[j] for j in range(self.n)]
                for v in verts
            ]
            d = abs(det_int(rows))
            if d:
                yield verts + (apex_id,), d

    def extreme_ids(self, candidate_ids: list[int]) -> list[int]:
        planes = self.facet_planes()
        n = self.n
        if len(candidate_ids) * len(planes) >= 2048 and self._numpy_ok():
            mat = np.array([a + (b,) for a, b in planes], dtype=np.int64)
            pts = np.array([self.points[i] for i in candidate_ids], dtype=np.int64)
            vals = pts @ mat[:, :-1].T - mat[:, -1]
            if strict_checks and (vals > 0).any():
                raise AssertionError("input point outside its own hull")
            active_lists = [np.nonzero(vals[r] == 0)[0].tolist() for r in range(len(candidate_ids))]
        else:
            active_lists = []
            for i in candidate_ids:
                p = self.points[i]
                active = []
                for idx, (a, b) in enumerate(planes):
                    v = sum(x * y for x, y in zip(a, p)) - b
                    if strict_checks and v > 0:
                        raise AssertionError("input point outside its own hull")
                    if v == 0:
                        active.append(idx)
                active_lists.append(active)
        out = []
        for i, active in zip(candidate_ids, active_lists):
            if len(active) < n:
                continue
            if rank_int_rows([planes[idx][0] for idx in active]) == n:
                out.append(i)
        return out


def _scale_to_int(points: list[Vec]) -> tuple[list[tuple[int, ...]], int]:
    denom = 1
    for p in points:
        for x in p:
            denom = _lcm(denom, x.denominator)
    return [tuple(int(x * denom) for x in p) for p in points], denom


def _place(dim: int, points: list[Vec], independent: list[int]) -> tuple[_Placing, int]:
    """Scale to integers, order far-first, and place every point.

    ``independent`` indexes dim+1 affinely independent points, the initial
    simplex.  Returns the beneath-beyond structure and the scaling
    denominator.
    """
    int_points, denom = _scale_to_int(points)
    centroid = tuple(sum(p[j] for p in int_points) for j in range(dim))
    npts = len(int_points)

    def far_key(i: int) -> tuple:
        p = int_points[i]
        d2 = sum((npts * c - centroid[j]) ** 2 for j, c in enumerate(p))
        return (-d2, p)

    order = sorted(range(npts), key=far_key)
    placing = _Placing(dim, int_points, independent)
    in_simplex = set(independent)
    for i in order:
        if i not in in_simplex:
            placing.insert(i)
    return placing, denom


def _hull_full_rank(dim: int, points: list[Vec], independent: list[int]) -> HullData:
    if dim == 1:
        int_points, denom = _scale_to_int(points)
        vals = [p[0] for p in int_points]
        lo, hi = min(vals), max(vals)
        verts = tuple(sorted({points[vals.index(lo)], points[vals.index(hi)]}))
        return HullData(1, 1, verts, Fraction(hi - lo, denom))

    placing, denom = _place(dim, points, independent)
    extreme = placing.extreme_ids(list(range(len(points))))
    verts = tuple(sorted(points[i] for i in extreme))
    scaled = sum(d for _, d in placing.apex_cones())
    volume = Fraction(scaled, factorial(dim) * denom**dim)
    return HullData(dim, dim, verts, volume)


def _affine_basis(points: list[Vec], dim: int) -> tuple[AffineSpan, list[int]]:
    """Greedy affine basis: the span of the points and the indices spanning it."""
    span = AffineSpan(points[0])
    independent = [0]
    for i in range(1, len(points)):
        if span.try_add(points[i]):
            independent.append(i)
            if span.rank == dim:
                break
    return span, independent


Cell = tuple[tuple[int, ...], int]


def triangulate(points: list[Vec], dim: int) -> tuple[list[Cell], int] | None:
    """Placing triangulation of distinct points in R^dim, dim >= 2.

    Returns ``(cells, denom)``: each cell is (indices of its dim+1 points,
    |det|), where |det| / (dim! * denom**dim) is the cell's volume.  The
    cells tile the hull of the points.  None when the points do not span
    R^dim.
    """
    span, independent = _affine_basis(points, dim)
    if span.rank < dim:
        return None
    placing, denom = _place(dim, points, independent)
    return list(placing.apex_cones()), denom


def hull_of_points(points, dim: int) -> HullData:
    """Canonical hull data (irredundant vertices, exact volume) of a point set.

    The dimension cap lives at the polytope constructors; this engine accepts
    whatever dimension it is handed.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    unique: list[Vec] = []
    seen = set()
    for p in points:
        v = _as_fraction_vec(p)
        if len(v) != dim:
            raise ValueError(f"point of dimension {len(v)} in dimension-{dim} hull")
        if v not in seen:
            seen.add(v)
            unique.append(v)
    if not unique:
        raise ValueError("empty point set")
    if len(unique) == 1:
        return HullData(dim, 0, (unique[0],), Fraction(0))

    span, independent = _affine_basis(unique, dim)
    if span.rank == dim:
        return _hull_full_rank(dim, unique, independent)

    # Degenerate set: canonicalize inside the affine hull, ambient volume 0.
    rank = span.rank
    coords = [tuple(span.coordinates(p)) for p in unique]
    sub = hull_of_points(coords, rank)
    back = {c: p for c, p in zip(coords, unique)}
    verts = tuple(sorted(back[c] for c in sub.vertices))
    return HullData(dim, rank, verts, Fraction(0))
