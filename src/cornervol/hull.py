"""Exact convex hull, volume, and facet machinery in dimensions 1 through 8.

The engine is an incremental beneath-beyond construction.  The input points
are scaled to integers once, at entry (``_scale_to_int``), and deduped there
as integer tuples, each keeping its first occurrence; after that no
``Fraction`` is built, the input vectors of the extreme points are returned as
the vertices, and every predicate (visibility, extremeness) is an exact
integer comparison.  The initial simplex comes from a fraction-free greedy
elimination over the difference rows (``_affine_basis``).  Only the n+1 boundary pieces of the initial simplex get
their plane from minors (``hyperplane_normal``).  Every later piece is cut
through a horizon ridge and the new point p, and its plane is the ridge's two
planes rotated onto p: a nonnegative integer combination of the visible and
the hidden plane, divided by the gcd of its normal, which is the same
primitive plane the minors give, in O(n) integer work.  Under
``strict_checks`` every rotated plane is compared with the minors.

The boundary keeps neighbour arrays, the Quickhull representation
(Barber-Dobkin-Huhdanpaa 1996): neighbour k of a piece lies across the ridge
that omits the piece's vertex k.  An insertion finds the horizon as the
hidden neighbours of the visible pieces, gives each new piece its hidden
neighbour and rewrites that neighbour's back-pointer, and joins the new
pieces to each other across the (n-2)-faces they share.  Under
``strict_checks`` every live piece's neighbours are checked after each
insertion.

The triangulation is the one placing makes: the initial simplex, then the
cell conv(F u p) for every piece F visible from each placed point p.  Each
boundary piece keeps its lattice content g (the gcd of its raw minors), so
that cell has |det| = g_F (a_F.p - b_F), and the piece rotated through a
ridge of F gets g' = |det| / (b' - a'.q), with q the vertex of F off the
ridge.  Only the initial simplex's |det| is a determinant.  The hull volume
is the sum of the cells, and ``triangulate`` returns them.  Under
``strict_checks`` every cell's |det| is compared with its determinant and
every content division must be exact.

The result is read off the final boundary.  The facets are the distinct
planes of the live pieces; ``HullData`` returns them, so a caller can decide
a facet-sign property (down-closure, in ``antiblocking.validate_ab``) without
another hull.  A point is a vertex when it is a vertex of some live piece and
the distinct normals of the live pieces at it have rank n: the pieces at a
boundary point lie in exactly the facets through it.  Under ``strict_checks``
these vertices are compared with a scan of every input point against every
facet, which also asserts that no input point lies outside its hull.

numpy int64 is used purely as an accelerator for the visibility scans.
Piece planes go into an append-only int64 buffer, grown by doubling, with a
mask of the live rows; it is dropped for the rest of a construction once a
magnitude bound shows that int64 could overflow, and the scans go on in
Python integers, so results never depend on floating point or machine word
size.

Degenerate inputs (affine rank r below the ambient dimension) keep only the
r pivot coordinates of that elimination, which map their affine hull
one-to-one onto R^r; their ambient volume is zero, and their facets are
planes in those coordinates.  In R^1 the facets are the two endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

import numpy as np

from .linalg import det_int, hyperplane_normal, rank_int_rows, vec_gcd

Vec = tuple[Fraction, ...]
Cell = tuple[tuple[int, ...], int]
Plane = tuple[tuple[int, ...], int]  # (a, b): the half-space a.x <= b

MAX_DIM = 8

# int64 safety margin for the accelerated scans.
_INT64_BOUND = 2**62

# Enables expensive structural self-checks inside the engine (test use only).
strict_checks = False


@dataclass(frozen=True)
class HullData:
    """A hull's vertices and volume, and its facets in the pivot coordinates.

    ``pivots`` are the coordinates, ascending, that map the affine hull one-to-
    one onto R^rank (all of them at full rank, none at rank 0).  ``facets``
    are the distinct planes a.x <= b, sorted, of the hull taken there: a
    primitive integer normal a and an offset b in the input scaled to
    integers, so the signs of a and whether b is 0 are those of the rational
    facet.  Rank 0 has no facet.
    """

    dim: int
    rank: int
    vertices: tuple[Vec, ...]
    volume: Fraction
    pivots: tuple[int, ...]
    facets: tuple[Plane, ...]


def as_vec(point) -> Vec:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in point)


class _Placing:
    """Beneath-beyond structure over full-rank integer points."""

    INITIAL_ROWS = 64  # scan buffer capacity before its first doubling

    def __init__(self, n: int, points: list[tuple[int, ...]], simplex_ids: list[int]):
        self.n = n
        self.points = points
        self.osum = tuple(sum(points[i][j] for i in simplex_ids) for j in range(n))
        self.pieces: dict[int, tuple[tuple[int, ...], tuple[int, ...], int]] = {}
        self.alive: set[int] = set()
        # nbrs[pid][k]: the piece across the ridge of pid that omits verts[k].
        self.nbrs: list[list[int]] = []
        self.content: list[int] = []  # lattice content g, by piece id
        self._next_id = 0
        self._max_coord = max((abs(c) for p in points for c in p), default=1)
        self._max_normal = 1
        # Scan buffer: row pid holds (a..., b) of piece pid, live[pid] whether
        # it is alive.  Append-only, grown by doubling; dropped for good once
        # the int64 guard fails, since the guard's bound only grows.
        self._buf: np.ndarray | None = np.empty((self.INITIAL_ROWS, n + 1), dtype=np.int64)
        self._live = np.zeros(self.INITIAL_ROWS, dtype=bool)
        simplex = tuple(simplex_ids)
        det = self._simplex_det(simplex)
        self.cells: list[Cell] = [(simplex, det)]
        for omit in range(n + 1):  # piece `omit` gets id omit
            verts = tuple(simplex_ids[i] for i in range(n + 1) if i != omit)
            normal, offset = self._oriented_plane(verts)
            self._add_piece(verts, normal, offset,
                            self._content(det, normal, offset, simplex_ids[omit]),
                            [m for m in range(n + 1) if m != omit])

    def _simplex_det(self, ids: tuple[int, ...]) -> int:
        base = self.points[ids[-1]]
        return abs(det_int([
            [self.points[v][j] - base[j] for j in range(self.n)] for v in ids[:-1]
        ]))

    def _content(self, det: int, normal: tuple[int, ...], offset: int, q: int) -> int:
        """Lattice content of a piece, from a cell of |det| with apex q off it."""
        gap = offset - sum(a * x for a, x in zip(normal, self.points[q]))
        content, rem = divmod(det, gap)
        if strict_checks and rem:
            raise AssertionError(f"cell |det| {det} is not a multiple of the apex gap {gap}")
        return content

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

    def _rotated_plane(self, visible: int, invisible: int, p: tuple[int, ...],
                       s_v: int) -> tuple[tuple[int, ...], int]:
        """Outward plane through the ridge of two adjacent pieces and p.

        With s_v = a_v.p - b_v > 0 (p beyond the visible piece) and
        s_i = b_i - a_i.p >= 0 (p beneath the other), the combination
        s_i (a_v, b_v) + s_v (a_i, b_i) vanishes on the ridge and at p, and
        keeps the interior on its negative side; divided by the gcd of its
        normal it is the primitive plane ``_oriented_plane`` would compute.
        """
        _, a_v, b_v = self.pieces[visible]
        _, a_i, b_i = self.pieces[invisible]
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

    def _add_piece(self, verts: tuple[int, ...], normal: tuple[int, ...], offset: int,
                   content: int, nbrs: list[int]) -> int:
        pid = self._next_id
        self._next_id += 1
        self.pieces[pid] = (verts, normal, offset)
        self.content.append(content)
        self.nbrs.append(nbrs)
        self.alive.add(pid)
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
        self.alive.discard(pid)
        if self._buf is not None:
            self._live[pid] = False

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
        # One entry per horizon ridge: (ridge, visible piece, hidden piece, plane, content).
        horizon: list[tuple[tuple[int, ...], int, int, tuple[int, ...], int, int]] = []
        for pid in visible:
            verts, a, b = self.pieces[pid]
            cell = verts + (pid_new,)
            s_v = sum(x * y for x, y in zip(a, p)) - b
            det = self.content[pid] * s_v
            if strict_checks and det != self._simplex_det(cell):
                raise AssertionError(f"cell {cell} has |det| {det} by content")
            self.cells.append((cell, det))
            for k, other in enumerate(self.nbrs[pid]):
                if other in visible_set:
                    continue
                normal, offset = self._rotated_plane(pid, other, p, s_v)
                ridge = tuple(sorted(verts[:k] + verts[k + 1:]))
                horizon.append((ridge, pid, other, normal, offset,
                                self._content(det, normal, offset, verts[k])))
        for pid in visible:
            self._kill_piece(pid)
        # The new pieces meet each other across the (n-2)-faces of the horizon,
        # each shared by two horizon ridges: (new piece, slot) of the first seen.
        faces: dict[tuple[int, ...], tuple[int, int]] = {}
        for ridge, pid, other, normal, offset, content in horizon:
            verts = ridge + (pid_new,)
            if strict_checks and (normal, offset) != self._oriented_plane(verts):
                raise AssertionError(f"rotated plane of {verts} differs from its minors")
            new = self._next_id
            nbrs = [-1] * self.n
            nbrs[-1] = other
            back = self.nbrs[other]
            back[back.index(pid)] = new
            for k in range(self.n - 1):
                face = ridge[:k] + ridge[k + 1:]
                mate = faces.pop(face, None)
                if mate is None:
                    faces[face] = (new, k)
                else:
                    nbrs[k] = mate[0]
                    self.nbrs[mate[0]][mate[1]] = new
            self._add_piece(verts, normal, offset, content, nbrs)
        if strict_checks:
            self._check_closed()
        return True

    def _check_closed(self) -> None:
        """Every live piece's neighbour k is alive, contains the ridge, and points back."""
        for pid in self.alive:
            verts = self.pieces[pid][0]
            for k, other in enumerate(self.nbrs[pid]):
                ridge = set(verts[:k] + verts[k + 1:])
                other_verts = self.pieces[other][0] if other in self.alive else ()
                off = [i for i, v in enumerate(other_verts) if v not in ridge]
                if len(off) != 1 or self.nbrs[other][off[0]] != pid:
                    raise AssertionError(
                        f"piece {pid} and its neighbour {other} across {sorted(ridge)} "
                        "do not meet in that ridge")

    # -- extraction ----------------------------------------------------------

    def facet_planes(self) -> list[Plane]:
        """The distinct planes (a, b), a.x <= b, of the live pieces, sorted."""
        return sorted({self.pieces[pid][1:] for pid in self.alive})

    def extreme_ids(self) -> list[int]:
        """Ids of the extreme points, read off the final boundary.

        Every extreme point is a vertex of some live piece, and the live
        pieces at a boundary point p lie in exactly the facets through p (the
        boundary is a triangulated sphere, and a piece meeting a facet's
        relative interior lies in that facet).  So p is extreme exactly when
        the distinct normals of its live pieces have rank n.  Under
        ``strict_checks`` the result is compared with a scan of every point
        against every facet.
        """
        normals: dict[int, set[tuple[int, ...]]] = {}
        for pid in self.alive:
            verts, a, _ = self.pieces[pid]
            for v in verts:
                normals.setdefault(v, set()).add(a)
        n = self.n
        out = sorted(v for v, rows in normals.items()
                     if len(rows) >= n and rank_int_rows(list(rows)) == n)
        if strict_checks:
            scanned = self._scan_extreme_ids()
            if out != scanned:
                raise AssertionError(f"extreme points {out} by incidence, {scanned} by scan")
        return out

    def _scan_extreme_ids(self) -> list[int]:
        """Extreme points by testing every input point against every facet."""
        planes = self.facet_planes()
        out = []
        for i, p in enumerate(self.points):
            active = []
            for a, b in planes:
                v = sum(x * y for x, y in zip(a, p)) - b
                if v > 0:
                    raise AssertionError("input point outside its own hull")
                if v == 0:
                    active.append(a)
            if len(active) >= self.n and rank_int_rows(active) == self.n:
                out.append(i)
        return out


def _scale_to_int(points: list[Vec]) -> tuple[list[tuple[int, ...]], int]:
    denom = lcm(*(x.denominator for p in points for x in p))
    return [tuple(x.numerator * (denom // x.denominator) for x in p) for p in points], denom


def _affine_basis(points: list[tuple[int, ...]], dim: int) -> tuple[list[int], list[int]]:
    """Greedy affine basis of integer points, by fraction-free elimination.

    Point i joins when its difference from point 0 is independent of the
    differences taken so far, so the basis does not depend on how the
    elimination is done.  Each stored row is reduced against the earlier ones
    and divided by its gcd; it vanishes on their pivot columns, so the rows
    are triangular on the pivots.  Returns the basis indices and the pivot
    columns in ascending order.
    """
    base = points[0]
    rows: list[tuple[int, list[int]]] = []
    independent = [0]
    for i in range(1, len(points)):
        d = [x - y for x, y in zip(points[i], base)]
        for col, row in rows:
            f = d[col]
            if f:
                pv = row[col]
                d = [pv * x - f * y for x, y in zip(d, row)]
        col = next((j for j, x in enumerate(d) if x), None)
        if col is None:
            continue
        g = vec_gcd(d)
        rows.append((col, [x // g for x in d]))
        independent.append(i)
        if len(rows) == dim:
            break
    return independent, sorted(col for col, _ in rows)


def _place(dim: int, points: list[tuple[int, ...]], independent: list[int]) -> _Placing:
    """Order the integer points far-first and place every one.

    ``independent`` indexes dim+1 affinely independent points, the initial
    simplex.
    """
    centroid = tuple(sum(p[j] for p in points) for j in range(dim))
    npts = len(points)

    def far_key(i: int) -> tuple:
        p = points[i]
        d2 = sum((npts * c - centroid[j]) ** 2 for j, c in enumerate(p))
        return (-d2, p)

    order = sorted(range(npts), key=far_key)
    placing = _Placing(dim, points, independent)
    in_simplex = set(independent)
    for i in order:
        if i not in in_simplex:
            placing.insert(i)
    return placing


def _hull_full_rank(dim: int, points: list[tuple[int, ...]],
                    independent: list[int]) -> tuple[list[int], int, list[Plane]]:
    """Extreme point ids, dim! times the volume, and the facet planes of
    spanning integer points."""
    if dim == 1:
        vals = [p[0] for p in points]
        lo, hi = min(vals), max(vals)
        return [vals.index(lo), vals.index(hi)], hi - lo, [((-1,), -lo), ((1,), hi)]
    placing = _place(dim, points, independent)
    return (placing.extreme_ids(), sum(d for _, d in placing.cells),
            placing.facet_planes())


def triangulate(points: list[Vec], dim: int) -> tuple[list[Cell], int] | None:
    """Placing triangulation of distinct points in R^dim, dim >= 2.

    Returns ``(cells, denom)``: the cells placing made (the initial simplex,
    then conv(F u p) for every piece F visible from each placed point p),
    each as (indices of its dim+1 points, |det|), where |det| / (dim! *
    denom**dim) is the cell's volume.  The cells tile the hull of the
    points.  None when the points do not span R^dim.
    """
    int_points, denom = _scale_to_int(points)
    independent, pivots = _affine_basis(int_points, dim)
    if len(pivots) < dim:
        return None
    return _place(dim, int_points, independent).cells, denom


def hull_of_points(points, dim: int) -> HullData:
    """Canonical hull data (irredundant vertices, exact volume) of a point set.

    The dimension cap lives at the polytope constructors; this engine accepts
    whatever dimension it is handed.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    vecs = [as_vec(p) for p in points]
    for v in vecs:
        if len(v) != dim:
            raise ValueError(f"point of dimension {len(v)} in dimension-{dim} hull")
    if not vecs:
        raise ValueError("empty point set")
    scaled_points, denom = _scale_to_int(vecs)
    # Deduped on the integer points; each keeps the index of its first occurrence.
    first: dict[tuple[int, ...], int] = {}
    for i, q in enumerate(scaled_points):
        first.setdefault(q, i)
    if len(first) == 1:
        return HullData(dim, 0, (vecs[0],), Fraction(0), (), ())

    int_points = list(first)
    independent, pivots = _affine_basis(int_points, dim)
    rank = len(pivots)
    if rank < dim:
        # Degenerate set: its pivot coordinates map its affine hull one-to-one
        # onto R^rank, so the hull is taken there; ambient volume 0.
        int_points = [tuple(p[c] for c in pivots) for p in int_points]
    extreme, scaled, facets = _hull_full_rank(rank, int_points, independent)
    source = list(first.values())
    verts = tuple(sorted(vecs[source[i]] for i in extreme))
    volume = Fraction(scaled, factorial(dim) * denom**dim) if rank == dim else Fraction(0)
    return HullData(dim, rank, verts, volume, tuple(pivots), tuple(facets))
