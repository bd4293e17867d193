"""Exact convex hull, volume, and facet machinery in any dimension: the cap
is ``geometry.cap_dim``'s, met by the polytopes built from points.

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

numpy int64 is an accelerator only: every value it computes is the exact
integer the Python loop computes, or is not computed in int64 at all.  Piece
planes go into an append-only int64 buffer, grown by doubling, with a mask
of the live rows, and the visibility scans are one product over it; it is
dropped for the rest of a construction once a magnitude bound shows that
int64 could overflow, and the scans go on in Python integers.  From
``_Placing.BATCH_PIECES`` live pieces on, the pieces' vertices, neighbours
and contents move into int64 arrays beside that buffer, and each insertion
runs as a fixed number of array operations: the scan, whose values give the
s_v and s_i of every horizon ridge; the horizon as the hidden neighbours of
the visible pieces; the rotated planes, their gcds and checks, apex gaps and
contents; the cells and back-pointers; and the faces that join the new
pieces, paired by one dict over their bytes.  A second bound, checked before
every insertion, covers each intermediate of the batch; when it fails the
pieces go back to the Python form for the rest of the construction.  Either
way the pieces, their ids and the cells are those of the Python loop, and
results never depend on floating point or machine word size.

Degenerate inputs (affine rank r below the ambient dimension) keep only the
r pivot coordinates of that elimination, which map their affine hull
one-to-one onto R^r; their ambient volume is zero, and their facets are
planes in those coordinates.  In R^1 the facets are the two endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul

import numpy as np

from .linalg import det_int, hyperplane_normal, rank_int_rows

Vec = tuple[Fraction, ...]
Cell = tuple[tuple[int, ...], int]
Plane = tuple[tuple[int, ...], int]  # (a, b): the half-space a.x <= b

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
    primitive integer normal a and an offset b in the coordinates scaled by
    the lcm D of the vertex denominators (``VPolytope.denom``), so they
    depend on the polytope and not on redundant input points, and the signs
    of a and whether b is 0 are those of the rational facet.  Rank 0 has no
    facet.
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
    """Beneath-beyond structure over full-rank integer points.

    The live boundary pieces are held in one of two forms, never both.  A
    small placing keeps ``pieces``, pid -> (verts, normal, offset, content,
    nbrs), and inserts by a Python loop.  From ``BATCH_PIECES`` live pieces
    on, while the int64 guards hold, the pieces are rows of append-only int64
    arrays beside the scan buffer, and each insertion is a fixed number of
    array operations (``_insert_batched``); a guard that fails hands the
    pieces back to the Python form for the rest of the construction.  A
    piece's vertices are its ridge, ascending, then its apex (the initial
    simplex's pieces are ascending), so a piece's vertices less one are
    ascending but for at most their last entry.  Either form visits the live
    pieces in ascending id order.

    The Python form scans from 32 live pieces on through its own int64 scan
    buffer, because it serves the placings the batch guard refuses: random
    dim-5 hulls of coordinates in [-50, 50] never batch, and they take more
    than twice as long without it.
    """

    INITIAL_ROWS = 64  # scan buffer capacity before its first doubling
    BATCH_PIECES = 128  # live pieces from which an insertion runs batched

    def __init__(self, n: int, points: list[tuple[int, ...]], simplex_ids: list[int]):
        self.n = n
        self.points = points
        self.osum = tuple(sum(points[i][j] for i in simplex_ids) for j in range(n))
        # The Python form; nbrs[k] is the piece across the ridge that omits
        # verts[k], content the lattice content g.  None while batched.  Ids
        # only grow, so its insertion order is ascending id.
        self.pieces: dict[int, tuple] | None = {}
        self.live_count = 0
        self._next_id = 0
        self._max_coord = max((abs(c) for p in points for c in p), default=1)
        self._max_normal = 1
        # Scan buffer: row pid holds (a..., b) of piece pid, live[pid] whether
        # it is alive.  Append-only, grown by doubling; dropped for good once
        # the int64 guard fails, since the guard's bound only grows.
        self._buf: np.ndarray | None = None
        self._live: np.ndarray | None = None
        if self._numpy_ok():
            self._buf = np.empty((self.INITIAL_ROWS, n + 1), dtype=np.int64)
            self._live = np.zeros(self.INITIAL_ROWS, dtype=bool)
        # The batched form: vertices, neighbours and contents by piece id.
        self._verts: np.ndarray | None = None
        self._nbrs: np.ndarray | None = None
        self._contents: np.ndarray | None = None
        # The batched form keys faces of n-2 vertices by their bytes, so it
        # starts from n = 3; false for good once the pieces are handed back.
        self._batchable = n >= 3
        self.batched_inserts = 0
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
        gap = offset - sum(map(mul, normal, self.points[q]))
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
        offset = sum(map(mul, normal, base))
        side = sum(map(mul, normal, self.osum)) - (self.n + 1) * offset
        if side == 0:
            raise RuntimeError("reference point on a boundary hyperplane")
        if side > 0:
            normal = tuple(-a for a in normal)
            offset = -offset
        return normal, offset

    def _rotated_plane(self, a_v: tuple[int, ...], b_v: int, a_i: tuple[int, ...], b_i: int,
                       p: tuple[int, ...], s_v: int) -> tuple[tuple[int, ...], int]:
        """Outward plane through the ridge of two adjacent pieces and p.

        With s_v = a_v.p - b_v > 0 (p beyond the visible piece) and
        s_i = b_i - a_i.p >= 0 (p beneath the other), the combination
        s_i (a_v, b_v) + s_v (a_i, b_i) vanishes on the ridge and at p, and
        keeps the interior on its negative side; divided by the gcd of its
        normal it is the primitive plane ``_oriented_plane`` would compute.
        """
        s_i = b_i - sum(map(mul, a_i, p))
        normal = [s_i * x + s_v * y for x, y in zip(a_v, a_i)]
        g = gcd(*normal)
        if g == 0:
            raise RuntimeError("degenerate boundary piece")
        normal = tuple(c // g for c in normal)
        offset = (s_i * b_v + s_v * b_i) // g
        if sum(map(mul, normal, p)) != offset:
            raise RuntimeError("degenerate boundary piece")
        side = sum(map(mul, normal, self.osum)) - (self.n + 1) * offset
        if side >= 0:
            raise RuntimeError("reference point on a boundary hyperplane")
        return normal, offset

    def _add_piece(self, verts: tuple[int, ...], normal: tuple[int, ...], offset: int,
                   content: int, nbrs: list[int]) -> int:
        pid = self._next_id
        self._next_id += 1
        self.pieces[pid] = (verts, normal, offset, content, nbrs)
        self.live_count += 1
        mag = max(map(abs, normal))
        if mag > self._max_normal:
            self._max_normal = mag
            if self._buf is not None and not self._numpy_ok():
                self._buf = self._live = None
        if self._buf is not None:
            if pid == len(self._buf):
                self._grow(pid + 1)
            self._buf[pid] = normal + (offset,)
            self._live[pid] = True
        return pid

    def _kill_piece(self, pid: int) -> None:
        self.live_count -= 1
        del self.pieces[pid]
        if self._buf is not None:
            self._live[pid] = False

    def _grow(self, rows: int) -> None:
        """Double the row capacity of the arrays in use until it holds ``rows``.

        One array at a time, and only the rows in use are copied into the
        new, uninitialised one, so a doubling pages in no more than it keeps.
        """
        cap = len(self._buf)
        if rows <= cap:
            return
        new_cap = cap
        while new_cap < rows:
            new_cap *= 2
        used = min(cap, self._next_id)
        for name in ("_buf", "_live", "_verts", "_nbrs", "_contents"):
            old = getattr(self, name)
            if old is not None:
                new = np.empty((new_cap,) + old.shape[1:], dtype=old.dtype)
                new[:used] = old[:used]
                setattr(self, name, new)

    def live_pieces(self) -> dict[int, tuple]:
        """pid -> (verts, normal, offset, content, nbrs) of the live pieces, by pid."""
        if self.pieces is not None:
            return self.pieces
        ids = np.flatnonzero(self._live[:self._next_id]).tolist()
        planes = self._buf[ids].tolist()
        return {
            pid: (tuple(verts), tuple(plane[:-1]), plane[-1], content, nbrs)
            for pid, verts, plane, content, nbrs in zip(
                ids, self._verts[ids].tolist(), planes, self._contents[ids].tolist(),
                self._nbrs[ids].tolist())
        }

    # -- scans -------------------------------------------------------------

    def _numpy_ok(self) -> bool:
        return self._max_coord * self._max_normal * (self.n + 1) < _INT64_BOUND

    def visible_from(self, p: tuple[int, ...]) -> list[int]:
        if self.live_count >= 32 and self._buf is not None:
            m = self._next_id
            vals = self._buf[:m, :-1] @ np.array(p, dtype=np.int64) - self._buf[:m, -1]
            return np.nonzero((vals > 0) & self._live[:m])[0].tolist()
        return [pid for pid, (_, a, b, _, _) in self.pieces.items()
                if sum(map(mul, a, p)) > b]

    # -- insertion ---------------------------------------------------------

    def insert(self, pid_new: int) -> bool:
        if (self.pieces is not None and self._batchable and self._buf is not None
                and self.live_count >= self.BATCH_PIECES):
            self._to_arrays()
        if self.pieces is None:
            placed = self._insert_batched(pid_new)
            if placed is not None:
                return placed
        p = self.points[pid_new]
        visible = self.visible_from(p)
        if not visible:
            return False
        pieces = self.pieces
        visible_set = set(visible)
        # One entry per horizon ridge: (ridge, visible piece, hidden piece, plane, content).
        horizon: list[tuple[tuple[int, ...], int, int, tuple[int, ...], int, int]] = []
        for pid in visible:
            verts, a, b, content, nbrs = pieces[pid]
            cell = verts + (pid_new,)
            s_v = sum(map(mul, a, p)) - b
            det = content * s_v
            if strict_checks and det != self._simplex_det(cell):
                raise AssertionError(f"cell {cell} has |det| {det} by content")
            self.cells.append((cell, det))
            for k, other in enumerate(nbrs):
                if other in visible_set:
                    continue
                hidden = pieces[other]
                normal, offset = self._rotated_plane(a, b, hidden[1], hidden[2], p, s_v)
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
            back = pieces[other][4]
            back[back.index(pid)] = new
            for k in range(self.n - 1):
                face = ridge[:k] + ridge[k + 1:]
                mate = faces.pop(face, None)
                if mate is None:
                    faces[face] = (new, k)
                else:
                    nbrs[k] = mate[0]
                    pieces[mate[0]][4][mate[1]] = new
            self._add_piece(verts, normal, offset, content, nbrs)
        if strict_checks:
            self._check_closed()
        return True

    # -- the batched form --------------------------------------------------

    def _to_arrays(self) -> None:
        """Move the live pieces into int64 rows, when their contents fit."""
        pieces = self.pieces
        if max(piece[3] for piece in pieces.values()) >= _INT64_BOUND:
            self._batchable = False
            return
        n, cap = self.n, len(self._buf)
        ids = list(pieces)
        self._verts = np.empty((cap, n), dtype=np.int64)
        self._nbrs = np.empty((cap, n), dtype=np.int64)
        self._contents = np.empty(cap, dtype=np.int64)
        self._verts[ids] = [pieces[pid][0] for pid in ids]
        self._nbrs[ids] = [pieces[pid][4] for pid in ids]
        self._contents[ids] = [pieces[pid][3] for pid in ids]
        self.pieces = None
        # Points and the reference sum in homogeneous form (x, -1) and
        # (osum, -(n+1)), so a plane row (a, b) gives a.x - b in one product.
        self._hpoints = np.empty((len(self.points), n + 1), dtype=np.int64)
        self._hpoints[:, :n] = self.points
        self._hpoints[:, n] = -1
        self._hosum = np.array(self.osum + (-(n + 1),), dtype=np.int64)
        # Column picks: a piece's ridge omitting slot k, a ridge's face omitting slot k.
        self._ridge_cols = np.array([[j for j in range(n) if j != k] for k in range(n)])
        self._face_cols = np.array([[j for j in range(n - 1) if j != k]
                                    for k in range(n - 1)]).reshape(n - 1, n - 2)

    def _to_python(self) -> None:
        """Hand the live pieces back to the Python form for the rest of the placing."""
        self.pieces = self.live_pieces()
        self._verts = self._nbrs = self._contents = None
        self._batchable = False

    def _insert_batched(self, pid_new: int) -> bool | None:
        """``insert`` as int64 array operations, with the same pieces, ids and cells.

        Every intermediate is bounded before it is formed.  Each plane row
        (a, b) has |a| <= N (``_max_normal``) and |b| <= n N C, with C
        ``_max_coord``, so with S the largest s_v and s_i the rotated rows,
        their dot products with p, with the reference sum and with the apex,
        and the apex gaps stay below 4 n (n+1) S N C; the new normals then pass
        the scan guard.  Cells need content times s_v.  When a bound fails the
        pieces go back to the Python form and None is returned.
        """
        n, m = self.n, self._next_id
        buf, hpoints = self._buf, self._hpoints
        vals = buf[:m] @ hpoints[pid_new]  # a.p - b of every piece
        visible = vals > 0
        visible &= self._live[:m]
        vis = np.flatnonzero(visible)
        if not len(vis):
            return False
        s_v = vals[vis]
        contents = self._contents[vis]
        verts = self._verts[vis]
        # The horizon ridges in the Python loop's order: by visible piece, then slot.
        rows, slots = np.nonzero(~visible[self._nbrs[vis]])
        vpid = vis[rows]
        other = self._nbrs[vpid, slots]
        vals_i = vals[other]  # -s_i
        sv_max = int(s_v.max())
        big = max(sv_max, -int(vals_i.min()))
        if (int(contents.max()) * sv_max >= _INT64_BOUND
                or 4 * n * (n + 1) * big * self._max_normal * self._max_coord >= _INT64_BOUND):
            self._to_python()
            return None
        dets = contents * s_v
        cells = np.empty((len(vis), n + 1), dtype=np.int64)
        cells[:, :n] = verts
        cells[:, n] = pid_new
        # The rotated planes s_i (a_v, b_v) + s_v (a_i, b_i), made primitive.
        planes = s_v[rows][:, None] * buf[other] - vals_i[:, None] * buf[vpid]
        g = np.gcd.reduce(planes[:, :-1], axis=1)
        if not g.all():
            raise RuntimeError("degenerate boundary piece")
        planes //= g[:, None]
        if (planes @ hpoints[pid_new]).any():
            raise RuntimeError("degenerate boundary piece")
        if (planes @ self._hosum >= 0).any():
            raise RuntimeError("reference point on a boundary hyperplane")
        # Content of a new piece: its visible piece's cell |det| over the gap
        # b' - a'.q, q the vertex off the ridge.
        apexes = hpoints[verts[rows, slots], :-1]
        gaps = planes[:, -1] - (planes[:, None, :-1] @ apexes[:, :, None]).ravel()
        cell_dets = dets[rows]
        new_contents = cell_dets // gaps
        # Each ridge is its piece's vertices without slot k: ascending but for
        # the last entry, which one pass of compare-exchanges moves into place.
        ridges = verts[rows[:, None], self._ridge_cols[slots]]
        for j in range(n - 2, 0, -1):
            lo = np.minimum(ridges[:, j - 1], ridges[:, j])
            np.maximum(ridges[:, j - 1], ridges[:, j], out=ridges[:, j])
            ridges[:, j - 1] = lo
        h = len(rows)
        # The new pieces meet across the (n-2)-faces of the horizon ridges,
        # each face in exactly two ridges.  A face is keyed by its bytes; the
        # last position of each key is the mate of the first, and the first
        # positions are scattered into the last ones.
        count = h * (n - 1)
        faces = ridges[:, self._face_cols].reshape(count, n - 2)
        keys = faces.view(np.dtype((np.void, faces.itemsize * (n - 2)))).ravel().tolist()
        last = dict(zip(keys, range(count)))
        mates = np.fromiter(map(last.__getitem__, keys), np.int64, count)
        flat = np.arange(count)
        first = mates != flat
        mates[mates[first]] = flat[first]
        if strict_checks:
            for cell, det in zip(cells.tolist(), dets.tolist()):
                if det != self._simplex_det(tuple(cell)):
                    raise AssertionError(f"cell {tuple(cell)} has |det| {det} by content")
            if (cell_dets % gaps).any():
                raise AssertionError("a cell |det| is not a multiple of its apex gap")
            if (ridges[:, 1:] <= ridges[:, :-1]).any():
                raise AssertionError("a horizon ridge is not ascending")
            for ridge, plane in zip(ridges.tolist(), planes.tolist()):
                piece = tuple(ridge) + (pid_new,)
                if (tuple(plane[:-1]), plane[-1]) != self._oriented_plane(piece):
                    raise AssertionError(f"rotated plane of {piece} differs from its minors")
        self._grow(m + h)
        new = slice(m, m + h)
        # Each hidden piece points back at its visible neighbour in one slot.
        self._nbrs[other, np.nonzero(self._nbrs[other] == vpid[:, None])[1]] = np.arange(m, m + h)
        self._nbrs[new, :-1] = (mates // (n - 1) + m).reshape(h, n - 1)
        self._nbrs[new, -1] = other
        self._verts[new, :-1] = ridges
        self._verts[new, -1] = pid_new
        self._contents[new] = new_contents
        self._buf[new] = planes
        self._live[vis] = False
        self._live[new] = True
        self._next_id = m + h
        normals = planes[:, :-1]
        self._max_normal = max(self._max_normal, int(normals.max()), -int(normals.min()))
        self.cells.extend(zip(map(tuple, cells.tolist()), dets.tolist()))
        self.live_count += h - len(vis)
        self.batched_inserts += 1
        if strict_checks:
            if not self._numpy_ok():
                raise AssertionError("batched planes outgrew the scan guard")
            self._check_closed()
        return True

    def _check_closed(self) -> None:
        """Every live piece's neighbour k is alive, contains the ridge, and points back."""
        pieces = self.live_pieces()
        for pid, (verts, _, _, _, nbrs) in pieces.items():
            for k, other in enumerate(nbrs):
                ridge = set(verts[:k] + verts[k + 1:])
                other_verts = pieces[other][0] if other in pieces else ()
                off = [i for i, v in enumerate(other_verts) if v not in ridge]
                if len(off) != 1 or pieces[other][4][off[0]] != pid:
                    raise AssertionError(
                        f"piece {pid} and its neighbour {other} across {sorted(ridge)} "
                        "do not meet in that ridge")

    # -- extraction ----------------------------------------------------------

    def boundary(self) -> tuple[list[int], list[Plane]]:
        """Ids of the extreme points, and the distinct planes (a, b), a.x <=
        b, of the live pieces, sorted: both read off the final boundary in
        one pass over its pieces.

        Every extreme point is a vertex of some live piece, and the live
        pieces at a boundary point p lie in exactly the facets through p (the
        boundary is a triangulated sphere, and a piece meeting a facet's
        relative interior lies in that facet).  So p is extreme exactly when
        the distinct normals of its live pieces have rank n.  Under
        ``strict_checks`` the extreme points are compared with a scan of
        every point against every facet.
        """
        normals: dict[int, set[tuple[int, ...]]] = {}
        planes = set()
        for verts, a, b, _, _ in self.live_pieces().values():
            planes.add((a, b))
            for v in verts:
                normals.setdefault(v, set()).add(a)
        n = self.n
        out = sorted(v for v, rows in normals.items()
                     if len(rows) >= n and rank_int_rows(list(rows)) == n)
        planes = sorted(planes)
        if strict_checks:
            scanned = self._scan_extreme_ids(planes)
            if out != scanned:
                raise AssertionError(f"extreme points {out} by incidence, {scanned} by scan")
        return out, planes

    def _scan_extreme_ids(self, planes: list[Plane]) -> list[int]:
        """Extreme points by testing every input point against every facet plane."""
        out = []
        for i, p in enumerate(self.points):
            active = []
            for a, b in planes:
                v = sum(map(mul, a, p)) - b
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
        g = gcd(*d)
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
    extreme, planes = placing.boundary()
    return extreme, sum(d for _, d in placing.cells), planes


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
    # Offsets move from the input's scale to the vertices': b * D / denom is
    # an integer, a times a vertex on the facet scaled by D.
    vdenom = lcm(*(x.denominator for v in verts for x in v))
    if vdenom != denom:
        facets = [(a, b * vdenom // denom) for a, b in facets]
    volume = Fraction(scaled, factorial(dim) * denom**dim) if rank == dim else Fraction(0)
    return HullData(dim, rank, verts, volume, tuple(pivots), tuple(facets))
