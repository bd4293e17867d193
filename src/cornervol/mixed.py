"""Exact mixed volumes via the Cayley trick, interpolation and polarization.

The engine behind ``volume_polynomial`` is the Cayley trick (Huber-Sturmfels
1995; Huber-Rambau-Santos 2000).  K is lifted to height 0 and T to height 1
in R^(n+1), and one placing triangulation of the Cayley polytope
conv(K x {0} u T x {1}) is built.  A full simplex with a+1 vertices at height
0 and b+1 at height 1 (a + b = n) slices into a cell of a mixed subdivision
of (1-s)K + sT whose volume is (n+1)!/(a! b!) * Vol_(n+1)(simplex) *
(1-s)^a s^b, so summing the simplices by type gives every coefficient
C(n, a) V(K[a], T[b]) at once, exactly.

``volume_polynomial_by_probes`` is the independent oracle: the n+1 probes
Vol(K + sT) at s = 0..n are exact hull volumes of Minkowski sums, and the
Vandermonde system is solved over the rationals.  Tests and ``mixvol
--cross-check`` compare the two routes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial

from .geometry import VPolytope, minkowski_sum, scale, sum_polytopes, volume
from .hull import triangulate
from .linalg import solve_linear


@dataclass(frozen=True)
class VolumePolynomial:
    """Coefficients of Vol(K + tT) = sum_j coeffs[j] * t^(n-j).

    coeffs[j] equals C(n, j) * V_n(K[j], T[n-j]); in particular coeffs[n] is
    Vol(K) and coeffs[0] is Vol(T).
    """

    dim: int
    coeffs: tuple[Fraction, ...]

    def value_at(self, t) -> Fraction:
        t = Fraction(t)
        n = self.dim
        return sum((c * t ** (n - j) for j, c in enumerate(self.coeffs)), Fraction(0))

    def mixed(self, j: int) -> Fraction:
        if not 0 <= j <= self.dim:
            raise ValueError("copy count out of range")
        return self.coeffs[j] / comb(self.dim, j)


def _checked(k: VPolytope, t: VPolytope, coeffs, route: str) -> VolumePolynomial:
    """Reject a coefficient vector that no pair of polytopes can have.

    The endpoints are compared with hull volumes of K and T, which the route
    under test did not compute.
    """
    n = k.dim
    for c in coeffs:
        if c < 0:
            raise RuntimeError(f"negative mixed volume from the {route} route (engine bug)")
    if coeffs[n] != volume(k) or coeffs[0] != volume(t):
        raise RuntimeError(
            f"volume polynomial endpoints from the {route} route disagree with "
            "the hull volumes of K and T (engine bug)"
        )
    return VolumePolynomial(n, tuple(coeffs))


@cache
def volume_polynomial(k: VPolytope, t: VPolytope) -> VolumePolynomial:
    """Exact expansion of Vol(K + sT) in s, from one Cayley triangulation."""
    if k.dim != t.dim:
        raise ValueError("dimension mismatch")
    n = k.dim
    lifted = [v + (Fraction(0),) for v in k.vertices]
    lifted += [w + (Fraction(1),) for w in t.vertices]
    coeffs = [Fraction(0)] * (n + 1)
    tri = triangulate(lifted, n + 1)
    # A Cayley polytope of rank below n+1 means K + T is lower-dimensional:
    # every coefficient is 0.
    if tri is not None:
        cells, denom = tri
        nk = len(k.vertices)
        by_type = [0] * (n + 1)
        for ids, det in cells:
            a = sum(1 for i in ids if i < nk) - 1
            by_type[a] += det
        scale_n1 = denom ** (n + 1)
        coeffs = [
            Fraction(s, factorial(a) * factorial(n - a) * scale_n1)
            for a, s in enumerate(by_type)
        ]
    return _checked(k, t, coeffs, "Cayley")


def volume_polynomial_by_probes(k: VPolytope, t: VPolytope) -> VolumePolynomial:
    """Independent oracle: probes Vol(K + sT) at s = 0..n and interpolates.

    Uncached, so a cross-check against ``volume_polynomial`` never reads a
    value the other route stored.
    """
    if k.dim != t.dim:
        raise ValueError("dimension mismatch")
    n = k.dim
    values = [volume(k)]
    for step in range(1, n + 1):
        values.append(volume(minkowski_sum(k, scale(t, step))))
    rows = [
        [Fraction(step) ** (n - j) for j in range(n + 1)]
        for step in range(n + 1)
    ]
    coeffs = solve_linear(rows, [Fraction(v) for v in values])
    return _checked(k, t, coeffs, "interpolation")


def mixed_volume_pair(k: VPolytope, t: VPolytope, j: int) -> Fraction:
    """V_n(K[j], T[n-j]): j copies of K, n-j copies of T."""
    return volume_polynomial(k, t).mixed(j)


def mixed_volume_tuple(bodies) -> Fraction:
    """V_n(K_1, ..., K_n) by inclusion-exclusion polarization.

    Exponential in n; meant for cross-checking the two-body routes on small
    instances.
    """
    bodies = list(bodies)
    if not bodies:
        raise ValueError("no bodies given")
    n = bodies[0].dim
    if len(bodies) != n:
        raise ValueError(f"need exactly {n} bodies in dimension {n}")
    for b in bodies:
        if b.dim != n:
            raise ValueError("dimension mismatch")
    total = Fraction(0)
    for size in range(1, n + 1):
        sign = (-1) ** (n - size)
        for subset in itertools.combinations(range(n), size):
            vol = volume(sum_polytopes([bodies[i] for i in subset]))
            total += sign * vol
    return total / factorial(n)
