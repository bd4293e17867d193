"""Closed-form mixed volumes of axis-aligned simplices and related oracles.

An axis-aligned simplex is conv(0, a_1 e_1, ..., a_n e_n).  Its mixed volumes
against the unit coordinate simplex, and more generally against another
aligned simplex, have product formulas over size-j index sets; this module
evaluates those forms and the slice-integration recursion that serves as an
independent volume oracle for sums with the coordinate simplex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .geometry import (
    CoordSubspace,
    VPolytope,
    minkowski_sum,
    project,
    shadow,
    standard_simplex,
    volume,
)
from .mixed import volume_polynomial


@dataclass(frozen=True)
class AlignedSimplex:
    """conv(0, alphas[0] e_1, ..., alphas[n-1] e_n) with nonnegative scalars."""

    dim: int
    alphas: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(Fraction(a) for a in self.alphas))
        if len(self.alphas) != self.dim:
            raise ValueError("need one scalar per coordinate")
        if any(a < 0 for a in self.alphas):
            raise ValueError("scalars must be nonnegative")

    @staticmethod
    def of(alphas) -> "AlignedSimplex":
        alphas = tuple(Fraction(a) for a in alphas)
        return AlignedSimplex(len(alphas), alphas)

    def to_polytope(self) -> VPolytope:
        n = self.dim
        pts = [(Fraction(0),) * n]
        for i, a in enumerate(self.alphas):
            pts.append(tuple(a if j == i else Fraction(0) for j in range(n)))
        return VPolytope.from_points(pts, n)


def lemma_mixed_volume(s: AlignedSimplex, j: int) -> Fraction:
    """V_n(K[j], D_n[n-j]) for the aligned simplex K and the unit simplex D_n.

    Equals 1/n! times the largest product of j of the scalars.
    """
    n = s.dim
    if not 0 <= j <= n:
        raise ValueError("copy count out of range")
    best = Fraction(1)
    for a in sorted(s.alphas, reverse=True)[:j]:
        best *= a
    return best / factorial(n)


def corollary_mixed_volume(s: AlignedSimplex, t: AlignedSimplex, j: int) -> Fraction:
    """V_n(K[j], T[n-j]) for two aligned simplices.

    Equals 1/n! times max over size-j index sets I of
    prod_{i in I} alpha_i * prod_{i not in I} beta_i.  With all betas positive
    the maximizing I consists of the j largest ratios alpha_i/beta_i; a zero
    beta breaks the ratio ordering, so that case falls back to exhaustive
    maximization over the C(n, j) subsets.
    """
    n = s.dim
    if t.dim != n:
        raise ValueError("dimension mismatch")
    if not 0 <= j <= n:
        raise ValueError("copy count out of range")
    alphas, betas = s.alphas, t.alphas
    if all(b > 0 for b in betas):
        order = sorted(range(n), key=lambda i: (alphas[i] / betas[i], i), reverse=True)
        chosen = set(order[:j])
        prod = Fraction(1)
        for i in range(n):
            prod *= alphas[i] if i in chosen else betas[i]
        return prod / factorial(n)
    best = None
    for subset in itertools.combinations(range(n), j):
        inside = set(subset)
        prod = Fraction(1)
        for i in range(n):
            prod *= alphas[i] if i in inside else betas[i]
        if best is None or prod > best:
            best = prod
    return best / factorial(n)


def corner_power_integral(m: int, power: int) -> Fraction:
    """Exact value of the integral of (1 - sum t_i)^power over the unit m-simplex."""
    if m < 0 or power < 0:
        raise ValueError("arguments must be nonnegative")
    return Fraction(factorial(power), factorial(m + power))


def fubini_sum_volume(n: int, k_sub: VPolytope, k: int | None = None) -> Fraction:
    """Vol(D_n + K) for K supported on the trailing k coordinates, by slicing.

    Integrates the k-dimensional volume of (1-s) D_k + K over the leading
    coordinates: that volume is a polynomial in (1-s) obtained from the exact
    mixed-volume expansion, and each power integrates in closed form.
    """
    if k_sub.dim != n:
        raise ValueError("body must live in the ambient dimension")
    support = {i for v in k_sub.vertices for i, x in enumerate(v) if x != 0}
    if k is None:
        k = n - min(support) if support else 0
    if any(i < n - k for i in support):
        raise ValueError("body not contained in the trailing coordinates")
    if k == 0:
        # K is the origin; the sum is just the unit simplex.
        return Fraction(1, factorial(n))
    poly = volume_polynomial(shadow(k_sub, tuple(range(n - k, n))), standard_simplex(k))
    total = Fraction(0)
    for j, c in enumerate(poly.coeffs):
        # c multiplies u^(k-j) in Vol(K + u D_k).
        total += c * corner_power_integral(n - k, k - j)
    return total


def simplex_sum_series(s: AlignedSimplex, lam) -> Fraction:
    """Vol(D_n + lam K) for an aligned simplex K, from the closed-form series."""
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("negative scale")
    n = s.dim
    ordered = sorted(s.alphas, reverse=True)
    total = Fraction(0)
    prod = Fraction(1)
    for j in range(n + 1):
        if j > 0:
            prod *= ordered[j - 1]
        total += comb(n, j) * lam**j * prod
    return total / factorial(n)


def godbersen_equality_values(alphas, j: int) -> tuple[Fraction, Fraction]:
    """The two mixed volumes of D_k against a partner simplex in the mirror orthant.

    The partner is M = conv(0, -a_1 e_1, ..., -a_k e_k).  Returns the pair

        (V_k(D_k[j], -M[k-j]),  V_k(D_k[j], M[k-j]))

    whose closed forms are 1/k! times, respectively, the largest product of
    k-j of the scalars and the sum of all such products.  The sum dominates
    its largest term, strictly whenever k >= 2, 1 <= j <= k-1 and all scalars
    are positive; that gap is what forces the equality bodies to occupy at
    most one axis direction outside the positive orthant.
    """
    alphas = tuple(Fraction(a) for a in alphas)
    k = len(alphas)
    if not 0 <= j <= k:
        raise ValueError("copy count out of range")
    if any(a < 0 for a in alphas):
        raise ValueError("scalars must be nonnegative")
    ordered = sorted(alphas, reverse=True)
    opposite = Fraction(1)
    for a in ordered[: k - j]:
        opposite *= a
    same = Fraction(0)
    for subset in itertools.combinations(range(k), k - j):
        prod = Fraction(1)
        for i in subset:
            prod *= alphas[i]
        same += prod
    return opposite / factorial(k), same / factorial(k)


def last_axis_projection(p: VPolytope) -> VPolytope:
    """Projection killing the last coordinate (used by the sum decomposition)."""
    return project(p, CoordSubspace(p.dim, tuple(range(p.dim - 1))))


def sum_decomposition_check(s: AlignedSimplex) -> tuple[Fraction, Fraction]:
    """Both sides of Vol(D_n + K) = Vol(K) + Vol(D_n + P K).

    P kills the last coordinate; the identity needs the scalars sorted in
    nonincreasing order, so the simplex is reordered first.
    """
    ordered = AlignedSimplex.of(sorted(s.alphas, reverse=True))
    n = ordered.dim
    body = ordered.to_polytope()
    simplex = standard_simplex(n)
    lhs = volume(minkowski_sum(simplex, body))
    rhs = volume(body) + volume(minkowski_sum(simplex, last_axis_projection(body)))
    return lhs, rhs
