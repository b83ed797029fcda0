"""Tilted generators, their top eigenvalue, and Fenchel conjugation.

Tilting the symmetrized generator by r times the multiplication operator of
the observable produces a selfadjoint operator whose top eigenvalue
``lambda_0(r)`` controls the weighted operator norm of the exponential
semigroup ``exp(t(L + r M_f))``.  The Fenchel conjugate
``sup_r (ru - lambda_0(r))`` is the decay rate of the master concentration
inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ValidationError
from .markov import Observable, ProbDist
from .spectral import SpectralData

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
R_CAP_FACTOR = 1e6


@dataclass(frozen=True)
class ConjugateResult:
    """Value of a Fenchel conjugate at u, with the maximizing tilt if located.

    ``boundary`` marks a supremum approached only at the edge of the search
    bracket (u at the top of the observable's range), where the reported
    value is the best found rather than a certified maximum.
    """

    u: float
    value: float
    argmax_r: float | None
    boundary: bool = False

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


@dataclass(frozen=True)
class BernsteinParams:
    """Variance factor and scale parameter of a sub-gamma cumulant bound."""

    v: float
    c: float


def lambda0(sd: SpectralData, f: Observable, r: float) -> float:
    """Top eigenvalue of the tilted symmetrized generator.

    In the sqrt(pi) similarity coordinates the tilt stays diagonal, so the
    operator is the precomputed symmetric matrix plus ``r diag(f)`` and a
    plain symmetric eigensolve applies.
    """
    if r == 0.0:
        return 0.0
    return float(np.linalg.eigvalsh(sd.sym_coords + r * np.diag(f.values))[-1])


def chi2_prefactor(nu: ProbDist, pi: ProbDist) -> float:
    """L2(pi) norm of the density of nu against pi: sqrt(sum nu_x^2 / pi_x)."""
    if not pi.strictly_positive:
        raise ValidationError("reference distribution must be strictly positive")
    return float(math.sqrt(np.sum(nu.weights**2 / pi.weights)))


def _golden_max(h, lo: float, hi: float, tol: float):
    """Golden-section maximization of a concave function on [lo, hi]."""
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    h1, h2 = h(x1), h(x2)
    while hi - lo > tol:
        if h1 < h2:
            lo, x1, h1 = x1, x2, h2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            h2 = h(x2)
        else:
            hi, x2, h2 = x2, x1, h1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            h1 = h(x1)
    xm = 0.5 * (lo + hi)
    return xm, h(xm)


def fenchel_conjugate(
    g, u: float, r_max: float = math.inf, tol: float = 1e-10
) -> ConjugateResult:
    """sup over r in [0, r_max) of ru - g(r), for convex g with g(0) = 0.

    The objective is concave, so a geometrically expanded bracket followed by
    golden-section search locates the supremum; the value is clamped at 0
    (always attainable at r = 0).  Raises on NaN from g inside the domain.
    """

    def objective(r: float) -> float:
        val = g(r)
        if math.isnan(val):
            raise NonFiniteError(r, val)
        return r * u - val

    hi_cap = r_max * (1.0 - 1e-12)
    h_prev = 0.0
    r_cur = min(1.0, hi_cap)
    hit_cap = False
    while True:
        h_cur = objective(r_cur)
        if h_cur < h_prev:
            break
        if r_cur >= hi_cap:
            hit_cap = True
            break
        h_prev = h_cur
        r_cur = min(2.0 * r_cur, hi_cap)

    lo, hi = 0.0, r_cur
    r_tol = max(tol, tol * hi)
    r_star, h_star = _golden_max(objective, lo, hi, r_tol)
    value = max(h_star, 0.0)
    argmax = 0.0 if value == 0.0 and h_star <= 0.0 else r_star
    return ConjugateResult(u=u, value=value, argmax_r=argmax, boundary=hit_cap)


def bernstein_conjugate(bp: BernsteinParams, u: float) -> float:
    """Closed-form conjugate of the sub-gamma bound r^2 v / (2(1 - rc)).

    Uses the cancellation-free form ``2u^2 / (v (1 + sqrt(1 + 2uc/v))^2)``;
    at c = 0 this is the Gaussian limit u^2 / (2v).
    """
    if bp.v <= 0 or bp.c < 0 or not 0 <= u < math.inf:  # also refuses NaN
        raise ValidationError(f"need v > 0, c >= 0, finite u >= 0; got {bp} at u={u}")
    root = math.sqrt(1.0 + 2.0 * u * bp.c / bp.v)
    return 2.0 * u * u / (bp.v * (1.0 + root) ** 2)


def above_max(f: Observable, u: float) -> bool:
    """True iff ``u`` lies above ``max f`` by more than rounding, where the
    time average cannot reach it and a conjugate over unbounded tilts is
    infinite."""
    return u > float(np.max(f.values)) * (1.0 + 1e-12) + 1e-300


def lambda0_star(sd: SpectralData, f: Observable, u: float) -> ConjugateResult:
    """Fenchel conjugate of the tilted top eigenvalue at threshold u >= 0.

    Finite exactly on [min f, max f]; beyond max f the conjugate is infinite
    and the result carries ``value = inf``.  At u = max f the supremum is
    approached only as r grows, so the search is capped and the result is
    flagged as a boundary value.  For f = 0 (a constant observable, centered)
    the tilt does nothing and lambda_0 = 0, so the conjugate at u = 0 is 0.
    """
    if not u >= 0:  # also refuses NaN
        raise ValidationError(f"threshold must be nonnegative, got {u}")
    if above_max(f, u):
        return ConjugateResult(u=u, value=math.inf, argmax_r=None)
    sup = f.sup_norm
    if sup == 0.0:
        return ConjugateResult(u=u, value=0.0, argmax_r=0.0)
    cap = R_CAP_FACTOR * (1.0 + 1.0 / sup)
    return fenchel_conjugate(lambda r: lambda0(sd, f, r), u, r_max=cap)
