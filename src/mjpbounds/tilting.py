"""Tilted generators, their top eigenvalue, and Fenchel conjugation.

Tilting the symmetrized generator by r times the multiplication operator of
the observable produces a selfadjoint operator whose top eigenvalue
``lambda_0(r)`` controls the weighted operator norm of the exponential
semigroup ``exp(t(L + r M_f))``.  The Fenchel conjugate
``sup_r (ru - lambda_0(r))`` is the decay rate of the master concentration
inequality; it coincides with a constrained variational problem over the
unit sphere of L2(pi), which this module also solves by brute force for two
and three states as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooLargeError,
    InfeasibleSliceError,
    NonFiniteError,
    ValidationError,
)
from .markov import Observable, ProbDist, QMatrix, _expm
from .spectral import SpectralData, sym_coords

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
R_CAP_FACTOR = 1e6
VARIATIONAL_GRID = 4001


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


def feynman_kac_norm(
    q: QMatrix, pi: ProbDist, f: Observable, r: float, t: float
) -> float:
    """Weighted operator 2-norm of exp(t(Q + r diag f)).

    Computed as the largest singular value of the sqrt(pi)-similarity
    transform of the matrix exponential.
    """
    if t < 0:
        raise ValidationError(f"time must be nonnegative, got {t}")
    m = _expm(t * (q.rates + r * np.diag(f.values)))
    sqrt_pi = np.sqrt(pi.weights)
    a = (m * sqrt_pi[:, None]) / sqrt_pi[None, :]
    return float(np.linalg.norm(a, 2))


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
    flagged as a boundary value.
    """
    if not u >= 0:  # also refuses NaN
        raise ValidationError(f"threshold must be nonnegative, got {u}")
    if above_max(f, u):
        return ConjugateResult(u=u, value=math.inf, argmax_r=None)
    cap = R_CAP_FACTOR * (1.0 + 1.0 / f.sup_norm)
    return fenchel_conjugate(lambda r: lambda0(sd, f, r), u, r_max=cap)


def rate_function_variational(
    q: QMatrix, pi: ProbDist, f: Observable, u: float
) -> float:
    """Constrained minimum of -<Lg, g> over the unit sphere with <f g, g> = u.

    Brute-force oracle for two and three states.  In sqrt(pi) coordinates the
    constraint set is parametrized through the squared coordinates: for n = 2
    it is a finite set of points, for n = 3 a segment in the simplex scanned
    on a grid of ``VARIATIONAL_GRID`` points and polished by golden-section
    search, with all sign patterns of the coordinates enumerated.
    """
    n = q.n
    if n > 3:
        raise DimensionTooLargeError(n, 3)
    values = f.values
    fmin, fmax = float(np.min(values)), float(np.max(values))
    tol_edge = 1e-12 * max(1.0, abs(fmin), abs(fmax))
    if u < fmin - tol_edge or u > fmax + tol_edge:
        raise InfeasibleSliceError(u, fmin, fmax)
    u = min(max(u, fmin), fmax)

    b_sym = sym_coords(q, pi)

    def energy(h: np.ndarray) -> float:
        return float(-h @ b_sym @ h)

    if n == 2:
        return _variational_two_states(values, u, energy)
    return _variational_three_states(b_sym, values, u, energy)


def _variational_two_states(values, u, energy) -> float:
    f0, f1 = values
    if abs(f0 - f1) < 1e-300:
        raise ValidationError("observable is constant; rate function degenerates")
    alpha = (u - f1) / (f0 - f1)
    alpha = min(max(alpha, 0.0), 1.0)
    h0 = math.sqrt(alpha)
    h1 = math.sqrt(1.0 - alpha)
    return min(energy(np.array([h0, s * h1])) for s in (1.0, -1.0))


def _simplex_slice(values, u: float, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points p of the three-state simplex with sum_x p_x f(x) = u and p_k = s.

    k is the state outside the pair of f-values with the widest spread, the
    pivot that keeps the slice solve stable.  Returns the points whose other
    two coordinates are nonnegative (up to 1e-15, then clipped to 0), and the
    mask of the entries of ``s`` they come from.
    """
    pairs = [(0, 1, 2), (0, 2, 1), (1, 2, 0)]
    i, j, k = max(pairs, key=lambda p: abs(values[p[0]] - values[p[1]]))
    fi, fj, fk = values[i], values[j], values[k]
    # p_i + p_j = 1 - s, fi p_i + fj p_j = u - fk s
    pi_ = ((1.0 - s) * fj - (u - fk * s)) / (fj - fi)
    pj_ = (1.0 - s) - pi_
    ok = (pi_ >= -1e-15) & (pj_ >= -1e-15)
    p = np.empty((s.size, 3))
    p[:, i] = np.clip(pi_, 0.0, None)
    p[:, j] = np.clip(pj_, 0.0, None)
    p[:, k] = s
    return p[ok], ok


_SIGN_PATTERNS_3 = [np.array([1.0, a, b]) for a in (1.0, -1.0) for b in (1.0, -1.0)]


def _variational_three_states(b_sym, values, u, energy) -> float:
    # the slice's points are the squared sqrt(pi) coordinates
    s_vals = np.linspace(0.0, 1.0, VARIATIONAL_GRID)
    p, ok = _simplex_slice(values, u, s_vals)
    if p.shape[0] == 0:
        return math.inf
    h = np.sqrt(p)
    best = math.inf
    best_s = None
    for sg in _SIGN_PATTERNS_3:
        hs = h * sg
        energies = -np.einsum("mi,ij,mj->m", hs, b_sym, hs)
        idx = int(np.argmin(energies))
        if energies[idx] < best:
            best = float(energies[idx])
            best_s = float(s_vals[ok][idx])

    def best_over_signs(s: float) -> float:
        p1, _ = _simplex_slice(values, u, np.array([s]))
        if p1.shape[0] == 0:
            return math.inf
        h1 = np.sqrt(p1[0])
        return min(energy(h1 * sg) for sg in _SIGN_PATTERNS_3)

    step = 1.0 / (VARIATIONAL_GRID - 1)
    lo = max(best_s - step, 0.0)
    hi = min(best_s + step, 1.0)
    _, neg_best = _golden_max(lambda s: -best_over_signs(s), lo, hi, 1e-13)
    return min(best, -neg_best)
