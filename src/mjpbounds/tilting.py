"""Tilted generators, their top eigenvalue, and Fenchel conjugation.

Tilting the symmetrized generator by r times the multiplication operator of
the observable produces a selfadjoint operator whose top eigenvalue
``lambda_0(r)`` controls the weighted operator norm of the exponential
semigroup ``exp(t(L + r M_f))``.  The Fenchel conjugate
``sup_r (ru - lambda_0(r))`` is the decay rate of the master concentration
inequality; ``lambda0_star`` solves it for a whole grid of thresholds by
safeguarded Newton steps on one stacked eigensolve per step.
``conjugate_grid`` runs those steps for any cumulant bound given by its
value, slope and curvature at a stack of tilts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spectral import SpectralData, sigma_hat_sq

R_CAP_FACTOR = 1e6
NEWTON_RTOL = 1e-12
# c of the Weyl slack c * n * eps * ||B + r diag f||_2 on a computed eigenvalue
WEYL_C = 8.0
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ConjugateResult:
    """Value of a Fenchel conjugate at u, with the maximizing tilt if located.

    ``boundary`` marks a supremum approached only at the edge of the search
    bracket (u at the top of the observable's range), where the reported
    value is the best found rather than a certified maximum.  ``weyl_slack``
    bounds, by Weyl's inequality, how far eigensolver rounding can have moved
    ``lambda_0(argmax_r)``, so ``value - weyl_slack`` bounds the conjugate
    from below up to the rounding of ``r u - lambda_0``; it is 0 where the
    value needs no eigensolve (u = 0, or a conjugate of a function that is
    not an eigenvalue), and ``None`` where the value is infinite.
    """

    u: float
    value: float
    argmax_r: float | None
    boundary: bool = False
    weyl_slack: float | None = None

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


@dataclass(frozen=True)
class BernsteinParams:
    """Variance factor and scale parameter of a sub-gamma cumulant bound."""

    v: float
    c: float


def lambda0(sd: SpectralData, f: np.ndarray, r: float) -> float:
    """Top eigenvalue of the tilted symmetrized generator.

    In the sqrt(pi) similarity coordinates the tilt stays diagonal, so the
    operator is the precomputed symmetric matrix plus ``r diag(f)`` and a
    plain symmetric eigensolve applies.
    """
    if r == 0.0:
        return 0.0
    return float(np.linalg.eigvalsh(sd.sym_coords + r * np.diag(f))[-1])


def chi2_prefactor(nu: np.ndarray, pi: np.ndarray) -> float:
    """L2(pi) norm of the density of nu against pi: sqrt(sum nu_x^2 / pi_x)."""
    if not np.min(pi) > 0.0:
        raise ValidationError("reference distribution must be strictly positive")
    return float(math.sqrt(np.sum(nu**2 / pi)))


def bernstein_conjugate(bp: BernsteinParams, u: float) -> float:
    """Closed-form conjugate of the sub-gamma bound r^2 v / (2(1 - rc)).

    The value ``2u^2 / (v (1 + sqrt(1 + 2uc/v))^2)`` (u^2 / (2v) at c = 0) is
    ``y * y`` with ``y = w sqrt(2) / sqrt(v)`` and ``w = u / (1 + sqrt(1 +
    2uc/v))``, computed as ``1 / (s + sqrt(s) hypot(sqrt(s), sqrt(2c/v)))``
    for ``s = 1/u``.  Each correctly rounded step moves one way as u grows,
    so the value never falls, not even between adjacent doubles; past the
    largest double it is ``inf``.  Where ``1/u`` or ``sqrt(c/v)`` overflows
    (u below 5.6e-309, c/v above 3.2e616) it is 0, below the true rate.
    """
    # the comparisons also refuse NaN; v = c = inf would give sqrt(c)/sqrt(v) = NaN
    if not bp.v > 0 or not bp.c >= 0 or bp.v == bp.c == math.inf or not 0 <= u < math.inf:
        raise ValidationError(
            f"need v > 0, c >= 0, not both infinite, finite u >= 0; got {bp} at u={u}"
        )
    if u == 0.0:
        return 0.0
    s = 1.0 / u
    root_s = math.sqrt(s)
    w = 1.0 / (s + root_s * math.hypot(root_s, _SQRT2 * (math.sqrt(bp.c) / math.sqrt(bp.v))))
    y = w * _SQRT2 / math.sqrt(bp.v)
    return y * y


def _tilted_eigh(sd: SpectralData, f: np.ndarray, r: np.ndarray):
    """One stacked ``eigh`` of ``B + r_k diag f`` for every tilt ``r_k``.

    Returns, per tilt, the top eigenvalue ``lambda_0``, its slope
    ``sum_x phi_0(x)^2 f(x)`` (Hellmann-Feynman), its curvature
    ``2 sum_{k>=1} (phi_k' diag(f) phi_0)^2 / (lambda_0 - lambda_k)``
    (second-order perturbation theory) and the 2-norm of the matrix.  Every
    reduction runs over one tilt's own row, so a tilt's numbers do not
    depend on the others in the stack.
    """
    n = f.size
    mats = np.repeat(sd.sym_coords[None], r.size, axis=0)
    mats[:, np.arange(n), np.arange(n)] += r[:, None] * f
    w, v = np.linalg.eigh(mats)
    top = w[:, -1]
    f_phi0 = f * v[:, :, -1]
    # coupling[:, k] = phi_k' diag(f) phi_0; its last entry is the slope
    coupling = np.sum(np.swapaxes(v, 1, 2) * f_phi0[:, None, :], axis=2)
    curvature = 2.0 * np.sum(coupling[:, :-1] ** 2 / (top[:, None] - w[:, :-1]), axis=1)
    return top, coupling[:, -1], curvature, np.maximum(-w[:, 0], top)


def _newton_conjugate(moments, u: np.ndarray, sup: float, curvature0: float):
    """``sup_{r >= 0} (r u - g(r))`` for every ``u`` of a 1-D array with
    ``0 < u <= max f`` (to rounding), all at once, for a convex ``g`` with
    ``g(0) = 0`` that grows with slope at most ``max f``.

    ``moments(r, u)`` takes a stack of tilts and their thresholds and
    returns, per tilt, the objective ``r u - g(r)``, the slope ``g'(r)``,
    the curvature ``g''(r)`` and a bound on the rounding of ``g(r)``.  The
    maximizer solves ``g'(r) = u``.  Each step makes one ``moments`` call on
    the thresholds still live.  A threshold keeps a bracket ``[lo, hi]`` on
    its root (``hi`` is infinite until a tilt overshoots) and takes the
    Newton step when it lands inside the bracket and at most halves the
    previous step; otherwise it bisects, or doubles while ``hi`` is infinite
    (``rtsafe`` of Numerical Recipes).  It leaves the stack once its step
    falls below ``NEWTON_RTOL`` relative, or ``NEWTON_RTOL**2 / sup``
    absolute (where ``r u`` moves by under 1e-24), and reports the tilt it
    last evaluated.  One whose slope stays below u up to the tilt cap ends
    there, flagged ``boundary``.  The start is the Gaussian guess
    ``u / curvature0``, with ``curvature0 = g''(0)``; ``sup`` is ``||f||``.

    Returns the argmax, value, boundary flag and rounding bound per threshold.
    """
    r_top = R_CAP_FACTOR * (1.0 + 1.0 / sup) * (1.0 - 1e-12)
    r_floor = NEWTON_RTOL / sup
    r = np.full(u.shape, r_top)
    if curvature0 > 0.0:
        np.minimum(u / curvature0, r_top, out=r)
    lo, hi = np.zeros_like(r), np.full_like(r, math.inf)
    step_prev = np.full_like(r, math.inf)
    value, slack = np.empty_like(r), np.empty_like(r)
    boundary = np.zeros(r.shape, dtype=bool)
    live = np.arange(u.size)
    while live.size:
        x, uk = r[live], u[live]
        value[live], slope, curvature, slack[live] = moments(x, uk)
        g = slope - uk
        below = g < 0.0
        lo[live] = np.where(below, x, lo[live])
        hi[live] = np.where(below, hi[live], x)
        lo_k, hi_k = lo[live], hi[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - g / curvature
        fallback = np.where(np.isinf(hi_k), 2.0 * x, 0.5 * (lo_k + hi_k))
        take = (newton > lo_k) & (newton < hi_k) & (np.abs(newton - x) <= 0.5 * step_prev[live])
        nxt = np.minimum(np.where(take, newton, fallback), r_top)
        # a Newton step below tolerance ends the search even where the
        # safeguard would not take it: rounding keeps such steps from halving
        tol = NEWTON_RTOL * np.maximum(x, r_floor)
        at_cap = below & (x >= r_top)
        boundary[live] = at_cap
        done = at_cap | (np.abs(newton - x) <= tol) | (np.abs(nxt - x) <= tol)
        step_prev[live] = np.abs(nxt - x)
        r[live] = np.where(done, x, nxt)
        live = live[~done]
    return r, value, boundary, slack


def thresholds(u):
    """``u``, one threshold or a 1-D grid, as an array and its 1-D view.  A
    threshold below 0 or NaN is refused in one wording for every bound."""
    grid = np.asarray(u, dtype=float)
    us = np.atleast_1d(grid)
    if us.ndim != 1:
        raise ValidationError(f"thresholds must be a number or a 1-D grid, got shape {grid.shape}")
    if not np.all(us >= 0):  # also refuses NaN, which is then the least
        raise ValidationError(
            f"threshold u must be nonnegative, got {float(np.min(us))}; the lower tail "
            'P(A_t/t <= -u) is the upper tail of -f, tail="lower" in bound_table'
        )
    return grid, us


def conjugate_grid(moments, f: np.ndarray, u, curvature0: float):
    """``sup_{r >= 0} (r u - g(r))`` at threshold ``u >= 0``, or at every
    threshold of a 1-D grid ``u`` (one ``ConjugateResult`` per threshold),
    for a ``g`` as ``_newton_conjugate`` takes, given by its ``moments``.

    Beyond max f by more than rounding, where the time average cannot reach
    u, the conjugate is infinite and the result carries ``value = inf``.  At
    u = max f the supremum is approached only as r
    grows, so the search is capped and the result is flagged as a boundary
    value.  At u = 0 the supremum is 0, at r = 0.  For f = 0 (a constant
    observable, centered) every u > 0 is out of reach, however small, and
    its conjugate is infinite.  The other thresholds are solved
    together by ``_newton_conjugate``; each one's result is the same, bit
    for bit, whatever else is on the grid.
    """
    grid, us = thresholds(u)
    sup = float(np.max(np.abs(f)))
    reach = float(np.max(f)) * (1.0 + 1e-12) + 1e-300 if sup > 0.0 else 0.0
    results = [
        ConjugateResult(uk, math.inf, None)
        if uk > reach
        else ConjugateResult(uk, 0.0, 0.0, weyl_slack=0.0)
        for uk in us.tolist()
    ]
    solve = [k for k, res in enumerate(results) if res.u > 0.0 and res.finite]
    if solve:
        solved = _newton_conjugate(moments, us[solve], sup, curvature0)
        for k, r, h, edge, slack in zip(solve, *(a.tolist() for a in solved)):
            # r u - g(r) can round below 0 near r = 0, where the supremum 0
            # is attained exactly
            if h > 0.0:
                results[k] = ConjugateResult(results[k].u, h, r, edge, slack)
    return results if grid.ndim else results[0]


def lambda0_star(sd: SpectralData, f: np.ndarray, u):
    """Fenchel conjugate of the tilted top eigenvalue at threshold ``u >= 0``,
    or at every threshold of a 1-D grid ``u``, by ``conjugate_grid``: each
    step is one stacked ``_tilted_eigh``, the rounding bound is the Weyl
    slack, and ``lambda_0''(0)`` is ``sigma_hat_sq(sd, f)``, so ``f`` must be centered.
    """
    def moments(r, u):
        top, slope, curvature, norm = _tilted_eigh(sd, f, r)
        return r * u - top, slope, curvature, WEYL_C * f.size * np.finfo(float).eps * norm

    return conjugate_grid(moments, f, u, sigma_hat_sq(sd, f))
