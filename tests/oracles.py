"""Brute-force and closed-form oracles that only the tests use.

Each one computes a quantity the library also computes, by an independent
route: the Donsker-Varadhan information scanned over the slice
``{beta : beta(f) = u}`` against the general rate, a bound from a supplied
rate function, the static Cramer transform, the second closed form of the
sub-gamma conjugate, and strong connectivity by depth-first search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mjpbounds import BernsteinParams, MJPModel, analyze, fenchel_conjugate, lambda0_star
from mjpbounds.bounds import BoundPoint, ModelAnalysis, _analysis, _finish
from mjpbounds.errors import (
    DimensionTooLargeError,
    InfeasibleSliceError,
    ValidationError,
)
from mjpbounds.markov import Observable, ProbDist, QMatrix
from mjpbounds.tilting import R_CAP_FACTOR, _simplex_slice


def donsker_varadhan_info(q: QMatrix, pi: ProbDist, beta) -> float:
    """Information of beta against pi: -<L sqrt(d beta/d pi), sqrt(d beta/d pi)>.

    ``beta`` is a distribution or a weight vector.  Nonnegative; tiny
    negative rounding is clamped to 0.
    """
    w = pi.weights
    b = np.asarray(beta.weights if hasattr(beta, "weights") else beta, dtype=float)
    g = np.sqrt(b / w)
    val = -float(w @ (g * (q.rates @ g)))
    if val < -1e-12:
        raise ValidationError(f"information came out negative: {val}")
    return max(val, 0.0)


@dataclass(frozen=True)
class InfoRepresentationReport:
    u: float
    info_infimum: float
    conjugate_value: float
    gap: float
    argmin_beta: np.ndarray


def verify_info_representation(
    model: MJPModel, u: float, grid_density: int = 10001
) -> InfoRepresentationReport:
    """Brute-force check that the information infimum equals the general rate.

    The slice ``{beta : beta(f) = u}`` is a single point for two states and a
    segment for three; the segment is grid-scanned.  Intended for n in {2, 3}.
    """
    n = model.n
    if n > 3:
        raise DimensionTooLargeError(n, 3)
    f = model.f.values
    fmin, fmax = float(np.min(f)), float(np.max(f))
    if u < fmin - 1e-12 or u > fmax + 1e-12:
        raise InfeasibleSliceError(u, fmin, fmax)
    a = analyze(model)
    conj = lambda0_star(a.sd, model.f, u)

    if n == 2:
        b0 = (u - f[1]) / (f[0] - f[1])
        b0 = min(max(b0, 0.0), 1.0)
        betas = np.array([[b0, 1.0 - b0]])
    else:
        betas, _ = _simplex_slice(f, u, np.linspace(0.0, 1.0, grid_density))
    infos = np.array([donsker_varadhan_info(model.q, model.pi, b) for b in betas])
    k = int(np.argmin(infos))
    return InfoRepresentationReport(
        u=u,
        info_infimum=float(infos[k]),
        conjugate_value=conj.value,
        gap=abs(float(infos[k]) - conj.value),
        argmin_beta=betas[k],
    )


def bound_via_alpha(
    model: MJPModel,
    t: float,
    u: float,
    alpha,
    analysis: ModelAnalysis | None = None,
) -> BoundPoint:
    """Bound from a caller-supplied rate function dominated by the information.

    The caller asserts ``alpha(beta(f)) <= I(beta|pi)`` on the relevant
    measures; the closed-form families are instances of this construction.
    """
    a = _analysis(model, analysis)
    return _finish("via_alpha", u, t, float(alpha(u)), a.prefactor)


def cramer_transform_static(
    pi: ProbDist, f: Observable, u: float, tol: float = 1e-12
) -> float:
    """Cramer transform of the single-draw observable f(X_0) under pi.

    Returns ``sup_{r>=0} (ru - log sum_x pi_x e^{r f(x)})``; infinite beyond
    max f.
    """
    if u < 0:
        raise ValidationError(f"threshold must be nonnegative, got {u}")
    values = f.values
    f_max = float(np.max(values))
    if u > f_max * (1.0 + 1e-12) + 1e-300:
        return math.inf

    def log_mgf(r: float) -> float:
        shift = r * f_max if r > 0 else 0.0
        return shift + math.log(float(pi.weights @ np.exp(r * values - shift)))

    cap = R_CAP_FACTOR * (1.0 + 1.0 / max(f.sup_norm, 1e-300))
    return fenchel_conjugate(log_mgf, u, r_max=cap, tol=tol).value


def bernstein_conjugate_vform(bp: BernsteinParams, u: float) -> float:
    """The equivalent form (v/c^2)(1 + uc/v - sqrt(1 + 2uc/v)); c > 0 only."""
    if bp.v <= 0 or bp.c <= 0 or u < 0:
        raise ValidationError(f"need v > 0, c > 0, u >= 0; got {bp} at u={u}")
    x = u * bp.c / bp.v
    return (bp.v / bp.c**2) * (1.0 + x - math.sqrt(1.0 + 2.0 * x))


def strongly_connected(adj) -> bool:
    """Reference for ``is_irreducible``: depth-first searches from state 0,
    along the edges of the boolean matrix ``adj`` and along the reversed
    edges, both reach every state."""

    def reaches_all(a) -> bool:
        seen = np.zeros(a.shape[0], dtype=bool)
        seen[0] = True
        stack = [0]
        while stack:
            x = stack.pop()
            for y in np.flatnonzero(a[x]):
                if not seen[y]:
                    seen[y] = True
                    stack.append(int(y))
        return bool(seen.all())

    adj = np.asarray(adj, dtype=bool)
    return reaches_all(adj) and reaches_all(adj.T)
