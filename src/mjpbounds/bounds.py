"""Concentration-bound families for the upper tail of a time average.

Every family produces a bound of the form

    P_nu(A_t / t >= u)  <=  min(1, prefactor * exp(-t * rate(u))),

where the prefactor is the L2(pi) norm of the density of nu against pi.  The
families differ only in the rate, which does not depend on t:

- ``general``            the exact conjugate of the tilted top eigenvalue
- ``perturbation``       two-branch rate from the perturbation-series bound
- ``poincare``           sub-gamma rate with variance 2 Var_pi(f) / gap
- ``bernstein_general``  sub-gamma rate with the asymptotic variance and the
                         positive-part sup norm; sharpest closed form
- ``fsobolev``           rate from a user-supplied functional inequality

``evaluate_family`` is the one way to a bound, at one threshold or at a
grid of them; each family's rate function takes the whole grid.  Lower
tails come from replaying a family on -f; two-sided bounds add both tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FSobolevNotVerifiedError, ValidationError
from .markov import MJPModel, flip_observable
from .spectral import (
    SpectralData,
    pi_variance,
    sigma_hat_sq,
    spectral_decomposition,
)
from .tilting import (
    BernsteinParams,
    above_max,
    bernstein_conjugate,
    chi2_prefactor,
    fenchel_conjugate,
    lambda0_star,
)

FSOBOLEV_SWEEP = 200001
FSOBOLEV_SEED = 0
FSOBOLEV_RESTARTS = 32
ASCENT_STEPS = 200
ASCENT_LR = 0.05


@dataclass(frozen=True)
class ModelAnalysis:
    """One model's spectral data, with the quantities every bound family reads.

    Stores only the model and the spectral decomposition of its chain, which
    depends on ``Q`` and ``pi`` alone.  Everything else is derived on access
    from the one owner that computes it: the gap from ``sd``, the variances
    from ``sd`` and the model's ``f``, the sup norms from ``f``, and the
    prefactor from ``nu``.  A number derived for ``f`` therefore cannot be
    reused for ``-f`` or for another initial distribution.
    """

    model: MJPModel
    sd: SpectralData

    @property
    def gap(self) -> float:
        return self.sd.gap

    @property
    def prefactor(self) -> float:
        return chi2_prefactor(self.model.nu, self.model.pi)

    @property
    def sigma_hat2(self) -> float:
        return sigma_hat_sq(self.sd, self.model.f)

    @property
    def var_pi_f(self) -> float:
        return pi_variance(self.model.pi, self.model.f.values)

    @property
    def sigma_tilde2(self) -> float:
        return 2.0 * self.var_pi_f / self.gap

    @property
    def f_sup(self) -> float:
        return self.model.f.sup_norm

    @property
    def fplus_sup(self) -> float:
        return self.model.f.pos_sup_norm


def analyze(model: MJPModel) -> ModelAnalysis:
    return ModelAnalysis(model, spectral_decomposition(model.q, model.pi))


@dataclass(frozen=True)
class BoundPoint:
    """One evaluated bound: rate, prefactor, and the clamped probability bound."""

    family: str
    u: float
    t: float
    rate: float
    prefactor: float
    bound: float
    branch: str = ""
    diagnostics: dict = field(default_factory=dict)

    def at(self, t: float) -> BoundPoint:
        """This bound at horizon ``t``: no family's rate depends on t, so one
        evaluation serves every horizon."""
        return replace(self, t=t, bound=_tail_bound(self.prefactor, t, self.rate))


def _tail_bound(prefactor: float, t: float, rate: float) -> float:
    """``min(1, prefactor * exp(-t * rate))``, 0 at an infinite rate.

    Refuses a NaN, infinite or negative time and a NaN or negative rate,
    which would otherwise come out as the trivial bound 1 or as 0.
    """
    if not math.isfinite(t) or t < 0:
        raise ValidationError(f"time must be finite and nonnegative, got {t}")
    if not rate >= 0:  # also refuses NaN
        raise ValidationError(f"rate must be nonnegative, got {rate}")
    return 0.0 if math.isinf(rate) else min(1.0, prefactor * math.exp(-t * rate))


def _finish(family, u, t, rate, prefactor, branch="", diagnostics=None) -> BoundPoint:
    bound = _tail_bound(prefactor, t, rate)
    return BoundPoint(family, u, t, rate, prefactor, bound, branch, diagnostics or {})


def _same_chain(a: MJPModel, b: MJPModel) -> bool:
    """True iff the two models share a chain: equal ``Q`` and ``pi``, as
    ``flip_observable`` and ``stationary_model`` of one model do."""
    return a is b or (
        np.array_equal(a.q.rates, b.q.rates) and np.array_equal(a.pi.weights, b.pi.weights)
    )


def _analysis(model: MJPModel, analysis: ModelAnalysis | None) -> ModelAnalysis:
    """The analysis of ``model``, reusing the caller's spectral data when it fits.

    Spectral data can be shared between models on the same chain; everything
    else is derived from ``model`` itself.  An analysis of a different chain
    is rejected.
    """
    if analysis is None:
        return analyze(model)
    if analysis.model is model:
        return analysis
    if _same_chain(analysis.model, model):
        return ModelAnalysis(model, analysis.sd)
    raise ValidationError("analysis belongs to a different chain than the model")


def _rate_general(a: ModelAnalysis, us: list[float]):
    """Master rate: the conjugate of the tilted top eigenvalue, solved for
    the whole grid in one ``lambda0_star`` call.  ``weyl_slack`` is the
    eigensolver's rounding bound on the rate, reported and not subtracted."""
    return [
        (c.value, "", {"argmax_r": c.argmax_r, "boundary": c.boundary,
                       "weyl_slack": c.weyl_slack})
        for c in lambda0_star(a.sd, a.model.f, us)
    ]


def perturbation_branch_threshold(a: ModelAnalysis) -> float:
    """Largest u on which the sub-gamma branch of the perturbation bound applies.

    A constant observable (``f = 0`` once centered) has no such threshold and
    is refused.
    """
    if a.f_sup == 0.0:
        raise ValidationError("perturbation branch threshold needs a nonconstant observable")
    return 2.0 * a.sigma_hat2 * a.gap / a.f_sup


def _rate_perturbation(a: ModelAnalysis, us: list[float]):
    """Two-branch rate from the perturbation-series bound on the eigenvalue.

    Below the threshold ``2 sigma_hat^2 gap / ||f||`` the maximizing tilt
    stays inside the validity interval of the series bound and the rate is
    the sub-gamma conjugate with variance sigma_hat^2 and scale 2||f||/gap;
    beyond it the rate is linear, evaluated at the interval's endpoint.
    """
    u_branch = perturbation_branch_threshold(a)
    bp = BernsteinParams(v=a.sigma_hat2, c=2.0 * a.f_sup / a.gap)
    slope = a.gap / (3.0 * a.f_sup)
    offset = a.gap * a.sigma_hat2 / (2.0 * a.f_sup)
    return [
        (bernstein_conjugate(bp, u), "a", {}) if u <= u_branch
        else (slope * (u - offset), "b", {})
        for u in us
    ]


def _rate_poincare(a: ModelAnalysis, us: list[float]):
    """Sub-gamma rate with variance 2 Var_pi(f)/gap and scale ||f||/gap.

    Uses the spectral-gap constant, the sharpest admissible choice for the
    variance inequality behind this bound.
    """
    bp = BernsteinParams(v=a.sigma_tilde2, c=a.f_sup / a.gap)
    return [(bernstein_conjugate(bp, u), "", {}) for u in us]


def _rate_bernstein_general(a: ModelAnalysis, us: list[float]):
    """Sharpest closed form: variance sigma_hat^2, scale ||max(f,0)||/gap."""
    if a.fplus_sup <= 0:
        raise ValidationError("centered observable must take positive values")
    bp = BernsteinParams(v=a.sigma_hat2, c=a.fplus_sup / a.gap)
    return [(bernstein_conjugate(bp, u), "", {}) for u in us]


@dataclass(frozen=True)
class FSobolevFunction:
    """Strictly increasing concave F with F(1) = 0, plus inverse and F(0+)."""

    fn: object
    inverse: object
    zero_limit: float
    name: str = "F"

    def __call__(self, x):
        return self.fn(x)


def log_sobolev(c: float) -> FSobolevFunction:
    """F = c * log: the functional inequality becomes a log-Sobolev inequality."""
    if c <= 0:
        raise ValidationError(f"constant must be positive, got {c}")
    return FSobolevFunction(
        fn=lambda x: c * np.log(x),
        inverse=lambda y: np.exp(np.asarray(y, dtype=float) / c),
        zero_limit=-math.inf,
        name=f"{c}*log",
    )


@dataclass(frozen=True)
class FSobolevVerdict:
    """Whether the functional inequality of ``F`` holds on ``model``'s chain.

    ``status`` is ``holds``, ``violated`` (with a ``witness``),
    ``inconclusive``, or ``assumed`` for an inequality taken on trust.  The
    verdict serves every model on the same chain, whatever its ``f`` or
    ``nu``, since the inequality reads only ``Q`` and ``pi``.
    """

    F: FSobolevFunction
    model: MJPModel
    status: str
    max_violation: float = math.nan
    witness: np.ndarray | None = None

    @classmethod
    def assumed(cls, model: MJPModel, F: FSobolevFunction) -> FSobolevVerdict:
        """The inequality of ``F`` on ``model``'s chain, taken without a check;
        bounds from it are flagged ``unverified``."""
        return cls(F, model, "assumed")


def _violation(model: MJPModel, F: FSobolevFunction, g: np.ndarray):
    """pi(g^2 F(g^2)) + <Lg, g>_pi; the inequality holds iff this is <= 0.

    ``g`` is one function on the states or a matrix whose columns are
    functions; the result is one value per function.
    """
    w = model.pi.weights
    g2 = g * g
    mask = g2 > 0.0
    term = np.zeros_like(g2)
    term[mask] = g2[mask] * F(g2[mask])
    return w @ term + w @ (g * (model.q.rates @ g))


def check_f_sobolev(model: MJPModel, F: FSobolevFunction) -> FSobolevVerdict:
    """Search for a violation of the functional inequality on the unit sphere.

    The candidates are the columns of one matrix, scored by one
    ``_violation`` call; the first largest violation decides.  Two states
    admit an exhaustive one-angle sweep, so ``holds`` is a certificate up to
    grid resolution there.  Larger state spaces get ``FSOBOLEV_RESTARTS``
    random starts ascended by ``_ascend_violation``, which can only return
    ``violated`` (with the witness) or ``inconclusive``.
    """
    w = model.pi.weights
    sweep = model.n == 2
    if sweep:
        theta = np.linspace(0.0, math.pi, FSOBOLEV_SWEEP)
        g = np.stack([np.cos(theta) / math.sqrt(w[0]), np.sin(theta) / math.sqrt(w[1])])
    else:
        rng = np.random.default_rng(FSOBOLEV_SEED)
        g = rng.standard_normal((FSOBOLEV_RESTARTS, model.n)).T
        g = _ascend_violation(model, F, g / np.sqrt(w @ g**2))
    v = _violation(model, F, g)
    k = int(np.argmax(v))
    if v[k] > 1e-8:
        return FSobolevVerdict(F, model, "violated", float(v[k]), g[:, k].copy())
    return FSobolevVerdict(F, model, "holds" if sweep else "inconclusive", float(v[k]))


def _ascend_violation(model, F, g):
    """Projected gradient ascent on the violation over the pi-unit sphere, of
    every column of ``g`` at once.  Each step scores the live columns and
    their renormalized forward-difference probes in two ``_violation`` calls;
    a column leaves the live set once its gradient falls below 1e-10."""
    w = model.pi.weights
    n = g.shape[0]
    eps = 1e-7
    g = g.copy()
    live = np.arange(g.shape[1])
    for _ in range(ASCENT_STEPS):
        x = g[:, live]
        base = _violation(model, F, x)
        # probes[:, k, j] is column j of x moved by eps along state k
        probes = (x[:, None, :] + eps * np.eye(n)[:, :, None]).reshape(n, -1)
        probes /= np.sqrt(w @ probes**2)
        grad = (_violation(model, F, probes).reshape(n, -1) - base) / eps
        moving = np.max(np.abs(grad), axis=0) >= 1e-10
        live = live[moving]
        if live.size == 0:
            break
        x = x[:, moving] + ASCENT_LR * grad[:, moving]
        g[:, live] = x / np.sqrt(w @ x**2)
    return g


def _admitted(verdict: FSobolevVerdict | None, model: MJPModel) -> FSobolevVerdict:
    """``verdict`` if an fsobolev bound on ``model`` may rest on it.

    The one verdict policy: a verdict of another chain is refused,
    ``violated`` raises ``FSobolevNotVerifiedError``, and every other status
    admits the bound (flagged ``unverified`` unless it is ``holds``).
    """
    if verdict is None:
        raise ValidationError("fsobolev family needs fsobolev=<FSobolevVerdict>")
    if not _same_chain(verdict.model, model):
        raise ValidationError("verdict belongs to a different chain than the model")
    if verdict.status == "violated":
        raise FSobolevNotVerifiedError(verdict.status)
    return verdict


def _rate_fsobolev(a: ModelAnalysis, us: list[float], verdict: FSobolevVerdict):
    """Rate ``sup_r (ru - F(pi(F^{-1}(r f))))`` over the admissible tilts.

    The tilt domain ends where F^{-1} stops being defined on r*f, at
    ``r = F(0+)/min f``; an infinite F(0+) leaves the domain unbounded and
    the search bracket expands adaptively.  On an unbounded domain the rate
    above ``max f`` is infinite, since ``F(pi(F^{-1}(r f))) <= r max f``.
    """
    F = verdict.F
    f_vals = a.model.f.values
    w = a.model.pi.weights
    f_min = float(np.min(f_vals))
    r_cap = F.zero_limit / f_min if math.isfinite(F.zero_limit) else math.inf

    def g_of_r(r: float) -> float:
        return float(F(float(w @ F.inverse(r * f_vals))))

    def rate_at(u: float):
        if math.isinf(r_cap) and above_max(a.model.f, u):
            rate, argmax_r = math.inf, None
        else:
            conj = fenchel_conjugate(g_of_r, u, r_max=r_cap, tol=1e-12)
            rate, argmax_r = conj.value, conj.argmax_r
        diag = {"r_cap": r_cap, "F": F.name, "argmax_r": argmax_r}
        diag["unverified"] = verdict.status != "holds"
        return rate, "", diag

    return [rate_at(u) for u in us]


_RATES = {
    "general": _rate_general,
    "perturbation": _rate_perturbation,
    "poincare": _rate_poincare,
    "bernstein_general": _rate_bernstein_general,
    "fsobolev": _rate_fsobolev,
}
FAMILIES = tuple(_RATES)


def evaluate_family(
    model: MJPModel,
    t: float,
    u,
    family: str,
    analysis: ModelAnalysis | None = None,
    fsobolev: FSobolevVerdict | None = None,
):
    """The bound of the named family at threshold ``u`` and horizon ``t``, or
    the list of its bounds at every threshold of a 1-D grid ``u``.

    The family's rate function gets the whole grid at once.  ``analysis``
    may come from any model on the same chain.  The ``fsobolev`` family
    reads its F from the verdict ``fsobolev``; the other families ignore it.
    A threshold that is NaN or infinite and a time that is NaN, infinite or
    negative are refused, as they would otherwise come out as the trivial
    bound 1.  A constant observable centers to ``f = 0``, so ``A_t / t`` is
    0 on every path: every family gives rate 0 at ``u <= 0`` and ``inf``
    above.
    """
    grid = np.asarray(u, dtype=float)
    if grid.ndim > 1:
        raise ValidationError(f"thresholds must be a number or a 1-D grid, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise ValidationError(f"threshold u must be finite, got {u}")
    rate_fn = _RATES.get(family)
    if rate_fn is None:
        raise ValidationError(f"unknown family {family!r}; choose from {FAMILIES}")
    extra = (_admitted(fsobolev, model),) if family == "fsobolev" else ()
    a = _analysis(model, analysis)
    us = np.atleast_1d(grid).tolist()
    if a.f_sup == 0.0:
        rates = [((0.0 if uk <= 0 else math.inf), "", {}) for uk in us]
    else:
        rates = rate_fn(a, us, *extra)
    prefactor = a.prefactor
    points = [
        _finish(family, uk, t, rate, prefactor, branch, diag)
        for uk, (rate, branch, diag) in zip(us, rates)
    ]
    return points if grid.ndim else points[0]


def lower_tail(
    model: MJPModel, t: float, u: float, family: str, **kwargs
) -> BoundPoint:
    """Bound on P_nu(A_t/t <= u) for u <= 0, via the sign-flipped observable."""
    if u > 0:
        raise ValidationError(f"lower tail needs u <= 0, got {u}")
    flipped = flip_observable(model)
    point = evaluate_family(flipped, t, -u, family, **kwargs)
    return replace(point, u=u, diagnostics={**point.diagnostics, "tail": "lower"})


def two_sided(model: MJPModel, t: float, u: float, family: str, **kwargs) -> float:
    """Subadditive two-sided bound: upper tail at u plus lower tail at -u."""
    if u <= 0:
        raise ValidationError(f"two-sided bound needs u > 0, got {u}")
    upper = evaluate_family(model, t, u, family, **kwargs)
    lower = lower_tail(model, t, -u, family, **kwargs)
    return min(1.0, upper.bound + lower.bound)


def iid_sum_bound(
    rate_fn, n_replicas: int, u: float, t: float = 1.0, prefactor: float = 1.0
) -> float:
    """Bound for the average of independent replicas of the time average.

    Averaging n independent copies multiplies the exponential rate by n; the
    conservative form also raises the prefactor to the n-th power, one factor
    per replica.  (The single-prefactor variant ``prefactor * e^{-n t rate}``
    is a caller-side choice; this function ships the product form.)
    """
    if not isinstance(n_replicas, (int, np.integer)) or n_replicas < 1:
        raise ValidationError(f"need a whole number of replicas >= 1, got {n_replicas}")
    return _tail_bound(prefactor**n_replicas, t, n_replicas * float(rate_fn(u)))
