"""Concentration-bound families for the upper tail of a time average.

Every family produces a bound of the form

    P_nu(A_t / t >= u)  <=  min(1, prefactor * exp(-t * rate(u))),

where the prefactor is the L2(pi) norm of the density of nu against pi.  The
families differ in the rate:

- ``general``            the exact conjugate of the tilted top eigenvalue
- ``perturbation``       two-branch rate from the perturbation-series bound
- ``poincare``           sub-gamma rate with variance 2 Var_pi(f) / gap
- ``bernstein_general``  sub-gamma rate with the asymptotic variance and the
                         positive-part sup norm; sharpest closed form
- ``fsobolev``           rate from a user-supplied functional inequality

Lower tails come from replaying a family on -f; two-sided bounds add both
tails.
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
    bernstein_conjugate,
    chi2_prefactor,
    fenchel_conjugate,
    lambda0_star,
)

FAMILIES = ("general", "perturbation", "poincare", "bernstein_general", "fsobolev")


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
        return sigma_hat_sq(self.sd, self.model.f, self.model.pi)

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
        return _finish(
            self.family, self.u, t, self.rate, self.prefactor, self.branch, self.diagnostics
        )


def _finish(family, u, t, rate, prefactor, branch="", diagnostics=None) -> BoundPoint:
    bound = 0.0 if math.isinf(rate) else min(1.0, prefactor * math.exp(-t * rate))
    return BoundPoint(family, u, t, rate, prefactor, bound, branch, diagnostics or {})


def _analysis(model: MJPModel, analysis: ModelAnalysis | None) -> ModelAnalysis:
    """The analysis of ``model``, reusing the caller's spectral data when it fits.

    Spectral data can be shared between models on the same chain (equal
    ``Q`` and ``pi``), such as ``flip_observable`` or ``stationary_model``
    of the analyzed model; everything else is derived from ``model`` itself.
    An analysis of a different chain is rejected.
    """
    if analysis is None:
        return analyze(model)
    if analysis.model is model:
        return analysis
    other = analysis.model
    if np.array_equal(other.q.rates, model.q.rates) and np.array_equal(
        other.pi.weights, model.pi.weights
    ):
        return ModelAnalysis(model, analysis.sd)
    raise ValidationError("analysis belongs to a different chain than the model")


def bound_general(
    model: MJPModel, t: float, u: float, analysis: ModelAnalysis | None = None
) -> BoundPoint:
    """Master bound: rate is the conjugate of the tilted top eigenvalue."""
    a = _analysis(model, analysis)
    conj = lambda0_star(a.sd, model.f, model.pi, u)
    diag = {"argmax_r": conj.argmax_r, "boundary": conj.boundary}
    return _finish("general", u, t, conj.value, a.prefactor, diagnostics=diag)


def perturbation_branch_threshold(a: ModelAnalysis) -> float:
    """Largest u on which the sub-gamma branch of the perturbation bound applies."""
    return 2.0 * a.sigma_hat2 * a.gap / a.f_sup


def bound_perturbation(
    model: MJPModel, t: float, u: float, analysis: ModelAnalysis | None = None
) -> BoundPoint:
    """Two-branch rate from the perturbation-series bound on the eigenvalue.

    Below the threshold ``2 sigma_hat^2 gap / ||f||`` the maximizing tilt
    stays inside the validity interval of the series bound and the rate is
    the sub-gamma conjugate with variance sigma_hat^2 and scale 2||f||/gap;
    beyond it the rate is linear, evaluated at the interval's endpoint.
    """
    a = _analysis(model, analysis)
    if a.f_sup <= 0:
        raise ValidationError("observable is constant; perturbation bound degenerates")
    u_star = perturbation_branch_threshold(a)
    r0 = (
        a.gap
        / (2.0 * a.f_sup)
        * (1.0 - (1.0 + 4.0 * u * a.f_sup / (a.gap * a.sigma_hat2)) ** -0.5)
    )
    diag = {"r0": r0, "branch_threshold_u": u_star}
    if u <= u_star:
        rate = bernstein_conjugate(
            BernsteinParams(v=a.sigma_hat2, c=2.0 * a.f_sup / a.gap), u
        )
        return _finish("perturbation", u, t, rate, a.prefactor, "a", diag)
    rate = (a.gap / (3.0 * a.f_sup)) * (u - a.gap * a.sigma_hat2 / (2.0 * a.f_sup))
    return _finish("perturbation", u, t, rate, a.prefactor, "b", diag)


def bound_poincare(
    model: MJPModel, t: float, u: float, analysis: ModelAnalysis | None = None
) -> BoundPoint:
    """Sub-gamma rate with variance 2 Var_pi(f)/gap and scale ||f||/gap.

    Uses the spectral-gap constant, the sharpest admissible choice for the
    variance inequality behind this bound.
    """
    a = _analysis(model, analysis)
    rate = bernstein_conjugate(
        BernsteinParams(v=a.sigma_tilde2, c=a.f_sup / a.gap), u
    )
    diag = {"sigma_tilde2": a.sigma_tilde2}
    return _finish("poincare", u, t, rate, a.prefactor, diagnostics=diag)


def bound_bernstein_general(
    model: MJPModel, t: float, u: float, analysis: ModelAnalysis | None = None
) -> BoundPoint:
    """Sharpest closed form: variance sigma_hat^2, scale ||max(f,0)||/gap."""
    a = _analysis(model, analysis)
    if a.fplus_sup <= 0:
        raise ValidationError("centered observable must take positive values")
    rate = bernstein_conjugate(
        BernsteinParams(v=a.sigma_hat2, c=a.fplus_sup / a.gap), u
    )
    diag = {"sigma_hat2": a.sigma_hat2, "fplus_sup": a.fplus_sup}
    return _finish("bernstein_general", u, t, rate, a.prefactor, diagnostics=diag)


def general_bernstein_eigen_bound(a: ModelAnalysis, r: float) -> float:
    """Closed-form majorant of the tilted top eigenvalue on [0, gap/||f+||)."""
    c = a.fplus_sup / a.gap
    if not 0.0 <= r < 1.0 / c:
        raise ValidationError(f"r = {r} outside [0, {1.0 / c})")
    return r * r * (a.sigma_hat2 / 2.0) / (1.0 - c * r)


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
    status: str  # "holds" | "violated" | "inconclusive"
    max_violation: float
    witness: np.ndarray | None = None


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


def check_f_sobolev(
    model: MJPModel,
    F: FSobolevFunction,
    n_restarts: int = 32,
    sweep: int = 200001,
    seed: int = 0,
) -> FSobolevVerdict:
    """Search for a violation of the functional inequality on the unit sphere.

    Two states admit an exhaustive one-angle sweep, so ``holds`` is a
    certificate up to grid resolution there.  Larger state spaces get
    projected-gradient ascent on the violation from random restarts, which
    can only return ``violated`` (with the witness) or ``inconclusive``.
    """
    w = model.pi.weights
    n = model.n
    if n == 2:
        theta = np.linspace(0.0, math.pi, sweep)
        g0 = np.cos(theta) / math.sqrt(w[0])
        g1 = np.sin(theta) / math.sqrt(w[1])
        gs = np.stack([g0, g1], axis=0)
        v = _violation(model, F, gs)
        k = int(np.argmax(v))
        if v[k] > 1e-8:
            return FSobolevVerdict("violated", float(v[k]), gs[:, k].copy())
        return FSobolevVerdict("holds", float(v[k]))

    rng = np.random.default_rng(seed)
    best_v = -math.inf
    best_g = None
    for _ in range(n_restarts):
        g = rng.standard_normal(n)
        g /= math.sqrt(float(w @ g**2))
        v = _ascend_violation(model, F, g)
        val = float(_violation(model, F, v))
        if val > best_v:
            best_v, best_g = val, v
    if best_v > 1e-8:
        return FSobolevVerdict("violated", best_v, best_g)
    return FSobolevVerdict("inconclusive", best_v)


def _ascend_violation(model, F, g, steps=200, lr=0.05):
    """Projected gradient ascent on the violation over the pi-unit sphere."""
    w = model.pi.weights
    eps = 1e-7
    for _ in range(steps):
        base = _violation(model, F, g)
        grad = np.empty_like(g)
        for k in range(g.size):
            probe = g.copy()
            probe[k] += eps
            probe /= math.sqrt(float(w @ probe**2))
            grad[k] = (_violation(model, F, probe) - base) / eps
        if float(np.max(np.abs(grad))) < 1e-10:
            break
        g = g + lr * grad
        g /= math.sqrt(float(w @ g**2))
    return g


def bound_fsobolev(
    model: MJPModel,
    t: float,
    u: float,
    F: FSobolevFunction,
    assume: bool = False,
    verdict: FSobolevVerdict | None = None,
    analysis: ModelAnalysis | None = None,
) -> BoundPoint:
    """Rate ``sup_r (ru - F(pi(F^{-1}(r f))))`` over the admissible tilts.

    The tilt domain ends where F^{-1} stops being defined on r*f, at
    ``r = F(0+)/min f``; an infinite F(0+) leaves the domain unbounded and
    the search bracket expands adaptively.  The inequality must have been
    verified (or explicitly assumed by the caller).
    """
    if not assume:
        v = verdict if verdict is not None else check_f_sobolev(model, F)
        if v.status != "holds":
            raise FSobolevNotVerifiedError(v.status)
    a = _analysis(model, analysis)
    f_vals = model.f.values
    f_min = float(np.min(f_vals))
    r_cap = F.zero_limit / f_min if math.isfinite(F.zero_limit) else math.inf

    def g_of_r(r: float) -> float:
        return float(F(float(model.pi.weights @ F.inverse(r * f_vals))))

    conj = fenchel_conjugate(g_of_r, u, r_max=r_cap, tol=1e-12)
    diag = {"r_cap": r_cap, "F": F.name, "argmax_r": conj.argmax_r}
    return _finish("fsobolev", u, t, conj.value, a.prefactor, diagnostics=diag)


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
    if n_replicas < 1:
        raise ValidationError(f"need at least one replica, got {n_replicas}")
    rate = float(rate_fn(u))
    if math.isinf(rate):
        return 0.0
    return min(1.0, prefactor**n_replicas * math.exp(-n_replicas * t * rate))


def evaluate_family(
    model: MJPModel,
    t: float,
    u: float,
    family: str,
    analysis: ModelAnalysis | None = None,
    F: FSobolevFunction | None = None,
    assume_fsobolev: bool = False,
    fsobolev_verdict: FSobolevVerdict | None = None,
) -> BoundPoint:
    """Dispatch one (u, t) evaluation to the named bound family.

    Rejects a threshold that is NaN or infinite and a time that is NaN,
    infinite or negative, which would otherwise come out as the trivial
    bound 1.
    """
    if not math.isfinite(u):
        raise ValidationError(f"threshold u must be finite, got {u}")
    if not math.isfinite(t) or t < 0:
        raise ValidationError(f"time must be finite and nonnegative, got {t}")
    if family == "general":
        return bound_general(model, t, u, analysis)
    if family == "perturbation":
        return bound_perturbation(model, t, u, analysis)
    if family == "poincare":
        return bound_poincare(model, t, u, analysis)
    if family == "bernstein_general":
        return bound_bernstein_general(model, t, u, analysis)
    if family == "fsobolev":
        if F is None:
            raise ValidationError("fsobolev family needs an F function")
        return bound_fsobolev(
            model, t, u, F, assume=assume_fsobolev, verdict=fsobolev_verdict,
            analysis=analysis,
        )
    raise ValidationError(f"unknown family {family!r}; choose from {FAMILIES}")
