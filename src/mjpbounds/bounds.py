"""Concentration-bound families for the tails of a time average.

Every family produces a bound of the form

    P_nu(A_t / t >= u)  <=  min(1, prefactor * exp(-t * rate(u))),

where the prefactor is the L2(pi) norm of the density of nu against pi.  The
families differ only in the rate, which does not depend on t:

- ``general``            the exact conjugate of the tilted top eigenvalue
- ``perturbation``       two-branch rate from the perturbation-series bound
- ``poincare``           sub-gamma rate with variance 2 Var_pi(f) / gap
- ``bernstein_general``  sub-gamma rate with the asymptotic variance and the
                         positive-part sup norm; sharpest closed form
- ``fsobolev``           rate from a log-Sobolev inequality with a given
                         constant: c times the static Cramer rate of f

``evaluate_family`` is the one way to a bound of the upper tail, at one
threshold or a grid; ``bound_table`` keys the bounds of every tail by cell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FSobolevNotVerifiedError, ValidationError
from .markov import MJPModel, check_horizon, flip_observable, is_whole
from .spectral import (
    SpectralData,
    pi_variance,
    sigma_hat_sq,
    spectral_decomposition,
)
from .tilting import (
    WEYL_C,
    BernsteinParams,
    bernstein_conjugate,
    chi2_prefactor,
    conjugate_grid,
    lambda0_star,
    thresholds,
)

FSOBOLEV_SEED = 0
FSOBOLEV_RESTARTS = 32
ASCENT_STEPS = 200
ASCENT_LR = 0.05
# the sizes of the step along phi_1 that Lemma 3.1's witness tries
LEMMA_EPS = 10.0 ** -np.arange(1.0, 7.0)


@dataclass(frozen=True)
class ModelAnalysis:
    """One model's spectral data, with the quantities every bound family reads.

    Its fields are only the model and the spectral decomposition of its
    chain, which depends on ``Q`` and ``pi`` alone.  Each other number is
    derived on first access from the one owner that computes it, and kept
    with this analysis: the variances from ``sd`` and the model's ``f``, the
    sup norms from ``f``, and the prefactor from ``nu``; the gap is read from
    ``sd``.  A read that raises keeps nothing, so it raises again.  A number
    derived for ``f`` therefore cannot be reused for ``-f`` or for another
    initial distribution: their analyses are other instances.
    """

    model: MJPModel
    sd: SpectralData

    @property
    def gap(self) -> float:
        return self.sd.gap

    @functools.cached_property
    def prefactor(self) -> float:
        return chi2_prefactor(self.model.nu, self.model.pi)

    @functools.cached_property
    def sigma_hat2(self) -> float:
        return sigma_hat_sq(self.sd, self.model.f)

    @functools.cached_property
    def var_pi_f(self) -> float:
        return pi_variance(self.model.pi, self.model.f)

    @functools.cached_property
    def sigma_tilde2(self) -> float:
        return 2.0 * self.var_pi_f / self.gap

    @functools.cached_property
    def f_sup(self) -> float:
        return float(np.max(np.abs(self.model.f)))

    @functools.cached_property
    def fplus_sup(self) -> float:
        return float(np.max(np.maximum(self.model.f, 0.0)))


def analyze(model: MJPModel) -> ModelAnalysis:
    return ModelAnalysis(model, spectral_decomposition(model.q, model.pi))


@dataclass(frozen=True)
class BoundPoint:
    """One evaluated bound of one tail: rate, prefactor, and the clamped bound."""

    family: str
    u: float
    t: float
    rate: float
    prefactor: float
    bound: float
    branch: str = ""
    diagnostics: dict = field(default_factory=dict)
    tail: str = "upper"


def _tail_bound(prefactor: float, t: float, rate: float) -> float:
    """``min(1, prefactor * exp(-t * rate))``, 0 at an infinite rate.

    Refuses what ``_check_tail`` refuses.
    """
    _check_tail(t, rate)
    return 0.0 if math.isinf(rate) else min(1.0, prefactor * math.exp(-t * rate))


def _check_tail(t: float, rate: float):
    """Refuse a horizon that ``check_horizon`` refuses and a NaN or negative
    rate, which would otherwise come out as the trivial bound 1 or as 0."""
    check_horizon(t)
    if not rate >= 0:  # also refuses NaN
        raise ValidationError(f"rate must be nonnegative, got {rate}")


def _finish(family, u, t, rate, prefactor, branch="", diagnostics=None) -> BoundPoint:
    bound = _tail_bound(prefactor, t, rate)
    return BoundPoint(family, u, t, rate, prefactor, bound, branch, diagnostics or {})


def _same_chain(a: MJPModel, b: MJPModel) -> bool:
    """True iff the two models share a chain: equal ``Q`` and ``pi``, as
    ``flip_observable`` and ``stationary_model`` of one model do."""
    return a is b or (np.array_equal(a.q, b.q) and np.array_equal(a.pi, b.pi))


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


def check_fsobolev_constant(c: float):
    """Refuse a log-Sobolev constant that is not positive and finite (NaN too)."""
    if not 0.0 < c < math.inf:
        raise ValidationError(f"log-Sobolev constant must be positive and finite, got {c}")


@dataclass(frozen=True)
class FSobolevVerdict:
    """Whether the log-Sobolev inequality with constant ``c``, the functional
    inequality of ``F = c log``, holds on ``model``'s chain.

    ``status`` is ``holds``, ``violated`` (with a ``witness``),
    ``inconclusive``, or ``assumed`` for an inequality taken on trust.  The
    verdict serves every model on the same chain, whatever its ``f`` or
    ``nu``, since the inequality reads only ``Q`` and ``pi``.
    """

    c: float
    model: MJPModel
    status: str
    max_violation: float = math.nan
    witness: np.ndarray | None = None

    def __post_init__(self):
        check_fsobolev_constant(self.c)

    @classmethod
    def assumed(cls, model: MJPModel, c: float) -> FSobolevVerdict:
        """The inequality with constant ``c`` on ``model``'s chain, taken
        without a check; bounds from it are flagged ``unverified``."""
        return cls(c, model, "assumed")


def _violation(model: MJPModel, c: float, g: np.ndarray):
    """V(g) = pi(g^2 c log(g^2)) + <Lg, g>_pi; the inequality holds iff V <= 0.

    ``g`` is one function on the states or a matrix whose columns are
    functions; the result is one value per function.
    """
    return _violation_terms(model, c, g)[0]


def _violation_terms(model, c, g):
    """``V(g)``, with the ``g log g^2`` (0 at g = 0) and ``Qg`` its gradient reuses."""
    g2 = g * g
    glog = g * np.log(g2, out=np.zeros_like(g2), where=g2 > 0.0)
    qg = model.q @ g
    return model.pi @ (g * (c * glog + qg)), glog, qg


def check_f_sobolev(a: ModelAnalysis, c: float) -> FSobolevVerdict:
    """Whether the log-Sobolev inequality with constant ``c`` holds on the
    chain of ``a.model``, by one check for every chain size.

    It is the inequality of the additive symmetrization, reversible with gap
    ``sd.gap``, so it holds iff ``c <= alpha`` of Diaconis & Saloff-Coste
    (Ann. Appl. Probab. 1996): ``alpha >= gap p x / log1p(x)``, ``p = min pi``,
    ``x = (1 - 2p)/p`` (Cor. A.4, exact on two states by Thm A.1), and
    ``alpha <= gap/2`` (Lemma 3.1).  ``holds`` if ``c`` is at most that bound
    at the gap less its Weyl slack.  Above half the gap plus its slack,
    ``violated`` by Lemma 3.1, with no search, if the best of
    ``1 + eps phi_1`` over ``LEMMA_EPS`` (``phi_1`` the gap eigenvector,
    pi-normalized) violates by more than 1e-8; it is the witness.  Otherwise
    the random starts and ``1 +- 0.1 phi_1`` are ascended, and the
    first largest violation is the witness: ``violated`` above 1e-8, or on two
    states above the exact alpha at the gap plus its slack; else ``inconclusive``.
    """
    model, sd = a.model, a.sd
    verdict = FSobolevVerdict(c, model, "inconclusive")
    # B is negative semidefinite, so its 2-norm is minus its lowest eigenvalue
    slack = WEYL_C * model.n * np.finfo(float).eps * -sd.eigenvalues[-1]
    p = float(np.min(model.pi))
    x = (1.0 - 2.0 * p) / p
    ratio = 0.5 if x == 0.0 else p * x / math.log1p(x)
    if c <= max(0.0, sd.gap - slack) * ratio:
        return replace(verdict, status="holds")
    w = model.pi
    if c > 0.5 * (sd.gap + slack):
        g = 1.0 + sd.eigvecs[:, [1]] * LEMMA_EPS
        g /= np.sqrt(w @ g**2)
        witness = g[:, int(np.argmax(_violation(model, c, g)))].copy()
        v = float(_violation(model, c, witness))
        if v > 1e-8:
            return replace(verdict, status="violated", max_violation=v, witness=witness)
    g = np.random.default_rng(FSOBOLEV_SEED).standard_normal((FSOBOLEV_RESTARTS, model.n)).T
    g = np.hstack([g, 1.0 + sd.eigvecs[:, [1, 1]] * [0.1, -0.1]])
    g = _ascend_violation(model, c, g / np.sqrt(w @ g**2))
    v = _violation(model, c, g)
    k = int(np.argmax(v))
    if v[k] > 1e-8 or (model.n == 2 and c > (sd.gap + slack) * ratio):
        return replace(verdict, status="violated", max_violation=float(v[k]),
                       witness=g[:, k].copy())
    return replace(verdict, max_violation=float(v[k]))


def _ascend_violation(model, c, g):
    """Projected gradient ascent of ``V`` over the pi-unit sphere, every column
    of ``g`` at once: ``ASCENT_STEPS`` steps of size ``ASCENT_LR`` along the
    gradient of ``V(g/|g|_pi)`` at a unit ``g``,
    ``pi (2c g log g^2 + Qg - 2V g) + Q^T(pi g)``, each followed by a renormalization."""
    w = model.pi[:, None]
    for _ in range(ASCENT_STEPS):
        v, glog, qg = _violation_terms(model, c, g)
        grad = w * (2.0 * c * glog + qg - 2.0 * v * g) + model.q.T @ (w * g)
        g = g + ASCENT_LR * grad
        g /= np.sqrt(model.pi @ g**2)
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
        raise FSobolevNotVerifiedError(verdict)
    return verdict


def _rate_fsobolev(a: ModelAnalysis, us: list[float], verdict: FSobolevVerdict):
    """Rate ``sup_r (r u - c K(r/c))`` of ``F = c log``, where
    ``K(s) = log pi(e^{s f})``: c times the Cramer rate of f under pi.

    Solved for the whole grid by ``conjugate_grid``; infinite above max f,
    since ``c K(r/c) <= r max f``.  The slope is the tilted mean ``K'(r/c)``
    and the curvature the tilted variance over c.  ``K`` is taken shifted
    by ``s max f``, so that no ``exp`` can overflow and the objective at
    ``u = max f`` is exactly ``-c log pi(e^{s(f - max f)})``.
    """
    c = verdict.c
    f = a.model.f
    w = a.model.pi
    f_max = float(np.max(f))

    def moments(r, u):
        t = np.outer(r / c, f - f_max)
        # log pi(e^{t}) as log1p of a sum of terms <= 0: no cancellation at
        # small tilts, where the value r u - c K is tiny
        log_z = np.log1p(np.sum(w * np.expm1(t), axis=1))
        p = w * np.exp(t)
        p /= np.sum(p, axis=1)[:, None]
        # row sums rather than p @ f, whose rounding depends on the stack size
        mean = np.sum(p * f, axis=1)
        var = np.sum(p * (f - mean[:, None]) ** 2, axis=1)
        return r * (u - f_max) - c * log_z, mean, var / c, 0.0

    unverified = verdict.status != "holds"
    return [
        (res.value, "", {"argmax_r": res.argmax_r, "unverified": unverified})
        for res in conjugate_grid(moments, a.model.f, us, a.var_pi_f / c)
    ]


_RATES = {
    "general": _rate_general,
    "perturbation": _rate_perturbation,
    "poincare": _rate_poincare,
    "bernstein_general": _rate_bernstein_general,
    "fsobolev": _rate_fsobolev,
}
FAMILIES = tuple(_RATES)
TAILS = ("upper", "lower", "two")


def evaluate_family(
    a: ModelAnalysis, t: float, u, family: str, fsobolev: FSobolevVerdict | None = None
):
    """The bound of the named family for the model of ``a`` at threshold
    ``u`` and horizon ``t``, or the list of its bounds at every threshold of
    a 1-D grid ``u``.

    The family's rate function gets the whole grid at once.  The
    ``fsobolev`` family reads its constant from the verdict ``fsobolev``;
    the other families ignore it.
    A threshold that is NaN or infinite and a time that is NaN, infinite or
    negative are refused, as they would otherwise come out as the trivial
    bound 1.  So is a negative threshold, in every family: the tail below 0
    is the upper tail of ``-f``, ``tail="lower"`` in ``bound_table``.  A
    constant observable centers to ``f = 0``, so ``A_t / t`` is 0 on every
    path: every family gives rate 0 at ``u = 0`` and ``inf`` above.
    """
    grid, flat = thresholds(u)
    if not np.all(np.isfinite(flat)):
        raise ValidationError(f"threshold u must be finite, got {u}")
    us = flat.tolist()
    rate_fn = _RATES.get(family)
    if rate_fn is None:
        raise ValidationError(f"unknown family {family!r}; choose from {FAMILIES}")
    extra = (_admitted(fsobolev, a.model),) if family == "fsobolev" else ()
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


def bound_table(a: ModelAnalysis, families, u, t, tails=("upper",), fsobolev=None) -> dict:
    """``{(family, tail, u, t): BoundPoint}`` for the model of ``a`` on a 1-D
    grid of deviations ``u >= 0`` and one horizon ``t`` or a 1-D list of them.

    ``upper`` bounds ``P(A_t/t >= u)``.  ``lower`` bounds ``P(A_t/t <= -u)``
    as the upper tail of ``flip_observable(a.model)``.  ``two`` bounds
    ``P(|A_t/t| >= u)`` by the sum of the two, capped at 1, so its ``bound``
    is not ``prefactor * exp(-t * rate)``; its rate is the smaller one, it
    has no branch, and a ``boundary`` or ``unverified`` flag of either side.
    Each family is evaluated once per side, on the whole grid at the first
    horizon; no rate depends on ``t``, so each further horizon costs one
    ``_tail_bound`` per cell.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim != 1 or ts.size == 0:
        raise ValidationError(f"horizons must be a number or a nonempty 1-D list, got {t}")
    if not set(tails) <= set(TAILS):
        raise ValidationError(f"tails must be among {TAILS}, got {tails}")
    both, us, table = "two" in tails, np.atleast_1d(u), {}
    # one analysis a side, which keeps the numbers it derives for every family
    sides = {side: a if side == "upper" else ModelAnalysis(flip_observable(a.model), a.sd)
             for side in ("upper", "lower") if both or side in tails}
    for fam in families:
        points = {
            side: evaluate_family(s, float(ts[0]), us, fam, fsobolev=fsobolev)
            for side, s in sides.items()
        }
        for tk in ts.tolist():
            cells = {side: [_cell(p, side, tk) for p in ps] for side, ps in points.items()}
            if both:
                cells["two"] = list(map(_two_cell, cells["upper"], cells["lower"]))
            table.update(((fam, tail, p.u, tk), p) for tail in tails for p in cells[tail])
    return table


def _cell(p: BoundPoint, tail: str, t: float) -> BoundPoint:
    """``p`` as the cell of ``tail`` at horizon ``t``, new only where either differs."""
    same = p.tail == tail and p.t == t
    return p if same else replace(p, t=t, tail=tail, bound=_tail_bound(p.prefactor, t, p.rate))


def _two_cell(up: BoundPoint, low: BoundPoint) -> BoundPoint:
    flags = {k: v or low.diagnostics[k] for k, v in up.diagnostics.items()
             if k in ("boundary", "unverified")}
    return replace(up, rate=min(up.rate, low.rate), bound=min(1.0, up.bound + low.bound),
                   branch="", diagnostics=flags, tail="two")


def iid_sum_bound(
    rate_fn, n_replicas: int, u: float, t: float = 1.0, prefactor: float = 1.0
) -> float:
    """Bound for the average of independent replicas of the time average.

    Averaging n independent copies multiplies the exponential rate by n; the
    conservative form also raises the prefactor to the n-th power, one factor
    per replica.  (The single-prefactor variant ``prefactor * e^{-n t rate}``
    is a caller-side choice; this function ships the product form.)
    """
    if not is_whole(n_replicas) or n_replicas < 1:
        raise ValidationError(f"need a whole number of replicas >= 1, got {n_replicas}")
    if not prefactor > 0:  # also refuses NaN
        raise ValidationError(f"prefactor must be positive, got {prefactor}")
    rate = float(rate_fn(u))
    _check_tail(t, rate)
    if math.isinf(rate):
        return 0.0
    # in logs, since prefactor**n overflows (2.0**2000):
    # min(1, p^n e^{-n t rate}) = exp(min(0, n (log p - t rate)))
    return math.exp(min(0.0, n_replicas * (math.log(prefactor) - t * rate)))
