"""Brute-force and closed-form oracles that only the tests use.

Each one computes a quantity the library also computes, by an independent
route: a Fenchel conjugate by bracket doubling and golden-section search
against the library's Newton solver, the Donsker-Varadhan information
minimised over the slice ``{beta : beta(f) = u}`` against the general rate,
the weighted norm of the
Feynman-Kac semigroup against its eigenvalue bound, the sub-gamma majorant
of the tilted top eigenvalue, a bound from a supplied rate function, the
static Cramer transform, the second closed form of the sub-gamma conjugate,
strong connectivity by depth-first search, the simulator's jump tables built
state by state, the single-path simulator (one trajectory at a time from a
sequential draw stream, on those tables) whose time averages
``time_averages`` must replay, and for the series combinatorics
a census of rotation classes by enumeration, a binomial sum for the Motzkin
numbers, a partial sum of the majorant's series and the second closed form
of beta(n, m).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from mjpbounds import (
    BernsteinParams,
    ConjugateResult,
    MJPModel,
    analyze,
    beta_total,
    lambda0_star,
)
from mjpbounds.bounds import BoundPoint, ModelAnalysis, _finish
from mjpbounds.errors import NumericalError, ValidationError, ZeroHorizonError
from mjpbounds.markov import _expm
from mjpbounds.simulate import _DRAW_SALT_I, _U_MAX, _mix64_int, stream_keys
from mjpbounds.spectral import sym_coords
from mjpbounds.tilting import R_CAP_FACTOR

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class NonFiniteError(NumericalError):
    def __init__(self, r, value):
        self.r, self.value = r, value
        super().__init__(f"objective returned non-finite value {value} at r = {r}")


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


def donsker_varadhan_info(q: np.ndarray, pi: np.ndarray, beta) -> float:
    """Information of beta against pi: -<L sqrt(d beta/d pi), sqrt(d beta/d pi)>.

    ``beta`` is a weight vector.  Nonnegative; tiny negative rounding is
    clamped to 0.
    """
    g = np.sqrt(np.asarray(beta, dtype=float) / pi)
    val = -float(pi @ (g * (q @ g)))
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


def verify_info_representation(
    model: MJPModel, u: float, grid_density: int = 10001
) -> InfoRepresentationReport:
    """Brute-force check that the information infimum equals the general rate.

    The information of ``beta`` is ``-h^T B h`` with ``h = sqrt(beta)`` and
    ``B = sym_coords(q, pi)``.  The slice ``{beta : beta(f) = u}`` is a single
    point for two states and a segment for three; the segment is scanned on
    ``grid_density`` points and the best one polished by golden-section
    search (the information is convex in ``beta``).  No other signs of ``h``
    are tried: ``B`` has nonnegative off-diagonal entries, so
    ``-|h|^T B |h| <= -h^T B h`` and the minimum lies at ``h >= 0``.  For n in
    {2, 3}.
    """
    n = model.n
    if n > 3:
        raise ValidationError(f"brute-force oracle supports n <= 3, got n = {n}")
    f = model.f
    fmin, fmax = float(np.min(f)), float(np.max(f))
    tol_edge = 1e-12 * max(1.0, abs(fmin), abs(fmax))
    if u < fmin - tol_edge or u > fmax + tol_edge:
        raise ValidationError(
            f"threshold u = {u} lies outside the range [{fmin}, {fmax}] of f"
        )
    u_in = min(max(u, fmin), fmax)
    b_sym = sym_coords(model.q, model.pi)

    def infos(betas: np.ndarray) -> np.ndarray:
        h = np.sqrt(betas)
        return -np.einsum("mi,ij,mj->m", h, b_sym, h)

    if n == 2:
        b0 = min(max((u_in - f[1]) / (f[0] - f[1]), 0.0), 1.0)
        beta = np.array([b0, 1.0 - b0])
        info = float(infos(beta[None, :])[0])
    else:
        s_vals = np.linspace(0.0, 1.0, grid_density)
        betas, ok = _simplex_slice(f, u_in, s_vals)
        grid_infos = infos(betas)
        k = int(np.argmin(grid_infos))
        beta, info = betas[k], float(grid_infos[k])

        def neg_info(s: float) -> float:
            p, _ = _simplex_slice(f, u_in, np.array([s]))
            return -float(infos(p)[0]) if p.shape[0] else -math.inf

        step = 1.0 / (grid_density - 1)
        s_k = float(s_vals[ok][k])
        s_best, neg_best = _golden_max(
            neg_info, max(s_k - step, 0.0), min(s_k + step, 1.0), 1e-13
        )
        if -neg_best < info:
            info = -neg_best
            beta = _simplex_slice(f, u_in, np.array([s_best]))[0][0]
    conj = lambda0_star(analyze(model).sd, model.f, u).value
    return InfoRepresentationReport(
        u=u,
        info_infimum=info,
        conjugate_value=conj,
        gap=abs(info - conj),
        argmin_beta=beta,
    )


def feynman_kac_norm(
    q: np.ndarray, pi: np.ndarray, f: np.ndarray, r: float, t: float
) -> float:
    """Weighted operator 2-norm of exp(t(Q + r diag f)).

    Computed as the largest singular value of the sqrt(pi)-similarity
    transform of the matrix exponential.
    """
    if t < 0:
        raise ValidationError(f"time must be nonnegative, got {t}")
    m = _expm(t * (q + r * np.diag(f)))
    sqrt_pi = np.sqrt(pi)
    a = (m * sqrt_pi[:, None]) / sqrt_pi[None, :]
    return float(np.linalg.norm(a, 2))


def general_bernstein_eigen_bound(a: ModelAnalysis, r: float) -> float:
    """Closed-form majorant of the tilted top eigenvalue on [0, gap/||f+||)."""
    c = a.fplus_sup / a.gap
    if not 0.0 <= r < 1.0 / c:
        raise ValidationError(f"r = {r} outside [0, {1.0 / c})")
    return r * r * (a.sigma_hat2 / 2.0) / (1.0 - c * r)


def bound_via_alpha(a: ModelAnalysis, t: float, u: float, alpha) -> BoundPoint:
    """Bound from a caller-supplied rate function dominated by the information.

    The caller asserts ``alpha(beta(f)) <= I(beta|pi)`` on the relevant
    measures; the closed-form families are instances of this construction.
    """
    return _finish("via_alpha", u, t, float(alpha(u)), a.prefactor)


def cramer_transform_static(
    pi: np.ndarray, f: np.ndarray, u: float, tol: float = 1e-12
) -> float:
    """Cramer transform of the single-draw observable f(X_0) under pi.

    Returns ``sup_{r>=0} (ru - log sum_x pi_x e^{r f(x)})``; infinite beyond
    max f.  The log-MGF is taken shifted by ``r max f``, as
    ``log1p(sum_x pi_x expm1(r (f(x) - max f)))``: weights that do not sum
    to exactly 1 leave no error of order eps in it, which at small u would
    swamp the rate.
    """
    if u < 0:
        raise ValidationError(f"threshold must be nonnegative, got {u}")
    f_max = float(np.max(f))
    if u > f_max * (1.0 + 1e-12) + 1e-300:
        return math.inf

    def log_mgf(r: float) -> float:
        return r * f_max + math.log1p(float(pi @ np.expm1(r * (f - f_max))))

    cap = R_CAP_FACTOR * (1.0 + 1.0 / max(float(np.max(np.abs(f))), 1e-300))
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


def _bucket_top(b: int, n_buckets: int) -> float:
    """The largest u in (0, 1] with ``int(u * n_buckets) == b``, found by
    stepping from ``(b + 1) / n_buckets`` one double at a time."""
    u = min(1.0, (b + 1) / n_buckets)
    while int(u * n_buckets) > b:
        u = float(np.nextafter(u, 0.0))
    while u < 1.0 and int(np.nextafter(u, 2.0) * n_buckets) == b:
        u = float(np.nextafter(u, 2.0))
    return u


def _cumulative(p: np.ndarray) -> np.ndarray:
    """Running sum of the probabilities ``p`` up to their last positive entry,
    then 1.0: a uniform u in (0, 1] picks index ``(u > row).sum()``, never
    one of probability zero, even where the rounded sum falls short of u."""
    row = np.ones(p.size)
    last = np.flatnonzero(p)[-1]
    row[:last] = np.cumsum(p[:last])
    return row


def jump_tables_loop(model: MJPModel):
    """``simulate._jump_tables`` built one row at a time: the positive-rate
    targets of each state x, then the states of positive weight under nu as
    row n, are listed and padded with x (state 0 in row n), their
    ``_cumulative`` row is taken and padded with 1.0, their guide row is
    found by ``searchsorted`` against the bucket edges, and the steps of each
    bucket are counted from its guide start to the pick of the bucket's
    largest u."""
    n = model.n
    rows = [(model.q[x], -model.q[x, x]) for x in range(n)]
    rows.append((model.nu, 1.0))
    moves = [np.flatnonzero(weights > 0.0) for weights, _ in rows]
    width = max(1, max(m.size for m in moves))
    n_buckets = 4 * width
    edges = np.arange(n_buckets + 1) / n_buckets * (1.0 - 2.0**-50)
    tops = [_bucket_top(b, n_buckets) for b in range(n_buckets + 1)]
    targets = np.empty((n + 1, width), dtype=np.int64)
    cum = np.ones((n + 1, width))
    guide = np.empty((n + 1, n_buckets + 1), dtype=np.int64)
    steps = 0
    for x, ((weights, total), ys) in enumerate(zip(rows, moves)):
        targets[x] = x if x < n else 0  # an absorbing row is padding only
        targets[x, : ys.size] = ys
        if ys.size:
            cum[x, : ys.size] = _cumulative(weights[ys] / total)
        start = np.searchsorted(cum[x], edges, side="left")
        guide[x] = x * width + start
        for b, u in enumerate(tops):
            steps = max(steps, int((u > cum[x]).sum() - start[b]))
    return targets, cum, guide, steps


class CounterStream:
    """Sequential view of one substream: draw k of sample ``stream``, one
    draw at a time, hashed with Python ints."""

    def __init__(self, seed: int, stream: int = 0):
        self.key = int(stream_keys(seed, np.array([stream], dtype=np.uint64))[0])
        self.cursor = 0

    def uniform(self) -> float:
        """The next draw; bit-identical to ``counter_uniforms(key, cursor)``."""
        z = _mix64_int(self.key ^ _mix64_int(self.cursor ^ _DRAW_SALT_I))
        self.cursor += 1
        return min(((z >> 11) + 0.5) * (2.0**-53), _U_MAX)


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-constant path: state entry times and the horizon."""

    times: np.ndarray
    states: np.ndarray
    horizon: float


def sample_trajectory(
    model: MJPModel, horizon: float, rng_stream: CounterStream
) -> Trajectory:
    """One trajectory of the jump process, truncated at the horizon.

    Deterministic given the stream: draw 0 picks the initial state, draws
    1+2j and 2+2j supply the j-th holding time and jump target, the draw
    layout of ``time_averages``, so a single sample can be replayed in
    isolation.  Jumps are picked from the tables of ``jump_tables_loop`` by
    a linear count, so no table or search code is shared with the simulator.
    """
    if not math.isfinite(horizon) or horizon < 0:
        raise ValidationError(f"horizon must be finite and nonnegative, got {horizon}")
    state = int((rng_stream.uniform() > _cumulative(model.nu)).sum())
    times = [0.0]
    states = [state]
    if horizon == 0.0:
        return Trajectory(np.array(times), np.array(states, dtype=np.int64), horizon)
    targets, cum, _, _ = jump_tables_loop(model)
    exit_rates = -np.diag(model.q)
    t = 0.0
    while True:
        rate = exit_rates[state]
        if rate <= 0.0:
            break  # absorbing state holds forever
        t += -math.log(rng_stream.uniform()) / rate
        if t >= horizon:
            break
        u = rng_stream.uniform()
        state = int(targets[state, (u > cum[state]).sum()])
        times.append(t)
        states.append(state)
    return Trajectory(np.array(times), np.array(states, dtype=np.int64), horizon)


def time_average(traj: Trajectory, f: np.ndarray) -> float:
    """Exact path integral of f divided by the horizon; no quadrature error."""
    if traj.horizon == 0.0:
        raise ZeroHorizonError()
    bounds = np.append(traj.times, traj.horizon)
    lengths = np.diff(bounds)
    return float(np.sum(f[traj.states] * lengths) / traj.horizon)


def _min_rotation(t: tuple[int, ...]) -> tuple[int, ...]:
    return min(t[i:] + t[:i] for i in range(len(t)))


def _has_cyclic_adjacent_zeros(t: tuple[int, ...]) -> bool:
    n = len(t)
    return any(t[i] == 0 and t[(i + 1) % n] == 0 for i in range(n))


def enumerate_classes(n: int) -> Counter:
    """Rotation classes of the weak compositions of n-1 into n parts, each
    keyed by its minimal rotation and mapped to its number of members.

    Stars and bars: the n-1 bar positions among 2n-2 slots fix a composition.
    The count is C(2n-2, n-1), so keep n small.
    """
    sizes: Counter = Counter()
    for bars in combinations(range(2 * n - 2), n - 1):
        ends = (-1, *bars, 2 * n - 2)
        sizes[_min_rotation(tuple(b - a - 1 for a, b in zip(ends, ends[1:])))] += 1
    return sizes


def class_census(n: int) -> Counter:
    """Number of rotation classes with m zeros, no two cyclically adjacent,
    keyed by m: the enumeration of what ``beta(n, m)`` counts in closed form."""
    return Counter(
        rep.count(0)
        for rep in enumerate_classes(n)
        if not _has_cyclic_adjacent_zeros(rep)
    )


def motzkin_binomial(n: int) -> int:
    """Motzkin number m_n = sum_m C(n, 2m) (2m)! / (m! (m+1)!)."""
    return sum(
        math.comb(n, 2 * m) * math.factorial(2 * m)
        // (math.factorial(m) * math.factorial(m + 1))
        for m in range(n // 2 + 1)
    )


def beta_second_form(n: int, m: int) -> Fraction:
    """beta(n, m) for 1 <= m <= n // 2 as C(n-m-1, m-1) C(n-2, n-m-1) / m,
    exact, so that equality with an integer also shows it is integral."""
    return Fraction(math.comb(n - m - 1, m - 1) * math.comb(n - 2, n - m - 1), m)


def phi_series(x: float) -> float:
    """Partial sum of sum_n beta_n x^n over n >= 2, until a term past n = 8
    drops below 1e-14 or n reaches 600.

    Near x = 1/3 the terms decay only polynomially, so the cap comes first and
    the sum falls short of ``phi``: 0.3200 against 0.3333 at x = 1/3.  Uses
    ``beta``'s closed form only, not the Motzkin recurrence and not ``phi``.
    """
    terms = []
    for n in range(2, 601):
        term = float(beta_total(n)) * x**n
        terms.append(term)
        if n > 8 and term < 1e-14:
            break
    return math.fsum(terms)
