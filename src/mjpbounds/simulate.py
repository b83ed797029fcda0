"""Exact trajectory sampling and Monte Carlo tail estimation.

Trajectories follow the jump-chain construction: the initial state is drawn
from nu, the holding time in state x is exponential with rate q_x (sampled
as -log(U)/q_x with U drawn in the open interval), and the jump target y is
chosen with probability q_xy / q_x.

Randomness comes from a counter-based generator: draw k of sample i is a
64-bit hash of (seed, i, k) mapped to (0, 1).  Every sample owns its own
substream, so tail estimates are bitwise reproducible for a fixed seed no
matter how the samples are partitioned into blocks or threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, ZeroHorizonError
from .markov import MJPModel, Observable, stationary_model

_BLOCK = 16384  # fixed work unit; threads share blocks, results do not depend on it

_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MUL1 = _U64(0xBF58476D1CE4E5B9)
_MUL2 = _U64(0x94D049BB133111EB)
_STREAM_SALT = _U64(0xA5A5A5A5A5A5A5A5)
_DRAW_SALT = _U64(0xD6E8FEB86659FD93)
# the same constants as Python ints, for the scalar mixer
_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA_I, _MUL1_I, _MUL2_I, _DRAW_SALT_I = map(int, (_GAMMA, _MUL1, _MUL2, _DRAW_SALT))


def _mix64(z):
    """SplitMix64 finalizer; a bijective avalanche mix on uint64 (mod 2^64)."""
    with np.errstate(over="ignore"):
        z = z + _GAMMA
        z = (z ^ (z >> _U64(30))) * _MUL1
        z = (z ^ (z >> _U64(27))) * _MUL2
        return z ^ (z >> _U64(31))


def _mix64_int(z: int) -> int:
    """``_mix64`` on one Python int, masked to 64 bits: same bits, no numpy call."""
    z = (z + _GAMMA_I) & _MASK64
    z = ((z ^ (z >> 30)) * _MUL1_I) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2_I) & _MASK64
    return z ^ (z >> 31)


def stream_keys(seed: int, stream_indices) -> np.ndarray:
    """Per-sample substream keys derived from (seed, sample index)."""
    idx = np.asarray(stream_indices, dtype=np.uint64)
    base = _mix64(_U64(seed & 0xFFFFFFFFFFFFFFFF))
    return _mix64(base ^ (_mix64(idx ^ _STREAM_SALT)))


def counter_uniforms(keys, draw_indices) -> np.ndarray:
    """Open-interval uniforms for (key, draw counter) pairs, vectorized."""
    k = np.asarray(keys, dtype=np.uint64)
    d = np.asarray(draw_indices, dtype=np.uint64)
    z = _mix64(k ^ _mix64(d ^ _DRAW_SALT))
    return ((z >> _U64(11)).astype(np.float64) + 0.5) * (2.0**-53)


class CounterStream:
    """Sequential view of one substream; used by single-trajectory sampling."""

    def __init__(self, seed: int, stream: int = 0):
        self.key = int(stream_keys(seed, np.array([stream], dtype=np.uint64))[0])
        self.cursor = 0

    def uniform(self) -> float:
        """The next draw; bit-identical to ``counter_uniforms(key, cursor)``."""
        z = _mix64_int(self.key ^ _mix64_int(self.cursor ^ _DRAW_SALT_I))
        self.cursor += 1
        return ((z >> 11) + 0.5) * (2.0**-53)


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-constant path: state entry times and the horizon."""

    times: np.ndarray
    states: np.ndarray
    horizon: float


@dataclass(frozen=True)
class TailEstimate:
    """Empirical estimate of P(A_t / t >= u) with a 95% confidence interval."""

    u: float
    t: float
    n_samples: int
    hits: int
    p_hat: float
    ci_half_width: float

    @property
    def ci_lo(self) -> float:
        return max(0.0, self.p_hat - self.ci_half_width)

    @property
    def ci_hi(self) -> float:
        return min(1.0, self.p_hat + self.ci_half_width)


def _jump_tables(model: MJPModel):
    """Per-state jump targets and cumulative probabilities, self-jumps excluded."""
    n = model.n
    rates = model.q.rates
    exit_rates = model.q.exit_rates
    targets = np.empty((n, n - 1), dtype=np.int64)
    cum = np.empty((n, n - 1))
    for x in range(n):
        others = [y for y in range(n) if y != x]
        targets[x] = others
        if exit_rates[x] <= 0.0:
            cum[x] = 1.0  # absorbing; holding time never elapses
            continue
        probs = rates[x, others] / exit_rates[x]
        cum[x] = np.cumsum(probs)
        cum[x, -1] = 1.0
    return targets, cum


def _pick_from_cum(cum_row: np.ndarray, u: float) -> int:
    return int(np.sum(u > cum_row))


def sample_trajectory(
    model: MJPModel, horizon: float, rng_stream: CounterStream
) -> Trajectory:
    """One trajectory of the jump process, truncated at the horizon.

    Deterministic given the stream: draw 0 picks the initial state, draws
    1+2j and 2+2j supply the j-th holding time and jump target.  This is the
    same draw layout the vectorized tail estimator uses, so a single sample
    can be replayed in isolation.
    """
    if not math.isfinite(horizon) or horizon < 0:
        raise ValidationError(f"horizon must be finite and nonnegative, got {horizon}")
    cum_nu = np.cumsum(model.nu.weights)
    cum_nu[-1] = 1.0
    state = _pick_from_cum(cum_nu[:-1], rng_stream.uniform())
    times = [0.0]
    states = [state]
    if horizon == 0.0:
        return Trajectory(np.array(times), np.array(states, dtype=np.int64), horizon)
    targets, cum = _jump_tables(model)
    exit_rates = model.q.exit_rates
    t = 0.0
    while True:
        rate = exit_rates[state]
        if rate <= 0.0:
            break  # absorbing state holds forever
        t += -math.log(rng_stream.uniform()) / rate
        if t >= horizon:
            break
        u = rng_stream.uniform()
        state = int(targets[state, min(_pick_from_cum(cum[state], u), model.n - 2)])
        times.append(t)
        states.append(state)
    return Trajectory(np.array(times), np.array(states, dtype=np.int64), horizon)


def time_average(traj: Trajectory, f: Observable) -> float:
    """Exact path integral of f divided by the horizon; no quadrature error."""
    if traj.horizon == 0.0:
        raise ZeroHorizonError()
    bounds = np.append(traj.times, traj.horizon)
    lengths = np.diff(bounds)
    return float(np.sum(f.values[traj.states] * lengths) / traj.horizon)


def _time_average_block(model, t, seed, start, count, tables):
    """Time averages A_t/t for samples start..start+count-1, fully vectorized.

    Active trajectories are compacted every sweep; each sample consumes draws
    from its own substream only, so the result is independent of blocking.
    """
    targets, cum = tables
    exit_rates = model.q.exit_rates
    f_vals = model.f.values
    n = model.n

    keys = stream_keys(seed, np.arange(start, start + count, dtype=np.uint64))
    cum_nu = np.cumsum(model.nu.weights)[:-1]
    u0 = counter_uniforms(keys, np.zeros(count, dtype=np.uint64))
    state = (u0[:, None] > cum_nu[None, :]).sum(axis=1).astype(np.int64)

    out = np.zeros(count)
    ids = np.arange(count)
    tau = np.zeros(count)
    acc = np.zeros(count)
    draw = np.ones(count, dtype=np.uint64)

    while ids.size:
        uh = counter_uniforms(keys, draw)
        dt = -np.log(uh) / exit_rates[state]
        t_new = tau + dt
        crossed = t_new >= t
        acc += f_vals[state] * (np.minimum(t_new, t) - tau)
        out[ids[crossed]] = acc[crossed]

        keep = ~crossed
        ids = ids[keep]
        if not ids.size:
            break
        keys = keys[keep]
        state = state[keep]
        acc = acc[keep]
        tau = t_new[keep]
        draw = draw[keep] + _U64(1)

        ut = counter_uniforms(keys, draw)
        j = (ut[:, None] > cum[state]).sum(axis=1)
        state = targets[state, np.minimum(j, n - 2)]
        draw = draw + _U64(1)
    return out / t


def time_averages(
    model: MJPModel, t: float, n_samples: int, seed: int, threads: int = 1
) -> np.ndarray:
    """Per-sample time averages A_t/t; bitwise identical for any thread count."""
    if not math.isfinite(t) or t < 0:
        raise ValidationError(f"horizon must be finite and positive, got {t}")
    if t == 0:
        raise ZeroHorizonError()
    if n_samples < 1:
        raise ValidationError(f"need at least one sample, got {n_samples}")
    tables = _jump_tables(model)
    out = np.empty(n_samples)
    blocks = [
        (s, min(_BLOCK, n_samples - s)) for s in range(0, n_samples, _BLOCK)
    ]

    def run(block):
        s, c = block
        out[s : s + c] = _time_average_block(model, t, seed, s, c, tables)

    if threads <= 1 or len(blocks) == 1:
        for b in blocks:
            run(b)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, blocks))
    return out


_Z95 = 1.959963984540054


def _tail_estimate(u, t, n_samples, hits) -> TailEstimate:
    p_hat = hits / n_samples
    if hits in (0, n_samples):
        # Wilson half width stays informative where the normal CI collapses
        z2 = _Z95**2
        half = (
            _Z95
            / (1.0 + z2 / n_samples)
            * math.sqrt(p_hat * (1.0 - p_hat) / n_samples + z2 / (4.0 * n_samples**2))
        )
    else:
        half = _Z95 * math.sqrt(p_hat * (1.0 - p_hat) / n_samples)
    return TailEstimate(
        u=u, t=t, n_samples=n_samples, hits=hits, p_hat=p_hat, ci_half_width=half
    )


def empirical_tail(
    model: MJPModel,
    t: float,
    u: float,
    n_samples: int,
    seed: int,
    threads: int = 1,
    averages: np.ndarray | None = None,
) -> TailEstimate:
    """Estimate P_nu(A_t/t >= u) over independent trajectories.

    ``averages`` may carry precomputed time averages from ``time_averages``
    with the same (model, t, n_samples, seed), letting callers scan many
    thresholds over one simulation sweep.
    """
    if math.isnan(u):
        raise ValidationError("threshold u must not be NaN")
    a = averages
    if a is None:
        a = time_averages(model, t, n_samples, seed, threads=threads)
    hits = int(np.count_nonzero(a >= u))
    return _tail_estimate(u, t, n_samples, hits)


def empirical_variance_rate(
    model: MJPModel, t: float, n_samples: int, seed: int, threads: int = 1
) -> float:
    """Sample variance of the integral A_t across trajectories, divided by t.

    The chain is started from its invariant distribution, matching the
    stationary variance the central limit theorem normalizes by.
    """
    if n_samples < 2:
        raise ValidationError(f"need at least two samples, got {n_samples}")
    averages = time_averages(stationary_model(model), t, n_samples, seed, threads)
    integrals = averages * t
    return float(np.var(integrals, ddof=1) / t)
