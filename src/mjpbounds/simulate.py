"""Monte Carlo time averages and tail estimates, many paths at a time.

Paths follow the jump-chain construction: the initial state is drawn
from nu, the holding time in state x is exponential with rate q_x (sampled
as -log(U)/q_x with U drawn in the open interval), and the jump target y is
chosen with probability q_xy / q_x.

Randomness comes from a counter-based generator: draw k of sample i is a
64-bit hash of (seed, i, k) mapped to (0, 1).  Every sample owns its own
substream, so tail estimates are bitwise reproducible for a fixed seed no
matter how the samples are partitioned into blocks.  Every path
uses draw 0 for its initial state and draws 2k+1 and 2k+2 for the holding
time and jump target of its k-th sweep, so all live paths of a block share
one draw counter, and its hash is computed once per sweep, not once per path.
A block keeps that counter in a one-element cell and passes
``counter_uniforms`` a stride-0 view of the cell, sliced to the live paths:
each call still names one draw index per path, at no cost per path, and the
keys it is given are never written.

A jump is picked in a few whole-array steps.  Each state's row of the jump
tables lists only its positive-rate targets, a guide table of four buckets
per entry of the longest row says where the search for a uniform starts, and
the tables record the most steps any uniform needs from there.  Every path
takes that many steps, unless they are more than ``_FIXED_STEPS``; then
only the paths short of their target step on.  A
path's state is its slot in the flattened tables, which give the exit rate,
the value of f and the guide row of each slot's target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, ZeroHorizonError
from .markov import MJPModel, stationary_model

_BLOCK = 16384  # paths per block: bounds the memory of a run; results do not depend on it

_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MUL1 = _U64(0xBF58476D1CE4E5B9)
_MUL2 = _U64(0x94D049BB133111EB)
_STREAM_SALT = _U64(0xA5A5A5A5A5A5A5A5)
_DRAW_SALT = _U64(0xD6E8FEB86659FD93)
# the same constants as Python ints, for the scalar mixer
_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA_I, _MUL1_I, _MUL2_I, _DRAW_SALT_I = map(int, (_GAMMA, _MUL1, _MUL2, _DRAW_SALT))
# largest draw: ((2**53 - 1) + 0.5) * 2**-53 rounds to 1.0, so it is clamped here
_U_MAX = 1.0 - 2.0**-53


def _mix64(z):
    """SplitMix64 finalizer; a bijective avalanche mix on uint64 (mod 2^64).

    Mixes the uint64 array ``z`` in place and returns it, so callers pass an
    array of their own, not one they were given.
    """
    s = np.empty_like(z)
    z += _GAMMA
    z ^= np.right_shift(z, _U64(30), out=s)
    z *= _MUL1
    z ^= np.right_shift(z, _U64(27), out=s)
    z *= _MUL2
    z ^= np.right_shift(z, _U64(31), out=s)
    return z


def _mix64_int(z: int) -> int:
    """``_mix64`` on one Python int, masked to 64 bits: same bits, no numpy call."""
    z = (z + _GAMMA_I) & _MASK64
    z = ((z ^ (z >> 30)) * _MUL1_I) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2_I) & _MASK64
    return z ^ (z >> 31)


def stream_keys(seed: int, stream_indices) -> np.ndarray:
    """Per-sample substream keys derived from (seed, sample index)."""
    z = np.array(stream_indices, dtype=np.uint64)
    z ^= _STREAM_SALT
    z = _mix64(z)
    z ^= _U64(_mix64_int(seed & _MASK64))
    return _mix64(z)


def counter_uniforms(keys, draw_indices) -> np.ndarray:
    """Open-interval uniforms for (key, draw counter) pairs, vectorized.

    When ``draw_indices`` holds one value, a 0-d array or a view whose
    strides are all 0, that value is hashed once, as a Python int, and XORed
    into every key; the bits are those of the per-pair hash.  The simulator
    passes such a view, sliced from one per block whose single cell it sets
    before each call, so every call still names one draw index per path.
    The result has the broadcast shape of ``keys`` and ``draw_indices``, and
    is mixed in a fresh array: ``keys`` is never written.
    """
    k = np.asarray(keys, dtype=np.uint64)
    d = np.asarray(draw_indices, dtype=np.uint64)
    shape = k.shape if k.shape == d.shape else np.broadcast_shapes(k.shape, d.shape)
    z = np.empty(shape, dtype=np.uint64)
    if d.size and not any(d.strides):
        np.bitwise_xor(k, _U64(_mix64_int(d.item(0) ^ _DRAW_SALT_I)), out=z)
    else:
        # d has an axis here, so d ^ _DRAW_SALT is an array of our own
        np.bitwise_xor(k, _mix64(d ^ _DRAW_SALT), out=z)
    z = _mix64(z)
    z >>= _U64(11)
    u = z.view(np.float64)  # z's buffer; z < 2**53 converts to float exactly
    np.add(z.view(np.int64), 0.5, out=u)
    u *= 2.0**-53
    return np.minimum(u, _U_MAX, out=u)


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


def _cumulative(p: np.ndarray) -> np.ndarray:
    """Running sum of the probabilities ``p`` up to their last positive entry,
    then 1.0: a uniform u in (0, 1] picks index ``(u > row).sum()``, never
    one of probability zero, even where the rounded sum falls short of u."""
    row = np.ones(p.size)
    last = np.flatnonzero(p)[-1]
    row[:last] = np.cumsum(p[:last])
    return row


def _jump_tables(model: MJPModel):
    """Per-state jump targets, cumulative probabilities, guide table and the
    number of search steps a pick takes at most.

    Row x lists the D_x states that x jumps to at a positive rate, in order,
    and is padded to the largest out-degree D with target x and ``cum`` 1.0.
    ``cum[x]`` is the ``_cumulative`` row of the jump probabilities over
    those targets, then 1.0; a jump out of x with uniform u in (0, 1] goes to
    ``targets[x, (u > cum[x]).sum()]``.  A zero rate adds 0.0 to the running
    sum, exactly, so these are the picks and the sums of a row over every
    state but x, and the padding is never passed.  An absorbing row is
    padding only; it is never left.

    ``guide[x, b]`` is ``x * D`` plus the number of entries of ``cum[x]``
    below the lower edge of bucket b of ``4 D`` equal buckets of [0, 1), and
    one more column for the u at or just below 1.0 whose ``u * 4 D`` rounds to
    ``4 D``: the index into the flattened tables where the search for a u of
    that bucket starts (Chen & Asau's indexed search).
    ``steps`` is the largest number of entries any u in (0, 1] passes beyond
    the guide start of its bucket, over every row and bucket.  Every table
    is built for all states at once.
    """
    n = model.n
    rates = model.q.rates
    exit_rates = model.q.exit_rates
    positive = rates > 0.0  # the diagonal is never positive
    degree = positive.sum(axis=1)
    width = max(1, int(degree.max()))
    n_buckets = 4 * width
    cols = np.arange(width)
    states = np.arange(n)[:, None]
    pad = cols >= degree[:, None]
    # a stable sort puts each row's positive-rate targets first, in order
    moves = np.argsort(~positive, axis=1, kind="stable")[:, :width]
    targets = np.where(pad, states, moves)
    p = np.divide(
        np.take_along_axis(rates, targets, axis=1),
        exit_rates[:, None],
        out=np.zeros((n, width)),
        where=~pad,  # a row with a move has a positive exit rate
    )
    # _cumulative of each row: running sums before the last target, 1.0 from it on
    cum = np.where(cols < degree[:, None] - 1, np.cumsum(p, axis=1), 1.0)

    def below(k):
        """Per row and bucket b, the entries whose bucket index ``k`` is <= b."""
        k = k + (n_buckets + 2) * states
        hist = np.bincount(k.ravel(), minlength=n * (n_buckets + 2)).reshape(n, -1)
        return np.cumsum(hist[:, : n_buckets + 1], axis=1)

    # lowered by 2**-50 relative, so that rounding cannot lift an edge above
    # a u with int(u * n_buckets) == b; an entry c lies below edges[b]
    # exactly for b >= the number of edges <= c
    edges = np.arange(n_buckets + 1) / n_buckets * (1.0 - 2.0**-50)
    start = below(np.searchsorted(edges, cum, side="right"))
    # c < u for some u of bucket b exactly when the next double above c falls
    # in bucket b or lower, as int(u * n_buckets) rises with u; no u passes
    # 1.0.  The next double above a positive c has the bits of c plus one
    above = (cum.view(np.int64) + 1).view(np.float64)
    first_above = (above * n_buckets).astype(np.int64)
    passed = below(np.where(cum < 1.0, first_above, n_buckets + 1))
    steps = int((passed - start).max())
    guide = width * states + start
    return targets, cum, guide, steps


# a pick steps every path this many times at most; with more steps it steps
# only the paths still short of their target, which measured as fast at 2
# steps and faster at 3 (random chains of 8 to 64 states)
_FIXED_STEPS = 2


class _Tables(NamedTuple):
    """The ``_jump_tables`` flattened, indexed by slot: slot ``x * D + k``
    is entry k of row x, and slot ``n * D + x`` stands for state x itself,
    where a path starts.  ``rate``, ``f`` and ``base`` hold the exit rate,
    the value of f and the guide row offset of each slot's target state."""

    cum: np.ndarray
    guide: np.ndarray
    n_buckets: int
    steps: int
    rate: np.ndarray
    f: np.ndarray
    base: np.ndarray

    @classmethod
    def of(cls, model: MJPModel) -> _Tables:
        targets, cum, guide, steps = _jump_tables(model)
        to = np.append(targets.ravel(), np.arange(model.n))
        return cls(
            cum.ravel(),
            guide.ravel(),
            guide.shape[1] - 1,
            steps,
            model.q.exit_rates.take(to),
            model.f.values.take(to),
            to * guide.shape[1],
        )


def _next_slots(tables: _Tables, slot, u):
    """Slot of each path's jump, out of the target of ``slot`` with uniform ``u``.

    Bit for bit the slot of ``targets[x, (u > cum[x]).sum()]`` for x the
    target of ``slot``.  The search starts at the guide entry of u's bucket,
    which never passes the answer, and steps right while ``u > cum``.  A path
    at its answer stays there, so every path takes ``tables.steps`` such
    steps; when that is above ``_FIXED_STEPS``, only the paths not at their
    answer step on instead.
    Neither ``slot`` nor ``u`` is written.
    """
    cum = tables.cum
    j = (u * tables.n_buckets).astype(np.int64)
    j += tables.base.take(slot)
    j = tables.guide.take(j)
    if tables.steps <= _FIXED_STEPS:
        for _ in range(tables.steps):
            j += u > cum.take(j)
        return j
    c = (u > cum.take(j)).nonzero()[0]
    while c.size:
        j[c] += 1
        c = c[u[c] > cum[j[c]]]
    return j


def _time_average_block(model, horizons, seed, start, count, tables, out):
    """Time averages A_h/h of samples start..start+count-1 at every horizon h.

    ``horizons`` is strictly ascending; row k of ``out`` receives the averages
    at ``horizons[k]``.  Each path runs once, to the last horizon, and holds
    its state as its ``_Tables`` slot.  When it first reaches an earlier
    horizon h inside a holding interval it records
    ``acc + f(state) * (h - tau)``, the float operations of a path stopped at
    h, so every row equals a one-horizon run bit for bit.  The live paths are
    compacted in the sweeps where some path passes the last horizon; each
    sample consumes draws from its own substream only, so the result is
    independent of blocking.  Compaction only drops paths, so every live path
    is at the same draw: sweep k uses draws 2k+1 and 2k+2 of each, and one
    counter ``draw`` serves them all.  It is written into ``cell``, and
    ``draws``, a stride-0 view of the cell sliced to the live paths, names it
    once per path.
    """
    rates, f_vals = tables.rate, tables.f
    last = horizons.size

    keys = stream_keys(seed, np.arange(start, start + count, dtype=np.uint64))
    cell = np.zeros(1, dtype=np.uint64)
    draws = np.broadcast_to(cell, (count,))
    cum_nu = _cumulative(model.nu.weights)
    u0 = counter_uniforms(keys, draws)
    slot = (u0[:, None] > cum_nu[None, :]).sum(axis=1)
    slot += rates.size - model.n  # the slot of the state itself

    ids = np.arange(start, start + count)
    tau = np.zeros(count)
    acc = np.zeros(count)
    draw = 1
    nxt = np.zeros(count, dtype=np.int64)  # index of the next horizon to reach

    while True:
        # t_new = tau + dt for the holding time dt = -log(U) / q_x, computed
        # as tau - log(U) / q_x in U's buffer: a - b is a + (-b), bit for bit
        cell[0] = draw
        t_new = counter_uniforms(keys, draws)
        np.log(t_new, out=t_new)
        t_new /= rates.take(slot)
        np.subtract(tau, t_new, out=t_new)
        fx = f_vals.take(slot)
        crossed = c = (t_new >= horizons.take(nxt)).nonzero()[0]
        while c.size:  # several horizons may fall in one holding interval
            k = nxt[c]
            h = horizons[k]
            out[k, ids[c]] = (acc[c] + fx[c] * (h - tau[c])) / h
            nxt[c] = k = k + 1
            c = c[k < last]
            c = c[t_new[c] >= horizons[nxt[c]]]
        # acc += fx * (t_new - tau), in tau's buffer
        np.subtract(t_new, tau, out=tau)
        tau *= fx
        acc += tau
        tau = t_new

        if crossed.size and nxt.take(crossed).max() == last:  # some path is done
            live = (nxt < last).nonzero()[0]
            if not live.size:
                break
            # one array at a time: each old array is freed before the next is made
            ids = ids.take(live)
            keys = keys.take(live)
            slot = slot.take(live)
            nxt = nxt.take(live)
            acc = acc.take(live)
            tau = tau.take(live)
            draws = draws[: live.size]
        cell[0] = draw + 1
        u = counter_uniforms(keys, draws)
        slot = _next_slots(tables, slot, u)
        del u  # freed before the next sweep allocates its arrays
        draw += 2


def time_averages(model: MJPModel, t, n_samples: int, seed: int) -> np.ndarray:
    """Per-sample time averages A_t/t, simulated in blocks of ``_BLOCK`` paths.

    ``t`` is one horizon, giving one value per sample, or a strictly
    ascending sequence of horizons, giving one row per horizon.  All
    horizons share one pass per path, and each row equals the one-horizon
    result bit for bit, since a path's draws depend only on (seed, sample,
    draw counter).
    """
    hs = np.atleast_1d(np.asarray(t, dtype=float))
    for h in hs.ravel().tolist():
        if not math.isfinite(h) or h < 0:
            raise ValidationError(f"horizon must be finite and positive, got {h}")
        if h == 0:
            raise ZeroHorizonError()
    if hs.ndim != 1 or hs.size == 0 or np.any(np.diff(hs) <= 0):
        raise ValidationError(f"need one horizon or a strictly ascending list, got {t!r}")
    if n_samples < 1:
        raise ValidationError(f"need at least one sample, got {n_samples}")
    tables = _Tables.of(model)
    try:
        out = np.empty((hs.size, n_samples))
    except (ValueError, MemoryError) as exc:  # a size numpy refuses or cannot hold
        raise ValidationError(f"{n_samples} samples are too many: {exc}") from exc
    for start in range(0, n_samples, _BLOCK):
        count = min(_BLOCK, n_samples - start)
        _time_average_block(model, hs, seed, start, count, tables, out)
    return out[0] if np.ndim(t) == 0 else out


_Z95 = 1.959963984540054


def tail_estimate(averages, u: float, t: float) -> TailEstimate:
    """Estimate P(A_t/t >= u) from the time averages ``averages`` at horizon
    ``t``, one per sample, as from ``time_averages``."""
    if math.isnan(u):
        raise ValidationError("threshold u must not be NaN")
    a = np.asarray(averages)
    if a.ndim != 1 or a.size == 0:
        raise ValidationError(f"need one average per sample, got shape {a.shape}")
    n = a.size
    hits = int(np.count_nonzero(a >= u))
    p_hat = hits / n
    if hits in (0, n):
        # Wilson half width stays informative where the normal CI collapses
        z2 = _Z95**2
        half = (
            _Z95
            / (1.0 + z2 / n)
            * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n**2))
        )
    else:
        half = _Z95 * math.sqrt(p_hat * (1.0 - p_hat) / n)
    return TailEstimate(u=u, t=t, n_samples=n, hits=hits, p_hat=p_hat, ci_half_width=half)


def empirical_variance_rate(model: MJPModel, t: float, n_samples: int, seed: int) -> float:
    """Sample variance of the integral A_t across trajectories, divided by t.

    The chain is started from its invariant distribution, matching the
    stationary variance the central limit theorem normalizes by.
    """
    if n_samples < 2:
        raise ValidationError(f"need at least two samples, got {n_samples}")
    averages = time_averages(stationary_model(model), t, n_samples, seed)
    integrals = averages * t
    return float(np.var(integrals, ddof=1) / t)
