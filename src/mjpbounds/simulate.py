"""Monte Carlo time averages and tail estimates, many paths at a time.

Paths follow the jump-chain construction: the initial state is drawn
from nu, the holding time in state x is exponential with rate q_x (sampled
as -log(U)/q_x with U drawn in the open interval), and the jump target y is
chosen with probability q_xy / q_x.

Randomness comes from a counter-based generator: draw k of sample i is a
64-bit hash of (seed, i, k) mapped to (0, 1).  Every sample owns its own
substream, so tail estimates are bitwise reproducible for a fixed seed no
matter how the samples are partitioned into blocks, or where in its block
a path is kept.  Every path uses draw 0 for its initial state and draws 2k+1
and 2k+2 for the holding time and jump target of its k-th sweep, so all live
paths of a block are at the same draws, and each draw index is hashed once
per sweep, not once per path.  A sweep's jump and the next sweep's holding
time, draws 2k+2 and 2k+3, are hashed in one ``counter_uniforms`` call, and a
block starts with one call for draws 0 and 1.  The block keeps the two
indices in a ``(2, 1)`` cell and passes a ``(2, live)`` view of it, of stride
0 along the paths: each call names both draws of every live path, at no cost
per path, and the keys it is given are never written.

``time_averages(..., start=s)`` simulates samples s to s + n - 1, each bit
for bit the sample of that id in any run that holds it.  So a second call
extends a first, and a caller that needs only counts, as the ``compare`` and
``simulate`` commands do, takes a run one ``_BLOCK`` at a time and holds one
block of averages.  The 64-bit counter names samples 0 to 2**64 - 1; a range
past that is refused before any path is simulated.

The live paths of a block fill the first places of its per-path arrays, and
each path carries the value of the next horizon it will reach, so a sweep
finds the crossings by one comparison per path.  A path that passes the last
horizon is retired in place: a live path from above the new live count takes
its place, and every array is sliced to that count.  A sweep's retirement
costs in proportion to the paths that finish; no array is copied whole.

Every state of a path is picked by one search in a few whole-array steps.
Row x of the jump tables lists only the positive-rate targets of state x, and
row n the states of positive weight under nu, from which draw 0 picks the
initial state.  A guide table of four buckets per entry of the longest row
says where the search for a uniform starts, and the tables record the most
steps any uniform needs from there.  Every path takes that many steps, unless
they are more than ``_FIXED_STEPS``; then only the paths short of their
target step on.  A path's state is its slot in the flattened tables, which
give the exit rate, the value of f and the guide row of each slot's target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .markov import MJPModel, check_horizon, is_whole, stationary_model

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

    A 0-d ``draw_indices`` holds one index, and a view whose last axis has
    stride 0 holds one per row: each such index is hashed once, as a Python
    int, and the XOR broadcasts it along its row; the bits are those of the
    per-pair hash.  The simulator passes a ``(2, live)`` view of a ``(2, 1)``
    cell, which it sets before each call, so each call still names two draw
    indices per path.  The result has the broadcast shape of ``keys`` and
    ``draw_indices``, and is mixed in a fresh array: ``keys`` is never
    written.
    """
    k = np.asarray(keys, dtype=np.uint64)
    d = np.asarray(draw_indices, dtype=np.uint64)
    if d.size and not any(d.strides[-1:]):
        rows = d[..., :1] if d.ndim else d
        salted = [_mix64_int(i ^ _DRAW_SALT_I) for i in rows.ravel().tolist()]
        z = np.array(salted, dtype=np.uint64).reshape(rows.shape)
    else:
        # d has an axis here, so d ^ _DRAW_SALT is an array of our own
        z = _mix64(d ^ _DRAW_SALT)
    z = _mix64(np.asarray(k ^ z))  # an array even where both inputs are 0-d
    z >>= _U64(11)
    u = z.view(np.float64)  # z's buffer; z < 2**53 converts to float exactly
    np.add(z.view(np.int64), 0.5, out=u)
    u *= 2.0**-53
    return np.minimum(u, _U_MAX, out=u)


_Z95 = 1.959963984540054


@dataclass(frozen=True)
class TailEstimate:
    """Empirical estimate of P(A_t / t >= u) with a 95% confidence interval."""

    u: float
    t: float
    n_samples: int
    hits: int
    p_hat: float
    ci_half_width: float

    @classmethod
    def of(cls, u: float, t: float, n: int, hits: int) -> TailEstimate:
        """The estimate from ``hits`` of ``n`` samples at or above ``u``.

        Refuses a NaN ``u``, a ``t`` that ``check_horizon`` refuses, an ``n``
        that ``check_samples`` refuses, and ``hits`` that is not a whole
        number in ``[0, n]``.
        """
        if math.isnan(u):
            raise ValidationError("threshold u must not be NaN")
        check_horizon(t)
        check_samples(n)
        if not is_whole(hits) or not 0 <= hits <= n:
            raise ValidationError(f"hits must be a whole number in [0, {n}], got {hits!r}")
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
        return cls(u=u, t=t, n_samples=n, hits=hits, p_hat=p_hat, ci_half_width=half)

    @property
    def ci_lo(self) -> float:
        return max(0.0, self.p_hat - self.ci_half_width)

    @property
    def ci_hi(self) -> float:
        return min(1.0, self.p_hat + self.ci_half_width)


def _jump_tables(model: MJPModel):
    """Jump targets, cumulative probabilities, guide table and the number of
    search steps a pick takes at most, for each state and for nu as row n.

    Row x lists the D_x states that x jumps to at a positive rate, in order,
    and row n the states of positive weight under nu, whose weights are
    divided by 1.0 as the rates of row x are by q_x.  Each row is padded to
    the largest count D with ``cum`` 1.0 and target x (state 0 in row n).
    ``cum[x]`` holds the running sums of those probabilities before the last
    target, then 1.0; a pick with uniform u in (0, 1] is
    ``targets[x, (u > cum[x]).sum()]``, never a state of probability zero.
    A zero rate adds 0.0 to the running sum, exactly, so these are the picks
    and the sums of a row over every state, and the padding is never passed.
    An absorbing row is padding only; it is never left.

    ``guide[x, b]`` is ``x * D`` plus the number of entries of ``cum[x]``
    below the lower edge of bucket b of ``4 D`` equal buckets of [0, 1), and
    one more column for the u at or just below 1.0 whose ``u * 4 D`` rounds to
    ``4 D``: the index into the flattened tables where the search for a u of
    that bucket starts (Chen & Asau's indexed search).
    ``steps`` is the largest number of entries any u in (0, 1] passes beyond
    the guide start of its bucket, over every row and bucket.  Every table
    is built for all rows at once.
    """
    n = model.n
    weights = np.vstack([model.q, model.nu])
    positive = weights > 0.0  # the diagonal is never positive
    degree = positive.sum(axis=1)
    width = max(1, int(degree.max()))
    n_buckets = 4 * width
    cols = np.arange(width)
    rows = np.arange(n + 1)[:, None]
    pad = cols >= degree[:, None]
    # a stable sort puts each row's positive-weight targets first, in order
    moves = np.argsort(~positive, axis=1, kind="stable")[:, :width]
    targets = np.where(pad, rows % n, moves)
    p = np.divide(
        np.take_along_axis(weights, targets, axis=1),
        np.append(-np.diag(model.q), 1.0)[:, None],
        out=np.zeros((n + 1, width)),
        where=~pad,  # a row with a move has a positive divisor
    )
    # running sums before the last target, 1.0 from it on
    cum = np.where(cols < degree[:, None] - 1, np.cumsum(p, axis=1), 1.0)

    def below(k):
        """Per row and bucket b, the entries whose bucket index ``k`` is <= b."""
        k = k + (n_buckets + 2) * rows
        hist = np.bincount(k.ravel(), minlength=rows.size * (n_buckets + 2))
        hist = hist.reshape(rows.size, -1)
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
    guide = width * rows + start
    return targets, cum, guide, steps


# a pick steps every path this many times at most; with more steps it steps
# only the paths still short of their target, which measured as fast at 2
# steps and faster at 3 (random chains of 8 to 64 states)
_FIXED_STEPS = 2


class _Tables(NamedTuple):
    """The ``_jump_tables`` flattened, indexed by slot: slot ``x * D + k``
    is entry k of row x.  ``rate``, ``f`` and ``base`` hold the exit rate,
    the value of f and the guide row offset of each slot's target state, and
    ``start`` is the guide row offset of row n, from which every path starts."""

    cum: np.ndarray
    guide: np.ndarray
    n_buckets: int
    steps: int
    rate: np.ndarray
    f: np.ndarray
    base: np.ndarray
    start: int

    @classmethod
    def of(cls, model: MJPModel) -> _Tables:
        targets, cum, guide, steps = _jump_tables(model)
        to = targets.ravel()
        per_row = guide.shape[1]
        return cls(
            cum.ravel(),
            guide.ravel(),
            per_row - 1,
            steps,
            (-np.diag(model.q)).take(to),
            model.f.take(to),
            to * per_row,
            model.n * per_row,
        )


def _next_slots(tables: _Tables, base, u):
    """Slot of each path's pick with uniform ``u`` from the row whose guide
    offset is ``base``: ``tables.start`` for the initial state, and
    ``tables.base.take(slot)`` for the jump out of the target of ``slot``.

    Bit for bit the slot of ``targets[x, (u > cum[x]).sum()]`` for x that
    row.  The search starts at the guide entry of u's bucket, which never
    passes the answer, and steps right while ``u > cum``.  A path at its
    answer stays there, so every path takes ``tables.steps`` such steps; when
    that is above ``_FIXED_STEPS``, only the paths not at their answer step
    on instead.  Neither ``base`` nor ``u`` is written.
    """
    cum = tables.cum
    j = (u * tables.n_buckets).astype(np.int64)
    j += base
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


def _time_average_block(horizons, seed, start, count, tables, out):
    """Time averages A_h/h of samples start..start+count-1 at every horizon h.

    ``horizons`` is strictly ascending; row k of ``out``, of ``count``
    columns, receives the averages at ``horizons[k]``, sample start + i in
    column i.  Each path starts at the slot that draw 0 picks from
    row n, runs once, to the last horizon, and holds its state as its slot
    and the value of its next horizon.  When it first reaches a horizon h
    inside a holding interval it records ``acc + f(state) * (h - tau)``, the
    float operations of a path stopped at h, in the row of h, and moves on to
    the next horizon, so every row equals a one-horizon run bit for bit.

    The live paths fill the first ``live`` places of each per-path array.  A
    path that passes the last horizon is retired in place: its place, if it
    is below the new live count, is taken by a live path from at or above
    that count, and every array is sliced to the new count, so a sweep's
    cost of retirement grows with the paths that finish, not with those
    still alive.  Paths change places, but each records by its sample id and
    draws from its own substream only, so the result is independent of
    blocking and of where a path is kept.  Retirement only drops paths, so
    every live path is at the same draws: sweep k uses draws 2k+1 and 2k+2
    of each.  After its retirement, sweep k hashes draw 2k+2, its jump, with
    draw 2k+3, the next sweep's holding time, in one call; the block starts
    with one call for draws 0 and 1.  ``cell`` holds the two indices, and
    ``draws``, a view of the cell sliced to ``(2, live)``, names each of them
    once per live path.  A path that finishes is retired before the call, so
    every path hashes exactly the draws it uses.
    """
    rates, f_vals = tables.rate, tables.f
    last = horizons.size
    end = horizons[-1]

    keys = stream_keys(seed, np.arange(start, start + count, dtype=np.uint64))
    cell = np.array([[0], [1]], dtype=np.uint64)
    draws = np.broadcast_to(cell, (2, count))
    u = counter_uniforms(keys, draws)
    slot = _next_slots(tables, tables.start, u[0])

    ids = np.arange(count)
    tau = np.zeros(count)
    acc = np.zeros(count)
    ahead = np.full(count, horizons[0])  # the next horizon to reach
    live = count

    while True:
        # t_new = tau + dt for the holding time dt = -log(U) / q_x, computed
        # as tau - log(U) / q_x in U's buffer: a - b is a + (-b), bit for bit
        t_new = u[1]
        np.log(t_new, out=t_new)
        t_new /= rates.take(slot)
        np.subtract(tau, t_new, out=t_new)
        fx = f_vals.take(slot)
        crossed = c = (t_new >= ahead).nonzero()[0]
        while c.size:  # several horizons may fall in one holding interval
            h = ahead[c]
            k = horizons.searchsorted(h)
            out[k, ids[c]] = (acc[c] + fx[c] * (h - tau[c])) / h
            k += 1
            more = k < last  # a path past the last horizon keeps it as its next
            c = c[more]
            ahead[c] = h = horizons[k[more]]
            c = c[t_new[c] >= h]
        # acc += fx * (t_new - tau), in tau's buffer
        np.subtract(t_new, tau, out=tau)
        tau *= fx
        acc += tau
        tau = t_new
        del fx  # freed before the next pair of draws is hashed

        if crossed.size:
            done = crossed[t_new.take(crossed) >= end]
            if done.size:
                live -= done.size
                if not live:
                    break
                # the places of done paths below the new count are filled,
                # in order, by the paths at or above it that are not done
                holes = done[done < live]
                keep = np.ones(done.size, dtype=bool)
                keep[done[holes.size :] - live] = False
                movers = keep.nonzero()[0] + live
                for a in (ids, keys, slot, ahead, acc, tau):
                    a[holes] = a.take(movers)
                del a  # else, bound to tau, it holds these draws past the sweep
                ids, keys, slot = ids[:live], keys[:live], slot[:live]
                ahead, acc, tau = ahead[:live], acc[:live], tau[:live]
                draws = draws[:, :live]
        cell += 2
        u = counter_uniforms(keys, draws)
        slot = tables.base.take(slot)  # frees the old slots; the search needs only their rows
        slot = _next_slots(tables, slot, u[0])


def check_samples(n_samples: int, start: int = 0):
    """Refuse a sample range ``start .. start+n_samples-1`` that is empty,
    that the 64-bit sample counter cannot name, or whose count or first
    sample is not an integer (a float or a bool; numpy integers pass)."""
    for name, value in (("sample count", n_samples), ("first sample", start)):
        if not is_whole(value):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    n_samples, start = int(n_samples), int(start)
    if n_samples < 1:
        raise ValidationError(f"need at least one sample, got {n_samples}")
    if start < 0:
        raise ValidationError(f"first sample must be >= 0, got {start}")
    if start + n_samples > 2**64:
        raise ValidationError(
            f"{n_samples} samples from sample {start} are too many: "
            "sample ids end at 2**64 - 1"
        )


def time_averages(model: MJPModel, t, n_samples: int, seed: int, start: int = 0) -> np.ndarray:
    """Per-sample time averages A_t/t, simulated in blocks of ``_BLOCK`` paths.

    ``t`` is one horizon, giving one value per sample, or a strictly
    ascending sequence of horizons, giving one row per horizon.  All
    horizons share one pass per path, and each row equals the one-horizon
    result bit for bit, since a path's draws depend only on (seed, sample,
    draw counter).  The samples are ``start`` to ``start + n_samples - 1``:
    column i is sample ``start + i``, bit for bit as in any run that holds it.
    """
    hs = np.atleast_1d(np.asarray(t, dtype=float))
    for h in hs.ravel().tolist():
        check_horizon(h)
    if hs.ndim != 1 or hs.size == 0 or np.any(np.diff(hs) <= 0):
        raise ValidationError(f"need one horizon or a strictly ascending list, got {t!r}")
    check_samples(n_samples, start)
    n_samples, start = int(n_samples), int(start)  # numpy 1 adds uint64 and int as floats
    tables = _Tables.of(model)
    try:
        out = np.empty((hs.size, n_samples))
    except (ValueError, MemoryError) as exc:  # a size numpy refuses or cannot hold
        raise ValidationError(f"{n_samples} samples are too many: {exc}") from exc
    # an exit rate below about 1e-307 may hold forever: the holding time
    # overflows to inf, which passes every horizon, and inf * f(x) is nan
    # where f(x) = 0, in the sum of a path that is done and never read again
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n_samples, _BLOCK):
            count = min(_BLOCK, n_samples - first)
            cols = out[:, first : first + count]
            _time_average_block(hs, seed, start + first, count, tables, cols)
    return out[0] if np.ndim(t) == 0 else out


def tail_estimate(averages, u: float, t: float) -> TailEstimate:
    """Estimate P(A_t/t >= u) from the time averages ``averages`` at horizon
    ``t``, one per sample, as from ``time_averages``."""
    a = np.asarray(averages)
    if a.ndim != 1 or a.size == 0:
        raise ValidationError(f"need one average per sample, got shape {a.shape}")
    return TailEstimate.of(u, t, a.size, int(np.count_nonzero(a >= u)))


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
