"""Finite-state Markov jump process models.

A model is specified by its rate matrix Q (nonnegative off-diagonal rates,
zero row sums), an observable f on the states, and an initial distribution.
This module validates rate matrices, decides irreducibility by two graph
searches over rows of packed edge bits, computes the invariant distribution
pi (the solution of ``pi^T Q = 0``), evaluates the transition function
``P(t) = exp(tQ)``, and checks the detailed balance condition
``pi_x q_xy = pi_y q_yx``.  Loading a model costs one LU solve plus passes
that are linear in the n^2 entries of Q; none is cubic but the solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    NegativeRateError,
    NonSquareError,
    NotCenteredError,
    NotIrreducibleError,
    RowSumViolationError,
    SingularSystemError,
    ValidationError,
    ZeroHorizonError,
)

DEFAULT_TOL = 1e-12


def _readonly(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class MJPModel:
    """Irreducible jump process with invariant distribution and centered observable.

    Each field is a read-only float array: the rate matrix ``q``, the
    invariant distribution ``pi``, the centered observable ``f`` and the
    initial distribution ``nu``.
    """

    q: np.ndarray
    pi: np.ndarray
    f: np.ndarray
    nu: np.ndarray

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @functools.cached_property
    def reversible(self) -> bool:
        """Detailed balance of ``q`` against ``pi``, checked on first access."""
        return check_detailed_balance(self.q, self.pi)


def probability_vector(weights) -> np.ndarray:
    """Validate a probability vector, as a read-only array; entries must sum
    to 1 within 1e-9."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValidationError(f"probability vector must be 1-d, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("probability vector has non-finite entries")
    if np.any(w < -DEFAULT_TOL):
        raise ValidationError(f"probability vector has negative entry {w.min()}")
    s = w.sum()
    if abs(s - 1.0) > 1e-9:
        raise ValidationError(f"probability vector sums to {s}, not 1")
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    return _readonly(w)


def validate_q_matrix(raw) -> np.ndarray:
    """Check the two rate-matrix conditions and renormalize the diagonal.

    With tol = ``DEFAULT_TOL`` and s the largest absolute entry of a row, an
    off-diagonal entry below ``-tol * s`` is rejected, and so is a row whose
    sum exceeds ``tol * s`` in size (an all-zero row, absorbing, sums to 0);
    entries in ``[-tol * s, 0)`` are clamped to 0 and the diagonal is
    recomputed as minus the off-diagonal row sum, so downstream math never
    sees rounding drift from file inputs.
    """
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
        raise NonSquareError(a.shape)
    scale = np.abs(a).max(axis=1)  # NaN or inf in a row makes its scale non-finite
    if not np.isfinite(scale).all():
        raise ValidationError("rate matrix has non-finite entries")
    row_tol = DEFAULT_TOL * scale
    q = a.copy()
    np.fill_diagonal(q, 0.0)
    bad = q < -row_tol[:, None]
    if bad.any():
        x, y = np.argwhere(bad)[0]
        raise NegativeRateError(int(x), int(y), float(a[x, y]))
    rowsum = a.sum(axis=1)
    bad_rows = np.abs(rowsum) > row_tol
    if bad_rows.any():
        x = int(np.argmax(bad_rows))
        raise RowSumViolationError(x, float(rowsum[x]))
    np.maximum(q, 0.0, out=q)  # the clamp, in place
    np.fill_diagonal(q, -q.sum(axis=1))
    return _readonly(q)


def is_irreducible(q: np.ndarray) -> bool:
    """True iff the directed graph of positive rates is strongly connected.

    That is, iff a search from state 0 reaches every state along the edges
    and along the reversed edges.  Each search keeps its states as the bits
    of Python ints, ``seen`` and ``front`` (seen, not yet expanded), and
    reads a state's row of packed edge bits only when it expands that
    state; it stops as soon as ``seen`` holds every state.
    """
    edges = q > 0.0
    return _reaches_all(edges) and _reaches_all(edges.T)


def _reaches_all(edges: np.ndarray) -> bool:
    """True iff a search from state 0 along the Boolean ``edges`` reaches
    every state."""
    n = edges.shape[0]
    # bit y of row x's bytes, read little-endian, is edges[x, y]
    rows = np.packbits(edges, axis=1, bitorder="little").tobytes()
    width = (n + 7) // 8
    everything = (1 << n) - 1
    seen = front = 1
    while front:
        x = (front & -front).bit_length() - 1  # the lowest state in front
        front ^= 1 << x
        new = int.from_bytes(rows[x * width : (x + 1) * width], "little") & ~seen
        seen |= new
        if seen == everything:
            return True
        front |= new
    return False


def invariant_distribution(q: np.ndarray) -> np.ndarray:
    """Solve ``pi^T Q = 0`` with the normalization ``sum(pi) = 1``.

    The last equation of the transposed system is replaced by the
    normalization row; for an irreducible generator this linear system is
    nonsingular and the solution is the unique strictly positive invariant
    distribution.
    """
    if not is_irreducible(q):
        raise NotIrreducibleError()
    n = q.shape[0]
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    residual = float(np.abs(pi @ q).max())
    scale = max(1.0, float(np.abs(q).max()))
    if residual > max(DEFAULT_TOL, 1e-13 * scale) or pi.min() <= 0.0:
        raise SingularSystemError(
            f"invariant solve left residual {residual} or nonpositive entries"
        )
    return _readonly(pi / pi.sum())


def transition_matrix(q: np.ndarray, t: float) -> np.ndarray:
    """Transition function P(t) = exp(tQ) by scaling and squaring (``_expm``).

    Every row is divided by its sum after each squaring, so the row sums keep
    a one-ulp drift, not one squared at every step, and the rows tend to
    ``pi`` for every finite t.  Entries in [-1e-12, 0) are clamped to 0.
    ``t`` must be finite and nonnegative; ``P(0) = I``.
    """
    if not math.isfinite(t) or t < 0:
        raise ValidationError(f"time must be finite and nonnegative, got {t}")
    p = _expm(q, t, stochastic=True)
    p[(p < 0.0) & (p > -1e-12)] = 0.0
    return p


def check_horizon(t: float):
    """Refuse a horizon ``t`` that is NaN, infinite, negative or 0: the time
    average ``A_t/t``, and so its tail and every bound on it, is undefined
    at t = 0."""
    if not math.isfinite(t) or t < 0:
        raise ValidationError(f"horizon must be finite and positive, got {t}")
    if t == 0:
        raise ZeroHorizonError()


def is_whole(value) -> bool:
    """True for a Python or numpy integer, and false for a bool, which is an int too."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


_EXPM_ORDER = 16


def _expm(m: np.ndarray, t: float = 1.0, stochastic: bool = False) -> np.ndarray:
    """exp(t m): a fixed-order Taylor series in Horner form on ``t m / 2^s``,
    of norm at most 1, squared s times.  ``s`` comes from ``log2(t) +
    log2(||m||_inf)``, so ``t m``, which can overflow, is never formed.
    ``stochastic`` divides every row by its sum after each squaring."""
    n = m.shape[0]
    norm = float(np.max(np.abs(m).sum(axis=1)))
    s = 0 if t * norm <= 1.0 else math.ceil(math.log2(t) + math.log2(norm))
    a = m * math.ldexp(t, -s)
    e = np.eye(n) / math.factorial(_EXPM_ORDER)
    for k in range(_EXPM_ORDER - 1, -1, -1):
        e = a @ e + np.eye(n) / math.factorial(k)
    for _ in range(s):
        e = e @ e
        if stochastic:
            e /= e.sum(axis=1, keepdims=True)
    return e


def check_detailed_balance(q: np.ndarray, pi: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff pi_x q_xy = pi_y q_yx within tol times the largest flow pi_x q_xy."""
    flow = pi[:, None] * q
    np.fill_diagonal(flow, 0.0)
    return bool(np.max(np.abs(flow - flow.T)) <= tol * np.max(flow))


def pi_expectation(pi: np.ndarray, f) -> float:
    return float(pi @ np.asarray(f, dtype=float))


def center_observable(f, pi: np.ndarray) -> np.ndarray:
    """Subtract pi(f) so the centered observable integrates to 0 against pi.

    The subtraction repeats while it shrinks ``|pi(f)|`` below 0.9 of its
    value, so the loop ends within about 14k passes for any input: a pass
    that moves one value by one ulp may lower ``|pi(f)|`` by a part in 1e10
    when that state's weight is tiny.  Whether it stops depends on the values
    alone, so the result is a fixed point: centering it again returns it bit
    for bit.  A shift past the largest double stops the loop early, as for
    ``f = (1.7e308, -1.7e308)`` on a chain with ``pi = (2/3, 1/3)``; a result
    that ``check_centered`` refuses raises ``NotCenteredError``.  The result
    is a new read-only array, which shares no memory with ``f``.
    """
    values = np.array(f, dtype=float)
    mean = pi_expectation(pi, values)
    with np.errstate(over="ignore"):
        while mean != 0.0:
            shifted = values - mean
            shifted_mean = pi_expectation(pi, shifted)
            # >= also stops a pass that leaves a subnormal |pi(f)| as it was,
            # where 0.9 * |pi(f)| rounds back up to |pi(f)|
            if abs(shifted_mean) >= 0.9 * abs(mean):
                break
            values, mean = shifted, shifted_mean
    check_centered(mean, values)
    return _readonly(values)


def check_centered(mean: float, f: np.ndarray):
    """Refuse an ``f`` whose mean ``pi(f)`` exceeds ``1e-10 max(1, max|f|)``:
    rounding leaves a mean in proportion to the size of f, and no more."""
    if abs(mean) > 1e-10 * max(1.0, float(np.abs(f).max())):
        raise NotCenteredError(mean)


def make_model(rates, f_values, nu=None) -> MJPModel:
    """Assemble a validated model: irreducible Q, invariant pi, centered f.

    ``nu`` defaults to a point mass at state 0.  The observable is centered
    against pi on ingest, and refused if it cannot be; the raw values
    shifted by a constant yield the same deviation probabilities.
    """
    q = validate_q_matrix(rates)
    pi = invariant_distribution(q)
    f_raw = np.asarray(f_values, dtype=float)
    n = q.shape[0]
    if f_raw.shape != (n,):
        raise ValidationError(f"observable must have shape ({n},), got {f_raw.shape}")
    if not np.isfinite(f_raw).all():
        raise ValidationError("observable has non-finite entries")
    f = center_observable(f_raw, pi)
    nu_dist = _readonly(np.eye(1, n)[0]) if nu is None else probability_vector(nu)
    if nu_dist.size != n:
        raise ValidationError("initial distribution has wrong length")
    return MJPModel(q=q, pi=pi, f=f, nu=nu_dist)


def stationary_model(model: MJPModel) -> MJPModel:
    """The same chain started from its invariant distribution."""
    return replace(model, nu=model.pi)


def flip_observable(model: MJPModel) -> MJPModel:
    """The same chain observed through -f; used for lower-tail bounds."""
    return replace(model, f=_readonly(-model.f))
