"""Finite-state Markov jump process models.

A model is specified by its rate matrix Q (nonnegative off-diagonal rates,
zero row sums), an observable f on the states, and an initial distribution.
This module validates rate matrices, decides irreducibility, computes the
invariant distribution pi (the solution of ``pi^T Q = 0``), evaluates the
transition function ``P(t) = exp(tQ)``, and checks the detailed balance
condition ``pi_x q_xy = pi_y q_yx``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    NegativeRateError,
    NonSquareError,
    NotIrreducibleError,
    RowSumViolationError,
    SingularSystemError,
    ValidationError,
)

DEFAULT_TOL = 1e-12


def _readonly(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QMatrix:
    """Generator of a Markov jump process: off-diagonal rates, zero row sums."""

    rates: np.ndarray

    @property
    def n(self) -> int:
        return self.rates.shape[0]

    @property
    def exit_rates(self) -> np.ndarray:
        """q_x = -q_xx, the total rate of leaving each state."""
        return -np.diag(self.rates)


@dataclass(frozen=True)
class ProbDist:
    """Probability vector on the state space."""

    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def strictly_positive(self) -> bool:
        return bool(np.min(self.weights) > 0.0)


@dataclass(frozen=True)
class Observable:
    """Real-valued function on the states."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    @property
    def pos_sup_norm(self) -> float:
        """Sup norm of the nonnegative part max(f, 0)."""
        return float(np.max(np.maximum(self.values, 0.0)))


@dataclass(frozen=True)
class MJPModel:
    """Irreducible jump process with invariant distribution and centered observable."""

    q: QMatrix
    pi: ProbDist
    f: Observable
    nu: ProbDist

    @property
    def n(self) -> int:
        return self.q.n

    @functools.cached_property
    def reversible(self) -> bool:
        """Detailed balance of ``q`` against ``pi``, checked on first access."""
        return check_detailed_balance(self.q, self.pi)


def probability_vector(weights) -> ProbDist:
    """Validate and wrap a probability vector; entries must sum to 1 within 1e-9."""
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
    return ProbDist(_readonly(w))


def validate_q_matrix(raw) -> QMatrix:
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
    if not np.all(np.isfinite(a)):
        raise ValidationError("rate matrix has non-finite entries")
    n = a.shape[0]
    off = ~np.eye(n, dtype=bool)
    row_tol = DEFAULT_TOL * np.max(np.abs(a), axis=1)
    bad = (a < -row_tol[:, None]) & off
    if np.any(bad):
        x, y = np.argwhere(bad)[0]
        raise NegativeRateError(int(x), int(y), float(a[x, y]))
    rowsum = a.sum(axis=1)
    bad_rows = np.abs(rowsum) > row_tol
    if np.any(bad_rows):
        x = int(np.argmax(bad_rows))
        raise RowSumViolationError(x, float(rowsum[x]))
    q = np.where(off, np.clip(a, 0.0, None), 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return QMatrix(_readonly(q))


def is_irreducible(q: QMatrix) -> bool:
    """True iff the directed graph of positive rates is strongly connected.

    Squares the boolean reachability matrix, edges plus the diagonal, until
    it covers paths of length ``n - 1``: after k squarings it holds every
    path of at most 2^k edges.  The graph is strongly connected iff every
    entry is then true.
    """
    reach = (q.rates > 0.0) | np.eye(q.n, dtype=bool)
    for _ in range(max(1, (q.n - 2).bit_length())):  # ceil(log2(n - 1)) times
        reach = reach @ reach
    return bool(reach.all())


def invariant_distribution(q: QMatrix) -> ProbDist:
    """Solve ``pi^T Q = 0`` with the normalization ``sum(pi) = 1``.

    The last equation of the transposed system is replaced by the
    normalization row; for an irreducible generator this linear system is
    nonsingular and the solution is the unique strictly positive invariant
    distribution.
    """
    if not is_irreducible(q):
        raise NotIrreducibleError()
    n = q.n
    a = q.rates.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    residual = float(np.max(np.abs(pi @ q.rates)))
    scale = max(1.0, float(np.max(np.abs(q.rates))))
    if residual > max(DEFAULT_TOL, 1e-13 * scale) or pi.min() <= 0.0:
        raise SingularSystemError(
            f"invariant solve left residual {residual} or nonpositive entries"
        )
    pi = pi / pi.sum()
    return ProbDist(_readonly(pi))


def transition_matrix(q: QMatrix, t: float) -> np.ndarray:
    """Transition function P(t) = exp(tQ) by scaling and squaring.

    The argument is scaled by 2^s with ``s = ceil(log2(||tQ||_inf))`` so the
    scaled norm is at most 1, a fixed-order truncated series is evaluated in
    Horner form, and the result is squared s times.  Entries in [-1e-12, 0)
    are clamped to 0.
    """
    if t < 0:
        raise ValidationError(f"time must be nonnegative, got {t}")
    p = _expm(t * q.rates)
    p[(p < 0.0) & (p > -1e-12)] = 0.0
    return p


_EXPM_ORDER = 16


def _expm(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    norm = float(np.max(np.abs(m).sum(axis=1)))
    s = max(0, math.ceil(math.log2(norm))) if norm > 1.0 else 0
    a = m / (2.0**s)
    e = np.eye(n) / math.factorial(_EXPM_ORDER)
    for k in range(_EXPM_ORDER - 1, -1, -1):
        e = a @ e + np.eye(n) / math.factorial(k)
    for _ in range(s):
        e = e @ e
    return e


def check_detailed_balance(q: QMatrix, pi: ProbDist, tol: float = 1e-12) -> bool:
    """True iff pi_x q_xy = pi_y q_yx within tol times the largest flow pi_x q_xy."""
    flow = pi.weights[:, None] * q.rates
    np.fill_diagonal(flow, 0.0)
    return bool(np.max(np.abs(flow - flow.T)) <= tol * np.max(flow))


def pi_expectation(pi: ProbDist, f: Observable | np.ndarray) -> float:
    values = f.values if isinstance(f, Observable) else np.asarray(f, dtype=float)
    return float(pi.weights @ values)


def center_observable(f: Observable, pi: ProbDist) -> Observable:
    """Subtract pi(f) so the centered observable integrates to 0 against pi.

    The subtraction repeats while it shrinks ``|pi(f)|`` below 0.9 of its
    value, so the loop ends within about 14k passes for any input: a pass
    that moves one value by one ulp may lower ``|pi(f)|`` by a part in 1e10
    when that state's weight is tiny.  Whether it stops depends on the values
    alone, so the result is a fixed point: centering it again returns it bit
    for bit.
    """
    values = f.values
    mean = pi_expectation(pi, values)
    while mean != 0.0:
        shifted = values - mean
        shifted_mean = pi_expectation(pi, shifted)
        # >= also stops a pass that leaves a subnormal |pi(f)| as it was,
        # where 0.9 * |pi(f)| rounds back up to |pi(f)|
        if abs(shifted_mean) >= 0.9 * abs(mean):
            break
        values, mean = shifted, shifted_mean
    return Observable(_readonly(values))


def make_model(rates, f_values, nu=None) -> MJPModel:
    """Assemble a validated model: irreducible Q, invariant pi, centered f.

    ``nu`` defaults to a point mass at state 0.  The observable is centered
    against pi on ingest; the raw values shifted by a constant yield the same
    deviation probabilities.
    """
    q = validate_q_matrix(rates)
    pi = invariant_distribution(q)
    f_raw = np.asarray(f_values, dtype=float)
    if f_raw.shape != (q.n,):
        raise ValidationError(f"observable must have shape ({q.n},), got {f_raw.shape}")
    if not np.all(np.isfinite(f_raw)):
        raise ValidationError("observable has non-finite entries")
    f = center_observable(Observable(f_raw), pi)
    nu_dist = probability_vector(np.eye(q.n)[0] if nu is None else nu)
    if nu_dist.n != q.n:
        raise ValidationError("initial distribution has wrong length")
    return MJPModel(q=q, pi=pi, f=f, nu=nu_dist)


def stationary_model(model: MJPModel) -> MJPModel:
    """The same chain started from its invariant distribution."""
    return replace(model, nu=model.pi)


def flip_observable(model: MJPModel) -> MJPModel:
    """The same chain observed through -f; used for lower-tail bounds."""
    return replace(model, f=Observable(_readonly(-model.f.values)))
