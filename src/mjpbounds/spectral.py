"""Spectral analysis of the generator in the pi-weighted geometry.

The generator L acts on functions; its adjoint in L2(pi) has entries
``L*(x,y) = pi_y q_yx / pi_x``.  The symmetrized operator (L+L*)/2 is
selfadjoint in L2(pi), its top eigenvalue is 0 with eigenvector the constant
function, and every other eigenvalue is negative.  A similarity transform by
sqrt(pi) turns pi-selfadjointness into ordinary symmetry, so LAPACK's
symmetric eigensolver applies, to the matrix deflated onto the orthogonal
complement of sqrt(pi).  On top of the eigendecomposition this module
builds the reduced resolvent S (the inverse on the orthogonal complement of
constants), its real powers, and the asymptotic variance -2<Sf, f>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGapError, NumericalError
from .markov import check_centered


def adjoint_generator(q: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Matrix of the L2(pi) adjoint: entries pi_y q_yx / pi_x."""
    return (q.T * pi[None, :]) / pi[:, None]


def symmetrized_generator(q: np.ndarray, pi: np.ndarray) -> np.ndarray:
    return 0.5 * (q + adjoint_generator(q, pi))


def pi_inner(pi: np.ndarray, g, h) -> float:
    """Weighted inner product sum_x g(x) h(x) pi_x."""
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    return float(np.sum(pi * g * h))


def pi_variance(pi: np.ndarray, g) -> float:
    """Variance of ``g`` under ``pi``; one that overflows raises ``NumericalError``."""
    g = np.asarray(g, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        m = float(pi @ g)
        var = float(pi @ (g - m) ** 2)
    if not np.isfinite(var):
        raise NumericalError("the variance of the observable under pi overflows")
    return var


def sym_coords(q: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """D^{1/2} ((L+L*)/2) D^{-1/2} with D = diag(pi): the symmetrized generator
    made ordinarily symmetric, then symmetrized again against rounding."""
    sqrt_pi = np.sqrt(pi)
    b = (symmetrized_generator(q, pi) * sqrt_pi[:, None]) / sqrt_pi[None, :]
    return 0.5 * (b + b.T)


@dataclass(frozen=True)
class SpectralData:
    """Pi-orthonormal eigendecomposition of the symmetrized generator.

    ``eigvecs`` holds the eigenvectors (as functions on states) in columns,
    pi-orthonormal, with the constant function first.  ``sym_coords`` is
    ``sym_coords(q, pi)``, reused by the tilted eigenvalue computations.
    ``resolvent`` is the reduced resolvent S = sum_{k>=1} pr_k / lambda_k:
    zero on constants, inverse elsewhere.  Every function of the data reads its weights from ``pi``.
    """

    sym_coords: np.ndarray
    eigenvalues: np.ndarray
    eigvecs: np.ndarray
    resolvent: np.ndarray
    pi: np.ndarray

    @property
    def n(self) -> int:
        return self.sym_coords.shape[0]

    @property
    def gap(self) -> float:
        return float(-self.eigenvalues[1])

    @property
    def projector0(self) -> np.ndarray:
        """Projection onto the constants in L2(pi); each row is pi."""
        return np.outer(np.ones(self.n), self.pi)


def spectral_decomposition(q: np.ndarray, pi: np.ndarray) -> SpectralData:
    """Eigendecomposition of (L+L*)/2 with the kernel pinned exactly.

    The similarity transform B = ``sym_coords(q, pi)`` is ordinarily
    symmetric with unit eigenvector sqrt(pi) for eigenvalue 0.  The
    symmetric eigensolver runs on B deflated onto the complement of sqrt(pi)
    (``_complement_basis``), so the kernel direction is exact and
    downstream formulas can divide by the remaining eigenvalues safely.
    Rates whose products with pi overflow leave B or its eigenvalues
    non-finite, which raises ``NumericalError``.
    """
    n = q.shape[0]
    sqrt_pi = np.sqrt(pi)
    basis = _complement_basis(sqrt_pi)
    with np.errstate(over="ignore", invalid="ignore"):
        b = sym_coords(q, pi)
        if not np.isfinite(b).all():
            raise NumericalError("the symmetrized generator overflows")
        reduced = basis.T @ b @ basis
    tail_vals, tail_vecs = np.linalg.eigh(reduced)
    tail_vals, tail_vecs = tail_vals[::-1], tail_vecs[:, ::-1]  # descending

    if not np.isfinite(tail_vals).all():
        raise NumericalError("the eigenvalues of the symmetrized generator are not finite")
    if n >= 2 and not tail_vals[0] < -1e-12:  # NaN fails this test too
        raise DegenerateGapError(float(tail_vals[0]))

    vals = np.concatenate(([0.0], tail_vals))
    eigvecs = np.empty((n, n))  # functions on states, the constant first
    eigvecs[:, 0] = 1.0
    eigvecs[:, 1:] = basis @ tail_vecs / sqrt_pi[:, None]

    return SpectralData(
        sym_coords=b,
        eigenvalues=vals,
        eigvecs=eigvecs,
        resolvent=-_resolvent_power(vals, eigvecs, pi, 1.0),
        pi=pi,
    )


def _complement_basis(v: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the complement of the unit vector v:
    the last n - 1 columns of the Householder reflection that maps e_0 to v."""
    u = v.copy()
    u[0] -= 1.0
    norm2 = u @ u
    if norm2 < 1e-30:
        return np.eye(v.size)[:, 1:]
    basis = 2.0 * np.outer(u, u[1:]) / -norm2
    basis[1:] += np.eye(v.size - 1)
    return basis


def _resolvent_power(vals, eigvecs, pi_w, r):
    """hat(S)^r = sum_{k>=1} (-lambda_k)^{-r} pr_k as one eigen-sum.

    ``pr_k = e_k (pi e_k)^T`` is the pi-orthogonal eigenprojection; the sum
    runs over the nonzero eigenvalues only.
    """
    v1 = eigvecs[:, 1:]
    return (v1 * (-vals[1:]) ** -r) @ (v1 * pi_w[:, None]).T


def resolvent_power(sd: SpectralData, r: float) -> np.ndarray:
    """hat(S)^r = sum_{k>=1} (-lambda_k)^{-r} pr_k; pi-selfadjoint."""
    return _resolvent_power(sd.eigenvalues, sd.eigvecs, sd.pi, r)


def sigma_hat_sq(sd: SpectralData, f: np.ndarray) -> float:
    """Asymptotic variance -2 <Sf, f> of the time average under ``sd.pi``.

    ``pi(f)`` must pass ``check_centered``.  A variance that overflows raises
    ``NumericalError``.
    """
    check_centered(float(sd.pi @ f), f)
    with np.errstate(over="ignore", invalid="ignore"):
        val = -2.0 * pi_inner(sd.pi, sd.resolvent @ f, f)
    if not np.isfinite(val):
        raise NumericalError("the asymptotic variance of the observable overflows")
    return max(val, 0.0)
