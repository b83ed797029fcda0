"""Spectral analysis of the generator in the pi-weighted geometry.

The generator L acts on functions; its adjoint in L2(pi) has entries
``L*(x,y) = pi_y q_yx / pi_x``.  The symmetrized operator (L+L*)/2 is
selfadjoint in L2(pi), its top eigenvalue is 0 with eigenvector the constant
function, and every other eigenvalue is negative.  A similarity transform by
sqrt(pi) turns pi-selfadjointness into ordinary symmetry, so LAPACK's
symmetric eigensolver applies.  On top of the eigendecomposition this module
builds the reduced resolvent S (the inverse on the orthogonal complement of
constants), its real powers, and the asymptotic variance -2<Sf, f>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGapError, NotCenteredError, NumericalError
from .markov import Observable, ProbDist, QMatrix


def adjoint_generator(q: QMatrix, pi: ProbDist) -> np.ndarray:
    """Matrix of the L2(pi) adjoint: entries pi_y q_yx / pi_x."""
    w = pi.weights
    return (q.rates.T * w[None, :]) / w[:, None]


def symmetrized_generator(q: QMatrix, pi: ProbDist) -> np.ndarray:
    return 0.5 * (q.rates + adjoint_generator(q, pi))


def pi_inner(pi: ProbDist, g, h) -> float:
    """Weighted inner product sum_x g(x) h(x) pi_x."""
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    return float(np.sum(pi.weights * g * h))


def pi_variance(pi: ProbDist, g) -> float:
    g = np.asarray(g, dtype=float)
    m = float(pi.weights @ g)
    return float(pi.weights @ (g - m) ** 2)


def sym_coords(q: QMatrix, pi: ProbDist) -> np.ndarray:
    """D^{1/2} ((L+L*)/2) D^{-1/2} with D = diag(pi): the symmetrized generator
    made ordinarily symmetric, then symmetrized again against rounding."""
    sqrt_pi = np.sqrt(pi.weights)
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
    pi: ProbDist

    @property
    def n(self) -> int:
        return self.sym_coords.shape[0]

    @property
    def gap(self) -> float:
        return float(-self.eigenvalues[1])

    @property
    def projector0(self) -> np.ndarray:
        """Projection onto the constants in L2(pi); each row is pi."""
        return np.outer(np.ones(self.n), self.pi.weights)


def spectral_decomposition(q: QMatrix, pi: ProbDist) -> SpectralData:
    """Eigendecomposition of (L+L*)/2 with the kernel pinned exactly.

    The similarity transform B = ``sym_coords(q, pi)`` is ordinarily
    symmetric with unit eigenvector sqrt(pi) for eigenvalue 0.
    That vector is deflated by a Householder reflection before running the
    symmetric eigensolver on the trailing block, so the kernel direction is
    exact and downstream formulas can divide by the remaining eigenvalues
    safely.  Rates whose products with pi overflow leave B or its
    eigenvalues non-finite, which raises ``NumericalError``.
    """
    n = q.n
    w = pi.weights
    sqrt_pi = np.sqrt(w)
    house = _householder_first_column(sqrt_pi)
    with np.errstate(over="ignore", invalid="ignore"):
        b = sym_coords(q, pi)
        if not np.isfinite(b).all():
            raise NumericalError("the symmetrized generator overflows")
        reduced = house.T @ b @ house
    # exact deflation: eigenvalue 0 with eigenvector sqrt(pi) is known
    reduced[0, :] = 0.0
    reduced[:, 0] = 0.0
    tail_vals, tail_vecs = np.linalg.eigh(reduced[1:, 1:])
    tail_vals, tail_vecs = tail_vals[::-1], tail_vecs[:, ::-1]  # descending

    if not np.isfinite(tail_vals).all():
        raise NumericalError("the eigenvalues of the symmetrized generator are not finite")
    if n >= 2 and not tail_vals[0] < -1e-12:  # NaN fails this test too
        raise DegenerateGapError(float(tail_vals[0]))

    vals = np.concatenate(([0.0], tail_vals))
    vecs_coords = np.zeros((n, n))
    vecs_coords[0, 0] = 1.0
    vecs_coords[1:, 1:] = tail_vecs
    vecs_b = house @ vecs_coords
    # back to functions on states; column 0 becomes the constant function
    eigvecs = vecs_b / sqrt_pi[:, None]
    eigvecs[:, 0] = 1.0

    return SpectralData(
        sym_coords=b,
        eigenvalues=vals,
        eigvecs=eigvecs,
        resolvent=-_resolvent_power(vals, eigvecs, w, 1.0),
        pi=pi,
    )


def _householder_first_column(v: np.ndarray) -> np.ndarray:
    """Orthogonal matrix whose first column is the unit vector v."""
    n = v.shape[0]
    e0 = np.zeros(n)
    e0[0] = 1.0
    u = v - e0
    norm2 = u @ u
    if norm2 < 1e-30:
        return np.eye(n)
    h = np.eye(n) - 2.0 * np.outer(u, u) / norm2
    return -h if h[0, 0] * v[0] < 0 else h


def _resolvent_power(vals, eigvecs, pi_w, r):
    """hat(S)^r = sum_{k>=1} (-lambda_k)^{-r} pr_k as one eigen-sum.

    ``pr_k = e_k (pi e_k)^T`` is the pi-orthogonal eigenprojection; the sum
    runs over the nonzero eigenvalues only.
    """
    v1 = eigvecs[:, 1:]
    return (v1 * (-vals[1:]) ** -r) @ (v1 * pi_w[:, None]).T


def resolvent_power(sd: SpectralData, r: float) -> np.ndarray:
    """hat(S)^r = sum_{k>=1} (-lambda_k)^{-r} pr_k; pi-selfadjoint."""
    return _resolvent_power(sd.eigenvalues, sd.eigvecs, sd.pi.weights, r)


def sigma_hat_sq(sd: SpectralData, f: Observable) -> float:
    """Asymptotic variance -2 <Sf, f> of the time average under ``sd.pi``.

    Centering is checked relative to the size of f, since rounding leaves a
    mean proportional to it.
    """
    mean = float(sd.pi.weights @ f.values)
    if abs(mean) > 1e-10 * max(1.0, f.sup_norm):
        raise NotCenteredError(mean)
    val = -2.0 * pi_inner(sd.pi, sd.resolvent @ f.values, f.values)
    return max(val, 0.0)
