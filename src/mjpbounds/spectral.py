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

from .errors import DegenerateGapError, NotCenteredError
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


def eigh_descending(a: np.ndarray):
    """Eigendecomposition of a symmetric matrix by LAPACK.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending
    and the matching eigenvectors in the columns.  Only the lower triangle
    of ``a`` is read.
    """
    vals, vecs = np.linalg.eigh(a)
    return vals[::-1], vecs[:, ::-1]


def top_eigenvalue(a: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix, without eigenvectors."""
    return float(np.linalg.eigvalsh(a)[-1])


@dataclass(frozen=True)
class SpectralData:
    """Pi-orthonormal eigendecomposition of the symmetrized generator.

    ``eigvecs`` holds the eigenvectors (as functions on states) in columns,
    pi-orthonormal, with the constant function first.  ``sym_coords`` is the
    ordinary-symmetric similarity transform D^{1/2} sym D^{-1/2} reused by
    the tilted eigenvalue computations.
    """

    sym: np.ndarray
    sym_coords: np.ndarray
    eigenvalues: np.ndarray
    eigvecs: np.ndarray
    projector0: np.ndarray
    resolvent: np.ndarray
    pi: ProbDist

    @property
    def n(self) -> int:
        return self.sym.shape[0]

    @property
    def gap(self) -> float:
        return float(-self.eigenvalues[1])


def spectral_decomposition(q: QMatrix, pi: ProbDist) -> SpectralData:
    """Eigendecomposition of (L+L*)/2 with the kernel pinned exactly.

    The similarity transform B = D^{1/2} sym D^{-1/2} (D = diag(pi)) is
    ordinarily symmetric with unit eigenvector sqrt(pi) for eigenvalue 0.
    That vector is deflated by a Householder reflection before running the
    symmetric eigensolver on the trailing block, so the kernel direction is
    exact and downstream formulas can divide by the remaining eigenvalues
    safely.
    """
    n = q.n
    w = pi.weights
    sqrt_pi = np.sqrt(w)
    sym = symmetrized_generator(q, pi)
    b = (sym * sqrt_pi[:, None]) / sqrt_pi[None, :]
    b = 0.5 * (b + b.T)

    house = _householder_first_column(sqrt_pi)
    reduced = house.T @ b @ house
    # exact deflation: eigenvalue 0 with eigenvector sqrt(pi) is known
    reduced[0, :] = 0.0
    reduced[:, 0] = 0.0
    tail_vals, tail_vecs = eigh_descending(reduced[1:, 1:])

    if n >= 2 and tail_vals[0] >= -1e-12:
        raise DegenerateGapError(float(tail_vals[0]))

    vals = np.concatenate(([0.0], tail_vals))
    vecs_coords = np.zeros((n, n))
    vecs_coords[0, 0] = 1.0
    vecs_coords[1:, 1:] = tail_vecs
    vecs_b = house @ vecs_coords
    # back to functions on states; column 0 becomes the constant function
    eigvecs = vecs_b / sqrt_pi[:, None]
    eigvecs[:, 0] = 1.0

    projector0 = np.outer(np.ones(n), w)
    resolvent = _resolvent_from_pairs(vals, eigvecs, w, power=None)
    return SpectralData(
        sym=sym,
        sym_coords=b,
        eigenvalues=vals,
        eigvecs=eigvecs,
        projector0=projector0,
        resolvent=resolvent,
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


def _resolvent_from_pairs(vals, eigvecs, pi_w, power):
    """Sum of pi-orthogonal eigenprojections weighted by eigenvalue powers.

    ``power=None`` gives the reduced resolvent S = sum pr_k / lambda_k; a
    real ``power=r`` gives hat(S)^r = sum (-lambda_k)^{-r} pr_k, both over
    the nonzero eigenvalues only.
    """
    n = vals.shape[0]
    out = np.zeros((n, n))
    for k in range(1, n):
        coef = 1.0 / vals[k] if power is None else (-vals[k]) ** (-power)
        ek = eigvecs[:, k]
        out += coef * np.outer(ek, pi_w * ek)
    return out


def reduced_resolvent(sd: SpectralData) -> np.ndarray:
    """S = sum_{k>=1} pr_k / lambda_k; zero on constants, inverse elsewhere."""
    return sd.resolvent.copy()


def resolvent_power(sd: SpectralData, r: float) -> np.ndarray:
    """hat(S)^r = sum_{k>=1} (-lambda_k)^{-r} pr_k; pi-selfadjoint."""
    return _resolvent_from_pairs(sd.eigenvalues, sd.eigvecs, sd.pi.weights, power=r)


def sigma_hat_sq(sd: SpectralData, f: Observable, pi: ProbDist) -> float:
    """Asymptotic variance -2 <Sf, f> of the time average under pi.

    Centering is checked relative to the size of f, since rounding leaves a
    mean proportional to it.
    """
    mean = float(pi.weights @ f.values)
    if abs(mean) > 1e-10 * max(1.0, f.sup_norm):
        raise NotCenteredError(mean)
    val = -2.0 * pi_inner(pi, sd.resolvent @ f.values, f.values)
    return max(val, 0.0)
