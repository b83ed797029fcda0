"""Perturbation-series coefficients and the combinatorics behind their bounds.

The top eigenvalue of the tilted symmetrized generator expands as a power
series in the tilt; ``lambda0_coefficients`` computes its coefficients, up to
order ``ORDER_CAP`` = 200, by the Rayleigh-Schroedinger recursion.  The n-th
coefficient is also a signed sum of traces over weak compositions of n-1 into
n parts, the formula the tests check the recursion against.  Rotation classes
of those compositions are counted by beta(n, m) (classes with m non-adjacent
zeros), their totals beta_n match the Motzkin numbers shifted by two, and the
generating function Phi(x) = sum beta_n x^n majorizes the series on [0, 1/3].
All combinatorial quantities here are exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, OrderTooLargeError, OutOfRangeError
from .spectral import SpectralData

# range check on the requested series order, not a cost limit: order 200
# takes about 2 ms on an 8-state and 10 ms on a 64-state chain (2-core x86)
ORDER_CAP = 200


def motzkin(n_max: int) -> list[int]:
    """Motzkin numbers m_0..m_n_max from the recurrence of m = 1 + xm + (xm)^2.

    Extracting coefficients from the quadratic equation gives
    ``m_n = m_{n-1} + sum_{i+j=n-2} m_i m_j``; Python integers keep every
    value exact.
    """
    if n_max < 0:
        raise OutOfRangeError(f"need n >= 0, got {n_max}")
    m = [1]
    for n in range(1, n_max + 1):
        val = m[n - 1]
        val += sum(m[i] * m[n - 2 - i] for i in range(n - 1))
        m.append(val)
    return m


def beta(n: int, m: int) -> int:
    """Number of rotation classes of weak compositions of n-1 into n parts
    with exactly m non-adjacent zeros.

    Closed form ``C(n-1, m) C(n-1-m, n-2m) / (n-1)``; 0 for m above
    floor(n/2), where two zeros would have to be adjacent.
    """
    if n < 2 or m < 1:
        raise OutOfRangeError(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    if m > n // 2:
        return 0
    return math.comb(n - 1, m) * math.comb(n - 1 - m, n - 2 * m) // (n - 1)


def beta_total(n: int) -> int:
    """beta_n = sum over m of beta(n, m); equals the Motzkin number m_{n-2}."""
    return sum(beta(n, m) for m in range(1, n // 2 + 1))


def phi(x: float) -> float:
    """Majorant generating function ((1-x)/2)(1 - sqrt(1 - 4x^2/(1-x)^2)).

    Defined on [0, 1/3]; the square-root argument is clamped at 0 at the
    right endpoint where it vanishes.
    """
    if not 0.0 <= x <= 1.0 / 3.0 + 1e-15:
        raise DomainError(x, 0.0, 1.0 / 3.0)
    arg = 1.0 - 4.0 * x * x / (1.0 - x) ** 2
    return 0.5 * (1.0 - x) * (1.0 - math.sqrt(max(arg, 0.0)))


@dataclass(frozen=True)
class SeriesCoefficients:
    """Leading perturbation-series coefficients of the tilted top eigenvalue."""

    coeffs: np.ndarray  # coeffs[k] multiplies r^(k+1); first entry is order 1

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def partial_sum(self, r: float) -> float:
        """Sum of the series' terms up to its order; ``NumericalError`` if it
        overflows, as it does far outside the radius of convergence."""
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(self.coeffs @ np.power(r, np.arange(1, self.order + 1)))
        if not math.isfinite(value):
            raise NumericalError(f"series partial sum at r = {r} overflows")
        return value


def check_order(order: int):
    """Refuse a series order below 1 or above ``ORDER_CAP``."""
    if order < 1:
        raise OutOfRangeError(f"need order >= 1, got {order}")
    if order > ORDER_CAP:
        raise OrderTooLargeError(order, ORDER_CAP)


def lambda0_coefficients(
    sd: SpectralData, f: np.ndarray, order: int
) -> SeriesCoefficients:
    """Series coefficients by the Rayleigh-Schroedinger recursion (Kato,
    *Perturbation Theory for Linear Operators*, ch. II).

    At r = 0 the top eigenfunction is psi_0 = 1.  With S the reduced
    resolvent and means weighted by ``sd.pi``, the n-th coefficient is

        E_n = pi(f psi_{n-1}),  psi_n = -S (f psi_{n-1} - sum_{k<n} E_k psi_{n-k}),

    one matrix-vector product per order.  The tests check it against the
    trace formula over weak compositions.  Orders above ``ORDER_CAP`` (200)
    are refused; ``NumericalError`` is raised at the first coefficient that
    overflows.
    """
    check_order(order)
    psi = np.zeros((order, sd.n))
    psi[0] = 1.0
    coeffs = np.zeros(order)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, order + 1):
            f_psi = f * psi[n - 1]
            coeffs[n - 1] = sd.pi @ f_psi
            if not math.isfinite(coeffs[n - 1]):
                raise NumericalError(f"series coefficient {n} overflows")
            if n < order:
                psi[n] = -sd.resolvent @ (f_psi - coeffs[: n - 1] @ psi[n - 1 : 0 : -1])
    return SeriesCoefficients(coeffs=coeffs)
