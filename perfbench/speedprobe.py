"""A fixed piece of work that measures how fast the machine runs right now.

On a shared virtual machine the same command can take twice as long from
one minute to the next, with the process on the CPU the whole time, as
other tenants' load comes and goes.  The benchmark runs this probe
between every two timed runs and rescales each run's time by
``PROBE_REF_S / probe time`` (the mean of the probes on either side).  That
expresses it in seconds of a machine on which the probe takes
``PROBE_REF_S``.

The probe is frozen copies of the library's two hot kernels as they were
when the benchmark was written: the cyclic Jacobi eigensolver behind every
tilted eigenvalue, and the vectorized trajectory sampler with its
counter-based uniforms.  Contention slows code with the same instruction
mix by about the same factor, and these copies belong to the benchmark, so
no change to the library can change the probe.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

PROBE_REF_S = 0.1  # about the probe's time on a quiet 2-core Xeon VM

_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MUL1 = _U64(0xBF58476D1CE4E5B9)
_MUL2 = _U64(0x94D049BB133111EB)
_DRAW_SALT = _U64(0xD6E8FEB86659FD93)


def _mix64(z):
    with np.errstate(over="ignore"):
        z = z + _GAMMA
        z = (z ^ (z >> _U64(30))) * _MUL1
        z = (z ^ (z >> _U64(27))) * _MUL2
        return z ^ (z >> _U64(31))


def _uniforms(keys, draws):
    z = _mix64(keys ^ _mix64(draws ^ _DRAW_SALT))
    return ((z >> _U64(11)).astype(np.float64) + 0.5) * (2.0**-53)


def _jacobi(a, tol=1e-15):
    n = a.shape[0]
    v = np.eye(n)
    threshold = tol * max(1.0, float(np.linalg.norm(a)))
    offdiag = ~np.eye(n, dtype=bool)
    for _ in range(100):
        if float(np.sqrt(np.sum(a[offdiag] ** 2))) < threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot = np.array([[c, -s], [s, c]])
                a[[p, q], :] = rot @ a[[p, q], :]
                a[:, [p, q]] = a[:, [p, q]] @ rot.T
                a[p, q] = a[q, p] = 0.0
                v[:, [p, q]] = v[:, [p, q]] @ rot.T
    return a.diagonal().copy(), v


# A tridiagonal 8x8 matrix for the eigensolver, and a 4-state chain for the sampler.
_B = np.diag(np.linspace(-2.5, 0.5, 8)) - 1.2 * (np.eye(8, k=1) + np.eye(8, k=-1))
_Q = np.array(
    [
        [-2.0, 1.0, 0.5, 0.5],
        [0.7, -1.9, 1.2, 0.0],
        [0.3, 0.9, -2.2, 1.0],
        [1.5, 0.0, 1.1, -2.6],
    ]
)
_F = np.array([0.9, -0.4, 0.2, -0.7])


def _sample(count, horizon):
    n = _Q.shape[0]
    exit_rates = -np.diag(_Q)
    targets = np.array([[y for y in range(n) if y != x] for x in range(n)])
    cum = np.cumsum(np.take_along_axis(_Q, targets, axis=1) / exit_rates[:, None], axis=1)
    cum[:, -1] = 1.0
    keys = _mix64(np.arange(count, dtype=_U64))
    state = np.zeros(count, dtype=np.int64)
    tau = np.zeros(count)
    acc = np.zeros(count)
    draw = np.ones(count, dtype=_U64)
    while True:
        t_new = tau - np.log(_uniforms(keys, draw)) / exit_rates[state]
        acc += _F[state] * (np.minimum(t_new, horizon) - tau)
        keep = t_new < horizon
        if not keep.any():
            break
        keys, state, acc, tau = keys[keep], state[keep], acc[keep], t_new[keep]
        draw = draw[keep] + _U64(1)
        j = (_uniforms(keys, draw)[:, None] > cum[state]).sum(axis=1)
        state = targets[state, np.minimum(j, n - 2)]
        draw = draw + _U64(1)


def probe_seconds():
    """Wall time of the fixed probe work (0.1 to 0.17 s on a 2-core Xeon VM)."""
    start = perf_counter()
    for _ in range(16):
        _jacobi(_B.copy())
    _sample(16384, 20.0)
    return perf_counter() - start


class Calibrated:
    """Alternates probes with timed work and rescales each time to reference seconds.

    The probe runs on one thread and tracks only work on one thread.  Work
    on more threads is left unscaled: on the machine the benchmark was
    sized on, the two-thread workload's raw times were steadier than its
    rescaled ones (quartile spread 5% against 14% over ten seeds).
    """

    def __init__(self, threads=1):
        self.enabled = threads == 1
        self.probes = [probe_seconds()] if self.enabled else []

    def time(self, fn):
        """Run ``fn()``, which returns seconds; returns them raw and rescaled."""
        seconds = fn()
        if not self.enabled:
            return seconds, seconds
        self.probes.append(probe_seconds())
        speed = PROBE_REF_S / (0.5 * (self.probes[-2] + self.probes[-1]))
        return seconds, seconds * speed
