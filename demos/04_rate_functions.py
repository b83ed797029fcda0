"""
Tilted eigenvalues and rate functions
=====================================

Tilting the symmetrized generator by r * diag(f) produces a convex
eigenvalue curve lambda_0(r) with lambda_0(0) = 0.  Its Fenchel conjugate
sup_r (ru - lambda_0(r)) is the exponential decay rate of the master tail
bound, and it coincides with a constrained variational problem on the unit
sphere of L2(pi) -- checked here by brute force.  The sub-gamma closed form
used by the Bernstein-type families is validated against numerical
conjugation.
"""

import numpy as np

from mjpbounds import (
    BernsteinParams,
    analyze,
    bernstein_conjugate,
    fenchel_conjugate,
    feynman_kac_norm,
    lambda0,
    lambda0_star,
    make_model,
    rate_function_variational,
)

model = make_model([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [3.0, 1.0, -4.0]],
                   [2.0, -1.0, 0.5])
a = analyze(model)

print("The tilted eigenvalue curve")
print("-" * 60)
for r in (0.0, 0.1, 0.5, 1.0, 2.0):
    print(f"  lambda0({r:4.1f}) = {lambda0(a.sd, model.f, r):.6f}")
print("convex, flat at 0; slope at infinity approaches max f.")

print("\nOperator norm of the tilted semigroup vs its eigenvalue bound")
print("-" * 60)
for r, t in ((0.2, 1.0), (0.5, 2.0)):
    norm = feynman_kac_norm(model.q, model.pi, model.f, r, t)
    cap = np.exp(t * lambda0(a.sd, model.f, r))
    print(f"  r={r}, t={t}:  ||exp(t(Q + r diag f))||_pi = {norm:.6f} <= {cap:.6f}")

print("\nConjugate rate vs the constrained variational oracle")
print("-" * 60)
fmax = model.f.values.max()
print(f"  (finite exactly on [min f, max f] = [{model.f.values.min():.3f}, {fmax:.3f}])")
print(f"  {'u':>6}  {'conjugate':>12}  {'variational':>12}  {'diff':>9}")
for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
    u = frac * fmax
    conj = lambda0_star(a.sd, model.f, u).value
    var = rate_function_variational(model.q, model.pi, model.f, u)
    print(f"  {u:6.3f}  {conj:12.8f}  {var:12.8f}  {abs(conj - var):9.1e}")

beyond = lambda0_star(a.sd, model.f, 1.5 * fmax)
print(f"  u beyond max f: value = {beyond.value} (the average can never exceed max f)")

print("\nSub-gamma conjugate: closed form vs golden-section search")
print("-" * 60)
v, c = a.sigma_hat2, a.fplus_sup / a.gap
bp = BernsteinParams(v=v, c=c)
for u in (0.2, 0.6, 1.2):
    closed = bernstein_conjugate(bp, u)
    numeric = fenchel_conjugate(
        lambda r: r * r * v / (2.0 * (1.0 - r * c)), u, r_max=1.0 / c
    ).value
    print(f"  u={u}:  closed = {closed:.10f}   numeric = {numeric:.10f}")
