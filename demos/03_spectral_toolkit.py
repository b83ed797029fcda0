"""
The pi-weighted spectral toolkit
================================

The generator acts on observables; symmetrizing it against the invariant
distribution gives a selfadjoint operator whose spectrum drives everything
downstream: the gap controls mixing, the reduced resolvent solves the
Poisson equation on centered observables, and -2<Sf, f> is the variance in
the central limit theorem for time averages.
"""

import numpy as np

from mjpbounds import (
    adjoint_generator,
    analyze,
    empirical_variance_rate,
    make_model,
    pi_variance,
    resolvent_power,
    spectral_decomposition,
    symmetrized_generator,
)

np.set_printoptions(precision=6, suppress=True)

model = make_model([[-1.0, 1.0], [2.0, -2.0]], [1.0, -2.0])
sd = spectral_decomposition(model.q, model.pi)
sym = symmetrized_generator(model.q, model.pi)

print("Adjoint and symmetrized generator")
print("-" * 55)
print("L*:\n", adjoint_generator(model.q, model.pi))
print("reversible chain: L* equals L, so sym = L itself:\n", sym)

print("\nEigendata")
print("-" * 55)
print("eigenvalues:", sd.eigenvalues, "   spectral gap:", sd.gap)
print("kernel eigenvector (constant):", sd.eigvecs[:, 0])

print("\nReduced resolvent")
print("-" * 55)
print("S:\n", sd.resolvent)
print("S @ sym  (= I - projection onto constants):\n", sd.resolvent @ sym)
half = resolvent_power(sd, 0.5)
print("hat(S)^1/2 squared equals -S:", np.allclose(half @ half, -sd.resolvent))

print("\nAsymptotic variance")
print("-" * 55)
a = analyze(model)
print(f"sigma_hat^2 = -2<Sf, f>      = {a.sigma_hat2:.6f}")
print(f"2 Var_pi(f)/gap (upper bound) = {a.sigma_tilde2:.6f}")
print(f"Var_pi(f)                     = {pi_variance(model.pi, model.f):.6f}")

print("\nMonte Carlo check of the CLT variance (stationary start)")
print("-" * 55)
for t in (10.0, 50.0, 200.0):
    est = empirical_variance_rate(model, t, 20000, seed=11)
    print(f"t = {t:5.0f}:  Var(A_t)/t = {est:.4f}   ->  {a.sigma_hat2:.4f}")

print("\nA non-reversible example: eigenvalues of sym vs the generator")
print("-" * 55)
cycle = make_model([[-1, 1, 0], [0, -1, 1], [1, 0, -1]], [1.0, 0.5, -1.5])
sd2 = spectral_decomposition(cycle.q, cycle.pi)
print("sym eigenvalues:", sd2.eigenvalues, " (gap", sd2.gap, ")")
print("generator eigenvalues are complex:", np.linalg.eigvals(cycle.q))
print("only the symmetrized spectrum enters the bounds.")
