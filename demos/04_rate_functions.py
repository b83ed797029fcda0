"""
Tilted eigenvalues and rate functions
=====================================

Tilting the symmetrized generator by r * diag(f) produces a convex
eigenvalue curve lambda_0(r) with lambda_0(0) = 0.  Its Fenchel conjugate
sup_r (ru - lambda_0(r)) is the exponential decay rate of the master tail
bound; near u = 0 it is Gaussian, u^2 / (2 sigma_hat^2), with the asymptotic
variance sigma_hat^2.  lambda0_star solves it for a whole u grid at once:
safeguarded Newton steps on lambda_0'(r) = u, each one stacked eigensolve
that gives lambda_0, its slope (Hellmann-Feynman) and its curvature
(second-order perturbation theory).  (The acceptance suite checks the
conjugate against the constrained variational problem, the semigroup norm
against its eigenvalue bound, and the sub-gamma closed form used by the
Bernstein-type families against golden-section conjugation.)
"""

from mjpbounds import analyze, lambda0, lambda0_star, make_model

model = make_model([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [3.0, 1.0, -4.0]],
                   [2.0, -1.0, 0.5])
a = analyze(model)

print("The tilted eigenvalue curve")
print("-" * 60)
for r in (0.0, 0.1, 0.5, 1.0, 2.0):
    print(f"  lambda0({r:4.1f}) = {lambda0(a.sd, model.f, r):.6f}")
print("convex, flat at 0; slope at infinity approaches max f.")

print("\nConjugate rate near u = 0 against its Gaussian limit u^2/(2 sigma_hat^2)")
print("-" * 60)
fmax = model.f.values.max()
print(f"  (finite exactly on [min f, max f] = [{model.f.values.min():.3f}, {fmax:.3f}])")
print(f"  {'u':>8}  {'conjugate':>14}  {'u^2/(2 s^2)':>14}  {'ratio':>8}  {'argmax r':>10}")
grid = lambda0_star(a.sd, model.f, [0.3, 0.1, 0.03, 0.01, 0.003])  # one call
for res in grid:
    gauss = res.u * res.u / (2.0 * a.sigma_hat2)
    print(f"  {res.u:8.3f}  {res.value:14.8e}  {gauss:14.8e}  {res.value / gauss:8.5f}"
          f"  {res.argmax_r:10.6f}")
slack = max(res.weyl_slack for res in grid)
print(f"  eigensolver rounding of these rates (Weyl bound): <= {slack:.1e}")

beyond = lambda0_star(a.sd, model.f, 1.5 * fmax)
print(f"  u beyond max f: value = {beyond.value} (the average can never exceed max f)")
