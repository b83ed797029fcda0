"""
Perturbation series and the combinatorics that bound it
=======================================================

The tilted top eigenvalue expands as a power series whose coefficients are
trace sums over rotation classes of weak compositions.  Counting those
classes leads to Motzkin numbers and a closed-form generating function that
majorizes the whole series on [0, 1/3] -- the engine behind the
perturbation-family bound.  The class counts and Motzkin numbers here are
exact integers; the test suite checks them against an enumeration of the
classes, and the generating function against its partial sums.
"""

import numpy as np

from mjpbounds import (
    analyze,
    beta,
    beta_total,
    lambda0,
    lambda0_coefficients,
    make_model,
    motzkin,
    phi,
)

model = make_model([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [3.0, 1.0, -4.0]],
                   [2.0, -1.0, 0.5])
a = analyze(model)

print("Series coefficients of the tilted eigenvalue")
print("-" * 60)
co = lambda0_coefficients(a.sd, model.f, 8)
for k, c in enumerate(co.coeffs, start=1):
    print(f"  order {k}: {c:+.10f}")
print(f"  order 1 vanishes (centering); order 2 = sigma_hat^2/2 = {a.sigma_hat2/2:.10f}")

print("\nPartial sums converge at the expected order")
print("-" * 60)
scale = a.gap / (2.0 * a.f_sup)
for order in (2, 4, 6):
    part = lambda0_coefficients(a.sd, model.f, order)
    rs = np.logspace(-2, -1, 10) * scale
    errs = [abs(lambda0(a.sd, model.f, r) - part.partial_sum(r)) for r in rs]
    keep = [(r, e) for r, e in zip(rs, errs) if e > 2e-14]
    slope = np.polyfit(np.log([r for r, _ in keep]), np.log([e for _, e in keep]), 1)[0]
    print(f"  truncation at order {order}: log-log error slope = {slope:.2f} "
          f"(expected {order + 1})")

print("\nRotation classes of compositions")
print("-" * 60)
print("  beta(n, m): classes of compositions of n-1 into n parts with m zeros,")
print("  no two adjacent")
for n in (4, 6, 8):
    counts = {m: beta(n, m) for m in range(1, n // 2 + 1)}
    print(f"    n={n}: {counts}")

print("\nMotzkin numbers")
print("-" * 60)
print("  recurrence                 :", motzkin(10))
print("  class totals shifted by two:", [beta_total(n) for n in range(2, 13)])

print("\nThe majorant generating function on [0, 1/3]")
print("-" * 60)
print(f"  {'x':>6} {'phi(x)':>12} {'x^2/(1-2x)':>12}")
for x in (0.05, 0.15, 0.25, 0.30, 1 / 3):
    print(f"  {x:6.3f} {phi(x):12.8f} {x * x / (1 - 2 * x):12.8f}")
print("  phi never exceeds the rational bound.")
