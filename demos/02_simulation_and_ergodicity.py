"""
Exact simulation and the ergodic theorem
========================================

Paths follow the jump-chain construction: exponential holding times with
the state's exit rate, jump targets drawn from the embedded chain.  The time
average of an observable along a path converges to its stationary
expectation; this script watches that happen on a few paths and checks the
spread of the path integrals against the model's asymptotic variance.
"""

import numpy as np

from mjpbounds import analyze, empirical_variance_rate, make_model, time_averages

model = make_model([[-1.0, 1.0], [2.0, -2.0]], [1.0, -2.0])

print("Time averages of f on five paths, horizon 10")
print("-" * 50)
avg = time_averages(model, 10.0, 5, seed=42)
print("A_10 / 10 :", np.round(avg, 5))

print("\nThe same seed replays the same paths, bit for bit")
print("-" * 50)
again = time_averages(model, 10.0, 5, seed=42)
print("identical:", avg.tobytes() == again.tobytes())

print("\nSample i draws from its own substream: more samples leave it alone")
print("-" * 50)
more = time_averages(model, 10.0, 1000, seed=42)
print("first five of 1000 identical:", more[:5].tobytes() == avg.tobytes())

print("\nErgodic convergence of the time average (pi(f) = 0)")
print("-" * 50)
horizons = (10.0, 100.0, 1000.0, 10000.0)
for horizon, row in zip(horizons, time_averages(model, horizons, 2000, seed=3)):
    print(
        f"t = {horizon:7.0f}:  mean = {row.mean():+.5f}   "
        f"spread (sd) = {row.std():.5f}"
    )

print("\nVariance rate Var(A_t) / t against sigma_hat^2 = -2 <Sf, f>")
print("-" * 50)
sigma_hat2 = analyze(model).sigma_hat2
for horizon in (1.0, 10.0, 100.0):
    est = empirical_variance_rate(model, horizon, 8000, seed=6)
    print(f"t = {horizon:5.0f}:  Var(A_t)/t = {est:.4f}   sigma_hat^2 = {sigma_hat2:.4f}")
print("the spread shrinks like 1/sqrt(t): that rate is the subject of the")
print("concentration bounds demonstrated in the later scripts.")
