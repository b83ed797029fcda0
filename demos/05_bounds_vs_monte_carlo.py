"""
Every bound family against Monte Carlo truth
============================================

For each threshold u and horizon t the library produces bounds

    P_nu(A_t / t >= u)  <=  min(1, prefactor * exp(-t * rate(u))),

with rates of increasing explicitness: the exact conjugate ("general"), the
two-branch perturbation-series rate, the variance-inequality rate
("poincare"), the sharpest closed form ("bernstein_general"), and a rate
from a log-Sobolev inequality, whose checked verdict hands its constant
to evaluate_family.  Empirical tail estimates over 10^5
trajectories must stay below every bound -- and do.  On reversible chains
the general bound is asymptotically sharp: its rate is approached by
-log(p_hat)/t as the horizon grows.
"""

import math

from mjpbounds import (
    analyze,
    bound_table,
    check_f_sobolev,
    evaluate_family,
    lambda0_star,
    make_model,
    stationary_model,
    tail_estimate,
    time_averages,
)

model = make_model([[-1.0, 1.0], [2.0, -2.0]], [1.0, -2.0])
a = analyze(model)
fmax = model.f.max()
# the log-Sobolev constant alpha is at least gap (1 - 2p) / log((1 - p)/p)
# with p = min pi (Diaconis & Saloff-Coste; exact on two states) and at most
# gap/2, and the inequality with constant c holds iff c <= alpha
p_min = model.pi.min()
alpha_lo = a.gap * (1 - 2 * p_min) / math.log((1 - p_min) / p_min)
print(f"log-Sobolev constant: alpha_lo = {alpha_lo:.5f}, gap/2 = {a.gap / 2:.5f}")
for c in (0.5, 1.5):
    print(f"  c = {c}: verdict = {check_f_sobolev(model, c).status}")
verdict = check_f_sobolev(model, 0.5)

families = ["general", "perturbation", "poincare", "bernstein_general", "fsobolev"]
n = 100000

print("\nDomination table (p_hat vs bounds, n = 1e5 trajectories)")
print("-" * 78)
header = f"{'t':>4} {'u':>5} {'p_hat':>9}" + "".join(f"{f[:10]:>11}" for f in families)
print(header)
for t in (1.0, 5.0, 20.0):
    avg = time_averages(model, t, n, seed=2718)
    for frac in (0.1, 0.3, 0.5):
        u = frac * fmax
        est = tail_estimate(avg, u, t)
        cells = []
        for fam in families:
            # the fsobolev family reads its F from the verdict; the others ignore it
            p = evaluate_family(model, t, u, fam, analysis=a, fsobolev=verdict)
            mark = " " if est.p_hat <= p.bound + 3 * est.ci_half_width else "!"
            cells.append(f"{p.bound:10.4f}{mark}")
        print(f"{t:4.0f} {u:5.2f} {est.p_hat:9.5f}" + "".join(cells))
print("every empirical frequency sits below every bound.")

print("\nAsymptotic sharpness on the reversible chain (stationary start)")
print("-" * 78)
stat = stationary_model(model)
u = 0.3 * fmax
rate = lambda0_star(a.sd, stat.f, u).value
print(f"bound rate at u = {u:.2f}: {rate:.5f}")
for t, n_t in ((5.0, 200000), (20.0, 200000), (80.0, 400000)):
    est = tail_estimate(time_averages(stat, t, n_t, seed=31415), u, t)
    emp_rate = -math.log(est.p_hat) / t
    print(
        f"  t = {t:4.0f}:  -log(p_hat)/t = {emp_rate:.5f}"
        f"   excess over bound rate = {emp_rate - rate:+.5f}"
    )
print("the excess shrinks toward zero: the general bound captures the true")
print("exponential decay rate.")

print("\nLower tails and two-sided bounds")
print("-" * 78)
# one table holds every (family, tail, u, t) cell; the lower tail is the
# upper tail of -f, and the two-sided bound adds both tails
tails = {"upper": "A_t/t >= 0.4", "lower": "A_t/t <= -0.4", "two": "|A_t/t| >= 0.4"}
table = bound_table(model, ["bernstein_general"], [0.4], 5.0, tails=tuple(tails), analysis=a)
for tail, event in tails.items():
    print(f"P({event}) bound: {table['bernstein_general', tail, 0.4, 5.0].bound:.5f}")
