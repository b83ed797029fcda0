"""Acceptance suite: every shipped guarantee checked at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The Monte Carlo criteria (7-9) take a couple of minutes; the
rest complete in seconds.
"""

import math
import time

import numpy as np
import pytest

from mjpbounds import (
    BernsteinParams,
    analyze,
    bernstein_conjugate,
    beta,
    beta_total,
    check_f_sobolev,
    empirical_variance_rate,
    evaluate_family,
    lambda0,
    lambda0_coefficients,
    lambda0_star,
    make_model,
    motzkin,
    phi,
    pi_inner,
    pi_variance,
    resolvent_power,
    stationary_model,
    symmetrized_generator,
    tail_estimate,
    time_averages,
    transition_matrix,
)
from mjpbounds.bounds import perturbation_branch_threshold
from mjpbounds.cli import main as cli_main

from conftest import random_irreducible_model
from oracles import (
    bernstein_conjugate_vform,
    class_census,
    fenchel_conjugate,
    feynman_kac_norm,
    general_bernstein_eigen_bound,
    motzkin_binomial,
    phi_series,
    verify_info_representation,
)


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def bd3():
    """Reversible 3-state birth-death chain (second reversible fixture)."""
    return make_model(
        [[-1.0, 1.0, 0.0], [0.5, -2.0, 1.5], [0.0, 2.0, -2.0]], [1.0, -0.5, 0.25]
    )


def test_criterion_1_conjugate_equals_variational(two_state, three_dense):
    start = time.time()
    worst = 0.0
    for m in (two_state, three_dense):
        fmax = float(m.f.max())
        for k in range(1, 21):
            u = k / 21.0 * fmax
            worst = max(worst, verify_info_representation(m, u).gap)
    elapsed = time.time() - start
    report(
        1,
        worst <= 1e-5 and elapsed < 1.0,
        f"max |conjugate - variational| = {worst:.2e} over 2x20 thresholds "
        f"({elapsed:.2f}s)",
    )


def test_criterion_2_feynman_kac_exactness(two_state, bd3, three_cycle):
    start = time.time()
    worst_rel = 0.0
    for m in (two_state, bd3):
        assert m.reversible
        a = analyze(m)
        for r in (0.05, 0.2, 0.5, 1.0):
            for t in (0.25, 1.0, 3.0):
                norm = feynman_kac_norm(m.q, m.pi, m.f, r, t)
                target = math.exp(t * lambda0(a.sd, m.f, r))
                worst_rel = max(worst_rel, abs(norm - target) / target)
    worst_slack = math.inf
    a = analyze(three_cycle)
    for r in (0.1, 0.4, 1.0):
        for t in (0.5, 2.0):
            norm = feynman_kac_norm(three_cycle.q, three_cycle.pi, three_cycle.f, r, t)
            bound = math.exp(t * lambda0(a.sd, three_cycle.f, r))
            worst_slack = min(worst_slack, bound * (1.0 + 1e-8) - norm)
    elapsed = time.time() - start
    report(
        2,
        worst_rel <= 1e-8 and worst_slack >= 0.0 and elapsed < 1.0,
        f"reversible rel err = {worst_rel:.2e}, 3-cycle slack = {worst_slack:.2e} "
        f"({elapsed:.2f}s)",
    )


def test_criterion_3_bernstein_closed_form():
    worst_opt = 0.0
    worst_forms = 0.0
    for v in (0.5, 1.0, 2.0):
        for c in (0.5, 1.0, 2.0):
            for u in (0.5, 1.0, 2.0):
                bp = BernsteinParams(v, c)
                closed = bernstein_conjugate(bp, u)
                numeric = fenchel_conjugate(
                    lambda r: r * r * v / (2.0 * (1.0 - r * c)),
                    u,
                    r_max=1.0 / c,
                    tol=1e-13,
                ).value
                worst_opt = max(worst_opt, abs(closed - numeric))
                worst_forms = max(
                    worst_forms, abs(closed - bernstein_conjugate_vform(bp, u))
                )
    report(
        3,
        worst_opt <= 1e-9 and worst_forms <= 1e-12,
        f"closed vs golden-section = {worst_opt:.2e}, "
        f"two closed forms = {worst_forms:.2e}",
    )


def test_criterion_4_perturbation_series(three_dense):
    start = time.time()
    a = analyze(three_dense)
    co = lambda0_coefficients(a.sd, three_dense.f, 8)
    first_ok = abs(co.coeffs[0]) <= 1e-10
    second_ok = abs(co.coeffs[1] - a.sigma_hat2 / 2.0) <= 1e-10
    scale = a.gap / (2.0 * a.f_sup)
    slopes = {}
    for order in (2, 4, 6, 8):
        part = lambda0_coefficients(a.sd, three_dense.f, order)
        rs = np.logspace(-2, -1, 16) * scale
        errs = np.array(
            [
                abs(lambda0(a.sd, three_dense.f, r) - part.partial_sum(r))
                for r in rs
            ]
        )
        keep = errs > 2e-14  # below this the eigenvalue is at rounding level
        slopes[order] = float(
            np.polyfit(np.log(rs[keep]), np.log(errs[keep]), 1)[0]
        )
    slopes_ok = all(abs(slopes[n] - (n + 1)) <= 0.3 for n in slopes)
    elapsed = time.time() - start
    report(
        4,
        first_ok and second_ok and slopes_ok and elapsed < 5.0,
        f"c1 = {co.coeffs[0]:.1e}, c2 - s2/2 = {co.coeffs[1] - a.sigma_hat2 / 2:.1e}, "
        f"slopes = { {n: round(s, 2) for n, s in slopes.items()} } ({elapsed:.1f}s)",
    )


def test_criterion_5_combinatorial_identities():
    ms = motzkin(20)
    motzkin_ok = all(beta_total(n + 2) == ms[n] for n in range(19)) and all(
        motzkin_binomial(n) == ms[n] for n in range(21)
    )
    census_ok = True
    for n in range(2, 13):
        census = class_census(n)
        for m in range(1, n // 2 + 1):
            if census.get(m, 0) != beta(n, m):
                census_ok = False
    series_worst = max(
        abs(phi(x) - phi_series(x)) for x in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
    )
    grid = np.linspace(0.0, 1.0 / 3.0, 1000)
    majorant_ok = all(
        phi(float(x)) <= x * x / (1.0 - 2.0 * x) + 1e-12 for x in grid
    )
    report(
        5,
        motzkin_ok and census_ok and series_worst <= 1e-8 and majorant_ok,
        f"shifted-motzkin exact, census n<=12 exact, |phi - series| = "
        f"{series_worst:.1e}, rational majorant holds",
    )


def test_criterion_6_eigenvalue_bound_chain():
    rng = np.random.default_rng(2026)
    worst_general = math.inf
    worst_majorant = math.inf
    for _ in range(20):
        m = random_irreducible_model(rng)
        a = analyze(m)
        lam = lambda r: lambda0(a.sd, m.f, r)
        for r in np.linspace(0.0, 0.99 * a.gap / a.fplus_sup, 12, endpoint=False):
            worst_general = min(
                worst_general, general_bernstein_eigen_bound(a, float(r)) - lam(float(r))
            )
        k = a.sigma_hat2 * a.gap**2 / (2.0 * a.f_sup**2)
        for r in np.linspace(0.0, a.gap / (3.0 * a.f_sup), 12):
            worst_majorant = min(
                worst_majorant, k * phi(float(r) * a.f_sup / a.gap) - lam(float(r))
            )
    report(
        6,
        worst_general >= -1e-10 and worst_majorant >= -1e-10,
        f"min slack: general-Bernstein form = {worst_general:.2e}, "
        f"series-majorant form = {worst_majorant:.2e} (20 random models, n in 2..6)",
    )


FAMILIES_WITH_F = ("general", "perturbation", "poincare", "bernstein_general", "fsobolev")


def test_criterion_7_monte_carlo_domination(two_state, three_cycle):
    start = time.time()
    n = 100000
    failures = []
    for m, c_log in ((two_state, 0.5), (three_cycle, 0.2)):
        a = analyze(m)
        fmax = float(m.f.max())
        verdict = check_f_sobolev(m, c_log)
        for t in (1.0, 5.0, 20.0):
            avg = time_averages(m, t, n, seed=701)
            for frac in (0.1, 0.3, 0.5):
                u = frac * fmax
                est = tail_estimate(avg, u, t)
                for fam in FAMILIES_WITH_F:
                    p = evaluate_family(m, t, u, fam, analysis=a, fsobolev=verdict)
                    if est.p_hat > p.bound + 3.0 * est.ci_half_width:
                        failures.append((fam, m.n, u, t, est.p_hat, p.bound))
    elapsed = time.time() - start
    report(
        7,
        not failures,
        f"p_hat <= bound + 3ci for 5 families x 2 fixtures x 9 cells at n=1e5 "
        f"({elapsed:.0f}s)" + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_8_asymptotic_sharpness_trend(two_state):
    start = time.time()
    m = stationary_model(two_state)
    a = analyze(m)
    u = 0.3 * float(m.f.max())
    rate = lambda0_star(a.sd, m.f, u).value
    horizons = (5.0, 20.0, 80.0)
    samples = (200000, 400000, 1000000)
    excesses, sigmas = [], []
    for t, n in zip(horizons, samples):
        est = tail_estimate(time_averages(m, t, n, seed=808), u, t)
        assert est.hits > 0
        se_p = math.sqrt(est.p_hat * (1.0 - est.p_hat) / n)
        excesses.append(-math.log(est.p_hat) / t - rate)
        sigmas.append(se_p / est.p_hat / t)
    steps_ok = []
    for i in range(len(horizons) - 1):
        combined = math.hypot(sigmas[i], sigmas[i + 1])
        decrease = excesses[i] - excesses[i + 1]
        steps_ok.append(decrease >= -1.0 * combined)
    elapsed = time.time() - start
    report(
        8,
        all(steps_ok) and all(e >= 0 for e in excesses),
        f"excess rate -log(p)/t - rate = "
        f"{[round(e, 4) for e in excesses]} nonincreasing over t={horizons} "
        f"({elapsed:.0f}s)",
    )


def test_criterion_9_clt_variance(two_state):
    start = time.time()
    a = analyze(two_state)
    n = 20000
    est = empirical_variance_rate(two_state, 200.0, n, seed=909)
    mc_sigma = a.sigma_hat2 * math.sqrt(2.0 / n)
    tol = 0.05 * a.sigma_hat2 + 3.0 * mc_sigma
    elapsed = time.time() - start
    report(
        9,
        abs(est - a.sigma_hat2) <= tol and elapsed < 60.0,
        f"empirical variance rate {est:.4f} vs asymptotic {a.sigma_hat2:.4f} "
        f"(tol {tol:.4f}, {elapsed:.0f}s)",
    )


def test_criterion_10_core_linear_algebra():
    rng = np.random.default_rng(1010)
    worst = {
        "pi_residual": 0.0,
        "stationarity": 0.0,
        "chapman": 0.0,
        "resolvent": 0.0,
        "half_power": 0.0,
        "rayleigh": -math.inf,
        "poincare": -math.inf,
    }
    for _ in range(50):
        m = random_irreducible_model(rng)
        a = analyze(m)
        sym = symmetrized_generator(m.q, m.pi)
        eye = np.eye(m.n)
        worst["pi_residual"] = max(
            worst["pi_residual"], float(np.max(np.abs(m.pi @ m.q)))
        )
        p1, p2 = transition_matrix(m.q, 0.7), transition_matrix(m.q, 1.6)
        worst["stationarity"] = max(
            worst["stationarity"],
            float(np.max(np.abs(m.pi @ p1 - m.pi))),
        )
        worst["chapman"] = max(
            worst["chapman"],
            float(np.max(np.abs(transition_matrix(m.q, 2.3) - p1 @ p2))),
        )
        worst["resolvent"] = max(
            worst["resolvent"],
            float(np.max(np.abs(a.sd.resolvent @ sym - (eye - a.sd.projector0)))),
        )
        half = resolvent_power(a.sd, 0.5)
        worst["half_power"] = max(
            worst["half_power"], float(np.max(np.abs(half @ half + a.sd.resolvent)))
        )
        for _ in range(5):
            g = rng.standard_normal(m.n)
            worst["rayleigh"] = max(
                worst["rayleigh"], pi_inner(m.pi, sym @ g, g) / pi_inner(m.pi, g, g)
            )
            var = pi_variance(m.pi, g)
            worst["poincare"] = max(
                worst["poincare"],
                var + pi_inner(m.pi, sym @ g, g) / a.sd.gap,
            )
    ok = (
        worst["pi_residual"] <= 1e-12
        and worst["stationarity"] <= 1e-10
        and worst["chapman"] <= 1e-10
        and worst["resolvent"] <= 1e-10
        and worst["half_power"] <= 1e-10
        and worst["rayleigh"] <= 1e-10
        and worst["poincare"] <= 1e-10
    )
    report(
        10,
        ok,
        "50 random models; worst residuals "
        + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()),
    )


def test_criterion_11_rate_ordering(two_state, three_cycle, three_dense, bd3):
    worst = math.inf
    for m in (two_state, three_cycle, three_dense, bd3):
        a = analyze(m)
        u_top = min(perturbation_branch_threshold(a), float(m.f.max()))
        for u in np.linspace(0.0, u_top, 25):
            bg, pert, poin = (
                evaluate_family(m, 1.0, float(u), fam, analysis=a)
                for fam in ("bernstein_general", "perturbation", "poincare")
            )
            bg, poin = bg.rate, poin.rate
            if pert.branch == "a":
                worst = min(worst, bg - pert.rate)
            worst = min(worst, bg - poin)
    report(
        11,
        worst >= -1e-12,
        f"min(bernstein_general - max(perturbation_a, poincare)) = {worst:.2e} "
        "on all fixtures",
    )


def test_criterion_12_compare_determinism(tmp_path, model_file):
    path = model_file(seed=1212)
    bodies = []
    for threads in ("1", "4"):
        out = tmp_path / f"det{threads}.csv"
        code = cli_main(
            [
                "compare", "--model", path, "--t", "1,5",
                "--u-grid", "0.1:0.5:5", "--samples", "50000",
                "--threads", threads, "--no-timestamp", "--out", str(out),
            ]
        )
        assert code == 0
        bodies.append(out.read_bytes())
    report(
        12,
        bodies[0] == bodies[1],
        "compare CSV bodies byte-identical for --threads 1 vs 4",
    )
