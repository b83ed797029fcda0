import math

import numpy as np
import pytest
from conftest import random_irreducible_model
from hypothesis import given, settings
from hypothesis import strategies as st

from mjpbounds import (
    BernsteinParams,
    Observable,
    analyze,
    bernstein_conjugate,
    chi2_prefactor,
    evaluate_family,
    lambda0,
    lambda0_star,
    make_model,
    probability_vector,
)
from mjpbounds.errors import NotCenteredError, ValidationError
from mjpbounds.tilting import R_CAP_FACTOR, _tilted_eigh

from oracles import (
    NonFiniteError,
    bernstein_conjugate_vform,
    cramer_transform_static,
    fenchel_conjugate,
    feynman_kac_norm,
    verify_info_representation,
)


class TestLambda0:
    def test_zero_tilt(self, two_state):
        a = analyze(two_state)
        assert lambda0(a.sd, two_state.f, 0.0) == 0.0

    def test_two_state_closed_form(self, two_state):
        # symmetrized coordinates matrix is [[-1, sqrt2], [sqrt2, -2]];
        # add r diag(f) and use the 2x2 trace/determinant eigenvalue formula
        a = analyze(two_state)
        r = 0.1
        m = np.array([[-1.0 + r, math.sqrt(2.0)], [math.sqrt(2.0), -2.0 - 2 * r]])
        tr, det = m.trace(), np.linalg.det(m)
        top = (tr + math.sqrt(tr * tr - 4 * det)) / 2.0
        assert lambda0(a.sd, two_state.f, r) == pytest.approx(
            top, abs=1e-13
        )

    def test_scale_invariance(self, three_cycle):
        a = analyze(three_cycle)
        s = 2.5
        scaled = Observable(s * three_cycle.f.values)
        for r in (0.05, 0.3, 1.1):
            lhs = lambda0(a.sd, scaled, r)
            rhs = lambda0(a.sd, three_cycle.f, s * r)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_convexity_on_random_pairs(self, three_dense):
        a = analyze(three_dense)
        rng = np.random.default_rng(2)
        lam = lambda r: lambda0(a.sd, three_dense.f, r)
        for _ in range(40):
            r1, r2 = rng.uniform(-3, 3, size=2)
            mid = lam((r1 + r2) / 2)
            assert mid <= (lam(r1) + lam(r2)) / 2 + 1e-10

    def test_nonnegative_everywhere(self, three_cycle):
        # Rayleigh quotient at the constant function gives lambda0(r) >= 0
        a = analyze(three_cycle)
        for r in np.linspace(-4, 4, 17):
            assert lambda0(a.sd, three_cycle.f, r) >= -1e-13


class TestFeynmanKacNorm:
    def test_identity_at_time_zero(self, two_state):
        assert feynman_kac_norm(
            two_state.q, two_state.pi, two_state.f, 0.7, 0.0
        ) == pytest.approx(1.0, abs=1e-12)

    def test_dominated_by_eigenvalue_bound(self, three_cycle):
        a = analyze(three_cycle)
        for r in (0.1, 0.4, 1.0):
            for t in (0.5, 2.0, 5.0):
                norm = feynman_kac_norm(three_cycle.q, three_cycle.pi, three_cycle.f, r, t)
                lam = lambda0(a.sd, three_cycle.f, r)
                assert norm <= math.exp(t * lam) * (1.0 + 1e-8)

    def test_exact_under_detailed_balance(self, two_state):
        a = analyze(two_state)
        for r in (0.05, 0.3, 0.8):
            for t in (0.5, 1.5, 4.0):
                norm = feynman_kac_norm(two_state.q, two_state.pi, two_state.f, r, t)
                lam = lambda0(a.sd, two_state.f, r)
                assert norm == pytest.approx(math.exp(t * lam), rel=1e-8)


class TestChi2Prefactor:
    def test_stationary_start_is_one(self, two_state):
        assert chi2_prefactor(two_state.pi, two_state.pi) == pytest.approx(1.0)

    def test_point_mass(self, two_state):
        delta0 = probability_vector([1.0, 0.0])
        expected = 1.0 / math.sqrt(two_state.pi.weights[0])
        assert chi2_prefactor(delta0, two_state.pi) == pytest.approx(expected)

    def test_vertex_maximum(self, three_dense):
        pi = three_dense.pi
        worst = 1.0 / math.sqrt(pi.weights.min())
        vertex_values = []
        for x in range(3):
            w = np.zeros(3)
            w[x] = 1.0
            vertex_values.append(chi2_prefactor(probability_vector(w), pi))
        assert max(vertex_values) == pytest.approx(worst)
        # interior points are never worse than the worst vertex
        rng = np.random.default_rng(6)
        for _ in range(50):
            w = rng.dirichlet(np.ones(3))
            assert chi2_prefactor(probability_vector(w), pi) <= worst + 1e-12


class TestFenchelConjugate:
    def test_zero_threshold(self):
        res = fenchel_conjugate(lambda r: r * r, 0.0)
        assert res.value == 0.0
        assert res.argmax_r == pytest.approx(0.0, abs=1e-8)

    def test_gaussian_conjugate(self):
        res = fenchel_conjugate(lambda r: r * r / 2.0, 1.0)
        assert res.value == pytest.approx(0.5, abs=1e-9)
        assert res.argmax_r == pytest.approx(1.0, abs=1e-6)

    def test_matches_dense_grid_for_eigen_rate(self, two_state):
        a = analyze(two_state)
        u = 0.5
        lam = lambda r: lambda0(a.sd, two_state.f, r)
        res = fenchel_conjugate(lam, u)
        rs = np.arange(0.0, 2.0, 1e-5)
        grid_best = max(r * u - lam(r) for r in rs)
        assert res.value == pytest.approx(grid_best, abs=1e-7)

    def test_nan_objective_rejected(self):
        with pytest.raises(NonFiniteError):
            fenchel_conjugate(lambda r: float("nan"), 0.5)

    def test_biconjugation_recovers_subgamma(self):
        v, c = 1.3, 0.45
        bp = BernsteinParams(v=v, c=c)

        def conj(u):
            return bernstein_conjugate(bp, u)

        for r in (0.1, 0.5, 1.0, 1.9):
            # G**(r) = sup_u (ru - G*(u)) over u >= 0
            res = fenchel_conjugate(lambda u: conj(u), r, tol=1e-12)
            expected = r * r * v / (2.0 * (1.0 - r * c))
            assert res.value == pytest.approx(expected, abs=1e-6)


class TestBernsteinConjugate:
    def test_zero(self):
        assert bernstein_conjugate(BernsteinParams(1.0, 1.0), 0.0) == 0.0

    @pytest.mark.parametrize("u", [math.inf, math.nan, -0.1])
    def test_infinite_nan_or_negative_threshold_rejected(self, u):
        # at u = inf the closed form is inf / inf = nan, not a rate
        with pytest.raises(ValidationError):
            bernstein_conjugate(BernsteinParams(1.0, 0.5), u)

    def test_gaussian_limit(self):
        assert bernstein_conjugate(BernsteinParams(1.0, 0.0), 1.0) == pytest.approx(0.5)

    def test_unit_parameters_match_surd(self):
        # numeric maximization oracle gives 2 - sqrt(3)
        val = bernstein_conjugate(BernsteinParams(1.0, 1.0), 1.0)
        assert val == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-12)
        res = fenchel_conjugate(
            lambda r: r * r / (2.0 * (1.0 - r)), 1.0, r_max=1.0, tol=1e-12
        )
        assert val == pytest.approx(res.value, abs=1e-9)

    def test_both_closed_forms_agree(self):
        for v in (0.5, 1.0, 2.0):
            for c in (0.5, 1.0, 2.0):
                for u in (0.5, 1.0, 2.0):
                    bp = BernsteinParams(v, c)
                    assert bernstein_conjugate(bp, u) == pytest.approx(
                        bernstein_conjugate_vform(bp, u), abs=1e-12
                    )


class TestLambda0Star:
    def test_zero_threshold(self, two_state):
        a = analyze(two_state)
        res = lambda0_star(a.sd, two_state.f, 0.0)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_infinite_beyond_max(self, two_state):
        a = analyze(two_state)
        res = lambda0_star(a.sd, two_state.f, 1.5)
        assert math.isinf(res.value)
        assert res.argmax_r is None

    def test_boundary_at_max_f_is_finite(self, two_state):
        a = analyze(two_state)
        res = lambda0_star(a.sd, two_state.f, 1.0)
        # feasible only at g = e_x/sqrt(pi_x) for the maximizing state, where
        # the quadratic form equals the exit rate q_x = 1
        assert res.boundary
        assert res.value == pytest.approx(1.0, abs=1e-3)

    def test_monotone_on_upper_range(self, three_cycle):
        a = analyze(three_cycle)
        fmax = three_cycle.f.values.max()
        us = np.linspace(0.0, 0.98 * fmax, 15)
        vals = [lambda0_star(a.sd, three_cycle.f, u).value for u in us]
        assert all(b >= a_ - 1e-12 for a_, b in zip(vals, vals[1:]))

    def test_constant_observable(self):
        # centered, f = 0: lambda0 = 0 for every tilt, so the conjugate is 0
        # at u = 0 and infinite above
        model = make_model([[-1.0, 1.0], [2.0, -2.0]], [1.0, 1.0])
        a = analyze(model)
        res = lambda0_star(a.sd, model.f, 0.0)
        assert (res.value, res.argmax_r, res.boundary) == (0.0, 0.0, False)
        assert math.isinf(lambda0_star(a.sd, model.f, 0.5).value)
        assert evaluate_family(model, 1.0, 0.0, "general", analysis=a).rate == 0.0

    def test_constant_observable_at_tiny_thresholds(self):
        # every u > 0 is out of reach of f = 0, also below the rounding
        # allowance of max f, and no Newton step divides by ||f|| = 0
        model = make_model([[-1.7, 1.7], [2.0, -2.0]], [1.0, 1.0])
        a = analyze(model)
        res = lambda0_star(a.sd, model.f, [0.0, 5e-324, 1e-300, 0.5])
        assert [r.value for r in res] == [0.0, math.inf, math.inf, math.inf]
        assert math.isinf(lambda0_star(a.sd, model.f, 1e-300).value)

    def test_uncentered_observable_refused(self, two_state):
        # lambda_0''(0) is sigma_hat_sq's -2 <Sf, f>, which needs pi(f) = 0;
        # pi = (2/3, 1/3) gives this f the mean 1/3
        sd = analyze(two_state).sd
        with pytest.raises(NotCenteredError):
            lambda0_star(sd, Observable(np.array([1.0, -1.0])), 0.3)

    @pytest.mark.parametrize("u", [-0.1, math.nan])
    def test_negative_or_nan_threshold_rejected(self, two_state, u):
        a = analyze(two_state)
        with pytest.raises(ValidationError, match="nonnegative"):
            lambda0_star(a.sd, two_state.f, u)
        with pytest.raises(ValidationError, match="u >= 0"):
            bernstein_conjugate(BernsteinParams(v=1.0, c=1.0), u)


class TestBatchedConjugate:
    """``lambda0_star`` on a grid: safeguarded Newton on one stacked eigensolve
    per step, checked against golden-section search on ``lambda0``."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 8),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(0.0, 0.99), min_size=1, max_size=5),
    )
    def test_matches_golden_section_oracle(self, n, seed, fractions):
        model = random_irreducible_model(np.random.default_rng(seed), n)
        sd, f = analyze(model).sd, model.f
        cap = R_CAP_FACTOR * (1.0 + 1.0 / f.sup_norm)
        grid = np.array(fractions) * f.values.max()
        for res in lambda0_star(sd, f, grid):
            oracle = fenchel_conjugate(lambda r: lambda0(sd, f, r), res.u, r_max=cap)
            # r u and lambda0(r) cancel in the rate, so rounding is relative
            # to the size of the tilted matrix, ||B + r diag f||_2
            norm = np.abs(np.linalg.eigvalsh(sd.sym_coords + res.argmax_r * np.diag(f.values)))
            scale = max(abs(oracle.value), float(norm.max()))
            assert res.value == pytest.approx(oracle.value, rel=1e-12, abs=1e-12 * scale)
            assert res.value >= oracle.value - 1e-12 * scale
            assert not res.boundary

    def test_grid_entry_is_the_scalar_result_bit_for_bit(self, three_dense):
        sd, f = analyze(three_dense).sd, three_dense.f
        fmax = float(f.values.max())
        grid = [0.3, 0.0, fmax, 1e-3, 0.3, 2.0 * fmax, 0.9 * fmax, 0.5]
        results = lambda0_star(sd, f, grid)
        assert results == [lambda0_star(sd, f, u) for u in grid]
        assert results == lambda0_star(sd, f, np.array(grid))
        zero, at_max, beyond = results[1], results[2], results[5]
        assert (zero.value, zero.argmax_r, zero.boundary) == (0.0, 0.0, False)
        assert at_max.boundary and at_max.finite
        assert (beyond.value, beyond.argmax_r) == (math.inf, None)

    def test_argmax_solves_the_slope_equation(self, three_cycle, three_dense):
        # lambda0'(r*) = u, by a central difference of lambda0, which the
        # solver does not call
        h = 1e-5
        for model in (three_cycle, three_dense):
            sd, f = analyze(model).sd, model.f
            grid = np.linspace(0.05, 0.9, 6) * f.values.max()
            for res in lambda0_star(sd, f, grid):
                r = res.argmax_r
                slope = (lambda0(sd, f, r + h) - lambda0(sd, f, r - h)) / (2.0 * h)
                assert slope == pytest.approx(res.u, abs=1e-9)

    def test_newton_derivatives_match_finite_differences(self, three_cycle, three_dense):
        # Hellmann-Feynman slope against lambda0's central difference, Kato
        # curvature against the slope's
        h = 1e-5
        for model in (three_cycle, three_dense):
            sd, f = analyze(model).sd, model.f
            r = np.array([0.1, 0.7, 2.0])
            top, slope, curvature, _ = _tilted_eigh(sd, f.values, r)
            lam = [lambda0(sd, f, x) for x in r]
            np.testing.assert_allclose(top, lam, rtol=0.0, atol=1e-13)
            fd_slope = [(lambda0(sd, f, x + h) - lambda0(sd, f, x - h)) / (2 * h) for x in r]
            np.testing.assert_allclose(slope, fd_slope, rtol=0.0, atol=1e-9)
            up, down = (_tilted_eigh(sd, f.values, r + s)[1] for s in (h, -h))
            fd_curv = (up - down) / (2 * h)
            np.testing.assert_allclose(curvature, fd_curv, rtol=1e-7)

    def test_weyl_slack_is_the_eigensolver_bound_at_the_argmax(self, three_dense):
        sd, f = analyze(three_dense).sd, three_dense.f
        res = lambda0_star(sd, f, 0.4)
        norm = np.abs(np.linalg.eigvalsh(sd.sym_coords + res.argmax_r * np.diag(f.values)))
        expected = 8.0 * 3 * np.finfo(float).eps * norm.max()
        assert res.weyl_slack == pytest.approx(expected, rel=1e-12)
        assert lambda0_star(sd, f, 0.0).weyl_slack == 0.0

    def test_grid_of_more_than_one_dimension_or_a_negative_entry_rejected(self, two_state):
        sd = analyze(two_state).sd
        with pytest.raises(ValidationError, match="1-D"):
            lambda0_star(sd, two_state.f, [[0.1, 0.2]])
        with pytest.raises(ValidationError, match="nonnegative"):
            lambda0_star(sd, two_state.f, [0.1, -0.2])


class TestVariationalOracle:
    def test_max_f_single_feasible_point(self, two_state):
        # at u = max f the slice is the point mass on the argmax state, whose
        # information is that state's exit rate
        rep = verify_info_representation(two_state, 1.0)
        x_star = int(np.argmax(two_state.f.values))
        np.testing.assert_allclose(rep.argmin_beta, np.eye(2)[x_star], atol=1e-12)
        assert rep.info_infimum == pytest.approx(
            two_state.q.exit_rates[x_star], abs=1e-10
        )


class TestCramerStatic:
    def test_zero(self, two_state):
        assert cramer_transform_static(two_state.pi, two_state.f, 0.0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_infinite_beyond_max(self, two_state):
        assert math.isinf(cramer_transform_static(two_state.pi, two_state.f, 2.0))

    def test_two_point_grid_oracle(self):
        pi = probability_vector([0.5, 0.5])
        f = Observable(np.array([1.0, -1.0]))
        u = 0.5
        val = cramer_transform_static(pi, f, u)
        rs = np.arange(0.0, 5.0, 1e-5)
        grid = max(r * u - math.log(0.5 * math.exp(r) + 0.5 * math.exp(-r)) for r in rs)
        assert val == pytest.approx(grid, abs=1e-7)


def test_mgf_dominated_by_eigen_bound(two_state):
    """log E_nu e^{r A_t} <= log prefactor + t lambda0(r) up to MC error."""
    from mjpbounds import time_averages

    a = analyze(two_state)
    t, r, n = 2.0, 0.4, 40000
    avg = time_averages(two_state, t, n, seed=123)
    samples = np.exp(r * t * avg)
    est = float(np.mean(samples))
    sigma = float(np.std(samples, ddof=1)) / math.sqrt(n)
    lam = lambda0(a.sd, two_state.f, r)
    bound = chi2_prefactor(two_state.nu, two_state.pi) * math.exp(t * lam)
    assert est <= bound + 3.0 * sigma
