import math

import numpy as np
import pytest

import mjpbounds
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
from mjpbounds import combinatorics
from mjpbounds.combinatorics import ORDER_CAP
from mjpbounds.errors import (
    DomainError,
    NumericalError,
    OrderTooLargeError,
    OutOfRangeError,
)

from conftest import random_irreducible_model
from oracles import (
    beta_second_form,
    class_census,
    enumerate_classes,
    motzkin_binomial,
    phi_series,
)


def trace_formula_coefficients(sd, f, order):
    """Oracle for ``lambda0_coefficients``: the trace formula over weak compositions.

    The n-th coefficient is ``(-1)^n / n`` times the sum of
    ``Tr(M_f S^(k_1) ... M_f S^(k_n))`` over compositions k_1+...+k_n = n-1,
    with S^(0) = -pr and S^(k) = S^k.  A DFS over the compositions shares
    prefix products; it costs C(2n-2, n-1) traces, so keep ``order`` small.
    """
    s_powers = [-sd.projector0, sd.resolvent]
    while len(s_powers) < order:
        s_powers.append(s_powers[-1] @ sd.resolvent)
    blocks = [np.diag(f) @ s for s in s_powers]

    def traces(slots, budget, prefix, out):
        if slots == 1:
            out.append(float(np.trace(prefix @ blocks[budget])))
            return
        for k in range(budget + 1):
            traces(slots - 1, budget - k, prefix @ blocks[k], out)

    coeffs = np.zeros(order)
    for n in range(1, order + 1):
        out: list[float] = []
        traces(n, n - 1, np.eye(sd.n), out)
        coeffs[n - 1] = ((-1.0) ** n / n) * math.fsum(out)
    return coeffs


class TestMotzkin:
    def test_first_values(self):
        assert motzkin(4) == [1, 1, 2, 4, 9]

    def test_recurrence_matches_binomial_sum(self):
        ms = motzkin(25)
        for n in range(26):
            assert ms[n] == motzkin_binomial(n)

    def test_values_beyond_64_bits_stay_exact(self):
        # m_100 overflows 64-bit integers; exactness is checked against the
        # independent binomial formula
        m100 = motzkin(100)[100]
        assert m100 == motzkin_binomial(100)
        assert m100 > 2**63


class TestBeta:
    def test_hand_enumerated_small_cases(self):
        # compositions of 2 into 3 parts with one isolated zero: only the
        # rotation class of (1, 1, 0)
        assert beta(3, 1) == 1
        assert beta(4, 1) == 1
        assert beta(4, 2) == 1

    def test_zero_convention_above_half(self):
        assert beta(5, 3) == 0
        assert beta(9, 5) == 0

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            beta(1, 1)
        with pytest.raises(OutOfRangeError):
            beta(4, 0)

    def test_shifted_motzkin_identity(self):
        ms = motzkin(20)
        for n in range(21):
            assert beta_total(n + 2) == ms[n]

    def test_matches_second_closed_form(self):
        for n in range(2, 61):
            for m in range(1, n // 2 + 1):
                assert beta(n, m) == beta_second_form(n, m), (n, m)


class TestEnumeration:
    def test_two_slots(self):
        assert enumerate_classes(2) == {(0, 1): 2}

    def test_census_matches_closed_form(self):
        for n in range(2, 11):
            census = class_census(n)
            for m in range(1, n // 2 + 1):
                assert census.get(m, 0) == beta(n, m), (n, m)
            assert sum(census.values()) == beta_total(n)

    def test_all_class_sizes_equal_n(self):
        # gcd(n, n-1) = 1, so no composition is fixed by a nontrivial rotation
        for n in range(2, 11):
            assert set(enumerate_classes(n).values()) == {n}


def test_oracles_are_not_in_the_library():
    # the checks above and the single-path simulator live in tests/oracles.py;
    # the library ships none.  Nor does it wrap the model's arrays: q, pi, f
    # and nu are plain arrays
    for name in (
        "enumerate_classes", "class_census", "CompositionClass",
        "motzkin_binomial", "phi_series", "ENUMERATION_CAP", "PHI_SERIES_TOL",
        "PHI_SERIES_CAP", "TooLargeError", "QMatrix", "ProbDist", "Observable",
        "sample_trajectory",
    ):
        for module in (mjpbounds, combinatorics, mjpbounds.errors, mjpbounds.markov,
                       mjpbounds.simulate):
            assert not hasattr(module, name), (module.__name__, name)


class TestPhi:
    def test_endpoints(self):
        assert phi(0.0) == 0.0
        assert phi(1.0 / 3.0) == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            phi(-0.01)
        with pytest.raises(DomainError):
            phi(0.34)

    def test_matches_series(self):
        for x in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
            assert phi(x) == pytest.approx(phi_series(x), abs=1e-12)

    def test_majorized_by_rational_bound(self):
        for x in np.linspace(0.0, 1.0 / 3.0, 1000):
            assert phi(x) <= x * x / (1.0 - 2.0 * x) + 1e-12 if x < 0.5 else True


class TestSeriesCoefficients:
    def test_first_coefficient_vanishes(self, two_state):
        a = analyze(two_state)
        co = lambda0_coefficients(a.sd, two_state.f, 4)
        assert abs(co.coeffs[0]) <= 1e-12

    def test_second_coefficient_is_half_variance(self, two_state, three_cycle):
        for m in (two_state, three_cycle):
            a = analyze(m)
            co = lambda0_coefficients(a.sd, m.f, 2)
            assert co.coeffs[1] == pytest.approx(a.sigma_hat2 / 2.0, abs=1e-12)

    def test_order_cap(self, two_state):
        a = analyze(two_state)
        with pytest.raises(OrderTooLargeError):
            lambda0_coefficients(a.sd, two_state.f, ORDER_CAP + 1)

    @pytest.mark.parametrize("name", ["two_state", "three_dense", "random6"])
    def test_recursion_matches_trace_formula(self, request, name):
        if name == "random6":
            model = random_irreducible_model(np.random.default_rng(106), 6)
        else:
            model = request.getfixturevalue(name)
        a = analyze(model)
        co = lambda0_coefficients(a.sd, model.f, 8)
        assert co.order == 8
        oracle = trace_formula_coefficients(a.sd, model.f, 8)
        assert np.max(np.abs(co.coeffs - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_overflow_raises(self):
        # gap 3e-6: the coefficients grow like (sup|f| / gap)^n and overflow at order 58
        slow = make_model(np.array([[-1.0, 1.0], [2.0, -2.0]]) * 1e-6, [1.0, 0.0])
        a = analyze(slow)
        with pytest.raises(NumericalError, match="coefficient 58 overflows"):
            lambda0_coefficients(a.sd, slow.f, ORDER_CAP)

    def test_partial_sum_overflow_raises(self, two_state):
        a = analyze(two_state)
        co = lambda0_coefficients(a.sd, two_state.f, ORDER_CAP)
        assert math.isfinite(co.partial_sum(0.1))
        with pytest.raises(NumericalError, match="partial sum at r = 100"):
            co.partial_sum(100.0)

    def test_finite_difference_oracle_low_orders(self, three_dense):
        """Coefficients 1-4 match Richardson-extrapolated derivatives of lambda0."""
        a = analyze(three_dense)
        co = lambda0_coefficients(a.sd, three_dense.f, 4).coeffs
        lam = lambda r: lambda0(a.sd, three_dense.f, r)
        h = 0.02 * a.gap / (2.0 * a.f_sup)

        def stencil(order, h):
            if order == 1:
                return (lam(h) - lam(-h)) / (2 * h)
            if order == 2:
                return (lam(h) - 2 * lam(0.0) + lam(-h)) / h**2 / 2.0
            return (
                (lam(-2 * h) - 4 * lam(-h) + 6 * lam(0.0) - 4 * lam(h) + lam(2 * h))
                / h**4
                / 24.0
            )

        for order in (1, 2, 4):
            coarse = stencil(order, h)
            fine = stencil(order, h / 2.0)
            p = 2  # central stencils are second-order accurate
            richardson = fine + (fine - coarse) / (2**p - 1)
            if order == 1:
                assert abs(richardson - co[0]) <= 1e-8
            else:
                assert richardson == pytest.approx(co[order - 1], rel=1e-6, abs=1e-9)

    def test_third_order_finite_difference(self, three_dense):
        a = analyze(three_dense)
        co = lambda0_coefficients(a.sd, three_dense.f, 3).coeffs
        lam = lambda r: lambda0(a.sd, three_dense.f, r)
        h = 0.02 * a.gap / (2.0 * a.f_sup)

        def third(h):
            return (lam(2 * h) - 2 * lam(h) + 2 * lam(-h) - lam(-2 * h)) / (2 * h**3)

        coarse, fine = third(h), third(h / 2.0)
        richardson = (fine + (fine - coarse) / 3.0) / 6.0
        assert richardson == pytest.approx(co[2], rel=1e-6, abs=1e-9)

    def test_coefficients_obey_class_count_bound(self, two_state):
        """|c_n| <= beta_n (||f||/gap)^n * (sigma^2 gap^2 / (2 ||f||^2))."""
        a = analyze(two_state)
        co = lambda0_coefficients(a.sd, two_state.f, 8).coeffs
        scale = a.sigma_hat2 * a.gap**2 / (2.0 * a.f_sup**2)
        for n in range(2, 9):
            cap = beta_total(n) * (a.f_sup / a.gap) ** n * scale
            assert abs(co[n - 1]) <= cap * (1.0 + 1e-10)

    def test_partial_sum_error_slopes(self, three_dense):
        a = analyze(three_dense)
        scale = a.gap / (2.0 * a.f_sup)
        for order in (2, 4, 6):
            co = lambda0_coefficients(a.sd, three_dense.f, order)
            rs = np.logspace(-2, -1, 12) * scale
            errs = np.array(
                [
                    abs(lambda0(a.sd, three_dense.f, r) - co.partial_sum(r))
                    for r in rs
                ]
            )
            keep = errs > 2e-14
            slope = np.polyfit(np.log(rs[keep]), np.log(errs[keep]), 1)[0]
            assert abs(slope - (order + 1)) <= 0.3
