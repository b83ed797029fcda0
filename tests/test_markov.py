import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mjpbounds
from mjpbounds import (
    MJPModel,
    ModelFile,
    center_observable,
    check_detailed_balance,
    flip_observable,
    invariant_distribution,
    is_irreducible,
    make_model,
    pi_expectation,
    probability_vector,
    read_model_file,
    save_model,
    stationary_model,
    transition_matrix,
    validate_q_matrix,
)
from mjpbounds.errors import (
    NegativeRateError,
    NonSquareError,
    NotCenteredError,
    NotIrreducibleError,
    RowSumViolationError,
    SingularSystemError,
    ValidationError,
    ZeroHorizonError,
)
from mjpbounds.markov import check_horizon

from conftest import THREE_CYCLE_Q, TWO_STATE_F, TWO_STATE_Q, random_irreducible_model
from oracles import strongly_connected


class TestValidateQMatrix:
    def test_valid_two_state(self):
        q = validate_q_matrix([[-1, 1], [2, -2]])
        np.testing.assert_allclose(q, [[-1, 1], [2, -2]])
        np.testing.assert_allclose(-np.diag(q), [1, 2])

    def test_row_sum_violation_names_row(self):
        with pytest.raises(RowSumViolationError) as err:
            validate_q_matrix([[-1, 0.5], [2, -2]])
        assert err.value.x == 0

    def test_row_sum_judged_by_its_own_row(self):
        # row 1 sums to -5e-5; a rate of 1e8 in row 0 does not excuse it
        with pytest.raises(RowSumViolationError) as err:
            validate_q_matrix([[-1e8, 1e8, 0], [0.5, -1.0, 0.49995], [1, 1, -2]])
        assert err.value.x == 1

    def test_row_sum_judged_below_scale_one(self):
        q = 1e-13 * np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
        validate_q_matrix(q)
        q[2, 2] += 5e-13
        with pytest.raises(RowSumViolationError) as err:
            validate_q_matrix(q)
        assert err.value.x == 2

    def test_absorbing_zero_row_accepted(self):
        q = validate_q_matrix([[-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [2.0, 1.0, -3.0]])
        np.testing.assert_array_equal(-np.diag(q), [1.0, 0.0, 3.0])

    def test_zero_matrix_valid_but_reducible(self):
        q = validate_q_matrix([[0, 0], [0, 0]])
        assert not is_irreducible(q)
        with pytest.raises(NotIrreducibleError):
            invariant_distribution(q)

    def test_negative_rate_names_entry(self):
        with pytest.raises(NegativeRateError) as err:
            validate_q_matrix([[-1, 1, 0], [0.5, -0.4, -0.1], [1, 0, -1]])
        assert (err.value.x, err.value.y) == (1, 2)

    def test_negative_rate_judged_by_its_own_row(self):
        # -5e-13 is as large as the row's positive rate, though above -1e-12
        with pytest.raises(NegativeRateError) as err:
            validate_q_matrix([[-1e-13, 1e-13, 0], [5e-13, 0, -5e-13], [1e-13, 1e-13, -2e-13]])
        assert (err.value.x, err.value.y) == (1, 2)

    def test_negative_drift_within_its_row_scale_clamped(self):
        q = validate_q_matrix([[-1, 1 + 1e-14, -1e-14], [1, -2, 1], [0, 1, -1]])
        np.testing.assert_array_equal(q[0], [-(1 + 1e-14), 1 + 1e-14, 0.0])
        assert not np.signbit(q[0, 2]) and not q.flags.writeable
        # below -1e-12, but within 1e-12 of its row's rate of 1e8
        q = validate_q_matrix([[-1e8, 1e8, -1e-5], [1, -2, 1], [1, 1, -2]])
        np.testing.assert_array_equal(q[0], [-1e8, 1e8, 0.0])

    def test_all_zero_row_accepted_with_negative_drift_elsewhere(self):
        q = validate_q_matrix([[-1, 1 + 1e-14, -1e-14], [0, 0, 0], [1, 1, -2]])
        np.testing.assert_array_equal(q[1], 0.0)

    def test_non_square_and_tiny(self):
        with pytest.raises(NonSquareError):
            validate_q_matrix([[-1, 1]])
        with pytest.raises(NonSquareError):
            validate_q_matrix([[0.0]])

    @pytest.mark.parametrize(
        "raw,error,message",
        [
            ([[-1, 1], [np.nan, -2]], ValidationError, "rate matrix has non-finite entries"),
            ([[-1, 1], [np.inf, -2]], ValidationError, "rate matrix has non-finite entries"),
            ([[-1, 1, 0], [0.5, -0.4, -0.1], [1, 0, -1]], NegativeRateError,
             "off-diagonal rate q[1,2] = -0.1 is negative"),
            ([[-1, 0.5], [2, -2]], RowSumViolationError,
             "row 0 of the rate matrix sums to -0.5, not 0"),
        ],
        ids=["nan", "inf", "negative_rate", "row_sum"],
    )
    def test_refusal_type_and_message(self, raw, error, message):
        with pytest.raises(ValidationError) as err:
            validate_q_matrix(raw)
        assert type(err.value) is error
        assert str(err.value) == message

    def test_diagonal_renormalized_from_offdiagonals(self):
        # rounding drift within tol is absorbed into the diagonal
        eps = 1e-14
        q = validate_q_matrix([[-1 - eps, 1], [2, -2 + eps]])
        assert q[0, 0] == -q[0, 1]
        assert q[1, 1] == -q[1, 0]


class TestIrreducibility:
    def test_two_state_positive_rates(self):
        assert is_irreducible(validate_q_matrix([[-1, 1], [2, -2]]))

    def test_absorbing_state(self):
        assert not is_irreducible(validate_q_matrix([[-1, 1], [0, 0]]))

    def test_directed_cycle(self):
        q = validate_q_matrix([[-1, 1, 0], [0, -1, 1], [1, 0, -1]])
        assert is_irreducible(q)

    def test_one_way_chain(self):
        q = validate_q_matrix([[-1, 1, 0], [0, -1, 1], [0, 0, 0]])
        assert not is_irreducible(q)


@st.composite
def sparse_graphs(draw):
    """Boolean adjacency matrices on 2-200 states: a few random edges, and on
    half the draws a directed ring that may lose one edge, which leaves a
    graph one edge short of strongly connected unless another edge mends it.
    Above 8, 64 and 128 states a packed row spans more than one byte or
    64-bit word."""
    n = draw(st.integers(min_value=2, max_value=200))
    adj = np.zeros((n, n), dtype=bool)
    if draw(st.booleans()):
        adj[np.arange(n), (np.arange(n) + 1) % n] = True
        if draw(st.booleans()):
            cut = draw(st.integers(min_value=0, max_value=n - 1))
            adj[cut, (cut + 1) % n] = False
    state = st.integers(min_value=0, max_value=n - 1)
    for x, y in draw(st.lists(st.tuples(state, state), max_size=n)):
        adj[x, y] = True
    np.fill_diagonal(adj, False)
    return adj


@settings(max_examples=300, deadline=None)
@given(sparse_graphs())
def test_irreducible_iff_depth_first_search_reaches_all(adj):
    rates = adj.astype(float)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    assert is_irreducible(validate_q_matrix(rates)) == strongly_connected(adj)


def _ring(n, cut=None):
    """Directed ring 0 -> 1 -> ... -> n-1 -> 0, without the edge out of ``cut``."""
    adj = np.zeros((n, n), dtype=bool)
    adj[np.arange(n), (np.arange(n) + 1) % n] = True
    if cut is not None:
        adj[cut, (cut + 1) % n] = False
    return adj


def _rates(adj):
    rates = adj.astype(float)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return rates


class TestIrreducibilityAtWordBoundaries:
    """Packed rows cross a byte at 8 states and a 64-bit word at 64 and 128."""

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    @pytest.mark.parametrize("cut", [None, 0, 7, 8, 62, -2, -1])
    def test_ring(self, n, cut):
        adj = _ring(n, None if cut is None else cut % n)
        expected = cut is None
        assert strongly_connected(adj) == expected
        assert is_irreducible(_rates(adj)) == expected

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    def test_hub_at_the_last_state(self, n):
        # every path runs through the last state, whose bit is the highest
        adj = np.zeros((n, n), dtype=bool)
        adj[:, -1] = adj[-1, :] = True
        adj[-1, -1] = False
        assert is_irreducible(_rates(adj))
        adj[-1, n // 2] = False  # state n // 2 is entered from nowhere
        assert not strongly_connected(adj)
        assert not is_irreducible(_rates(adj))

    def test_long_path(self):
        # a birth-death path of 2048 states, then the same path with one
        # edge cut, so that the states above it are never left
        n = 2048
        adj = np.zeros((n, n), dtype=bool)
        adj[np.arange(n - 1), np.arange(1, n)] = True
        adj[np.arange(1, n), np.arange(n - 1)] = True
        assert strongly_connected(adj)
        assert is_irreducible(adj.astype(float))
        adj[1500, 1499] = False
        assert not strongly_connected(adj)
        assert not is_irreducible(adj.astype(float))


class TestInvariantDistribution:
    def test_two_state_hand_solution(self):
        # oracle: pi0*(-1) + pi1*2 = 0 and pi0 + pi1 = 1 give (2/3, 1/3)
        pi = invariant_distribution(validate_q_matrix([[-1, 1], [2, -2]]))
        np.testing.assert_allclose(pi, [2 / 3, 1 / 3], atol=1e-15)

    def test_symmetric_rates_give_uniform(self):
        q = validate_q_matrix([[-3, 1, 2], [1, -1.5, 0.5], [2, 0.5, -2.5]])
        pi = invariant_distribution(q)
        np.testing.assert_allclose(pi, np.full(3, 1 / 3), atol=1e-14)

    def test_cycle_uniform_with_direct_multiplication(self):
        q = validate_q_matrix([[-1, 1, 0], [0, -1, 1], [1, 0, -1]])
        pi = invariant_distribution(q)
        np.testing.assert_allclose(pi, np.full(3, 1 / 3), atol=1e-14)
        assert np.max(np.abs(pi @ q)) <= 1e-12

    @pytest.mark.xfail(
        strict=True,
        raises=SingularSystemError,
        reason="ROADMAP item 1: the LU solve gives pi_0 = -2.2e-16 on this "
        "irreducible chain, whose rates span 1e-11 to 1e4",
    )
    def test_stiff_four_state_chain_loads(self):
        q = validate_q_matrix(
            [
                [-0.311206370787196, 0.3112063707754888, 0.0, 1.1707212110952575e-11],
                [0.0, -0.007404127873771833, 0.007404127873771833, 0.0],
                [0.0, 0.00021588757767620006, -1327.1300295663082, 1327.1298136787304],
                [7.766202937763276e-12, 11088.905654548644, 48.69430162978238,
                 -11137.599956178434],
            ]
        )
        pi = invariant_distribution(q)
        assert np.all(pi > 0)
        assert np.max(np.abs(pi @ q)) <= 1e-12

    def test_residual_small_on_random_models(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = random_irreducible_model(rng)
            assert np.max(np.abs(m.pi @ m.q)) <= 1e-12
            assert m.pi.min() > 0
            assert abs(m.pi.sum() - 1) <= 1e-12


class TestTransitionMatrix:
    def test_time_zero_is_identity(self, two_state):
        np.testing.assert_allclose(
            transition_matrix(two_state.q, 0.0), np.eye(2), atol=1e-15
        )

    def test_two_state_closed_form(self, two_state):
        # eigenvalues {0, -3}: p00(t) = 2/3 + (1/3) e^{-3t}
        p = transition_matrix(two_state.q, 1.0)
        assert p[0, 0] == pytest.approx(2 / 3 + math.exp(-3) / 3, abs=1e-12)
        assert p[0, 1] == pytest.approx(1 / 3 - math.exp(-3) / 3, abs=1e-12)

    def test_long_time_convergence_to_pi(self, three_cycle):
        p = transition_matrix(three_cycle.q, 1000.0)
        for row in p:
            np.testing.assert_allclose(row, three_cycle.pi, atol=1e-9)

    def test_rows_sum_to_one(self, three_dense):
        for t in (0.1, 1.0, 7.5, 40.0):
            p = transition_matrix(three_dense.q, t)
            np.testing.assert_allclose(p.sum(axis=1), np.ones(3), atol=1e-10)
            assert p.min() >= 0.0

    def test_stationarity_of_pi(self, three_dense):
        pi = three_dense.pi
        for t in (0.25, 1.0, 4.0, 16.0):
            p = transition_matrix(three_dense.q, t)
            np.testing.assert_allclose(pi @ p, pi, atol=1e-10)

    def test_generator_is_derivative_at_zero(self, three_dense):
        h = 1e-6
        p = transition_matrix(three_dense.q, h)
        approx = (p - np.eye(3)) / h
        scale = np.max(np.abs(three_dense.q))
        assert np.max(np.abs(approx - three_dense.q)) <= 1e-4 * scale

    def test_chapman_kolmogorov(self, three_cycle):
        for s, t in ((0.3, 0.9), (1.0, 2.0), (0.05, 5.0)):
            left = transition_matrix(three_cycle.q, s + t)
            right = transition_matrix(three_cycle.q, s) @ transition_matrix(
                three_cycle.q, t
            )
            np.testing.assert_allclose(left, right, atol=1e-10)

    def test_matches_scipy_expm(self, three_dense):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        for t in (0.5, 3.0, 25.0):
            np.testing.assert_allclose(
                transition_matrix(three_dense.q, t),
                scipy_linalg.expm(t * three_dense.q),
                atol=1e-12,
            )

    def test_negative_time_rejected(self, two_state):
        with pytest.raises(ValidationError):
            transition_matrix(two_state.q, -1.0)

    @pytest.mark.parametrize("chain", ["two_state", "rand8"])
    @pytest.mark.parametrize("t", [1e12, 1e15, 1e18, 1e20, 1e300, 1e308])
    def test_rows_reach_pi_at_large_time(self, two_state, chain, t):
        # without renormalizing, the two-state rows summed to 0.99994 at
        # t = 1e12, 0.943 at 1e15, 1.1e69 at 1e18 and inf at 1e20; 1e300 gave
        # the zero matrix and 1e308 an OverflowError
        model = two_state if chain == "two_state" else (
            random_irreducible_model(np.random.default_rng(8), n=8)
        )
        p = transition_matrix(model.q, t)
        assert np.max(np.abs(p - model.pi)) <= 1e-12

    def test_bits_kept_where_no_squaring_is_needed(self, three_dense):
        # at t ||Q||_inf <= 1 nothing is squared or renormalized: the value
        # is the series sum_k (tQ)^k / k! alone
        t = 0.25 / float(np.max(np.abs(three_dense.q).sum(axis=1)))
        a = t * three_dense.q
        e = np.eye(3) / math.factorial(16)
        for k in range(15, -1, -1):
            e = a @ e + np.eye(3) / math.factorial(k)
        np.testing.assert_array_equal(transition_matrix(three_dense.q, t), e)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, two_state, t):
        # NaN gave an all-NaN matrix, and inf an OverflowError from math.ceil
        with pytest.raises(ValidationError, match="time must be finite and nonnegative"):
            transition_matrix(two_state.q, t)


class TestCheckHorizon:
    """The one horizon rule, for time averages and for bounds: a horizon is
    finite and positive, since A_t/t is undefined at t = 0."""

    @pytest.mark.parametrize("t", [1e-300, 2.5])
    def test_finite_positive_accepted(self, t):
        check_horizon(t)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, -math.inf])
    def test_refusal_messages(self, t):
        with pytest.raises(ValidationError, match="^horizon must be finite and positive") as err:
            check_horizon(t)
        assert not isinstance(err.value, ZeroHorizonError)

    def test_zero_refused_for_time_averages(self):
        with pytest.raises(ZeroHorizonError, match="zero-length horizon"):
            check_horizon(0.0)
        check_horizon(5e-324)


class TestDetailedBalance:
    def test_two_state_always_reversible(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b = rng.uniform(0.1, 3.0, size=2)
            m = make_model([[-a, a], [b, -b]], [1.0, 0.0])
            assert check_detailed_balance(m.q, m.pi)

    def test_cycle_not_reversible(self, three_cycle):
        assert not check_detailed_balance(three_cycle.q, three_cycle.pi)

    @pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_verdict_does_not_depend_on_the_unit_of_time(self, scale):
        # tol is relative to the largest flow: a 3-cycle with tiny rates has
        # flows far below 1e-12, and a birth-death chain with large rates
        # leaves rounding far above it
        cycle = make_model(scale * np.array(THREE_CYCLE_Q), [1.0, 0.5, -1.5])
        assert not cycle.reversible
        assert not check_detailed_balance(cycle.q, cycle.pi)
        rates = np.diag([1.0] * 5, 1) + np.diag([1.5, 0.7, 2.0, 1.5, 3.0], -1)
        np.fill_diagonal(rates, -rates.sum(axis=1))
        bd = make_model(scale * rates, np.linspace(-1.0, 1.0, 6))
        assert bd.reversible
        assert check_detailed_balance(bd.q, bd.pi)

    def test_symmetric_rates_reversible(self):
        m = make_model([[-3, 1, 2], [1, -1.5, 0.5], [2, 0.5, -2.5]], [1, 2, 3])
        assert check_detailed_balance(m.q, m.pi)

    def test_flipped_observable_keeps_the_verdict(self, two_state, three_cycle):
        for m in (two_state, three_cycle):
            assert flip_observable(m).reversible == m.reversible


class TestCenterObservable:
    def test_constant_maps_to_zero(self, two_state):
        f = center_observable(np.full(2, 3.7), two_state.pi)
        np.testing.assert_allclose(f, 0.0, atol=1e-14)

    def test_already_centered_unchanged(self, two_state):
        f = center_observable(np.array([1.0, -2.0]), two_state.pi)
        np.testing.assert_allclose(f, [1.0, -2.0], atol=1e-14)

    def test_shift_example(self, two_state):
        f = center_observable(np.array([1.0, 0.0]), two_state.pi)
        np.testing.assert_allclose(f, [1 / 3, -2 / 3], atol=1e-14)

    def test_observable_whose_shift_overflows_refused(self):
        # f - pi(f) overflows to -inf in state 1, so centering stops with
        # pi(f) = 5.7e307; the model kept it and every command then read it
        with pytest.raises(NotCenteredError, match=r"pi\(f\) = 5\.666666666666666e\+307"):
            make_model(TWO_STATE_Q, [1.7e308, -1.7e308])

    def test_idempotent(self, three_dense):
        f1 = center_observable(np.array([5.0, -1.0, 2.0]), three_dense.pi)
        f2 = center_observable(f1, three_dense.pi)
        np.testing.assert_array_equal(f1, f2)
        assert abs(pi_expectation(three_dense.pi, f2)) <= 1e-14

    def test_random_models_are_fixed_points(self):
        # the 996th draw, n = 6, kept pi(f) at 9.38e-19 while f drifted under
        # a rule that also went on at an equal |pi(f)|
        rng = np.random.default_rng(0)
        for _ in range(1000):
            m = random_irreducible_model(rng)
            np.testing.assert_array_equal(center_observable(m.f, m.pi), m.f)

    def test_birth_death_eight_is_a_fixed_point(self, tmp_path):
        # 8-state birth-death chain, up 1 and down 1.5, f = linspace(-1, 1, 8):
        # plain repeated subtraction ran to its cap of 100 here while f drifted
        n = 8
        rates = np.zeros((n, n))
        for x in range(n - 1):
            rates[x, x + 1], rates[x + 1, x] = 1.0, 1.5
        np.fill_diagonal(rates, -rates.sum(axis=1))
        m = make_model(rates, np.linspace(-1.0, 1.0, n))
        np.testing.assert_array_equal(center_observable(m.f, m.pi), m.f)
        path = str(tmp_path / "bd8.json")
        save_model(ModelFile(m, [f"s{i}" for i in range(n)], None), path)
        np.testing.assert_array_equal(read_model_file(path).model.f, m.f)

    def test_state_of_tiny_weight_loads(self):
        # pi_c = 6.7e-11: a pass that moves f_c by one ulp lowered |pi(f)| by
        # 3.7e-27 from 3.7e-17, about 1e10 passes under a rule that went on
        # at any decrease.  A child process with a timeout, so that such a
        # loop fails this test instead of hanging the suite
        code = (
            "import numpy as np\n"
            "from mjpbounds import center_observable, make_model\n"
            "q = [[-2, 2, 0], [1, -1.000000000001, 1e-12], [0, 0.01, -0.01]]\n"
            "m = make_model(q, [1, -2, -0.5])\n"
            "again = center_observable(m.f, m.pi)\n"
            "assert again.tobytes() == m.f.tobytes()\n"
            "print(m.pi[2])\n"
        )
        src = str(Path(mjpbounds.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) == pytest.approx(6.667e-11, rel=1e-3)

    @pytest.mark.parametrize("scale", [1e-320, 1e-310, 1e300])
    def test_subnormal_and_huge_observables_are_fixed_points(self, three_dense, scale):
        # 0.9 * |pi(f)| rounds back up to |pi(f)| for a mean of a few
        # subnormal ulps; the loop stops there too
        f = center_observable(scale * np.array([5.0, -1.0, 2.0]), three_dense.pi)
        np.testing.assert_array_equal(center_observable(f, three_dense.pi), f)


class TestProbabilityVector:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            probability_vector([0.5, 0.4])


class TestModelTypesHoldOnlyArrays:
    def test_derived_flags_are_not_constructor_fields(self, two_state):
        m = two_state
        with pytest.raises(TypeError):
            MJPModel(q=m.q, pi=m.pi, f=m.f, nu=m.nu, reversible=False)

    def test_model_arrays_are_read_only(self, two_state, model_file):
        # reversible and every analysis keep numbers derived from the arrays
        models = {
            "make_model": two_state,
            "read_model_file": read_model_file(model_file()).model,
            "flip_observable": flip_observable(two_state),
            "stationary_model": stationary_model(two_state),
        }
        for source, m in models.items():
            for field in ("q", "pi", "f", "nu"):
                a = getattr(m, field)
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 1.0
                assert a.dtype == np.float64, (source, field)

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_default_nu_is_the_point_mass_at_state_0(self, n):
        rates = np.ones((n, n))
        np.fill_diagonal(rates, 1.0 - n)
        nu = make_model(rates, np.arange(n, dtype=float)).nu
        assert nu.tobytes() == probability_vector(np.eye(n)[0]).tobytes()
        assert nu.dtype == np.float64 and nu.shape == (n,)
        assert not nu.flags.writeable

    def test_model_shares_no_array_with_its_caller(self):
        # this f is already centered, so centering returns its values as they are
        rates, f, nu = np.array(TWO_STATE_Q), np.array(TWO_STATE_F), np.array([0.5, 0.5])
        m = make_model(rates, f, nu)
        for given_, kept in ((rates, m.q), (f, m.f), (nu, m.nu)):
            assert given_.flags.writeable
            assert not np.shares_memory(given_, kept)
        f[0] = 5.0
        assert m.f[0] == 1.0
        g = np.array(TWO_STATE_F)
        assert not np.shares_memory(center_observable(g, m.pi), g)
        assert g.flags.writeable


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=12),
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=12),
)
def test_birth_death_invariant_solves_balance(up, down):
    """Any birth-death chain is irreducible and its pi solves pi^T Q = 0."""
    n = min(len(up), len(down)) + 1
    rates = np.zeros((n, n))
    for x in range(n - 1):
        rates[x, x + 1] = up[x]
        rates[x + 1, x] = down[x]
    np.fill_diagonal(rates, -rates.sum(axis=1))
    q = validate_q_matrix(rates)
    assert is_irreducible(q)
    pi = invariant_distribution(q)
    assert np.max(np.abs(pi @ q)) <= 1e-12
    assert check_detailed_balance(q, pi, tol=1e-11)
