import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mjpbounds import (
    ModelFile,
    Observable,
    center_observable,
    check_detailed_balance,
    invariant_distribution,
    is_irreducible,
    make_model,
    pi_expectation,
    probability_vector,
    read_model_file,
    save_model,
    transition_matrix,
    validate_q_matrix,
)
from mjpbounds.errors import (
    NegativeRateError,
    NonSquareError,
    NotIrreducibleError,
    RowSumViolationError,
    ValidationError,
)

from conftest import THREE_CYCLE_Q, random_irreducible_model
from oracles import strongly_connected


class TestValidateQMatrix:
    def test_valid_two_state(self):
        q = validate_q_matrix([[-1, 1], [2, -2]])
        np.testing.assert_allclose(q.rates, [[-1, 1], [2, -2]])
        np.testing.assert_allclose(q.exit_rates, [1, 2])

    def test_row_sum_violation_names_row(self):
        with pytest.raises(RowSumViolationError) as err:
            validate_q_matrix([[-1, 0.5], [2, -2]])
        assert err.value.x == 0

    def test_zero_matrix_valid_but_reducible(self):
        q = validate_q_matrix([[0, 0], [0, 0]])
        assert not is_irreducible(q)
        with pytest.raises(NotIrreducibleError):
            invariant_distribution(q)

    def test_negative_rate_names_entry(self):
        with pytest.raises(NegativeRateError) as err:
            validate_q_matrix([[-1, 1, 0], [0.5, -0.4, -0.1], [1, 0, -1]])
        assert (err.value.x, err.value.y) == (1, 2)

    def test_non_square_and_tiny(self):
        with pytest.raises(NonSquareError):
            validate_q_matrix([[-1, 1]])
        with pytest.raises(NonSquareError):
            validate_q_matrix([[0.0]])

    def test_diagonal_renormalized_from_offdiagonals(self):
        # rounding drift within tol is absorbed into the diagonal
        eps = 1e-14
        q = validate_q_matrix([[-1 - eps, 1], [2, -2 + eps]])
        assert q.rates[0, 0] == -q.rates[0, 1]
        assert q.rates[1, 1] == -q.rates[1, 0]


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
    """Boolean adjacency matrices on 2-16 states: a few random edges, and on
    half the draws a directed ring that may lose one edge, which leaves a
    graph one edge short of strongly connected unless another edge mends it."""
    n = draw(st.integers(min_value=2, max_value=16))
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


class TestInvariantDistribution:
    def test_two_state_hand_solution(self):
        # oracle: pi0*(-1) + pi1*2 = 0 and pi0 + pi1 = 1 give (2/3, 1/3)
        pi = invariant_distribution(validate_q_matrix([[-1, 1], [2, -2]]))
        np.testing.assert_allclose(pi.weights, [2 / 3, 1 / 3], atol=1e-15)

    def test_symmetric_rates_give_uniform(self):
        q = validate_q_matrix([[-3, 1, 2], [1, -1.5, 0.5], [2, 0.5, -2.5]])
        pi = invariant_distribution(q)
        np.testing.assert_allclose(pi.weights, np.full(3, 1 / 3), atol=1e-14)

    def test_cycle_uniform_with_direct_multiplication(self):
        q = validate_q_matrix([[-1, 1, 0], [0, -1, 1], [1, 0, -1]])
        pi = invariant_distribution(q)
        np.testing.assert_allclose(pi.weights, np.full(3, 1 / 3), atol=1e-14)
        assert np.max(np.abs(pi.weights @ q.rates)) <= 1e-12

    def test_residual_small_on_random_models(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = random_irreducible_model(rng)
            assert np.max(np.abs(m.pi.weights @ m.q.rates)) <= 1e-12
            assert m.pi.weights.min() > 0
            assert abs(m.pi.weights.sum() - 1) <= 1e-12


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
            np.testing.assert_allclose(row, three_cycle.pi.weights, atol=1e-9)

    def test_rows_sum_to_one(self, three_dense):
        for t in (0.1, 1.0, 7.5, 40.0):
            p = transition_matrix(three_dense.q, t)
            np.testing.assert_allclose(p.sum(axis=1), np.ones(3), atol=1e-10)
            assert p.min() >= 0.0

    def test_stationarity_of_pi(self, three_dense):
        pi = three_dense.pi.weights
        for t in (0.25, 1.0, 4.0, 16.0):
            p = transition_matrix(three_dense.q, t)
            np.testing.assert_allclose(pi @ p, pi, atol=1e-10)

    def test_generator_is_derivative_at_zero(self, three_dense):
        h = 1e-6
        p = transition_matrix(three_dense.q, h)
        approx = (p - np.eye(3)) / h
        scale = np.max(np.abs(three_dense.q.rates))
        assert np.max(np.abs(approx - three_dense.q.rates)) <= 1e-4 * scale

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
                scipy_linalg.expm(t * three_dense.q.rates),
                atol=1e-12,
            )

    def test_negative_time_rejected(self, two_state):
        with pytest.raises(ValidationError):
            transition_matrix(two_state.q, -1.0)


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


class TestCenterObservable:
    def test_constant_maps_to_zero(self, two_state):
        f = center_observable(Observable(np.full(2, 3.7)), two_state.pi)
        np.testing.assert_allclose(f.values, 0.0, atol=1e-14)

    def test_already_centered_unchanged(self, two_state):
        f = center_observable(Observable(np.array([1.0, -2.0])), two_state.pi)
        np.testing.assert_allclose(f.values, [1.0, -2.0], atol=1e-14)

    def test_shift_example(self, two_state):
        f = center_observable(Observable(np.array([1.0, 0.0])), two_state.pi)
        np.testing.assert_allclose(f.values, [1 / 3, -2 / 3], atol=1e-14)

    def test_idempotent(self, three_dense):
        f1 = center_observable(Observable(np.array([5.0, -1.0, 2.0])), three_dense.pi)
        f2 = center_observable(f1, three_dense.pi)
        np.testing.assert_array_equal(f1.values, f2.values)
        assert abs(pi_expectation(three_dense.pi, f2)) <= 1e-14

    def test_birth_death_eight_is_a_fixed_point(self, tmp_path):
        # 8-state birth-death chain, up 1 and down 1.5, f = linspace(-1, 1, 8):
        # plain repeated subtraction ran to its cap of 100 here while f drifted
        n = 8
        rates = np.zeros((n, n))
        for x in range(n - 1):
            rates[x, x + 1], rates[x + 1, x] = 1.0, 1.5
        np.fill_diagonal(rates, -rates.sum(axis=1))
        m = make_model(rates, np.linspace(-1.0, 1.0, n))
        np.testing.assert_array_equal(center_observable(m.f, m.pi).values, m.f.values)
        path = str(tmp_path / "bd8.json")
        save_model(ModelFile(m, [f"s{i}" for i in range(n)], None), path)
        np.testing.assert_array_equal(read_model_file(path).model.f.values, m.f.values)


class TestProbabilityVector:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            probability_vector([0.5, 0.4])

    def test_flags_positivity(self):
        assert probability_vector([0.5, 0.5]).strictly_positive
        assert not probability_vector([1.0, 0.0]).strictly_positive


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
    assert np.max(np.abs(pi.weights @ q.rates)) <= 1e-12
    assert check_detailed_balance(q, pi, tol=1e-11)
