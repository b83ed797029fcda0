import dataclasses
import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mjpbounds import (
    SpectralData,
    adjoint_generator,
    analyze,
    center_observable,
    check_f_sobolev,
    evaluate_family,
    invariant_distribution,
    lambda0,
    lambda0_coefficients,
    lambda0_star,
    make_model,
    probability_vector,
    pi_inner,
    pi_variance,
    resolvent_power,
    sigma_hat_sq,
    spectral_decomposition,
    symmetrized_generator,
    validate_q_matrix,
)
from mjpbounds.bounds import _ascend_violation
from mjpbounds.errors import DegenerateGapError, NotCenteredError, NumericalError
from mjpbounds.spectral import _complement_basis, sym_coords

from conftest import THREE_CYCLE_F, THREE_CYCLE_Q, random_irreducible_model


class TestAdjointGenerator:
    def test_selfadjoint_under_detailed_balance(self, two_state):
        adj = adjoint_generator(two_state.q, two_state.pi)
        np.testing.assert_allclose(adj, two_state.q, atol=1e-12)

    def test_uniform_pi_gives_transpose(self, three_cycle):
        adj = adjoint_generator(three_cycle.q, three_cycle.pi)
        np.testing.assert_allclose(adj, three_cycle.q.T, atol=1e-12)

    def test_adjoint_row_sums_vanish(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = random_irreducible_model(rng)
            adj = adjoint_generator(m.q, m.pi)
            np.testing.assert_allclose(adj.sum(axis=1), 0.0, atol=1e-12)
            assert np.all(adj[~np.eye(m.n, dtype=bool)] >= -1e-15)

    def test_adjoint_reverses_inner_product(self, three_dense):
        rng = np.random.default_rng(5)
        adj = adjoint_generator(three_dense.q, three_dense.pi)
        for _ in range(5):
            g, h = rng.standard_normal((2, 3))
            lhs = pi_inner(three_dense.pi, three_dense.q @ g, h)
            rhs = pi_inner(three_dense.pi, g, adj @ h)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestPiInner:
    def test_normalization(self, two_state):
        ones = np.ones(2)
        assert pi_inner(two_state.pi, ones, ones) == pytest.approx(1.0)

    def test_centered_observable_orthogonal_to_constants(self, two_state):
        assert pi_inner(two_state.pi, two_state.f, np.ones(2)) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_hand_value(self, two_state):
        f = two_state.f
        assert pi_inner(two_state.pi, f, f) == pytest.approx(2.0, abs=1e-14)


class TestSpectralContract:
    """Eigenvalues descending, eigenvectors pi-orthonormal, and
    ``sym @ v_k = lambda_k v_k`` for the symmetrized generator ``sym``."""

    @staticmethod
    def _check_contract(m):
        sd = spectral_decomposition(m.q, m.pi)
        vals, vecs = sd.eigenvalues, sd.eigvecs
        assert np.all(np.diff(vals) <= 0.0)
        gram = vecs.T @ (vecs * m.pi[:, None])
        np.testing.assert_allclose(gram, np.eye(m.n), atol=1e-12)
        sym = symmetrized_generator(m.q, m.pi)
        np.testing.assert_allclose(sym @ vecs, vecs * vals, atol=1e-10)
        return sd

    def test_random_chains(self):
        rng = np.random.default_rng(11)
        for _ in range(24):
            self._check_contract(random_irreducible_model(rng))

    def test_repeated_eigenvalue(self):
        # unit rates between all five states: 0 once, then -5 four times
        n = 5
        m = make_model(np.ones((n, n)) - n * np.eye(n), np.arange(n, dtype=float))
        sd = self._check_contract(m)
        np.testing.assert_allclose(sd.eigenvalues, [0.0] + [-5.0] * 4, atol=1e-12)


class TestSpectralDecomposition:
    def test_two_state_trace_det_oracle(self, two_state):
        # trace(sym) = -3 and det(sym) = 0 force eigenvalues {0, -3}
        sd = spectral_decomposition(two_state.q, two_state.pi)
        np.testing.assert_allclose(sd.eigenvalues, [0.0, -3.0], atol=1e-12)
        assert sd.gap == pytest.approx(3.0, abs=1e-12)

    def test_kernel_vector_is_constant(self, three_dense):
        sd = spectral_decomposition(three_dense.q, three_dense.pi)
        np.testing.assert_allclose(sd.eigvecs[:, 0], 1.0, atol=1e-14)
        assert sd.eigenvalues[0] == 0.0

    def test_symmetric_rates_match_plain_eigenvalues(self):
        m = make_model([[-3, 1, 2], [1, -1.5, 0.5], [2, 0.5, -2.5]], [1, 0, -1])
        sd = spectral_decomposition(m.q, m.pi)
        ref = np.sort(np.linalg.eigvalsh(m.q))[::-1]
        np.testing.assert_allclose(sd.eigenvalues, ref, atol=1e-11)

    def test_pi_orthonormal_columns(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            m = random_irreducible_model(rng)
            sd = spectral_decomposition(m.q, m.pi)
            gram = np.array(
                [
                    [pi_inner(m.pi, sd.eigvecs[:, i], sd.eigvecs[:, j]) for j in range(m.n)]
                    for i in range(m.n)
                ]
            )
            np.testing.assert_allclose(gram, np.eye(m.n), atol=1e-10)
            assert np.all(sd.eigenvalues <= 1e-10)

    def test_sym_coords_is_the_stored_matrix(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            m = random_irreducible_model(rng)
            stored = analyze(m).sd.sym_coords
            np.testing.assert_array_equal(stored, sym_coords(m.q, m.pi))
            np.testing.assert_array_equal(stored, stored.T)

    def test_reducible_input_reported_as_degenerate(self):
        q = validate_q_matrix(
            [[-1, 1, 0, 0], [1, -1, 0, 0], [0, 0, -2, 2], [0, 0, 2, -2]]
        )
        pi = np.array([0.25, 0.25, 0.25, 0.25])
        with pytest.raises(DegenerateGapError):
            spectral_decomposition(q, pi)

    def test_overflowing_symmetrized_generator_raises(self):
        # pi = (1, 7e-311), so the (b, a) entry q_ba + pi_a q_ab / pi_b of
        # L + L* is 1e308 + 1e308, and overflows
        m = make_model([[-0.007, 0.007], [1e308, -1e308]], [1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflows"):
                analyze(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_eigenvalue_raises(self, monkeypatch, bad):
        eigh = np.linalg.eigh

        def spoiled(a):
            vals, vecs = eigh(a)
            vals[-1] = bad  # the top of the tail, which the gap test reads
            return vals, vecs

        m = make_model(THREE_CYCLE_Q, THREE_CYCLE_F)
        monkeypatch.setattr(np.linalg, "eigh", spoiled)
        with pytest.raises(NumericalError, match="not finite") as err:
            spectral_decomposition(m.q, m.pi)
        assert not isinstance(err.value, DegenerateGapError)


@st.composite
def chains_and_vectors(draw):
    """A random irreducible chain with n in 2..6, or the non-reversible
    three-cycle, and a vector of its size."""
    if draw(st.booleans()):
        m = make_model(THREE_CYCLE_Q, THREE_CYCLE_F)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        m = random_irreducible_model(rng, n=draw(st.integers(2, 6)))
    h = draw(st.lists(st.floats(-10.0, 10.0), min_size=m.n, max_size=m.n))
    return m, np.array(h)


@settings(max_examples=200, deadline=None)
@given(chains_and_vectors())
def test_sign_flips_never_lower_the_information(chain):
    # why the variational oracle scans only h >= 0: the off-diagonal entries
    # (pi_x q_xy + pi_y q_yx) / (2 sqrt(pi_x pi_y)) are nonnegative
    m, h = chain
    b = sym_coords(m.q, m.pi)
    assert np.all(b[~np.eye(m.n, dtype=bool)] >= 0.0)
    abs_h = np.abs(h)
    scale = abs_h @ np.abs(b) @ abs_h
    assert -abs_h @ b @ abs_h <= -h @ b @ h + 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_spectrum_gives_the_two_norm_and_the_complement_basis_is_orthonormal(n, seed):
    # B is negative semidefinite, so check_f_sobolev reads ||B||_2 as minus
    # its lowest eigenvalue; the deflation runs on the complement of sqrt(pi)
    m = random_irreducible_model(np.random.default_rng(seed), n)
    sd = spectral_decomposition(m.q, m.pi)
    assert -sd.eigenvalues[-1] == pytest.approx(np.linalg.norm(sd.sym_coords, 2), rel=1e-12)
    sqrt_pi = np.sqrt(m.pi)
    basis = _complement_basis(sqrt_pi)
    assert basis.shape == (n, n - 1)
    np.testing.assert_allclose(basis.T @ basis, np.eye(n - 1), rtol=0, atol=1e-14)
    np.testing.assert_allclose(sqrt_pi @ basis, 0.0, rtol=0, atol=1e-14)


class TestReducedResolvent:
    def test_two_state_closed_form(self, two_state):
        sd = spectral_decomposition(two_state.q, two_state.pi)
        expected = -(1.0 / 3.0) * (np.eye(2) - sd.projector0)
        np.testing.assert_allclose(sd.resolvent, expected, atol=1e-13)

    def test_inverse_on_complement_of_constants(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            m = random_irreducible_model(rng)
            sd = spectral_decomposition(m.q, m.pi)
            s = sd.resolvent
            sym = symmetrized_generator(m.q, m.pi)
            eye = np.eye(m.n)
            np.testing.assert_allclose(s @ sym, eye - sd.projector0, atol=1e-10)
            np.testing.assert_allclose(sym @ s, eye - sd.projector0, atol=1e-10)
            np.testing.assert_allclose(s @ np.ones(m.n), 0.0, atol=1e-12)

    def test_operator_norm_is_inverse_gap(self):
        rng = np.random.default_rng(29)
        for _ in range(8):
            m = random_irreducible_model(rng)
            sd = spectral_decomposition(m.q, m.pi)
            # pi-weighted norm via the similarity transform
            sq = np.sqrt(m.pi)
            s_coords = (sd.resolvent * sq[:, None]) / sq[None, :]
            norm = np.linalg.norm(s_coords, 2)
            assert norm == pytest.approx(1.0 / sd.gap, rel=1e-10)


class TestResolventPower:
    def test_power_zero_is_complement_projection(self, three_dense):
        sd = spectral_decomposition(three_dense.q, three_dense.pi)
        np.testing.assert_allclose(
            resolvent_power(sd, 0.0), np.eye(3) - sd.projector0, atol=1e-12
        )

    def test_power_one_is_minus_resolvent(self, three_dense):
        sd = spectral_decomposition(three_dense.q, three_dense.pi)
        np.testing.assert_array_equal(resolvent_power(sd, 1.0), -sd.resolvent)

    def test_half_powers_compose(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            m = random_irreducible_model(rng)
            sd = spectral_decomposition(m.q, m.pi)
            half = resolvent_power(sd, 0.5)
            np.testing.assert_allclose(half @ half, -sd.resolvent, atol=1e-10)

    def test_exponent_addition(self, three_dense):
        sd = spectral_decomposition(three_dense.q, three_dense.pi)
        lhs = resolvent_power(sd, 0.7) @ resolvent_power(sd, 1.3)
        np.testing.assert_allclose(lhs, resolvent_power(sd, 2.0), atol=1e-10)


class TestSigmaHat:
    def test_zero_observable(self, two_state):
        sd = spectral_decomposition(two_state.q, two_state.pi)
        f0 = np.zeros(2)
        assert sigma_hat_sq(sd, f0) == 0.0

    def test_two_state_hand_value(self, two_state):
        # S = -(1/3)(I - pr) and <f, f> = 2 give sigma^2 = (2/3)*2 = 4/3
        sd = spectral_decomposition(two_state.q, two_state.pi)
        assert sigma_hat_sq(sd, two_state.f) == pytest.approx(
            4.0 / 3.0, abs=1e-13
        )

    def test_not_centered_rejected(self, two_state):
        sd = spectral_decomposition(two_state.q, two_state.pi)
        with pytest.raises(NotCenteredError):
            sigma_hat_sq(sd, np.array([1.0, 1.0]))

    def test_large_centered_observable_accepted(self):
        rng = np.random.default_rng(1)
        q = rng.uniform(0.5, 2.0, (5, 5))
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        f = rng.uniform(-1.0, 1.0, 5)
        unit, large = make_model(q, f), make_model(q, 1e8 * f)
        sd = spectral_decomposition(unit.q, unit.pi)
        assert sigma_hat_sq(sd, large.f) == pytest.approx(
            1e16 * sigma_hat_sq(sd, unit.f), rel=1e-9
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_second_moment_raises(self, three_dense):
        # f = +-1e300 is finite and centered, but f^2 overflows, which would
        # give a NaN asymptotic variance and an infinite pi-variance
        m = make_model(three_dense.q, [1e300, -1e300, 0.0])
        sd = spectral_decomposition(m.q, m.pi)
        with pytest.raises(NumericalError, match="overflows"):
            sigma_hat_sq(sd, m.f)
        with pytest.raises(NumericalError, match="overflows"):
            pi_variance(m.pi, m.f)

    def test_dominated_by_poincare_variance(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            m = random_irreducible_model(rng)
            sd = spectral_decomposition(m.q, m.pi)
            s2 = sigma_hat_sq(sd, m.f)
            bound = 2.0 * pi_variance(m.pi, m.f) / sd.gap
            assert s2 <= bound + 1e-12


class TestQuadraticFormInvariants:
    def test_rayleigh_nonpositive(self):
        rng = np.random.default_rng(41)
        m = random_irreducible_model(rng, n=5)
        sym = symmetrized_generator(m.q, m.pi)
        for _ in range(200):
            g = rng.standard_normal(5)
            g /= np.sqrt(pi_inner(m.pi, g, g))
            assert pi_inner(m.pi, sym @ g, g) <= 1e-10

    def test_image_orthogonal_to_constants(self):
        rng = np.random.default_rng(43)
        m = random_irreducible_model(rng, n=4)
        sym = symmetrized_generator(m.q, m.pi)
        ones = np.ones(4)
        for _ in range(50):
            g = rng.standard_normal(4)
            assert abs(pi_inner(m.pi, ones, sym @ g)) <= 1e-10

    def test_poincare_with_gap_constant(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            m = random_irreducible_model(rng)
            sd = spectral_decomposition(m.q, m.pi)
            sym = symmetrized_generator(m.q, m.pi)
            for _ in range(20):
                g = rng.standard_normal(m.n)
                var = pi_variance(m.pi, g)
                dirichlet = -pi_inner(m.pi, sym @ g, g)
                assert var <= dirichlet / sd.gap + 1e-10

    def test_detailed_balance_spectrum_matches_generator(self, two_state):
        sd = spectral_decomposition(two_state.q, two_state.pi)
        ref = np.sort(np.linalg.eigvals(two_state.q).real)[::-1]
        np.testing.assert_allclose(sd.eigenvalues, ref, atol=1e-11)

    def test_symmetrized_generator_is_its_own_adjoint(self, three_dense):
        sym = symmetrized_generator(three_dense.q, three_dense.pi)
        adj_of_sym = adjoint_generator(
            validate_q_matrix(sym), three_dense.pi
        )
        np.testing.assert_allclose(sym, adj_of_sym, atol=1e-12)


def test_center_then_sigma_consistency(three_cycle):
    sd = spectral_decomposition(three_cycle.q, three_cycle.pi)
    f = center_observable(np.array([2.0, -1.0, 0.5]), three_cycle.pi)
    s2 = sigma_hat_sq(sd, f)
    assert s2 > 0


class TestSpectralDataOwnsPi:
    def test_functions_of_the_data_take_no_second_pi(self, three_dense):
        sd = spectral_decomposition(three_dense.q, three_dense.pi)
        f, pi = three_dense.f, three_dense.pi
        # the former call forms, with a separate pi, fail instead of binding
        # pi or a threshold to another parameter
        for call in (
            lambda: lambda0(sd, f, pi, 0.5),
            lambda: lambda0_star(sd, f, pi, 0.5),
            lambda: lambda0_coefficients(sd, f, pi, 4),
            lambda: sigma_hat_sq(sd, f, pi),
        ):
            with pytest.raises(TypeError):
                call()
        assert "sym" not in {field.name for field in dataclasses.fields(SpectralData)}

    @pytest.mark.parametrize(
        "fn, name",
        [
            (lambda0, "pi"), (lambda0_star, "pi"), (lambda0_coefficients, "pi"),
            (sigma_hat_sq, "pi"), (make_model, "tol"), (validate_q_matrix, "tol"),
            (invariant_distribution, "tol"), (probability_vector, "tol"),
            (lambda0_star, "tol"),
            (check_f_sobolev, "sweep"), (check_f_sobolev, "seed"),
            (_ascend_violation, "steps"), (_ascend_violation, "lr"),
            (check_f_sobolev, "n_restarts"),
            (evaluate_family, "F"), (evaluate_family, "assume_fsobolev"),
            (evaluate_family, "fsobolev_verdict"),
        ],
    )
    def test_removed_parameter_stays_removed(self, fn, name):
        assert name not in inspect.signature(fn).parameters
