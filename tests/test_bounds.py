import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mjpbounds import (
    BernsteinParams,
    analyze,
    FSobolevVerdict,
    bernstein_conjugate,
    bound_table,
    check_f_sobolev,
    evaluate_family,
    flip_observable,
    iid_sum_bound,
    lambda0,
    make_model,
    probability_vector,
    stationary_model,
    tail_estimate,
    time_averages,
)
from mjpbounds import bounds
from mjpbounds.bounds import ASCENT_STEPS, TAILS, perturbation_branch_threshold
from mjpbounds.cli import DEFAULT_FAMILIES
from mjpbounds.errors import FSobolevNotVerifiedError, NotCenteredError, ValidationError

from conftest import THREE_CYCLE_F, THREE_CYCLE_Q, TWO_STATE_Q, random_irreducible_model
from oracles import (
    bound_via_alpha,
    cramer_transform_static,
    donsker_varadhan_info,
    fenchel_conjugate,
    general_bernstein_eigen_bound,
    verify_info_representation,
)


class TestBoundGeneral:
    def test_trivial_at_zero_for_nonstationary_start(self, two_state):
        p = evaluate_family(two_state, 5.0, 0.0, "general")
        assert p.bound == 1.0
        assert p.prefactor > 1.0

    def test_exactly_one_for_stationary_start_at_zero(self, two_state):
        m = stationary_model(two_state)
        p = evaluate_family(m, 5.0, 0.0, "general")
        assert p.prefactor == pytest.approx(1.0, abs=1e-12)
        assert p.bound == pytest.approx(1.0, abs=1e-10)

    def test_zero_beyond_max_f(self, two_state):
        p = evaluate_family(two_state, 5.0, 1.5, "general")
        assert math.isinf(p.rate)
        assert p.bound == 0.0


@pytest.mark.parametrize("family", bounds.FAMILIES)
def test_constant_observable_is_exact_in_every_family(family):
    # f centers to 0, so A_t / t = 0 on every path: P(A_t / t >= u) is 1 at
    # u = 0 and 0 above; a negative u is refused, as for any f
    model = make_model(TWO_STATE_Q, [1.0, 1.0])
    verdict = FSobolevVerdict.assumed(model, 0.5)
    rates = [
        evaluate_family(model, 5.0, u, family, fsobolev=verdict).rate
        for u in (0.0, 0.3)
    ]
    assert rates == [0.0, math.inf]
    with pytest.raises(ValidationError, match="nonnegative, got -0.1; .*upper tail of -f") as exc:
        evaluate_family(model, 5.0, -0.1, family, fsobolev=verdict)
    assert "lower_tail" not in str(exc.value)


class TestBoundPerturbation:
    def test_zero_threshold_rate_zero_branch_a(self, two_state):
        p = evaluate_family(two_state, 1.0, 0.0, "perturbation")
        assert p.rate == 0.0
        assert p.branch == "a"

    def test_branch_a_is_subgamma_conjugate(self, three_cycle):
        a = analyze(three_cycle)
        bp = BernsteinParams(v=a.sigma_hat2, c=2.0 * a.f_sup / a.gap)
        for u in (0.05, 0.2, 0.5):
            p = evaluate_family(three_cycle, 1.0, u, "perturbation", analysis=a)
            assert p.branch == "a"
            assert p.rate == pytest.approx(bernstein_conjugate(bp, u), abs=1e-12)

    def test_continuity_at_branch_point(self, two_state, three_cycle):
        for m in (two_state, three_cycle):
            a = analyze(m)
            u_star = perturbation_branch_threshold(a)
            lo, hi = (
                evaluate_family(m, 1.0, u_star * s, "perturbation", analysis=a)
                for s in (1 - 1e-11, 1 + 1e-11)
            )
            assert {lo.branch, hi.branch} == {"a", "b"}
            assert abs(lo.rate - hi.rate) <= 1e-9


    def test_branch_threshold_refuses_constant_observable(self):
        # f centers to 0, so 2 sigma_hat^2 gap / ||f|| would divide by zero
        a = analyze(make_model(TWO_STATE_Q, [1.0, 1.0]))
        with pytest.raises(ValidationError, match="nonconstant"):
            perturbation_branch_threshold(a)


class TestBoundPoincare:
    def test_zero_threshold(self, two_state):
        assert evaluate_family(two_state, 1.0, 0.0, "poincare").rate == 0.0

    def test_rate_matches_golden_section_oracle(self, three_dense):
        a = analyze(three_dense)
        c = a.f_sup / a.gap
        for u in (0.1, 0.4, 0.8):
            p = evaluate_family(three_dense, 1.0, u, "poincare", analysis=a)
            res = fenchel_conjugate(
                lambda r: r * r * a.sigma_tilde2 / (2.0 * (1.0 - r * c)),
                u,
                r_max=1.0 / c,
                tol=1e-12,
            )
            assert p.rate == pytest.approx(res.value, abs=1e-9)


class TestBoundBernsteinGeneral:
    def test_zero_threshold(self, two_state):
        assert evaluate_family(two_state, 1.0, 0.0, "bernstein_general").rate == 0.0

    def test_sharpest_closed_form(self, two_state, three_cycle, three_dense):
        for m in (two_state, three_cycle, three_dense):
            a = analyze(m)
            u_star = perturbation_branch_threshold(a)
            fmax = m.f.max()
            for u in np.linspace(0.0, min(u_star, fmax), 12):
                bg, pert, poin = (
                    evaluate_family(m, 1.0, float(u), fam, analysis=a)
                    for fam in ("bernstein_general", "perturbation", "poincare")
                )
                bg, poin = bg.rate, poin.rate
                if pert.branch == "a":
                    assert bg >= pert.rate - 1e-12
                assert bg >= poin - 1e-12

    def test_eigenvalue_majorant_on_tilts(self, three_dense):
        a = analyze(three_dense)
        r_top = 0.99 * a.gap / a.fplus_sup
        for r in np.linspace(0.0, r_top, 25):
            lam = lambda0(a.sd, three_dense.f, float(r))
            assert lam <= general_bernstein_eigen_bound(a, float(r)) + 1e-10

    def test_dominated_by_general_rate(self, two_state):
        from mjpbounds import lambda0_star

        a = analyze(two_state)
        fmax = two_state.f.max()
        for u in np.linspace(0.0, 0.95 * fmax, 10):
            bg = evaluate_family(
                two_state, 1.0, float(u), "bernstein_general", analysis=a
            ).rate
            gen = lambda0_star(a.sd, two_state.f, float(u)).value
            assert gen >= bg - 1e-12


class TestFSobolev:
    def test_small_log_constant_holds_on_sweep(self, two_state):
        verdict = check_f_sobolev(two_state, 0.5)
        assert verdict.status == "holds"

    def test_huge_constant_violated_with_witness(self, two_state):
        c = 500.0
        verdict = check_f_sobolev(two_state, c)
        assert verdict.status == "violated"
        g = verdict.witness
        w = two_state.pi
        # the witness really violates the inequality
        lhs = float(w @ (g * g * (c * np.log(g * g))))
        rhs = -float(w @ (g * (two_state.q @ g)))
        assert lhs > rhs

    def test_halving_a_passing_function_still_passes(self, two_state):
        assert check_f_sobolev(two_state, 0.5).status == "holds"
        assert check_f_sobolev(two_state, 0.25).status == "holds"

    def test_three_state_search_inconclusive_for_modest_constant(self, three_dense):
        # 0.44 gap lies between the closed-form lower bound on alpha (0.433
        # gap, as pi is not uniform) and gap/2, where only the search speaks
        verdict = check_f_sobolev(three_dense, 1.3)
        assert verdict.status == "inconclusive"
        assert verdict.max_violation <= 1e-8 and verdict.witness is None

    def test_three_cycle_certified_below_the_closed_form(self, three_cycle):
        # uniform pi on 3 states: alpha >= gap (1/3) / log 2 = 0.7213
        verdict = check_f_sobolev(three_cycle, 0.2)
        assert verdict.status == "holds"
        assert math.isnan(verdict.max_violation) and verdict.witness is None
        assert check_f_sobolev(three_cycle, 0.74).status == "violated"

    def test_two_state_alpha_is_exact(self, two_state):
        # Thm A.1: alpha = gap (1 - 2p) / log((1 - p)/p) = 3 (1/3) / log 2
        assert check_f_sobolev(two_state, 1.44).status == "holds"
        verdict = check_f_sobolev(two_state, 1.45)
        assert verdict.status == "violated"
        assert float(bounds._violation(two_state, 1.45, verdict.witness)) > 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e200, 1e300])
    def test_huge_constant_violated_by_lemma_3_1(self, three_dense, c):
        # far above gap/2 = 1.4655 an ascent overflows to NaN, which reads
        # inconclusive; 1 + eps phi_1 is a finite witness, found with no search
        verdict = check_f_sobolev(three_dense, c)
        assert verdict.status == "violated"
        assert np.all(np.isfinite(verdict.witness))
        assert float(bounds._violation(three_dense, c, verdict.witness)) == verdict.max_violation

    def test_uniform_two_state_alpha_is_half_the_gap(self):
        m = make_model([[-2.0, 2.0], [2.0, -2.0]], [1.0, -1.0])
        assert analyze(m).gap == pytest.approx(4.0, rel=1e-15)
        assert check_f_sobolev(m, 2.0 * (1 - 1e-12)).status == "holds"
        assert check_f_sobolev(m, 2.0 * (1 + 1e-12)).status == "violated"

    def test_random_two_state_holds_exactly_below_alpha(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            a, b = rng.uniform(0.05, 5.0, size=2)
            m = make_model([[-a, a], [b, -b]], [1.0, -1.0])
            p = min(a, b) / (a + b)
            alpha = (a + b) * (1 - 2 * p) / math.log((1 - p) / p)
            for k in (0.5, 1 - 1e-12, 1 + 1e-12, 2.0):
                status = check_f_sobolev(m, k * alpha).status
                assert status == ("holds" if k < 1 else "violated"), (a, b, k)

    def test_gap_lost_to_rounding_certifies_nothing(self):
        # a path of 8 states, bulk rate 1e5 and 1e-11 on the middle edge:
        # the computed gap is below the Weyl slack of its eigensolve
        n, eps, b = 8, 1e-11, 1e5
        rates = np.zeros((n, n))
        for x in range(n - 1):
            rates[x, x + 1] = rates[x + 1, x] = eps if x == n // 2 - 1 else b
        np.fill_diagonal(rates, -rates.sum(axis=1))
        m = make_model(rates, np.linspace(-1.0, 1.0, n))
        gap = analyze(m).gap
        for k in (1e-3, 0.05, 0.3):
            assert check_f_sobolev(m, k * gap).status != "holds"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.floats(0.5, 1.0))
    def test_no_holds_contradicted_by_a_wider_search(self, n, seed, scale):
        m = random_irreducible_model(np.random.default_rng(seed), n)
        gap = analyze(m).gap
        p = float(m.pi.min())
        c = scale * gap * (1 - 2 * p) / math.log((1 - p) / p) if p < 0.5 else scale * gap / 2
        verdict = check_f_sobolev(m, c)
        if verdict.status != "holds":
            return
        g = np.random.default_rng(seed).standard_normal((n, 128))
        g = bounds._ascend_violation(m, c, g / np.sqrt(m.pi @ g**2))
        assert float(np.max(bounds._violation(m, c, g))) <= 1e-10

    def test_unverified_rejected_without_override(self, two_state):
        verdict = check_f_sobolev(two_state, 500.0)
        with pytest.raises(FSobolevNotVerifiedError):
            evaluate_family(two_state, 1.0, 0.3, "fsobolev", fsobolev=verdict)

    def test_log_case_reduces_to_static_cramer(self, two_state):
        c = 0.5
        verdict = check_f_sobolev(two_state, c)
        for u in (0.1, 0.3, 0.6):
            p = evaluate_family(two_state, 1.0, u, "fsobolev", fsobolev=verdict)
            target = c * cramer_transform_static(two_state.pi, two_state.f, u)
            assert p.rate == pytest.approx(target, abs=1e-8)

    def test_zero_threshold_rate_zero(self, two_state, three_dense):
        for m in (two_state, three_dense):
            verdict = FSobolevVerdict.assumed(m, 0.5)
            p = evaluate_family(m, 1.0, 0.0, "fsobolev", fsobolev=verdict)
            assert p.rate == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rate_at_max_f_is_minus_c_log_of_its_mass(self, two_state):
        # sup_r (r - c log(pi(e^{r f / c}))) is approached as r grows: -c log pi(f = 1)
        verdict = check_f_sobolev(two_state, 0.5)
        p = evaluate_family(two_state, 3.0, 1.0, "fsobolev", fsobolev=verdict)
        assert p.rate == pytest.approx(-0.5 * math.log(2 / 3), abs=1e-12)  # 0.2027

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rate_at_max_f_of_a_three_state_chain(self, three_dense):
        # the log-MGF is taken shifted by s max f, so no exp overflows as the
        # tilt grows, and the limit -c log pi(f = max f) comes out to rounding
        verdict = FSobolevVerdict.assumed(three_dense, 0.5)
        f = three_dense.f
        assert float(f.max()) == 1.3
        p = evaluate_family(three_dense, 2.0, 1.3, "fsobolev", fsobolev=verdict)
        mass = float(three_dense.pi[f == f.max()].sum())
        assert p.rate == pytest.approx(-0.5 * math.log(mass), rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rate_infinite_above_max_f(self):
        # c log pi(e^{r f / c}) <= r max f, so the rate is infinite above
        # max f, as the general family's is
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5):
            m = random_irreducible_model(rng, n)
        assert m.f.max() == pytest.approx(0.085, abs=1e-3)
        verdict = check_f_sobolev(m, 0.3)
        for u in (0.125, 0.25, 0.375, 0.5):
            p = evaluate_family(m, 3.0, u, "fsobolev", fsobolev=verdict)
            assert p.rate == math.inf and p.bound == 0.0
            assert p.diagnostics["argmax_r"] is None
            assert evaluate_family(m, 3.0, u, "general").rate == math.inf

    @pytest.mark.parametrize("c", [0.0, -0.5, math.nan, math.inf])
    def test_constant_must_be_positive_and_finite(self, two_state, c):
        with pytest.raises(ValidationError, match="positive and finite"):
            check_f_sobolev(two_state, c)
        with pytest.raises(ValidationError, match="positive and finite"):
            FSobolevVerdict.assumed(two_state, c)


class TestFSobolevAccuracy:
    """The fsobolev rate is c times the Cramer rate of f under pi, checked
    against golden-section search on the log-MGF and against the relative
    entropy of the tilted distribution at the maximizer."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 8),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.05, 0.3, 1.0, 4.0]),
        st.lists(st.floats(0.001, 0.99), min_size=1, max_size=5),
    )
    def test_c_times_static_cramer_and_relative_entropy(self, n, seed, c, fractions):
        model = random_irreducible_model(np.random.default_rng(seed), n)
        verdict = FSobolevVerdict.assumed(model, c)
        grid = np.array(fractions) * model.f.max()
        w = model.pi
        for p in evaluate_family(model, 1.0, grid, "fsobolev", fsobolev=verdict):
            # abs=0: the rates at small u are far below approx's default 1e-12
            cramer = cramer_transform_static(model.pi, model.f, p.u)
            assert p.rate == pytest.approx(c * cramer, rel=1e-10, abs=0)
            # at s* = r*/c the tilted mean is u, and KL(pi_s* || pi) is the
            # Cramer rate s* u - log pi(e^{s* f}); with l = log d pi_s*/d pi
            # and h = e^l - 1 it is pi((1 + h) l - h), a sum of terms >= 0
            s = p.diagnostics["argmax_r"] / c * model.f
            s -= s.max()
            log_density = s - math.log(float(w @ np.exp(s)))
            h = np.expm1(log_density)
            kl = float(w @ ((1 + h) * log_density - h))
            assert p.rate == pytest.approx(c * kl, rel=1e-10, abs=0)


@pytest.mark.parametrize("family", bounds.FAMILIES)
def test_negative_threshold_refused_in_every_family(two_state, family):
    verdict = FSobolevVerdict.assumed(two_state, 0.5)
    with pytest.raises(ValidationError, match=r"nonnegative, got -0\.3; .* upper tail of -f") as exc:
        evaluate_family(two_state, 1.0, -0.3, family, fsobolev=verdict)
    assert "lower_tail" not in str(exc.value)


def _verdict_panel_chain(name):
    """The 3-cycle, or the random chain of the given size drawn in turn from
    one generator: ``rand3`` to ``rand6``, ``rand32`` and ``rand64``."""
    if name == "three_cycle":
        return make_model(THREE_CYCLE_Q, THREE_CYCLE_F)
    rng = np.random.default_rng(13)
    for n in range(3, int(name[4:]) + 1):
        m = random_irreducible_model(rng, n)
    return m


class TestFSobolevBatchedSearch:
    """All starts are scored and stepped as one matrix per step."""

    def test_violation_calls_bounded_by_steps(self, three_cycle, monkeypatch):
        # one scoring pass per step, and one for the verdict
        calls = []
        scored = bounds._violation_terms

        def counted(*args):
            calls.append(1)
            return scored(*args)

        monkeypatch.setattr(bounds, "_violation_terms", counted)
        # between the closed-form lower bound 0.7213 and gap/2 = 0.75
        check_f_sobolev(three_cycle, 0.74)
        assert len(calls) == ASCENT_STEPS + 1
        calls.clear()
        check_f_sobolev(three_cycle, 0.2)  # certified: no search
        assert calls == []

    def test_each_column_ascends_as_if_alone(self, three_dense):
        c = 0.3 * analyze(three_dense).gap
        g = np.random.default_rng(1).standard_normal((3, 6))
        g /= np.sqrt(three_dense.pi @ g**2)
        together = bounds._ascend_violation(three_dense, c, g)
        for j in range(g.shape[1]):
            alone = bounds._ascend_violation(three_dense, c, g[:, [j]])
            # the columns differ only by the rounding of the batched products;
            # a gradient credited to the wrong column would move g by O(1)
            np.testing.assert_allclose(together[:, j], alone[:, 0], atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.floats(0.05, 2.0))
    def test_one_step_follows_the_central_difference_gradient(self, n, seed, c_over_gap):
        rng = np.random.default_rng(seed)
        m = random_irreducible_model(rng, n)
        c = c_over_gap * analyze(m).gap
        w, q = m.pi, m.q
        # random starts, one with a zero entry, and the constant function
        g = np.hstack([rng.standard_normal((n, 3)), np.ones((n, 1))])
        g[0, 1] = 0.0
        g /= np.sqrt(w @ g**2)

        def v_unit(x):
            x = x / np.sqrt(w @ x**2)
            x2 = x * x
            xlog = np.where(x2 > 0, x2 * np.log(np.where(x2 > 0, x2, 1.0)), 0.0)
            return w @ (c * xlog + x * (q @ x))

        # probes[:, k, j] is column j of g moved by h along state k
        h = 1e-6
        step = h * np.eye(n)[:, :, None]
        probes = np.hstack([(g[:, None, :] + s).reshape(n, -1) for s in (step, -step)])
        up, down = np.split(v_unit(probes), 2)
        x = g + bounds.ASCENT_LR * (up - down).reshape(n, -1) / (2 * h)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "ASCENT_STEPS", 1)
            stepped = bounds._ascend_violation(m, c, g)
        np.testing.assert_allclose(stepped, x / np.sqrt(w @ x**2), rtol=0, atol=1e-6)
        # the constant function is a critical point: V and its gradient are 0
        np.testing.assert_allclose(stepped[:, 3], 1.0, rtol=0, atol=1e-12)

    # 0.05 gap is below the closed-form lower bound on alpha on every chain
    # of the panel, and alpha <= gap/2, with a violation the search finds
    @pytest.mark.parametrize(
        "name", ["three_cycle", "rand3", "rand4", "rand5", "rand6", "rand32", "rand64"]
    )
    @pytest.mark.parametrize(
        "c_over_gap, status",
        [(0.05, "holds"), (0.5, "violated"), (0.55, "violated"), (1.0, "violated")],
    )
    def test_verdict_panel(self, name, c_over_gap, status):
        m = _verdict_panel_chain(name)
        c = c_over_gap * analyze(m).gap
        verdict = check_f_sobolev(m, c)
        assert verdict.status == status
        if status == "violated":
            assert float(bounds._violation(m, c, verdict.witness)) == pytest.approx(
                verdict.max_violation, rel=1e-12
            )
            assert verdict.max_violation > 1e-8
        else:
            assert math.isnan(verdict.max_violation) and verdict.witness is None


class TestFSobolevVerdictPolicy:
    """The verdict carries its constant and its chain, and one policy reads it."""

    def test_verdict_of_another_chain_refused(self, two_state):
        verdict = check_f_sobolev(two_state, 0.5)
        other = make_model([[-0.1, 0.1], [0.2, -0.2]], two_state.f)
        with pytest.raises(ValidationError, match="different chain"):
            evaluate_family(other, 5.0, 0.3, "fsobolev", fsobolev=verdict)

    def test_verdict_serves_every_model_on_its_chain(self, two_state):
        verdict = check_f_sobolev(two_state, 0.5)
        stat = evaluate_family(
            stationary_model(two_state), 5.0, 0.3, "fsobolev", fsobolev=verdict
        )
        assert not stat.diagnostics["unverified"]
        table = bound_table(
            two_state, ["fsobolev"], [0.3], 5.0, tails=TAILS, fsobolev=verdict
        )
        low = table["fsobolev", "lower", 0.3, 5.0]
        assert low.rate > 0.0
        both = table["fsobolev", "two", 0.3, 5.0].bound
        up = evaluate_family(two_state, 5.0, 0.3, "fsobolev", fsobolev=verdict)
        assert both == min(1.0, up.bound + low.bound)

    def test_family_needs_a_verdict(self, two_state):
        with pytest.raises(ValidationError, match="needs fsobolev"):
            evaluate_family(two_state, 5.0, 0.3, "fsobolev")

    @pytest.mark.parametrize(
        "verdict_of",
        [lambda m, c: FSobolevVerdict(c, m, "inconclusive"), FSobolevVerdict.assumed],
        ids=["inconclusive", "assumed"],
    )
    def test_unshown_inequality_gives_a_flagged_bound(self, three_cycle, verdict_of):
        verdict = verdict_of(three_cycle, 0.2)
        p = evaluate_family(three_cycle, 5.0, 0.3, "fsobolev", fsobolev=verdict)
        assert p.diagnostics["unverified"]
        assert p.rate > 0.0

    def test_holds_gives_an_unflagged_bound(self, two_state):
        verdict = check_f_sobolev(two_state, 0.5)
        assert verdict.status == "holds"
        assert verdict.c == 0.5 and verdict.model is two_state
        p = evaluate_family(two_state, 5.0, 0.3, "fsobolev", fsobolev=verdict)
        assert not p.diagnostics["unverified"]


class TestDonskerVaradhan:
    def test_stationary_point_zero(self, three_dense):
        assert donsker_varadhan_info(
            three_dense.q, three_dense.pi, three_dense.pi
        ) == pytest.approx(0.0, abs=1e-14)

    def test_point_mass_gives_exit_rate(self, three_dense):
        for x in range(3):
            w = np.zeros(3)
            w[x] = 1.0
            val = donsker_varadhan_info(
                three_dense.q, three_dense.pi, probability_vector(w)
            )
            assert val == pytest.approx(-three_dense.q[x, x], abs=1e-12)

    def test_nonnegative_on_random_measures(self, three_cycle):
        rng = np.random.default_rng(10)
        for _ in range(500):
            beta = probability_vector(rng.dirichlet(np.ones(3)))
            assert donsker_varadhan_info(three_cycle.q, three_cycle.pi, beta) >= 0.0

    def test_zero_only_at_pi(self, three_dense):
        rng = np.random.default_rng(12)
        for _ in range(100):
            w = rng.dirichlet(np.ones(3))
            if np.max(np.abs(w - three_dense.pi)) < 1e-3:
                continue
            val = donsker_varadhan_info(
                three_dense.q, three_dense.pi, probability_vector(w)
            )
            assert val > 1e-10


class TestInfoRepresentation:
    def test_zero_threshold(self, three_dense):
        rep = verify_info_representation(three_dense, 0.0)
        assert rep.info_infimum == pytest.approx(0.0, abs=1e-8)
        assert rep.gap <= 1e-6

    def test_two_state_unique_slice_point(self, two_state):
        rep = verify_info_representation(two_state, 0.5)
        # slice equation: beta0 - 2 beta1 = 0.5 with beta0 + beta1 = 1
        np.testing.assert_allclose(rep.argmin_beta, [5 / 6, 1 / 6], atol=1e-12)
        assert rep.gap <= 1e-6

    def test_three_state_grid_gap_small_and_shrinking(self, three_dense):
        gaps = [
            verify_info_representation(three_dense, 0.4, grid_density=g).gap
            for g in (31, 301, 3001)
        ]
        assert gaps[-1] <= 1e-4
        assert gaps[2] <= gaps[0] + 1e-12

    def test_infeasible_slice(self, two_state):
        with pytest.raises(ValidationError, match="lies outside the range"):
            verify_info_representation(two_state, 1.4)

    def test_dimension_guard(self):
        m = random_irreducible_model(np.random.default_rng(9), n=4)
        with pytest.raises(ValidationError, match="supports n <= 3, got n = 4"):
            verify_info_representation(m, 0.1)


class TestBoundViaAlpha:
    def test_zero_rate_gives_prefactor(self, two_state):
        p = bound_via_alpha(two_state, 3.0, 0.2, lambda u: 0.0)
        assert p.bound == min(1.0, p.prefactor)

    def test_matches_bernstein_general_formula(self, three_cycle):
        a = analyze(three_cycle)
        bp = BernsteinParams(v=a.sigma_hat2, c=a.fplus_sup / a.gap)
        alpha = lambda u: bernstein_conjugate(bp, u)
        for u in (0.1, 0.3):
            via = bound_via_alpha(three_cycle, 2.0, u, alpha, analysis=a)
            direct = evaluate_family(
                three_cycle, 2.0, u, "bernstein_general", analysis=a
            )
            assert via.bound == pytest.approx(direct.bound, abs=1e-14)


def lower_cell(model, t, u, family, **kwargs):
    """The bound on ``P(A_t/t <= -u)``: the ``lower`` cell of ``bound_table``."""
    return bound_table(model, [family], [u], t, tails=("lower",), **kwargs)[family, "lower", u, t]


def two_cell(model, t, u, family, **kwargs):
    """The bound on ``P(|A_t/t| >= u)``: the ``two`` cell of ``bound_table``."""
    return bound_table(model, [family], [u], t, tails=("two",), **kwargs)[family, "two", u, t]


class TestLowerTailAndTwoSided:
    def test_symmetric_model_mirror_rates(self):
        # relabeling the two states maps f to -f and preserves q and pi
        m = make_model([[-1, 1], [1, -1]], [1.0, -1.0], nu=[0.5, 0.5])
        up = evaluate_family(m, 2.0, 0.4, "general")
        low = lower_cell(m, 2.0, 0.4, "general")
        assert low.rate == pytest.approx(up.rate, abs=1e-9)

    def test_zero_threshold_trivial(self, two_state):
        assert lower_cell(two_state, 2.0, 0.0, "poincare").bound == 1.0

    def test_two_sided_is_sum(self, two_state):
        up = evaluate_family(two_state, 4.0, 0.5, "bernstein_general")
        low = lower_cell(two_state, 4.0, 0.5, "bernstein_general")
        ts = two_cell(two_state, 4.0, 0.5, "bernstein_general").bound
        assert ts == pytest.approx(min(1.0, up.bound + low.bound))

    def test_positive_threshold_rejected(self, two_state):
        # the lower tail's threshold is -u: above 0 it is a negative deviation
        with pytest.raises(ValidationError, match="got -0.2; "):
            lower_cell(two_state, 1.0, -0.2, "general")

    @pytest.mark.parametrize("chain", ["three_dense", "three_cycle"])
    def test_lower_tail_is_the_upper_tail_of_minus_f(self, chain, request):
        # the chain built anew on -f, not by flip_observable; on these chains
        # the upper-tail bounds of f also dominate the counts of a <= -u, so
        # the Monte Carlo test below would pass with f left unflipped
        m = request.getfixturevalue(chain)
        neg = make_model(m.q, -m.f, nu=m.nu)
        for fam in DEFAULT_FAMILIES:
            for u in (0.3, 0.8):
                low = lower_cell(m, 20.0, u, fam)
                up = evaluate_family(neg, 20.0, u, fam)
                assert (low.rate, low.bound) == (up.rate, up.bound), (fam, u)

    @pytest.mark.parametrize("chain", ["three_dense", "three_cycle"])
    def test_both_tails_dominate_monte_carlo(self, chain, request):
        # criterion 7's rule, p_hat <= bound + 3 half-widths, for the events
        # a <= -u and |a| >= u, counted on the averages of one run; both
        # chains are non-reversible, so -f is not f relabeled
        m = stationary_model(request.getfixturevalue(chain))
        t, n, seed = 20.0, 20000, 5
        a = time_averages(m, t, n, seed)
        for u in (0.5, 0.8):
            low = tail_estimate(-a, u, t)
            both = tail_estimate(np.abs(a), u, t)
            assert 0 < low.hits <= both.hits  # informative cells
            for fam in DEFAULT_FAMILIES:
                bound = lower_cell(m, t, u, fam).bound
                assert low.p_hat <= bound + 3.0 * low.ci_half_width, (fam, u)
                bound = two_cell(m, t, u, fam).bound
                assert both.p_hat <= bound + 3.0 * both.ci_half_width, (fam, u)


class TestBoundTable:
    @pytest.mark.parametrize("family", bounds.FAMILIES)
    def test_upper_cells_equal_the_direct_evaluation(self, three_dense, family):
        # every horizon, not only the first that the table evaluates at
        verdict = FSobolevVerdict.assumed(three_dense, 0.5)
        fmax = float(three_dense.f.max())
        grid = [0.0, 0.05, 0.4 * fmax, fmax, 1.5 * fmax]
        ts = [2.0, 0.5, 30.0]
        table = bound_table(three_dense, [family], grid, ts, fsobolev=verdict)
        assert len(table) == len(grid) * len(ts)
        for t in ts:
            for u in grid:
                cell = table[family, "upper", u, t]
                direct = evaluate_family(three_dense, t, u, family, fsobolev=verdict)
                assert cell == direct, (u, t)
                assert cell.bound.hex() == direct.bound.hex()

    def test_cells_name_their_tail_and_horizon(self, three_dense):
        table = bound_table(three_dense, ["general"], [0.2, 0.4], [1.0, 5.0], tails=TAILS)
        assert len(table) == 12
        for (fam, tail, u, t), cell in table.items():
            assert (cell.family, cell.tail, cell.u, cell.t) == (fam, tail, u, t)

    def test_two_sided_rate_and_flags(self, three_dense):
        # the rate is the smaller one; a flag of either side carries over
        verdict = FSobolevVerdict.assumed(three_dense, 0.5)
        fmax = float(three_dense.f.max())
        for fam, flag in (("fsobolev", "unverified"), ("general", "boundary")):
            table = bound_table(
                three_dense, [fam], [0.3, fmax], 3.0, tails=TAILS, fsobolev=verdict
            )
            for u in (0.3, fmax):
                up, low, two = (table[fam, tail, u, 3.0] for tail in TAILS)
                assert two.rate == min(up.rate, low.rate)
                assert two.bound == min(1.0, up.bound + low.bound)
                assert two.diagnostics[flag] == (up.diagnostics[flag] or low.diagnostics[flag])
            assert table[fam, "two", fmax, 3.0].diagnostics[flag]

    def test_unknown_tail_refused(self, two_state):
        with pytest.raises(ValidationError, match="tails"):
            bound_table(two_state, ["general"], [0.2], 1.0, tails=("left",))


class TestAnalysisBelongsToItsModel:
    """A supplied analysis lends only its chain's spectral data to the model."""

    def test_lower_tail_with_analysis_of_upper_observable(self, two_state):
        plain = lower_cell(two_state, 5.0, 0.5, "bernstein_general")
        shared = lower_cell(
            two_state, 5.0, 0.5, "bernstein_general", analysis=analyze(two_state)
        )
        assert shared.bound == plain.bound
        assert shared.rate == plain.rate

    def test_analysis_of_stationary_start_keeps_own_prefactor(self, two_state):
        a = analyze(stationary_model(two_state))
        plain = evaluate_family(two_state, 5.0, 0.3, "poincare")
        shared = evaluate_family(two_state, 5.0, 0.3, "poincare", analysis=a)
        assert shared.bound == plain.bound
        assert shared.prefactor == plain.prefactor

    def test_analysis_of_other_chain_rejected(self, two_state):
        other = make_model([[-0.1, 0.1], [0.2, -0.2]], two_state.f)
        with pytest.raises(ValidationError):
            evaluate_family(other, 20.0, 0.3, "general", analysis=analyze(two_state))

    def test_fsobolev_check_reads_an_analysis_of_its_chain(self, two_state, three_cycle):
        other = make_model([[-0.1, 0.1], [0.2, -0.2]], two_state.f)
        with pytest.raises(ValidationError):
            check_f_sobolev(other, 0.5, analysis=analyze(two_state))
        # 0.74 lies between the closed-form lower bound and gap/2: the search runs
        plain = check_f_sobolev(three_cycle, 0.74)
        other_start = analyze(stationary_model(three_cycle))
        shared = check_f_sobolev(three_cycle, 0.74, analysis=other_start)
        assert (shared.status, shared.max_violation) == (plain.status, plain.max_violation)
        assert shared.witness.tobytes() == plain.witness.tobytes()


class TestAnalysisKeepsItsNumbers:
    """Each derived number is computed once per analysis and stays with it."""

    NUMBERS = ("prefactor", "sigma_hat2", "var_pi_f", "sigma_tilde2", "f_sup", "fplus_sup")

    @staticmethod
    def table(model):
        return bound_table(model, DEFAULT_FAMILIES, [0.05, 0.2, 0.4], (1.0, 5.0, 20.0),
                           tails=TAILS)

    def test_one_call_per_side_and_the_same_cells(self, three_dense, monkeypatch):
        calls = {"sigma_hat_sq": [], "chi2_prefactor": [], "pi_variance": []}

        def spy(name):
            fn = getattr(bounds, name)

            def counted(*args):
                calls[name].append(args)
                return fn(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(bounds, name, spy(name))
        kept = self.table(three_dense)
        # one analysis a side: f for upper, -f for lower and two
        assert {name: len(args) for name, args in calls.items()} == dict.fromkeys(calls, 2)
        firsts = [float(args[1][0]) for args in calls["sigma_hat_sq"]]
        assert firsts[0] == -firsts[1] != 0.0
        for name in self.NUMBERS:
            fresh = property(getattr(bounds.ModelAnalysis, name).func)
            monkeypatch.setattr(bounds.ModelAnalysis, name, fresh)
        afresh = self.table(three_dense)
        assert len(calls["sigma_hat_sq"]) > 4  # every read computed its number again
        assert kept.keys() == afresh.keys()
        for key, p in kept.items():
            q = afresh[key]
            assert [p.rate.hex(), p.prefactor.hex(), p.bound.hex()] == \
                [q.rate.hex(), q.prefactor.hex(), q.bound.hex()], key

    def test_analysis_of_minus_f_has_its_own_sup(self, three_dense):
        a = analyze(three_dense)
        assert a.fplus_sup == float(np.max(three_dense.f))
        flipped = flip_observable(three_dense)
        b = bounds.ModelAnalysis(flipped, a.sd)
        assert b.fplus_sup == float(np.max(flipped.f)) != a.fplus_sup

    def test_a_read_that_raises_raises_again(self, two_state):
        uncentered = replace(two_state, f=np.array([1.0, 1.0]))
        a = bounds.ModelAnalysis(uncentered, analyze(two_state).sd)
        for _ in range(2):
            with pytest.raises(NotCenteredError):
                a.sigma_hat2
        assert "sigma_hat2" not in vars(a)


@pytest.mark.parametrize("family", bounds.FAMILIES)
def test_grid_gives_the_pointwise_bounds(three_dense, family):
    # one call on a grid, one rate function call: the same points as one
    # call per threshold, whatever else is on the grid
    verdict = FSobolevVerdict.assumed(three_dense, 0.5)
    a = analyze(three_dense)
    fmax = float(three_dense.f.max())
    grid = [0.0, 0.05, 0.4 * fmax, 0.95 * fmax, 1.5 * fmax, 0.05]
    points = evaluate_family(three_dense, 2.0, grid, family, analysis=a, fsobolev=verdict)
    assert points == [
        evaluate_family(three_dense, 2.0, u, family, analysis=a, fsobolev=verdict)
        for u in grid
    ]


@pytest.mark.parametrize("family", ["general", "bernstein_general"])
class TestEvaluateFamilyRejectsBadInputs:
    def test_nan_threshold(self, two_state, family):
        with pytest.raises(ValidationError):
            evaluate_family(two_state, 2.0, math.nan, family)
        with pytest.raises(ValidationError):
            evaluate_family(two_state, 2.0, [0.1, math.nan], family)

    def test_grid_of_more_than_one_dimension(self, two_state, family):
        with pytest.raises(ValidationError, match="1-D"):
            evaluate_family(two_state, 2.0, [[0.1, 0.2]], family)

    def test_infinite_threshold(self, two_state, family):
        with pytest.raises(ValidationError):
            evaluate_family(two_state, 2.0, math.inf, family)

    def test_nan_time(self, two_state, family):
        with pytest.raises(ValidationError):
            evaluate_family(two_state, math.nan, 0.5, family)

    def test_infinite_time(self, two_state, family):
        with pytest.raises(ValidationError):
            evaluate_family(two_state, math.inf, 0.5, family)

    def test_negative_time(self, two_state, family):
        with pytest.raises(ValidationError):
            evaluate_family(two_state, -1.0, 0.5, family)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0, 0.0])
class TestEveryPathToABoundRefusesBadTime:
    def test_bound_point_at(self, two_state, t):
        # a cell of the table at a horizon other than the first, which it
        # evaluates the family at
        with pytest.raises(ValidationError, match="horizon"):
            bound_table(two_state, ["poincare"], [0.3], [2.0, t])

    def test_iid_sum_bound(self, t):
        with pytest.raises(ValidationError):
            iid_sum_bound(lambda u: 0.25, 3, 0.3, t=t)


@pytest.mark.parametrize("rate", [math.nan, -1.0, -math.inf])
class TestEveryPathToABoundRefusesBadRate:
    def test_iid_sum_bound(self, rate):
        with pytest.raises(ValidationError, match="rate"):
            iid_sum_bound(lambda u: rate, 3, 0.3, t=2.0)


class TestIidSumBound:
    def test_zero_and_infinite_rates_still_accepted(self):
        assert iid_sum_bound(lambda u: 0.0, 3, 0.3, t=2.0) == 1.0
        assert iid_sum_bound(lambda u: math.inf, 3, 0.3, t=2.0) == 0.0

    @pytest.mark.parametrize("n", [0, 2.5, 3.0, math.nan, True, np.True_])
    def test_replica_count_must_be_a_whole_number(self, n):
        with pytest.raises(ValidationError, match="replicas"):
            iid_sum_bound(lambda u: 0.25, n, 0.3, t=2.0)

    def test_single_replica_unchanged(self):
        assert iid_sum_bound(lambda u: 0.25, 1, 0.3, t=2.0) == pytest.approx(
            math.exp(-0.5)
        )

    def test_arithmetic_example(self):
        assert iid_sum_bound(lambda u: 0.1, 2, 0.3, t=1.0) == pytest.approx(
            math.exp(-0.2)
        )

    def test_monte_carlo_domination_with_replicas(self, two_state):
        # average of 5 independent time averages vs the replicated bound
        n_rep, t, n_groups = 5, 3.0, 20000
        a = analyze(two_state)
        avg = time_averages(two_state, t, n_rep * n_groups, seed=55)
        grouped = avg.reshape(n_groups, n_rep).mean(axis=1)
        u = 0.25
        p_hat = float(np.mean(grouped >= u))
        se = math.sqrt(max(p_hat * (1 - p_hat), 1.0 / n_groups) / n_groups)
        rate = evaluate_family(two_state, t, u, "bernstein_general", analysis=a).rate
        bound = iid_sum_bound(
            lambda _: rate, n_rep, u, t=t, prefactor=a.prefactor
        )
        assert p_hat <= bound + 3.0 * se


class TestCurveAndDomination:
    def test_curve_shape_and_diagnostics(self, three_cycle):
        a = analyze(three_cycle)
        for u in np.linspace(0.0, 0.8, 9):
            p = evaluate_family(three_cycle, 5.0, float(u), "perturbation", analysis=a)
            assert 0.0 <= p.bound <= 1.0
            assert p.rate >= 0.0

    def test_all_families_dominate_monte_carlo(self, two_state, three_cycle):
        for m in (two_state, three_cycle):
            a = analyze(m)
            fmax = m.f.max()
            verdict = check_f_sobolev(m, 0.2)
            for t in (1.0, 5.0):
                avg = time_averages(m, t, 30000, seed=17)
                for u in (0.1 * fmax, 0.4 * fmax):
                    est = tail_estimate(avg, u, t)
                    for fam in (
                        "general",
                        "perturbation",
                        "poincare",
                        "bernstein_general",
                        "fsobolev",
                    ):
                        p = evaluate_family(
                            m, t, u, fam, analysis=a, fsobolev=verdict
                        )
                        assert est.p_hat <= p.bound + 3.0 * est.ci_half_width, (
                            fam,
                            u,
                            t,
                        )

    def test_random_models_bound_chain(self):
        rng = np.random.default_rng(100)
        for _ in range(6):
            m = random_irreducible_model(rng)
            a = analyze(m)
            r_top = 0.99 * a.gap / a.fplus_sup
            for r in np.linspace(0.0, r_top, 15):
                lam = lambda0(a.sd, m.f, float(r))
                assert lam <= general_bernstein_eigen_bound(a, float(r)) + 1e-10


class TestDiagnosticsKeys:
    # solver outputs and flags only; the analysis owns gap, variances and norms
    KEPT = {
        "general": {"argmax_r", "boundary", "weyl_slack"},
        "perturbation": set(),
        "poincare": set(),
        "bernstein_general": set(),
        "fsobolev": {"argmax_r", "unverified"},
    }

    def test_each_family_keeps_only_its_keys(self, two_state):
        assert set(self.KEPT) == set(bounds.FAMILIES)
        a = analyze(two_state)
        verdict = check_f_sobolev(two_state, 0.5)
        for fam, keys in self.KEPT.items():
            p = evaluate_family(two_state, 5.0, 0.3, fam, analysis=a, fsobolev=verdict)
            assert set(p.diagnostics) == keys, fam
        u_b = 1.5 * perturbation_branch_threshold(a)
        p = evaluate_family(two_state, 5.0, u_b, "perturbation", analysis=a)
        assert p.branch == "b" and p.diagnostics == {}
