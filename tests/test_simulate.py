import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mjpbounds import (
    CounterStream,
    Observable,
    analyze,
    empirical_tail,
    empirical_variance_rate,
    make_model,
    sample_trajectory,
    time_average,
    time_averages,
)
from mjpbounds.errors import ValidationError, ZeroHorizonError
from mjpbounds.simulate import Trajectory, counter_uniforms, stream_keys


class TestCounterRng:
    def test_uniforms_open_interval_and_deterministic(self):
        keys = stream_keys(7, np.arange(10000, dtype=np.uint64))
        u = counter_uniforms(keys, np.zeros(10000, dtype=np.uint64))
        assert np.all(u > 0.0) and np.all(u < 1.0)
        again = counter_uniforms(keys, np.zeros(10000, dtype=np.uint64))
        np.testing.assert_array_equal(u, again)

    def test_streams_differ(self):
        keys = stream_keys(7, np.arange(4, dtype=np.uint64))
        assert len(set(keys.tolist())) == 4

    def test_uniformity_moments(self):
        keys = stream_keys(1, np.arange(200000, dtype=np.uint64))
        u = counter_uniforms(keys, np.full(200000, 5, dtype=np.uint64))
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.002

    def test_counter_stream_matches_vectorized_draws(self):
        for seed, stream in ((0, 0), (7, 3), (2**63 + 5, 123456)):
            cs = CounterStream(seed, stream)
            got = [cs.uniform() for _ in range(1000)]
            key = stream_keys(seed, np.array([stream], dtype=np.uint64))[0]
            ref = counter_uniforms(np.full(1000, key), np.arange(1000, dtype=np.uint64))
            np.testing.assert_array_equal(got, ref)


class TestHorizonAndThresholdChecks:
    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, two_state, t):
        # the simulators would step towards a horizon they can never cross
        with pytest.raises(ValidationError, match="finite"):
            time_averages(two_state, t, 10, seed=0)
        with pytest.raises(ValidationError, match="finite"):
            sample_trajectory(two_state, t, CounterStream(0))

    def test_negative_horizon_is_not_zero_length(self, two_state):
        with pytest.raises(ValidationError, match="got -1.0") as err:
            time_averages(two_state, -1.0, 10, seed=0)
        assert not isinstance(err.value, ZeroHorizonError)
        with pytest.raises(ZeroHorizonError):
            time_averages(two_state, 0.0, 10, seed=0)

    def test_nan_threshold_rejected(self, two_state):
        with pytest.raises(ValidationError, match="NaN"):
            empirical_tail(two_state, 1.0, math.nan, 10, seed=0)


class TestSampleTrajectory:
    def test_zero_horizon_single_segment(self, two_state):
        traj = sample_trajectory(two_state, 0.0, CounterStream(0, 0))
        assert traj.times.tolist() == [0.0]
        assert traj.states.shape == (1,)

    def test_initial_state_from_nu(self, two_state):
        # nu is a point mass at state 0
        for i in range(20):
            traj = sample_trajectory(two_state, 1.0, CounterStream(3, i))
            assert traj.states[0] == 0

    def test_path_invariants(self, three_dense):
        for i in range(50):
            traj = sample_trajectory(three_dense, 5.0, CounterStream(11, i))
            assert traj.times[0] == 0.0
            assert np.all(np.diff(traj.times) > 0)
            assert traj.times[-1] <= traj.horizon
            assert np.all(np.diff(traj.states) != 0)  # no self jumps
            assert set(traj.states.tolist()) <= {0, 1, 2}

    def test_first_holding_time_exponential_rate_one(self, two_state):
        # q_0 = 1 forces the first holding time to be standard exponential
        holds = []
        for i in range(4000):
            traj = sample_trajectory(two_state, 50.0, CounterStream(21, i))
            if len(traj.times) > 1:
                holds.append(traj.times[1])
        holds = np.array(holds)
        se = holds.std(ddof=1) / math.sqrt(holds.size)
        assert abs(holds.mean() - 1.0) <= 3.0 * se

    def test_mean_holding_times_match_rates(self, three_dense):
        by_state = {x: [] for x in range(3)}
        for i in range(800):
            traj = sample_trajectory(three_dense, 30.0, CounterStream(5, i))
            for k in range(len(traj.times) - 1):
                by_state[int(traj.states[k])].append(
                    traj.times[k + 1] - traj.times[k]
                )
        for x, holds in by_state.items():
            holds = np.array(holds)
            target = 1.0 / three_dense.q.exit_rates[x]
            se = holds.std(ddof=1) / math.sqrt(holds.size)
            assert abs(holds.mean() - target) <= 3.5 * se

    def test_jump_frequencies_match_embedded_chain(self, three_dense):
        counts = np.zeros((3, 3))
        for i in range(600):
            traj = sample_trajectory(three_dense, 30.0, CounterStream(8, i))
            for a, b in zip(traj.states[:-1], traj.states[1:]):
                counts[a, b] += 1
        for x in range(3):
            total = counts[x].sum()
            for y in range(3):
                if x == y:
                    continue
                p = three_dense.q.rates[x, y] / three_dense.q.exit_rates[x]
                se = math.sqrt(p * (1 - p) / total)
                assert abs(counts[x, y] / total - p) <= 4.0 * se


class TestTimeAverage:
    def test_constant_observable(self, two_state):
        traj = sample_trajectory(two_state, 3.0, CounterStream(2, 0))
        f = Observable(np.full(2, 2.5))
        assert time_average(traj, f) == pytest.approx(2.5, abs=1e-12)

    def test_single_segment(self):
        traj = Trajectory(np.array([0.0]), np.array([1]), 4.0)
        f = Observable(np.array([3.0, -7.0]))
        assert time_average(traj, f) == -7.0

    def test_two_segments_arithmetic(self):
        t = 6.0
        traj = Trajectory(np.array([0.0, t / 2]), np.array([0, 1]), t)
        f = Observable(np.array([1.0, -2.0]))
        assert time_average(traj, f) == pytest.approx(-0.5)

    def test_zero_horizon_rejected(self):
        traj = Trajectory(np.array([0.0]), np.array([0]), 0.0)
        with pytest.raises(ZeroHorizonError):
            time_average(traj, Observable(np.array([1.0, 2.0])))

    def test_matches_vectorized_engine(self, three_cycle):
        # same draw sequence; segment sums may differ by accumulation order
        t, seed = 4.5, 99
        vec = time_averages(three_cycle, t, 64, seed)
        for i in (0, 5, 31, 63):
            traj = sample_trajectory(three_cycle, t, CounterStream(seed, i))
            assert time_average(traj, three_cycle.f) == pytest.approx(
                vec[i], abs=1e-13
            )


class TestErgodicity:
    def test_occupation_fraction_long_run(self, two_state):
        # fraction of time in state 0 estimates pi_0 = 2/3
        occupancy = Observable(np.array([1.0, 0.0]))
        m = make_model([[-1, 1], [2, -2]], [1.0, 0.0])
        # centered f is (1/3, -2/3); add back the mean to read the fraction
        avg = time_averages(m, 10000.0, 400, seed=31)
        frac = avg + 2.0 / 3.0
        se = frac.std(ddof=1) / math.sqrt(frac.size)
        assert abs(frac.mean() - 2.0 / 3.0) <= 3.0 * se
        assert se < 0.01

    def test_deviations_shrink_at_large_horizon(self, two_state):
        avg = time_averages(two_state, 10000.0, 1000, seed=77)
        assert np.quantile(np.abs(avg), 0.99) < 0.05


class TestEmpiricalTail:
    def test_threshold_above_max(self, two_state):
        est = empirical_tail(two_state, 2.0, 1.5, 2000, seed=1)
        assert est.hits == 0 and est.p_hat == 0.0
        assert est.ci_half_width > 0  # Wilson keeps the interval informative

    def test_threshold_at_min(self, two_state):
        est = empirical_tail(two_state, 2.0, -2.0, 2000, seed=1)
        assert est.p_hat == 1.0

    def test_self_consistency_against_larger_run(self, two_state):
        small = empirical_tail(two_state, 5.0, 0.3, 100000, seed=13)
        big = empirical_tail(two_state, 5.0, 0.3, 1000000, seed=14)
        assert abs(small.p_hat - big.p_hat) <= small.ci_half_width + big.ci_half_width

    def test_deterministic_across_thread_counts(self, three_cycle):
        a = empirical_tail(three_cycle, 3.0, 0.2, 50000, seed=5, threads=1)
        b = empirical_tail(three_cycle, 3.0, 0.2, 50000, seed=5, threads=4)
        c = empirical_tail(three_cycle, 3.0, 0.2, 50000, seed=5, threads=7)
        assert a == b == c

    def test_precomputed_averages_shortcut(self, two_state):
        avg = time_averages(two_state, 2.0, 5000, seed=3)
        direct = empirical_tail(two_state, 2.0, 0.25, 5000, seed=3)
        reused = empirical_tail(two_state, 2.0, 0.25, 5000, seed=3, averages=avg)
        assert direct == reused


class TestVarianceRate:
    def test_zero_observable(self):
        m = make_model([[-1, 1], [2, -2]], [0.0, 0.0])
        assert empirical_variance_rate(m, 10.0, 500, seed=2) == pytest.approx(0.0)

    def test_converges_to_asymptotic_variance(self, two_state):
        a = analyze(two_state)
        est = empirical_variance_rate(two_state, 200.0, 8000, seed=6)
        mc_sigma = a.sigma_hat2 * math.sqrt(2.0 / 8000)
        assert abs(est - a.sigma_hat2) <= 0.05 * a.sigma_hat2 + 3.0 * mc_sigma

    def test_drift_toward_target_with_horizon(self, two_state):
        a = analyze(two_state)
        n = 20000
        errs = []
        for t in (1.0, 10.0, 100.0):
            est = empirical_variance_rate(two_state, t, n, seed=41)
            errs.append(abs(est - a.sigma_hat2))
        mc_sigma = a.sigma_hat2 * math.sqrt(2.0 / n)
        assert errs[1] <= errs[0] + 3 * mc_sigma
        assert errs[2] <= errs[1] + 3 * mc_sigma


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=0, max_value=500),
    st.floats(min_value=0.1, max_value=20.0),
)
def test_trajectory_replay_is_exact(seed, stream, horizon):
    m = make_model([[-1.0, 1.0], [2.0, -2.0]], [1.0, -2.0])
    t1 = sample_trajectory(m, horizon, CounterStream(seed, stream))
    t2 = sample_trajectory(m, horizon, CounterStream(seed, stream))
    np.testing.assert_array_equal(t1.times, t2.times)
    np.testing.assert_array_equal(t1.states, t2.states)
