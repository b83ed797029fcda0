import dataclasses
import hashlib
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from conftest import random_irreducible_model
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mjpbounds import simulate
from mjpbounds import (
    TailEstimate,
    analyze,
    empirical_variance_rate,
    make_model,
    tail_estimate,
    time_averages,
)
from mjpbounds.errors import ValidationError, ZeroHorizonError
from mjpbounds.markov import MJPModel, probability_vector
from mjpbounds.simulate import (
    _DRAW_SALT_I,
    _GAMMA_I,
    _MASK64,
    _MUL1_I,
    _MUL2_I,
    _STREAM_SALT,
    _jump_tables,
    _mix64_int,
    _next_slots,
    _Tables,
    counter_uniforms,
    stream_keys,
)
from oracles import (
    CounterStream,
    Trajectory,
    jump_tables_loop,
    sample_trajectory,
    time_average,
)

# sha256 of the bytes of time_averages(wide_sparse, (0.25, 1.0, 2.0), 20000,
# seed=2026), taken with the kernel that counted (u > cum[x]).sum() per jump
# and re-taken when centering came to stop once |pi(f)| no longer strictly
# falls: f moved by at most 9 ulps, the averages by at most 1.1e-16
WIDE_SPARSE_SHA256 = "24ebb3424c1bd4ba4d9a84b5b513c5822b8cc36113e4234bdd834d80afdf07bc"
# sha256 of the bytes of time_averages(three_dense, (0.5, 2.0, 5.0), 20000,
# seed=2027), taken with the kernel that hashed one draw index per path
THREE_DENSE_SHA256 = "195b591ff1acd96bce3290b35c62d14e2e7e463c189a2488d3cd2b05b96b6480"
# sha256 of the bytes of time_averages(_model_with_first_row([1e-9] * 30 + [1.0]),
# (0.25, 1.0, 2.0), 20000, seed=2028), taken with the kernel whose tables
# listed every state but x in each row x
CLUSTERED_SHA256 = "3eaa400b4f631df8a54dd4b2b84a1f870f302839282236be798eddafe1077461"
# sha256 of the bytes of time_averages(spread_nu, (0.5, 2.0, 5.0), 20000,
# seed=2029), taken with the kernel that picked the initial state by a linear
# count against the running sum of nu
SPREAD_NU_SHA256 = "3ab91c333b279bb3ed25bd603ed9eb02025d79a6c5081e0731857735bc1048b0"
# sha256 of the bytes of time_averages(make_model(INFINITE_HOLD_Q, f,
# nu=[0.5, 0.5]), (0.5, 2.0, 7.0), 300, seed=3) for f = (1, -1) and (1, 1),
# taken with the kernel that compacted the live paths into new arrays
INFINITE_HOLD_Q = [[-1e-310, 1e-310], [1.0, -1.0]]
INFINITE_HOLD_SHA256 = {
    (1.0, -1.0): "53f87d54b6cbc015f53f1ba958170c1b50971277088f0a26326fdb421fd41696",
    (1.0, 1.0): "e4331b4b5dff91084b34db4018c5905a016cdf9c0d74d02c0d5af88dabfc6bc6",
}
# tracemalloc peak of time_averages on a 4-state chain, 200000 paths at
# horizons (5, 20, 50), less the result: 1606266 bytes with finished paths
# retired in place, plus two float arrays of one block as a margin
SIMULATOR_PEAK_BUDGET = 1606266 + 2 * 8 * 16384


# the largest draw the generator returns; ((2**53 - 1) + 0.5) * 2**-53 is 1.0
U_MAX = 1.0 - 2.0**-53


def _unxorshift(z: int, shift: int) -> int:
    """Inverse of ``z ^ (z >> shift)`` on 64 bits."""
    x = z
    for _ in range(64 // shift):
        x = z ^ (x >> shift)
    return x


def _unmix64(z: int) -> int:
    """Inverse of the SplitMix64 finalizer ``_mix64_int``."""
    z = _unxorshift(z, 31)
    z = (z * pow(_MUL2_I, -1, 2**64)) & _MASK64
    z = _unxorshift(z, 27)
    z = (z * pow(_MUL1_I, -1, 2**64)) & _MASK64
    z = _unxorshift(z, 30)
    return (z - _GAMMA_I) & _MASK64


def _top_draw_key() -> int:
    """Substream key whose draw 0 hashes to 2**64 - 1, so ``z >> 11`` is 2**53 - 1."""
    return _unmix64(_MASK64) ^ _mix64_int(_DRAW_SALT_I)


def _top_draw_seed() -> int:
    """Seed whose sample 0 has the key of ``_top_draw_key``."""
    base = _unmix64(_top_draw_key()) ^ _mix64_int(int(_STREAM_SALT))
    return _unmix64(base)


@pytest.fixture(scope="module")
def wide_sparse():
    """64-state irreducible chain with about half its off-diagonal rates zero."""
    return random_irreducible_model(np.random.default_rng(64), n=64)


@pytest.fixture(scope="module")
def spread_nu():
    """7-state chain started from a nu of five positive weights, one of them
    1e-9, and two zero weights, the last state's among them."""
    model = random_irreducible_model(np.random.default_rng(7), n=7)
    nu = probability_vector([0.25, 0.0, 0.3, 1e-9, 0.2, 0.25 - 1e-9, 0.0])
    return dataclasses.replace(model, nu=nu)


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

    def test_largest_hash_gives_a_draw_below_one(self):
        z = 2**53 - 1
        assert _unxorshift(z ^ (z >> 27), 27) == z
        assert _mix64_int(_unmix64(12345)) == 12345
        key = _top_draw_key()
        u = counter_uniforms(np.array([key], dtype=np.uint64), np.zeros(1, np.uint64))
        assert u[0] == U_MAX < 1.0
        seed = _top_draw_seed()
        assert int(stream_keys(seed, np.zeros(1, np.uint64))[0]) == key
        assert CounterStream(seed).uniform() == U_MAX
        # every other draw keeps its bits: the next lower hash is not clamped
        below = np.array([_unmix64(_MASK64 - 2**11) ^ _mix64_int(_DRAW_SALT_I)], np.uint64)
        u_below = counter_uniforms(below, np.zeros(1, np.uint64))[0]
        assert u_below == ((2**53 - 2) + 0.5) * 2.0**-53 < U_MAX

    @pytest.mark.parametrize("draw", [0, 1, 6, 2**40 + 3, 2**64 - 1])
    def test_shared_draw_index_equals_per_path_array(self, draw):
        # a 0-d index and a stride-0 view are hashed once; the bits must be
        # those of one index per path
        keys = np.concatenate(
            [stream_keys(5, np.arange(1000, dtype=np.uint64)),
             np.array([_top_draw_key()], dtype=np.uint64)]
        )
        for k in (keys, keys[:0]):
            ref = counter_uniforms(k, np.full(k.shape, draw, dtype=np.uint64))
            zero_d = counter_uniforms(k, np.array(draw, dtype=np.uint64))
            view = counter_uniforms(k, np.broadcast_to(np.uint64(draw), k.shape))
            assert zero_d.tobytes() == view.tobytes() == ref.tobytes()
            assert zero_d.shape == view.shape == ref.shape == k.shape
            if draw == 0 and k.size:  # the top-draw key clamps below 1
                assert ref[-1] == U_MAX

    @pytest.mark.parametrize("draw", [np.uint64(3), np.arange(64, dtype=np.uint64)])
    def test_keys_never_written(self, draw):
        # the hash is mixed in a fresh array, for an owned array and a view
        own = stream_keys(5, np.arange(64, dtype=np.uint64))
        wide = np.repeat(own, 2)
        for keys in (own, wide[::2], wide.reshape(2, 64)[0]):
            before = keys.tobytes()
            counter_uniforms(keys, draw)
            counter_uniforms(keys, np.broadcast_to(draw, keys.shape))
            assert keys.tobytes() == before

    def test_sliced_stride_zero_view_reads_its_cell(self):
        # the simulator's layout: one cell per block, a stride-0 view of it
        # sliced to the live paths, and the cell overwritten between calls
        n, m = 1000, 379
        keys = stream_keys(11, np.arange(m, dtype=np.uint64))
        cell = np.zeros(1, dtype=np.uint64)
        view = np.broadcast_to(cell, (n,))[:m]
        for draw in (0, 1, 2, 7, 2**40 + 3):
            cell[0] = draw
            ref = counter_uniforms(keys, np.full(m, draw, dtype=np.uint64))
            assert counter_uniforms(keys, view).tobytes() == ref.tobytes()

    def test_pair_view_of_a_two_row_cell(self):
        # the simulator's layout: a (2, 1) cell of a sweep's two draw indices,
        # a (2, n) view of it sliced to the live paths, and the cell rewritten
        # between calls; the last key's draw 0 clamps to U_MAX
        n, m = 1000, 379
        keys = np.append(
            stream_keys(11, np.arange(m - 1, dtype=np.uint64)), np.uint64(_top_draw_key())
        )
        before = keys.tobytes()
        cell = np.zeros((2, 1), dtype=np.uint64)
        view = np.broadcast_to(cell, (2, n))[:, :m]
        for pair in ((0, 1), (2, 3), (7, 0), (2**40 + 3, 2**64 - 1)):
            cell[:, 0] = pair
            got = counter_uniforms(keys, view)
            per_element = np.array(pair, dtype=np.uint64).repeat(m).reshape(2, m)
            ref = counter_uniforms(keys, per_element)
            assert got.shape == ref.shape == (2, m)
            assert got.tobytes() == ref.tobytes()
            assert [got[row, -1] == U_MAX for row in (0, 1)] == [d == 0 for d in pair]
        assert keys.tobytes() == before

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
            tail_estimate(time_averages(two_state, 1.0, 10, seed=0), math.nan, 1.0)


class TestManyHorizons:
    HORIZONS = (0.5, 1.0, 1.0 + 1e-9, 7.0)

    @pytest.mark.parametrize("split", [1, 2])
    def test_rows_equal_single_horizon_runs_bitwise(self, three_dense, monkeypatch, split):
        # 40000 samples span three blocks, or five when the blocks are halved
        monkeypatch.setattr(simulate, "_BLOCK", simulate._BLOCK // split)
        rows = time_averages(three_dense, self.HORIZONS, 40000, seed=8)
        monkeypatch.undo()
        assert rows.shape == (len(self.HORIZONS), 40000)
        for row, h in zip(rows, self.HORIZONS):
            single = time_averages(three_dense, h, 40000, seed=8)
            assert row.tobytes() == single.tobytes()

    @pytest.mark.parametrize("block", [7, 1000, 4096])
    def test_bits_do_not_depend_on_the_block_size(self, three_dense, monkeypatch, block):
        # every path draws from its own substream, so blocks only bound memory
        whole = time_averages(three_dense, self.HORIZONS, 5000, seed=8)
        monkeypatch.setattr(simulate, "_BLOCK", block)
        rows = time_averages(three_dense, self.HORIZONS, 5000, seed=8)
        assert rows.tobytes() == whole.tobytes()

    def test_one_horizon_in_a_list_gives_one_row(self, two_state):
        one = time_averages(two_state, 3.0, 100, seed=2)
        assert one.shape == (100,)
        np.testing.assert_array_equal(time_averages(two_state, [3.0], 100, seed=2), [one])

    @pytest.mark.parametrize(
        "horizons, match",
        [
            ((2.0, 1.0), "strictly ascending"),
            ((1.0, 1.0), "strictly ascending"),
            ((1.0, math.nan), "finite"),
            ((1.0, math.inf), "finite"),
            ((0.0, 1.0), "zero-length"),
            ((), "strictly ascending"),
        ],
        ids=["unsorted", "repeated", "nan", "inf", "zero", "empty"],
    )
    def test_bad_horizon_lists_rejected(self, two_state, horizons, match):
        with pytest.raises(ValidationError, match=match):
            time_averages(two_state, horizons, 10, seed=0)


class TestStart:
    """``start`` offsets the sample ids: the columns of a run from ``start``
    are those samples of a run from 0, bit for bit, however each is blocked."""

    HORIZONS = (0.5, 2.0, 5.0)

    @pytest.mark.parametrize(
        "start, n", [(30, 50), (170, 120), (0, 500), (499, 1)],
        ids=["inside_a_block", "across_blocks", "whole", "last"],
    )
    def test_columns_of_a_run_from_zero(self, three_dense, monkeypatch, start, n):
        # blocks of 100 paths: 170..289 spans two blocks of the offset run
        # and three of the whole one
        monkeypatch.setattr(simulate, "_BLOCK", 100)
        whole = time_averages(three_dense, self.HORIZONS, 500, seed=8)
        part = time_averages(three_dense, self.HORIZONS, n, seed=8, start=start)
        assert part.tobytes() == whole[:, start : start + n].tobytes()
        one = time_averages(three_dense, 2.0, n, seed=8, start=start)
        assert one.tobytes() == whole[1, start : start + n].tobytes()

    def test_the_last_sample_ids_run(self, two_state):
        last = 2**64 - 1
        pair = time_averages(two_state, 1.0, 2, seed=3, start=last - 1)
        one = time_averages(two_state, 1.0, 1, seed=3, start=last)
        assert one.tobytes() == pair[1:].tobytes()

    @pytest.mark.parametrize(
        "start, n, match",
        [
            (2**64 - 1, 2, "too many"),
            (2**64, 1, "too many"),
            (0, 2**64 + 1, "too many"),
            (-1, 1, ">= 0"),
            (5, 0, "at least one sample"),
        ],
        ids=["past_the_last_id", "start_past_it", "count_past_it", "negative", "none"],
    )
    def test_ranges_the_counter_cannot_name_refused(
        self, two_state, monkeypatch, start, n, match
    ):
        def never(*args):
            raise AssertionError("simulated a refused range")

        monkeypatch.setattr(simulate, "_time_average_block", never)
        with pytest.raises(ValidationError, match=match):
            time_averages(two_state, 1.0, n, seed=0, start=start)

    @pytest.mark.parametrize(
        "start, n, match",
        [
            (1.5, 3, "first sample must be an integer"),
            (np.float64(2.9), 3, "first sample must be an integer"),
            (True, 3, "first sample must be an integer"),
            (0, 10.0, "sample count must be an integer"),
            (0, True, "sample count must be an integer"),
            (0, np.bool_(True), "sample count must be an integer"),
        ],
        ids=["float_start", "numpy_float_start", "bool_start", "float_count",
             "bool_count", "numpy_bool_count"],
    )
    def test_a_count_or_start_that_is_not_an_integer_refused(
        self, two_state, monkeypatch, start, n, match
    ):
        # a fractional start was truncated, or broke the block's broadcast
        def never(*args):
            raise AssertionError("simulated a refused range")

        monkeypatch.setattr(simulate, "_time_average_block", never)
        with pytest.raises(ValidationError, match=match):
            time_averages(two_state, 1.0, n, seed=0, start=start)

    def test_numpy_integers_pass(self, two_state):
        plain = time_averages(two_state, 1.0, 3, seed=4, start=2)
        numpy = time_averages(two_state, 1.0, np.int32(3), seed=4, start=np.uint64(2))
        assert numpy.tobytes() == plain.tobytes()


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
            target = 1.0 / -three_dense.q[x, x]
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
                p = three_dense.q[x, y] / -three_dense.q[x, x]
                se = math.sqrt(p * (1 - p) / total)
                assert abs(counts[x, y] / total - p) <= 4.0 * se


class TestInitialState:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(st.just(0.0), st.integers(1, 20).map(float), st.floats(1e-9, 1.0)),
            min_size=1,
            max_size=12,
        ).filter(any)
    )
    @example([0.1] * 10 + [0.0])  # the rounded sum of the first ten is below 1.0
    @example([12.0, 14.0, 17.0, 19.0, 11.0, 0.0])  # below 1 - 2**-53 as well
    def test_pick_near_one_is_never_a_zero_weight_state(self, weights):
        # the library's start pick, a search of row n of the jump tables, on
        # a one-way ring of the states of nu (one absorbing state if n = 1)
        nu = np.array(weights) / math.fsum(weights)
        n = nu.size
        ring = np.roll(np.eye(n), 1, axis=1) - np.eye(n)
        model = MJPModel(ring, np.full(n, 1.0 / n), np.zeros(n), nu)
        tables = _Tables.of(model)
        slot = _next_slots(tables, tables.start, np.array([U_MAX, 1.0]))
        assert np.all(nu[_jump_tables(model)[0].ravel()[slot]] > 0.0)

    def test_largest_draw_starts_in_a_state_of_positive_weight(self):
        # a ring whose nu puts no weight on its last state; the cumulative
        # sum of the other weights rounds below the largest draw
        n = 11
        rates = np.zeros((n, n))
        rates[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        np.fill_diagonal(rates, -1.0)
        model = make_model(rates, np.arange(n, dtype=float), [0.1] * 10 + [0.0])
        seed = _top_draw_seed()
        traj = sample_trajectory(model, 1e-9, CounterStream(seed))
        assert traj.states.tolist() == [9]
        avg = time_averages(model, 1e-9, 1, seed)[0]
        assert avg == pytest.approx(model.f[9], abs=1e-12)


class TestTimeAverage:
    def test_constant_observable(self, two_state):
        traj = sample_trajectory(two_state, 3.0, CounterStream(2, 0))
        f = np.full(2, 2.5)
        assert time_average(traj, f) == pytest.approx(2.5, abs=1e-12)

    def test_single_segment(self):
        traj = Trajectory(np.array([0.0]), np.array([1]), 4.0)
        f = np.array([3.0, -7.0])
        assert time_average(traj, f) == -7.0

    def test_two_segments_arithmetic(self):
        t = 6.0
        traj = Trajectory(np.array([0.0, t / 2]), np.array([0, 1]), t)
        f = np.array([1.0, -2.0])
        assert time_average(traj, f) == pytest.approx(-0.5)

    def test_zero_horizon_rejected(self):
        traj = Trajectory(np.array([0.0]), np.array([0]), 0.0)
        with pytest.raises(ZeroHorizonError):
            time_average(traj, np.array([1.0, 2.0]))

    def test_matches_vectorized_engine(self, three_cycle, wide_sparse, spread_nu):
        # same draw sequence; segment sums may differ by accumulation order
        seed = 99
        for model, t in ((three_cycle, 4.5), (wide_sparse, 2.0), (spread_nu, 3.0)):
            vec = time_averages(model, t, 64, seed)
            for i in (0, 5, 31, 63):
                traj = sample_trajectory(model, t, CounterStream(seed, i))
                assert time_average(traj, model.f) == pytest.approx(vec[i], abs=1e-13)


def _model_with_first_row(rates0, nu=None):
    """Model whose state 0 jumps at ``rates0``; states 1.. form a two-way ring.
    It starts from ``nu`` scaled to sum to 1, or from state 0."""
    n = len(rates0) + 1
    rates = np.zeros((n, n))
    rates[0, 1:] = rates0
    for x in range(1, n):
        rates[x, x - 1] = rates[x, (x + 1) % n] = 1.0
    np.fill_diagonal(rates, -rates.sum(axis=1))
    if nu is not None:
        nu = np.array(nu) / math.fsum(nu)
    return make_model(rates, np.arange(n, dtype=float), nu)


class TestJumpTables:
    @staticmethod
    def assert_match_loop(model):
        built, oracle = _jump_tables(model), jump_tables_loop(model)
        for b, o in zip(built[:3], oracle[:3]):
            assert b.dtype == o.dtype
            np.testing.assert_array_equal(b, o)
        assert built[3] == oracle[3]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 2**32 - 1))
    def test_random_chains_match_loop(self, n, seed):
        self.assert_match_loop(random_irreducible_model(np.random.default_rng(seed), n))

    @pytest.mark.parametrize(
        "rates0", [[1.0, 0.0, 0.0], [2.0, 3.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 2.0]]
    )
    def test_trailing_zero_rates_match_loop(self, rates0):
        self.assert_match_loop(_model_with_first_row(rates0))

    def test_absorbing_state_matches_loop(self, three_dense):
        rates = three_dense.q.copy()
        rates[1] = 0.0
        absorbing = dataclasses.replace(three_dense, q=rates)
        self.assert_match_loop(absorbing)
        targets, cum, _, _ = _jump_tables(absorbing)
        np.testing.assert_array_equal(cum[1], 1.0)
        np.testing.assert_array_equal(targets[1], 1)

    def test_rows_list_only_the_moves_a_state_can_make(self):
        # state 0 jumps to 2 and 4 only; the ring states jump to two each, and
        # row n, the point mass at state 0, lists state 0 and padding
        model = _model_with_first_row([0.0, 1.0, 0.0, 3.0])
        targets, cum, guide, steps = _jump_tables(model)
        assert targets.shape == (6, 2) and guide.shape == (6, 4 * 2 + 1)
        assert targets[0].tolist() == [2, 4]
        np.testing.assert_array_equal(cum[0], [0.25, 1.0])
        assert targets[5].tolist() == [0, 0]
        np.testing.assert_array_equal(cum[5], [1.0, 1.0])
        assert steps == 1

    def test_start_row_lists_the_states_of_positive_weight(self, spread_nu):
        self.assert_match_loop(spread_nu)
        targets, cum, _, _ = _jump_tables(spread_nu)
        assert targets.shape == (8, 6)  # state 0 jumps to all six others
        assert targets[7].tolist() == [0, 2, 3, 4, 5, 0]
        nu = spread_nu.nu
        np.testing.assert_array_equal(cum[7, :4], np.cumsum(nu[[0, 2, 3, 4]]))
        np.testing.assert_array_equal(cum[7, 4:], 1.0)

    def test_random_chains_take_few_steps(self, wide_sparse):
        # every path steps once on a 4-state chain; on the 64-state one, whose
        # rows hold 17 to 39 positive rates, only the paths short of their
        # target step on
        four = random_irreducible_model(np.random.default_rng(4), n=4)
        assert _jump_tables(four)[3] == 1 <= simulate._FIXED_STEPS
        targets, _, _, steps = _jump_tables(wide_sparse)
        degree = (wide_sparse.q > 0.0).sum(axis=1)
        assert targets.shape[1] == degree.max()
        assert steps == 4 > simulate._FIXED_STEPS


def _adversarial_uniforms(cum, n_buckets):
    """Bucket edges, ``cum`` entries, their neighbouring doubles and the
    values just above 0 and below 1, kept in (0, 1]; 1 - 2**-54 rounds to
    1.0, where ``u * n_buckets`` is ``n_buckets``."""
    edges = np.arange(n_buckets + 1) / n_buckets
    points = np.concatenate([edges, cum.ravel(), [2.0**-54, 1 - 2.0**-54]])
    u = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
    return u[(u > 0.0) & (u <= 1.0)]


# zero rates repeat entries of the cumulative row over all states, tiny rates
# crowd entries into one bucket, small integer rates put entries on bucket edges
_FIRST_ROWS = st.lists(
    st.one_of(st.integers(0, 3).map(float), st.floats(1e-9, 1e3), st.just(1e-9)),
    min_size=1,
    max_size=12,
).filter(any)


class TestJumpTargets:
    @settings(max_examples=200, deadline=None)
    @given(_FIRST_ROWS)
    @example([1e-9] * 11 + [1.0])  # eleven entries in bucket 0
    def test_guide_table_pick_equals_linear_count(self, rates0):
        # every row of the tables, row n among them: nu puts the rates of
        # state 0 on states 1.. as weights, and no weight on state 0
        model = _model_with_first_row(rates0, nu=[0.0, *rates0])
        targets, cum, _, steps = _jump_tables(model)
        tables = _Tables.of(model)
        rows = model.n + 1
        u = np.tile(_adversarial_uniforms(cum, tables.n_buckets), rows)
        row = np.repeat(np.arange(rows), u.size // rows)
        base = row * (tables.n_buckets + 1)
        assert base[-1] == tables.start
        linear = (u[:, None] > cum[row]).sum(axis=1)
        # every path stepped steps times, and only the paths short of their target
        for fixed in (steps, steps - 1):
            with mock.patch.object(simulate, "_FIXED_STEPS", fixed):
                picked = _next_slots(tables, base, u)
            np.testing.assert_array_equal(picked, row * targets.shape[1] + linear)
        # never a zero-rate target, nor a start of zero weight
        weights = np.vstack([model.q, model.nu])
        assert np.all(weights[row, targets.ravel()[picked]] > 0.0)

    @staticmethod
    def assert_steps_bound_every_search(model):
        targets, cum, guide, steps = _jump_tables(model)
        n_buckets = guide.shape[1] - 1
        u = _adversarial_uniforms(cum, n_buckets)
        # row n of the tables draws the initial state from nu
        weights = np.vstack([model.q, model.nu])
        for x in range(model.n + 1):
            start = guide[x, (u * n_buckets).astype(np.int64)] - x * targets.shape[1]
            answer = (u[:, None] > cum[x]).sum(axis=1)
            assert np.all((start <= answer) & (answer - start <= steps))
            # a move the state can make: never padding, never a zero rate;
            # in row n never padding, never a state of zero weight
            assert np.all(answer < (weights[x] > 0.0).sum())
            assert np.all(weights[x, targets[x, answer]] > 0.0)

    @settings(max_examples=200, deadline=None)
    @given(_FIRST_ROWS)
    @example([1e-9] * 11 + [1.0])
    @example([1.0] + [1e-9] * 11)  # the tiny rates crowd the top bucket
    def test_steps_bound_every_search_of_a_first_row(self, rates0):
        self.assert_steps_bound_every_search(_model_with_first_row(rates0))
        # the same weights in the start row, after a zero weight on state 0
        self.assert_steps_bound_every_search(_model_with_first_row(rates0, nu=[0.0, *rates0]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 2**32 - 1))
    def test_steps_bound_every_search_of_random_chains(self, n, seed):
        model = random_irreducible_model(np.random.default_rng(seed), n)
        self.assert_steps_bound_every_search(model)

    def test_state_and_u_never_written(self, wide_sparse):
        tables = _Tables.of(wide_sparse)
        rng = np.random.default_rng(3)
        base = tables.base.take(rng.integers(0, tables.rate.size, 500))
        u = np.append(rng.random(499), 1.0)
        before = base.tobytes(), u.tobytes()
        for fixed in (0, tables.steps):
            with mock.patch.object(simulate, "_FIXED_STEPS", fixed):
                _next_slots(tables, base, u)
        assert (base.tobytes(), u.tobytes()) == before

    @pytest.mark.parametrize("split", [1, 2])
    def test_wide_sparse_chain_bits_pinned(self, wide_sparse, monkeypatch, split):
        # 20000 samples span two blocks, or three when the blocks are halved
        monkeypatch.setattr(simulate, "_BLOCK", simulate._BLOCK // split)
        avg = time_averages(wide_sparse, (0.25, 1.0, 2.0), 20000, seed=2026)
        assert hashlib.sha256(avg.tobytes()).hexdigest() == WIDE_SPARSE_SHA256

    @pytest.mark.parametrize("split", [1, 2])
    def test_clustered_tiny_rates_bits_pinned(self, monkeypatch, split):
        # state 0's thirty tiny rates crowd its first bucket, so a pick steps
        # only the paths short of their target; 20000 samples span two
        # blocks, or three when the blocks are halved
        model = _model_with_first_row([1e-9] * 30 + [1.0])
        assert _jump_tables(model)[3] > simulate._FIXED_STEPS
        monkeypatch.setattr(simulate, "_BLOCK", simulate._BLOCK // split)
        avg = time_averages(model, (0.25, 1.0, 2.0), 20000, seed=2028)
        assert hashlib.sha256(avg.tobytes()).hexdigest() == CLUSTERED_SHA256

    @pytest.mark.parametrize("split", [1, 2])
    def test_dense_chain_bits_pinned(self, three_dense, monkeypatch, split):
        monkeypatch.setattr(simulate, "_BLOCK", simulate._BLOCK // split)
        avg = time_averages(three_dense, (0.5, 2.0, 5.0), 20000, seed=2027)
        assert hashlib.sha256(avg.tobytes()).hexdigest() == THREE_DENSE_SHA256

    @pytest.mark.parametrize("split", [1, 2])
    def test_spread_nu_bits_pinned(self, spread_nu, monkeypatch, split):
        # 20000 paths start in four of the five states of positive weight
        monkeypatch.setattr(simulate, "_BLOCK", simulate._BLOCK // split)
        avg = time_averages(spread_nu, (0.5, 2.0, 5.0), 20000, seed=2029)
        assert hashlib.sha256(avg.tobytes()).hexdigest() == SPREAD_NU_SHA256


# 300 paths of random_irreducible_model(default_rng(0)) all start in state 0;
# at seed 1 only sample 137 holds there for less than 0.00125, so every other
# path passes that horizon in the first sweep and sample 137 takes place 0
ALL_BUT_ONE_DONE = (0, [(0.00125, False)], 300, 1)


class TestRetirement:
    """A path that passes the last horizon leaves its place to a live path."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.floats(0.01, 3.0), st.booleans()), min_size=1, max_size=4),
        st.integers(1, 300),
        st.integers(0, 2**32 - 1),
    )
    @example(*ALL_BUT_ONE_DONE)
    @example(1, [(0.5, False), (1.0, True), (2.0, False), (0.1, True)], 300, 5)
    def test_bits_do_not_depend_on_which_paths_move(self, chain, steps, n_samples, seed):
        # in blocks of one path no path is ever moved; a step marked close
        # puts its horizon 1e-9 after the one before
        model = random_irreducible_model(np.random.default_rng(chain))
        horizons = np.cumsum([1e-9 if close else gap for gap, close in steps])
        whole = time_averages(model, horizons, n_samples, seed)
        for block in (1, 7):
            with mock.patch.object(simulate, "_BLOCK", block):
                rows = time_averages(model, horizons, n_samples, seed)
            assert rows.tobytes() == whole.tobytes()

    def test_the_example_retires_all_but_one_path_at_once(self):
        chain, steps, n_samples, seed = ALL_BUT_ONE_DONE
        model = random_irreducible_model(np.random.default_rng(chain))
        avg = time_averages(model, steps[0][0], n_samples, seed)
        # a path done in the first sweep held state 0 throughout
        assert np.flatnonzero(avg != avg[0]).tolist() == [137]


class TestDrawCount:
    """The draws hashed per ``time_averages`` call, summed over every
    ``counter_uniforms`` call as ``np.size(draw_indices)``, as the benchmark's
    tracer counts them; recorded with the kernel that hashed a sweep's
    holding time and jump in two calls."""

    @staticmethod
    def _draw_indices(model, t, n_samples, seed):
        with mock.patch.object(
            simulate, "counter_uniforms", wraps=counter_uniforms
        ) as spy:
            time_averages(model, t, n_samples, seed)
        return [c.args[1] for c in spy.call_args_list]

    @pytest.mark.parametrize("split", [1, 2])
    def test_three_dense(self, three_dense, monkeypatch, split):
        monkeypatch.setattr(simulate, "_BLOCK", simulate._BLOCK // split)
        draws = self._draw_indices(three_dense, (0.5, 2.0, 5.0), 20000, 2027)
        assert sum(map(np.size, draws)) == 516688

    def test_three_blocks(self):
        model = random_irreducible_model(np.random.default_rng(4), n=4)
        draws = self._draw_indices(model, (5.0, 20.0), 40000, 1)
        assert sum(map(np.size, draws)) == 3319210

    def test_each_sweep_hashes_its_jump_with_the_next_holding_time(self, three_dense):
        # one call per sweep, on a (2, live) view of stride 0 along the paths
        draws = self._draw_indices(three_dense, (0.5, 2.0, 5.0), 20000, 2027)
        assert all(d.shape[:-1] == (2,) and d.strides[-1] == 0 for d in draws)


class TestInfiniteHoldingTime:
    """An exit rate of 1e-310 gives a holding time of inf for most draws."""

    @pytest.mark.parametrize("f", sorted(INFINITE_HOLD_SHA256))
    def test_bits_pinned_without_a_warning(self, f):
        model = make_model(INFINITE_HOLD_Q, list(f), nu=[0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            avg = time_averages(model, (0.5, 2.0, 7.0), 300, seed=3)
        assert hashlib.sha256(avg.tobytes()).hexdigest() == INFINITE_HOLD_SHA256[f]


class TestMemory:
    def test_peak_beyond_the_result_within_budget(self):
        # the shape of the mc_small benchmark: 13 blocks of a 4-state chain
        model = random_irreducible_model(np.random.default_rng(4), n=4)
        tracemalloc.start()
        try:
            out = time_averages(model, (5.0, 20.0, 50.0), 200000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < SIMULATOR_PEAK_BUDGET


class TestErgodicity:
    def test_occupation_fraction_long_run(self, two_state):
        # fraction of time in state 0 estimates pi_0 = 2/3
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
        est = tail_estimate(time_averages(two_state, 2.0, 2000, seed=1), 1.5, 2.0)
        assert est.hits == 0 and est.p_hat == 0.0
        assert est.ci_half_width > 0  # Wilson keeps the interval informative

    def test_threshold_at_min(self, two_state):
        est = tail_estimate(time_averages(two_state, 2.0, 2000, seed=1), -2.0, 2.0)
        assert est.p_hat == 1.0

    def test_self_consistency_against_larger_run(self, two_state):
        small = tail_estimate(time_averages(two_state, 5.0, 100000, seed=13), 0.3, 5.0)
        big = tail_estimate(time_averages(two_state, 5.0, 1000000, seed=14), 0.3, 5.0)
        assert abs(small.p_hat - big.p_hat) <= small.ci_half_width + big.ci_half_width

    def test_counts_the_given_averages(self):
        # n is the number of averages, and a hit is an average >= u
        est = tail_estimate([0.5, -1.0, 0.25, 0.2], 0.25, 3.0)
        assert (est.u, est.t, est.n_samples, est.hits, est.p_hat) == (0.25, 3.0, 4, 2, 0.5)
        assert est.ci_half_width == pytest.approx(1.959963984540054 * 0.25)

    def test_counts_reach_the_one_constructor(self):
        est = tail_estimate([0.5, -1.0, 0.25, 0.2], 0.25, 3.0)
        assert TailEstimate.of(0.25, 3.0, 4, 2) == est
        # a hit count of 0 or n takes the Wilson half width
        assert TailEstimate.of(0.25, 3.0, 4, 0).ci_half_width > 0
        with pytest.raises(ValidationError, match="NaN"):
            TailEstimate.of(math.nan, 3.0, 4, 2)

    @pytest.mark.parametrize(
        "t, n, hits, message",
        [
            # n = 0 divided by zero; 11 of 10 and -1 took a square root of a
            # negative number; t = nan was kept
            (3.0, 0, 0, "need at least one sample"),
            (3.0, 10.0, 5, "sample count must be an integer"),
            (3.0, 10, 11, r"hits must be a whole number in \[0, 10\], got 11"),
            (3.0, 10, -1, r"hits must be a whole number in \[0, 10\], got -1"),
            (3.0, 10, 5.0, r"hits must be a whole number in \[0, 10\], got 5.0"),
            (3.0, 10, True, r"hits must be a whole number in \[0, 10\], got True"),
            (math.nan, 10, 5, "horizon must be finite and positive"),
            (-1.0, 10, 5, "horizon must be finite and positive"),
            (0.0, 10, 5, "zero-length horizon"),
        ],
    )
    def test_impossible_counts_and_horizons_refused(self, t, n, hits, message):
        with pytest.raises(ValidationError, match=message):
            TailEstimate.of(0.25, t, n, hits)

    def test_numpy_counts_accepted(self):
        est = TailEstimate.of(0.25, 3.0, np.int64(4), np.int64(2))
        assert est == TailEstimate.of(0.25, 3.0, 4, 2)

    def test_averages_of_several_horizons_rejected(self, two_state):
        # one row per horizon; counting hits over all rows would give p_hat > 1
        rows = time_averages(two_state, [2.0, 5.0], 500, seed=3)
        with pytest.raises(ValidationError, match="one average per sample"):
            tail_estimate(rows, -5.0, 2.0)

    @pytest.mark.parametrize("averages", [[], 0.5], ids=["empty", "scalar"])
    def test_no_averages_rejected(self, averages):
        with pytest.raises(ValidationError, match="one average per sample"):
            tail_estimate(averages, 0.0, 1.0)


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
