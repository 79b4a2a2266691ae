import math
from itertools import product
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinorbit import chsh
from spinorbit.chsh import (
    CIRCLE_SETTINGS,
    TSIRELSON_SETTINGS,
    ChshSettings,
    CountRecord,
    RngSeed,
    chsh_combination,
    chsh_monte_carlo,
    enumerate_assignments,
    estimate_E,
    nchv_max_S,
    pair_probabilities,
    _lane_states,
    _sample_rows,
    sample_counts,
    sweep,
)
from spinorbit.experiment import (
    correlation,
    joint_probabilities,
    spin_orbit_bell_state,
)
from spinorbit.qstate import PhotonState

SQRT2 = math.sqrt(2.0)


def sine_law(chi_a, chi_b):
    return math.sin(chi_a + chi_b)


class TestChshS:
    def test_paper_settings_reach_tsirelson(self):
        s = chsh_combination([sine_law(a, b) for a, b in TSIRELSON_SETTINGS.pairs()])
        assert s == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_vanishing_correlations(self):
        assert chsh_combination([0.0 for _ in TSIRELSON_SETTINGS.pairs()]) == 0.0

    def test_deterministic_assignment_saturates_classical_bound(self):
        # a = b = +1 at every setting: S = 1 + 1 - 1 + 1 = 2.
        assert chsh_combination([1.0 for _ in TSIRELSON_SETTINGS.pairs()]) == pytest.approx(2.0)

    def test_sign_pattern(self):
        # Single minus sits on the (chi_A', chi_B) term.
        settings = ChshSettings(0.0, 1.0, 0.0, 2.0)
        table = {(0.0, 0.0): 1.0, (0.0, 2.0): 2.0, (1.0, 0.0): 4.0, (1.0, 2.0): 8.0}
        assert chsh_combination([table[pair] for pair in settings.pairs()]) == 1.0 + 2.0 - 4.0 + 8.0

    def test_quantum_ceiling_on_dense_grid(self):
        grid = np.linspace(-math.pi, math.pi, 25)
        e_table = np.sin(grid[:, None] + grid[None, :])
        s = (
            e_table[:, None, :, None]
            + e_table[:, None, None, :]
            - e_table[None, :, :, None]
            + e_table[None, :, None, :]
        )
        peak = float(np.max(np.abs(s)))
        assert peak <= 2 * SQRT2 + 1e-9
        assert peak == pytest.approx(2 * SQRT2, abs=1e-12)  # attained on this grid

    def test_pair_probabilities_follow_pair_order(self):
        settings = ChshSettings(0.3, -2.1, 1.7, -0.4)
        bob = spin_orbit_bell_state(m=3)
        probs = pair_probabilities(settings, bob, m=3)
        assert probs.shape == (4, 4)
        for row, (a, b) in zip(probs, settings.pairs()):
            np.testing.assert_allclose(row, joint_probabilities(bob, a, b, m=3), atol=1e-15)
        s = chsh_combination([sine_law(a, b) for a, b in settings.pairs()])
        assert chsh_combination(correlation(pair_probabilities(settings))) == pytest.approx(
            s, abs=1e-12
        )


class TestEstimateE:
    def test_perfect_correlation(self):
        assert estimate_E(CountRecord(500, 0, 0, 500)) == 1.0

    def test_uniform_counts(self):
        assert estimate_E(CountRecord(250, 250, 250, 250)) == 0.0

    def test_near_peak_ratio(self):
        assert estimate_E(CountRecord(427, 73, 73, 427)) == pytest.approx(0.708)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            estimate_E(CountRecord(0, 0, 0, 0))

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            counts = CountRecord(*(int(n) for n in rng.integers(0, 100, size=4) + 1))
            assert -1.0 <= estimate_E(counts) <= 1.0


class TestSampleCounts:
    def test_degenerate_distribution(self):
        counts = sample_counts((1.0, 0.0, 0.0, 0.0), 1000, RngSeed(5))
        assert counts.as_tuple() == (1000, 0, 0, 0)

    def test_uniform_counts_within_five_sigma(self):
        shots = 10**6
        counts = sample_counts((0.25,) * 4, shots, RngSeed(11))
        sigma = math.sqrt(shots * 0.25 * 0.75)
        for n in counts.as_tuple():
            assert abs(n - shots / 4) <= 5 * sigma
        assert counts.total == shots

    def test_deterministic_for_fixed_seed(self):
        probs = (0.4, 0.3, 0.2, 0.1)
        a = sample_counts(probs, 12345, RngSeed(99, stream=3))
        b = sample_counts(probs, 12345, RngSeed(99, stream=3))
        assert a == b

    def test_streams_differ(self):
        probs = (0.25,) * 4
        a = sample_counts(probs, 10000, RngSeed(99, stream=0))
        b = sample_counts(probs, 10000, RngSeed(99, stream=1))
        assert a != b

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            sample_counts((0.5, 0.5, 0.5, 0.5), 10, RngSeed(0))
        with pytest.raises(ValueError):
            sample_counts((1.0, 0.0, 0.0), 10, RngSeed(0))
        with pytest.raises(ValueError):
            sample_counts((0.25,) * 4, 0, RngSeed(0))


class TestSampleRows:
    def test_one_generator_per_lane(self):
        probs = joint_probabilities(spin_orbit_bell_state(), [0.3, -1.2, 2.0], 0.7)
        seed = RngSeed(8, stream=4)
        draws = _sample_rows(probs, 5000, seed, 10)
        assert draws.dtype == np.int64 and draws.shape == (3, 4)
        for k, p in enumerate(probs):
            want = seed.generator(10 + k).multinomial(5000, p / p.sum())
            np.testing.assert_array_equal(draws[k], want)

    def test_generator_matches_default_rng(self):
        seed = RngSeed(12, stream=3)
        ss = np.random.SeedSequence(entropy=12, spawn_key=(3, 7))
        a = seed.generator(7).integers(0, 2**62, size=16)
        b = np.random.default_rng(ss).integers(0, 2**62, size=16)
        np.testing.assert_array_equal(a, b)

    def test_sample_counts_is_the_one_row_case(self):
        probs = (0.4, 0.3, 0.2, 0.1)
        seed = RngSeed(99, stream=3)
        draw = _sample_rows([probs], 12345, seed, 0)
        assert sample_counts(probs, 12345, seed).as_tuple() == tuple(draw[0].tolist())
        want = seed.generator(0).multinomial(12345, np.array(probs) / sum(probs))
        assert tuple(draw[0].tolist()) == tuple(want.tolist())

    @pytest.mark.parametrize(
        "probs, shots",
        [
            ([[0.5, 0.5, 0.1, -0.1], [0.25] * 4], 10),
            ([[0.25] * 4, [0.25, 0.25, 0.25, 0.25 + 1e-6]], 10),
            ([[0.25] * 4, [0.25, 0.25, 0.25, 0.25 - 1e-6]], 10),
            ([[0.25] * 4, [0.25] * 4], 0),
            ([[1 / 3] * 3], 10),
            ([0.25] * 4, 10),
            ([[[0.25] * 4]], 10),
        ],
    )
    def test_invalid_block_rejected(self, probs, shots):
        with pytest.raises(ValueError):
            _sample_rows(probs, shots, RngSeed(0), 0)

    @pytest.mark.parametrize("row", [[math.nan, 0.5, 0.25, 0.25], [0.5, 0.5, 0.0, math.nan]])
    def test_nan_rejected_before_the_lane_hash(self, row, monkeypatch):
        monkeypatch.setattr(chsh, "_lane_states", no_lane_hash)
        with pytest.raises(ValueError, match="^probabilities must be non-negative$"):
            _sample_rows([[0.25] * 4, row], 10, RngSeed(0), 0)

    def test_shots_past_int64_rejected_before_the_lane_hash(self, monkeypatch):
        assert _sample_rows([[0.25] * 4], 2**63 - 1, RngSeed(0), 0).sum() == 2**63 - 1
        monkeypatch.setattr(chsh, "_lane_states", no_lane_hash)
        message = f"^shots must be at most 2\\*\\*63 - 1, got {2**63}$"
        with pytest.raises(ValueError, match=message):
            _sample_rows([[0.25] * 4] * 2, 2**63, RngSeed(0), 0)


    @pytest.mark.parametrize("shots", [10.5, 10.0, True, "10"])
    def test_non_integer_shots_rejected_before_the_lane_hash(self, shots, monkeypatch):
        monkeypatch.setattr(chsh, "_lane_states", no_lane_hash)
        with pytest.raises(ValueError, match=f"^shots must be an integer, got {shots!r}$"):
            _sample_rows([[0.25] * 4] * 2, shots, RngSeed(0), 0)

    def test_non_integer_shots_rejected_by_every_sampler(self):
        message = "^shots must be an integer, got 10.5$"
        with pytest.raises(ValueError, match=message):
            sweep(0.3, [0.1, 0.2], 10.5, RngSeed(1))
        with pytest.raises(ValueError, match=message):
            sample_counts([0.25] * 4, 10.5, RngSeed(1))
        with pytest.raises(ValueError, match="^shots must be an integer, got 100.5$"):
            chsh_monte_carlo(TSIRELSON_SETTINGS, 100.5, RngSeed(1))

    def test_numpy_integer_shots_and_seeds_pass(self):
        want = sweep(0.3, [0.1, 0.2], 10, RngSeed(1, 2))
        got = sweep(0.3, [0.1, 0.2], np.int64(10), RngSeed(np.int64(1), np.uint8(2)))
        np.testing.assert_array_equal(got.counts, want.counts)
        np.testing.assert_array_equal(got.e_estimated, want.e_estimated)

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.lists(st.integers(0, 10**6), min_size=4, max_size=4)
                         .filter(any), min_size=1, max_size=6),
        shots=st.integers(1, 10**6) | st.just(2**63 - 1),
        seed=st.integers(0, 2**64 - 1),
        stream=st.integers(0, 2**40),
        first_lane=(st.integers(0, 8) | st.integers(2**32 - 4, 2**32 + 4)
                    | st.integers(0, 2**40 - 1)),
    )
    @example(weights=[[1, 2, 3, 4]] * 6, shots=10**4, seed=2**64 - 1, stream=2**40,
             first_lane=2**32 - 3)  # a block across the 32-bit lane boundary
    def test_every_row_is_its_lane_generators_draw(self, weights, shots, seed, stream,
                                                   first_lane):
        p = np.array(weights, dtype=float)
        p /= p.sum(axis=1, keepdims=True)
        rng_seed = RngSeed(seed, stream)
        draws = _sample_rows(p, shots, rng_seed, first_lane)
        assert draws.dtype == np.int64 and draws.shape == p.shape
        for k, row in enumerate(p):
            want = rng_seed.generator(first_lane + k).multinomial(shots, row / row.sum())
            np.testing.assert_array_equal(draws[k], want)

    def test_missing_seed_rejected_before_the_lane_hash(self, monkeypatch):
        assert sweep(0.3, [0.1], 0, None).counts is None  # an exact sweep draws nothing
        monkeypatch.setattr(chsh, "_lane_states", no_lane_hash)
        with pytest.raises(ValueError, match="^sampling needs an RngSeed, got None$"):
            sweep(0.3, [0.1], 10, None)


def no_lane_hash(*args):
    raise AssertionError("the block was hashed before it was checked")


def seed_sequence_words(seed, stream, first_lane, n):
    return np.array([
        np.random.SeedSequence(seed, spawn_key=(stream, first_lane + k)).generate_state(
            4, np.uint64)
        for k in range(n)
    ])


class TestLaneStates:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream=st.integers(0, 2**40),
        first_lane=st.integers(0, 2**40) | st.integers(2**32 - 4, 2**32 + 4),
        n=st.integers(1, 6),
    )
    @example(seed=2**64 - 1, stream=2**70, first_lane=2**64 - 2, n=4)  # three-word entries
    def test_matches_seed_sequence(self, seed, stream, first_lane, n):
        states = _lane_states(RngSeed(seed, stream), first_lane, n)
        assert states.dtype == np.uint64
        np.testing.assert_array_equal(states, seed_sequence_words(seed, stream, first_lane, n))

    def test_sweep_rows_across_the_32_bit_word_boundary(self):
        # Rows 2**32 - 2 and 2**32 - 1 have one-word lanes, the next two have
        # two-word lanes; the stream is a two-word entry as well.
        seed = RngSeed(41, stream=2**33)
        grid = [0.3, -0.4, 1.1, 2.5]
        rows = sweep(math.pi / 4, grid, shots=1000, seed=seed, first_row=2**32 - 2)
        for k, row in enumerate(rows):
            p = np.array(row.probabilities)
            want = seed.generator(2**32 - 2 + k).multinomial(1000, p / p.sum())
            assert row.counts.as_tuple() == tuple(want.tolist())


class TestNchvBound:
    def test_paper_settings_capped_at_two(self):
        result = nchv_max_S(TSIRELSON_SETTINGS)
        assert result.max_s == 2.0
        assert result.min_s == -2.0

    def test_bound_for_random_settings(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            settings = ChshSettings(*rng.uniform(-math.pi, math.pi, size=4))
            assert nchv_max_S(settings).max_s == 2.0

    def test_argmax_assignment_reproduces_maximum(self):
        result = nchv_max_S(TSIRELSON_SETTINGS)
        a = result.argmax
        s = (
            a["a"] * a["b"]
            + a["a"] * a["b_prime"]
            - a["a_prime"] * a["b"]
            + a["a_prime"] * a["b_prime"]
        )
        assert s == result.max_s

    def test_enumeration_matches_independent_oracle(self):
        oracle = []
        for signs in product((+1, -1), repeat=4):
            a, ap, b, bp = signs
            oracle.append(a * b + a * bp - ap * b + ap * bp)
        values = sorted(s for s, _ in enumerate_assignments())
        assert values == sorted(oracle)
        assert len(values) == 16

    def test_quantum_exceeds_classical_by_gap(self):
        bell = spin_orbit_bell_state()
        quantum = chsh_combination(correlation(pair_probabilities(TSIRELSON_SETTINGS, bell)))
        gap = quantum - nchv_max_S(TSIRELSON_SETTINGS).max_s
        assert gap == pytest.approx(2 * SQRT2 - 2, abs=1e-12)


class TestSweep:
    def test_exact_columns_follow_sine_law(self):
        grid = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        for chi_b in (math.pi / 4, -math.pi / 4):
            rows = sweep(chi_b, grid, shots=0, seed=RngSeed(0))
            for row in rows:
                s = math.sin(row.chi_a + row.chi_b)
                np.testing.assert_allclose(
                    row.probabilities,
                    [(1 + s) / 4, (1 - s) / 4, (1 - s) / 4, (1 + s) / 4],
                    atol=1e-12,
                )
                assert row.e_exact == pytest.approx(s, abs=1e-12)
                assert row.counts is None and row.e_estimated is None

    def test_peak_row_value(self):
        rows = sweep(math.pi / 4, [math.pi / 2], shots=0, seed=RngSeed(0))
        assert rows[0].e_exact == pytest.approx(SQRT2 / 2, abs=1e-12)

    def test_other_fixed_phase_peak(self):
        rows = sweep(-math.pi / 4, [-math.pi], shots=0, seed=RngSeed(0))
        assert rows[0].e_exact == pytest.approx(SQRT2 / 2, abs=1e-12)

    def test_counts_sum_to_shots(self):
        grid = np.linspace(-math.pi, math.pi, 16, endpoint=False)
        rows = sweep(math.pi / 4, grid, shots=2000, seed=RngSeed(21))
        for row in rows:
            assert row.counts.total == 2000
            assert -1.0 <= row.e_estimated <= 1.0

    def test_circle_settings_flagged(self):
        grid = [math.pi / 2, -math.pi, 0.1]
        rows_plus = sweep(math.pi / 4, grid, shots=0, seed=RngSeed(0))
        assert [r.is_circle for r in rows_plus] == [True, True, False]
        rows_minus = sweep(-math.pi / 4, grid, shots=0, seed=RngSeed(0))
        assert [r.is_circle for r in rows_minus] == [True, True, False]

    def test_rows_reproducible_and_order_independent(self):
        grid = np.linspace(-math.pi, math.pi, 8, endpoint=False)
        rows_a = sweep(math.pi / 4, grid, shots=500, seed=RngSeed(77))
        rows_b = sweep(math.pi / 4, grid, shots=500, seed=RngSeed(77))
        assert [r.counts for r in rows_a] == [r.counts for r in rows_b]
        # Row k draws from lane (stream, k), so a single-point sweep starting
        # at row 3 reproduces that row's counts.
        single = sweep(math.pi / 4, [grid[3]], shots=500, seed=RngSeed(77), first_row=3)
        assert single[0].counts == rows_a[3].counts

    def test_adjacent_streams_never_share_a_draw(self):
        # Equal rows at 10^6 shots: counts match only if two rows share a draw,
        # as row k + 1 of stream 0 and row k of stream 1 once did.
        grid = [0.1] * 8
        rows_0 = sweep(math.pi / 4, grid, shots=10**6, seed=RngSeed(5, stream=0))
        rows_1 = sweep(math.pi / 4, grid, shots=10**6, seed=RngSeed(5, stream=1))
        assert not {r.counts for r in rows_0} & {r.counts for r in rows_1}
        mc_0 = chsh_monte_carlo(TSIRELSON_SETTINGS, 10**6, RngSeed(5, stream=0))
        mc_1 = chsh_monte_carlo(TSIRELSON_SETTINGS, 10**6, RngSeed(5, stream=1))
        assert not set(mc_0.counts) & set(mc_1.counts)

    def test_rows_drawn_from_their_own_lane(self):
        grid = np.linspace(-math.pi, math.pi, 12, endpoint=False)
        seed = RngSeed(31, stream=2)
        rows = sweep(-math.pi / 4, grid, shots=777, seed=seed, first_row=5)
        for k, row in enumerate(rows):
            p = np.array(row.probabilities)
            want = seed.generator(5 + k).multinomial(777, p / p.sum())
            assert row.counts.as_tuple() == tuple(want.tolist())
            assert row.e_estimated == estimate_E(row.counts)

    def test_row_fields_are_python_scalars(self):
        grid = np.linspace(-math.pi, math.pi, 4, endpoint=False)
        sampled = sweep(np.float64(math.pi / 4), grid, shots=100, seed=RngSeed(2))
        exact = sweep(math.pi / 4, grid, shots=0, seed=RngSeed(2))
        for row in [*sampled, *exact]:
            assert type(row.chi_a) is float and type(row.chi_b) is float
            assert type(row.probabilities) is tuple and len(row.probabilities) == 4
            assert all(type(p) is float for p in row.probabilities)
            assert type(row.e_exact) is float and type(row.is_circle) is bool
        for row in sampled:
            assert type(row.counts) is CountRecord and type(row.e_estimated) is float
            assert all(type(n) is int for n in row.counts.as_tuple())

    def test_negative_first_row_rejected(self):
        with pytest.raises(ValueError):
            sweep(0.0, [0.1], shots=10, seed=RngSeed(0), first_row=-1)

    @pytest.mark.parametrize("shots,first_row,message", [
        (10, 0.5, "first_row must be an integer, got 0.5"),
        (10, True, "first_row must be an integer, got True"),
        (0.0, 0, "shots must be an integer, got 0.0"),
        (None, 0, "shots must be an integer, got None"),
    ])
    def test_non_integer_counts_rejected_before_the_analyzer(self, shots, first_row, message,
                                                             monkeypatch):
        def no_analyzer(*args, **kwargs):
            raise AssertionError("the analyzer ran before the counts were checked")

        monkeypatch.setattr(chsh, "joint_probabilities", no_analyzer)
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep(0.3, [0.1], shots, RngSeed(1), first_row=first_row)

    @pytest.mark.parametrize("chi_b,message", [
        (np.array([0.1, 0.2]), r"chi_b must be a scalar, got shape \(2,\)"),
        ("0.3", "chi_b must be a real number, got '0.3'"),
        (True, "chi_b must be a real number, got True"),
    ], ids=["array", "str", "bool"])
    def test_chi_b_is_one_real_scalar_before_the_analyzer(self, chi_b, message, monkeypatch):
        # An array chi_b once broadcast against the grid and sampled before float() failed.
        def no_analyzer(*args, **kwargs):
            raise AssertionError("the analyzer ran before chi_b was checked")

        monkeypatch.setattr(chsh, "joint_probabilities", no_analyzer)
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep(chi_b, [0.1, 0.2], 10, RngSeed(1))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(0.0, [], shots=0, seed=RngSeed(0))

    @pytest.mark.parametrize("grid", [0.5, np.zeros((2, 3)), [[0.1], [0.2]], np.zeros((0, 2))],
                             ids=["scalar", "2-d", "nested-list", "empty-2-d"])
    def test_grid_that_is_not_one_dimensional_rejected(self, grid):
        with pytest.raises(ValueError, match="^chi_A grid must be one-dimensional$"):
            sweep(0.0, grid, shots=10, seed=RngSeed(0))


class TestCircleSettings:
    def test_four_hard_coded_pairs(self):
        assert CIRCLE_SETTINGS == (
            (math.pi / 2, math.pi / 4),
            (math.pi / 2, -math.pi / 4),
            (-math.pi, math.pi / 4),
            (-math.pi, -math.pi / 4),
        )

    def test_each_reaches_peak_correlation(self):
        bell = spin_orbit_bell_state()
        for chi_a, chi_b in CIRCLE_SETTINGS:
            assert abs(correlation(joint_probabilities(bell, chi_a, chi_b))) == pytest.approx(
                SQRT2 / 2, abs=1e-12
            )


class TestMonteCarlo:
    def test_recovers_tsirelson_within_five_sigma(self):
        result = chsh_monte_carlo(TSIRELSON_SETTINGS, 10**6, RngSeed(42))
        assert result.standard_error == pytest.approx(math.sqrt(2e-6), rel=0.05)
        assert abs(result.s_estimate - 2 * SQRT2) <= 5 * result.standard_error

    def test_reproducible_counts(self):
        a = chsh_monte_carlo(TSIRELSON_SETTINGS, 10**4, RngSeed(9, stream=2))
        b = chsh_monte_carlo(TSIRELSON_SETTINGS, 10**4, RngSeed(9, stream=2))
        assert a.counts == b.counts
        assert a.s_estimate == b.s_estimate

    def test_null_settings_give_zero(self):
        settings = ChshSettings(0.0, 0.0, 0.0, 0.0)
        result = chsh_monte_carlo(settings, 10**5, RngSeed(3))
        assert abs(result.s_estimate) <= 5 * result.standard_error

    def test_estimator_consistency_across_shot_counts(self):
        bell = spin_orbit_bell_state()
        rng = np.random.default_rng(55)
        for trial in range(20):
            chi_a, chi_b = rng.uniform(-math.pi, math.pi, size=2)
            from spinorbit.experiment import joint_probabilities

            probs = joint_probabilities(bell, chi_a, chi_b)
            e_exact = probs[0] + probs[3] - probs[1] - probs[2]
            for n in (10**3, 10**4, 10**6):
                counts = sample_counts(probs, n, RngSeed(1000 + trial, stream=n % 97))
                bound = 5 * math.sqrt((1 - e_exact**2) / n) + 1e-9
                assert abs(estimate_E(counts) - e_exact) <= bound

    def test_settings_drawn_from_lanes_zero_to_three(self):
        seed = RngSeed(9, stream=2)
        result = chsh_monte_carlo(TSIRELSON_SETTINGS, 10**4, seed)
        for k, p in enumerate(pair_probabilities(TSIRELSON_SETTINGS)):
            want = seed.generator(k).multinomial(10**4, p / p.sum())
            assert result.counts[k].as_tuple() == tuple(want.tolist())

    def test_too_few_shots_rejected(self):
        with pytest.raises(ValueError):
            chsh_monte_carlo(TSIRELSON_SETTINGS, 1, RngSeed(0))

    def test_shots_of_none_rejected(self):
        with pytest.raises(ValueError, match="^shots must be an integer, got None$"):
            chsh_monte_carlo(TSIRELSON_SETTINGS, None, RngSeed(0))

    def test_kernel_and_sampler_share_the_unit_probability_rule(self):
        # The squared norm is the total probability the sampler checks, so a
        # state the analyzer accepts is one the sampler accepts.
        bell = spin_orbit_bell_state()
        near = PhotonState(bell.m_max, bell.grid * (1 + 0.4e-9))
        result = chsh_monte_carlo(TSIRELSON_SETTINGS, 100, RngSeed(0), bob=near)
        assert sum(result.counts[0].as_tuple()) == 100
        far = PhotonState(bell.m_max, bell.grid * (1 + 0.9e-9))
        with pytest.raises(ValueError, match="^analyzer input must be unit norm"):
            chsh_monte_carlo(TSIRELSON_SETTINGS, 100, RngSeed(0), bob=far)


def assert_standard_normal(z):
    """z holds n draws that should be independent N(0, 1): |mean| <= 5/sqrt(n), and the sample
    variance lies inside the two-sided 1e-6 interval of chi2(n - 1) / (n - 1).  The quantiles
    use the Wilson-Hilferty cube root, whose relative error at n - 1 = 399 is below 1e-3."""
    n = len(z)
    assert abs(z.mean()) <= 5 / math.sqrt(n)
    k = n - 1

    def chi2_quantile(p):
        x = NormalDist().inv_cdf(p)
        return k * (1 - 2 / (9 * k) + x * math.sqrt(2 / (9 * k))) ** 3

    assert chi2_quantile(0.5e-6) / k <= z.var(ddof=1) <= chi2_quantile(1 - 0.5e-6) / k


class TestStatisticalContracts:
    """The sampler's documented statistics, checked on fixed seeds so tier-1 stays
    deterministic; each bound comes from the sampling distribution, not from the draws."""

    def test_monte_carlo_standard_error_is_calibrated(self):
        # 400 runs on streams 0-399: (S - 2 sqrt 2) / SE is close to N(0, 1) at 1,000 shots.
        z = []
        for stream in range(400):
            est = chsh_monte_carlo(TSIRELSON_SETTINGS, 1000, RngSeed(2024, stream))
            z.append((est.s_estimate - 2 * SQRT2) / est.standard_error)
        assert_standard_normal(np.array(z))

    def test_sweep_estimates_scatter_by_their_standard_error(self):
        # |E| <= sin(1) on this grid, so no row's count ratio is near-degenerate.
        table = sweep(0.0, np.linspace(-1.0, 1.0, 400), 1000, RngSeed(2024))
        se = np.sqrt((1.0 - table.e_exact**2) / 1000)
        assert_standard_normal((table.e_estimated - table.e_exact) / se)

    def test_counts_are_uncorrelated_across_streams_and_rows(self):
        # One setting on every row, so n_pp is a Binomial(100, p_pp) draw per row and lane.
        n = 2000
        n_pp = [sweep(0.3, np.full(n, 0.3), 100, RngSeed(2024, stream)).counts[:, 0]
                for stream in (0, 1)]
        assert abs(np.corrcoef(n_pp[0], n_pp[1])[0, 1]) <= 5 / math.sqrt(n)
        for counts in n_pp:
            assert abs(np.corrcoef(counts[:-1], counts[1:])[0, 1]) <= 5 / math.sqrt(n - 1)


class TestSettingsValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ChshSettings(float("inf"), 0.0, 0.0, 0.0)

    def test_pairs_order(self):
        s = ChshSettings(1.0, 2.0, 3.0, 4.0)
        assert s.pairs() == ((1.0, 3.0), (1.0, 4.0), (2.0, 3.0), (2.0, 4.0))

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            RngSeed(-1)
        with pytest.raises(ValueError):
            RngSeed(0, stream=-2)

    @pytest.mark.parametrize("args,message", [
        ((1.5,), "seed must be an integer, got 1.5"),
        ((0, 0.5), "stream must be an integer, got 0.5"),
        ((True,), "seed must be an integer, got True"),
        ((None,), "seed must be an integer, got None"),
        ((-1,), "seed must fit in an unsigned 64-bit integer"),
        ((2**64,), "seed must fit in an unsigned 64-bit integer"),
        ((0, -2), "stream index must be non-negative"),
    ])
    def test_seed_faults_raise_one_line_at_construction(self, args, message):
        with pytest.raises(ValueError) as err:
            RngSeed(*args)
        assert str(err.value) == message
