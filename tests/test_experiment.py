import cmath
import functools
import hashlib
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import states_equal_up_to_phase
from test_benchdsl import random_alice_bench, random_bench

from spinorbit import elements, experiment
from spinorbit.benchdsl import compile_bench, parse
from spinorbit.chsh import RngSeed, sweep
from spinorbit.elements import _P_H, _P_V, QPlateSpec, dove_pair_op, waveplate_op
from spinorbit.experiment import (
    LOST_WEIGHT_TOL,
    LostWeightError,
    _oam_outcomes,
    _spin_outcomes,
    correlation,
    herald,
    interferometer_detect,
    joint_probabilities,
    prepare_hybrid,
    spdc_source,
    spin_orbit_bell_state,
)
from spinorbit.qstate import (
    _CIRC_TO_LIN,
    NORM_TOL,
    SPIN_LABELS,
    BipartiteState,
    ElementOp,
    PhotonState,
    TruncationError,
)

SQRT_HALF = math.sqrt(0.5)

# Each 0-d form a setting can take: the analyzers check these as Python floats.
SCALAR_FORMS = (float, np.float64, np.asarray)
# Non-finite settings in the 0-d forms the scalar check reads, beside the Python floats.
NON_FINITE_0D = {f"{form.__name__}-{value}": form(value)
                 for form in (np.float64, np.asarray) for value in (math.nan, math.inf, -math.inf)}
# The largest |alpha| whose Dove phases 2*m*alpha stay finite on the Bell state (m_max = 2).
BELL_ALPHA_MAX = sys.float_info.max / 5

# random_bench seeds whose bench has a herald and leaves Bob nonzero weight, at m_max 0 to 7.
BENCH_SEEDS = (3, 4, 5, 7, 8, 12, 13, 24, 30, 36)


def brute_force_joint_probabilities(bob, chi_a, chi_b, m=2):
    """Independent oracle: explicit outcome vectors and overlaps.

    Builds the four joint outcome states from their definitions with plain
    numpy over the (spin, m) grid and squares the overlaps directly.
    """
    grid = bob.grid
    n = grid.shape[1]
    m_max = bob.m_max
    probs = []
    for sign_a in (+1, -1):
        oam = np.zeros(n, dtype=complex)
        oam[-m + m_max] = (1 + 1j) / 2
        oam[m + m_max] = sign_a * (1 - 1j) * cmath.exp(1j * chi_a) / 2
        for sign_b in (+1, -1):
            spin = np.array(
                [SQRT_HALF, sign_b * cmath.exp(1j * chi_b) * SQRT_HALF]
            )
            amp = np.conj(np.outer(spin, oam)).reshape(-1) @ grid.reshape(-1)
            probs.append(abs(amp) ** 2)
    return tuple(probs)


class TestSource:
    def test_circular_expansion(self):
        src = spdc_source()
        assert src.amplitude("L", "R", 0) == pytest.approx(SQRT_HALF, abs=1e-12)
        assert src.amplitude("R", "L", 0) == pytest.approx(SQRT_HALF, abs=1e-12)
        assert src.amplitude("L", "L", 0) == pytest.approx(0.0, abs=1e-12)
        assert src.amplitude("R", "R", 0) == pytest.approx(0.0, abs=1e-12)

    def test_linear_basis_amplitude(self):
        # <H_A H_B| source> = 1/sqrt(2)
        src = spdc_source()
        h = np.array([SQRT_HALF, SQRT_HALF])
        bob_h = np.conj(h) @ np.array(
            [[src.amplitude(a, b, 0) for b in "LR"] for a in "LR"]
        ) @ np.conj(h)
        assert bob_h == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_unit_norm(self):
        assert spdc_source().norm() == pytest.approx(1.0, abs=1e-12)


class TestPrepareHybrid:
    def test_correlated_amplitudes(self):
        state = prepare_hybrid()
        assert state.amplitude("L", "L", -2) == pytest.approx(SQRT_HALF, abs=1e-12)
        assert state.amplitude("R", "R", 2) == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_cross_terms_absent(self):
        state = prepare_hybrid()
        assert state.amplitude("L", "R", 2) == pytest.approx(0.0, abs=1e-12)
        assert state.amplitude("R", "L", -2) == pytest.approx(0.0, abs=1e-12)

    def test_axis_offset_phases(self):
        state = prepare_hybrid(QPlateSpec(1, math.pi / 4))
        assert state.amplitude("L", "L", -2) == pytest.approx(
            SQRT_HALF * cmath.exp(-1j * math.pi / 2), abs=1e-12
        )
        assert state.amplitude("R", "R", 2) == pytest.approx(
            SQRT_HALF * cmath.exp(1j * math.pi / 2), abs=1e-12
        )

    def test_wider_plate_charge(self):
        state = prepare_hybrid(QPlateSpec(2, 0.0))
        assert state.amplitude("L", "L", -4) == pytest.approx(SQRT_HALF, abs=1e-12)
        assert state.amplitude("R", "R", 4) == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_default_truncation_bound(self):
        """Each library state defaults to the widest charge it holds."""
        assert [prepare_hybrid(QPlateSpec(q)).m_max for q in (1, 2, 0.5)] == [2, 4, 1]
        assert [spin_orbit_bell_state(m).m_max for m in (1, 2, 3)] == [1, 2, 3]
        assert spdc_source().m_max == 0

    @pytest.mark.parametrize("q", [0.5, 1, 1.5, 2, -1])
    def test_equals_the_compiled_bench(self, q):
        compiled = compile_bench(
            parse(f"source spdc\nfilter smf side=bob\nqplate q={q} side=bob\n")
        ).run().bipartite
        state = prepare_hybrid(QPlateSpec(q))
        assert state.m_max == compiled.m_max
        assert state.grid.tobytes() == compiled.grid.tobytes()


class TestHerald:
    def test_collapses_to_bell_state(self):
        outcome = herald(prepare_hybrid())
        assert outcome.probability == pytest.approx(0.5, abs=1e-12)
        assert states_equal_up_to_phase(outcome.state, spin_orbit_bell_state())

    def test_photon_state_rejected(self):
        with pytest.raises(TypeError, match="^herald takes a BipartiteState, got PhotonState$"):
            herald(spin_orbit_bell_state())

    def test_product_input_passes_through(self):
        bob = PhotonState.basis_state("L", 0, 2)
        pair = BipartiteState.from_amplitudes(
            2,
            {
                ("L", "L", 0): SQRT_HALF * SQRT_HALF,
                ("R", "L", 0): SQRT_HALF * SQRT_HALF,
            },
        )
        # normalize: |H>_A (x) |L,0>_B has those four amplitudes over alice L/R
        pair = BipartiteState(2, pair.grid / pair.norm())
        outcome = herald(pair)
        assert outcome.probability == pytest.approx(1.0, abs=1e-12)
        assert states_equal_up_to_phase(outcome.state, bob)

    def test_zero_probability_flagged(self):
        pair = BipartiteState.from_amplitudes(2, {("L", "L", 0): SQRT_HALF, ("R", "L", 0): -SQRT_HALF})
        outcome = herald(pair, "H")  # Alice holds |V>-like state, <H|V> = 0
        assert outcome.probability == 0.0
        assert outcome.state.norm() < NORM_TOL

    @pytest.mark.parametrize(
        "basis,shown", [([1, 1], "1.414"), ([math.nan, 0], "nan")], ids=["1-1", "nan-0"]
    )
    def test_basis_must_have_unit_norm(self, basis, shown):
        message = f"^herald basis must have unit norm, got {shown}"
        with pytest.raises(ValueError, match=message) as err:
            herald(prepare_hybrid(), basis)
        assert "\n" not in str(err.value)

    def test_idempotent_on_product_extension(self):
        bob = herald(prepare_hybrid()).state
        grid = bob.grid
        amps = {
            (SPIN_LABELS[s], m - bob.m_max): grid[s, m] for s, m in zip(*np.nonzero(grid))
        }
        extended = BipartiteState.from_amplitudes(
            bob.m_max,
            {
                ("L", spin, m): SQRT_HALF * amp
                for (spin, m), amp in amps.items()
            }
            | {
                ("R", spin, m): SQRT_HALF * amp
                for (spin, m), amp in amps.items()
            },
        )
        again = herald(extended)
        assert again.probability == pytest.approx(1.0, abs=1e-12)
        assert states_equal_up_to_phase(again.state, bob)


class TestObservables:
    """Outcome states: row 0 is the +1 outcome, row 1 the -1 outcome."""

    def test_oam_plus_state_at_zero_phase(self):
        plus = _oam_outcomes(0.0)[0]
        assert plus[0] == pytest.approx((1 + 1j) / 2)  # |-2>
        assert plus[1] == pytest.approx((1 - 1j) / 2)  # |+2>

    def test_oam_outcomes_orthogonal(self):
        for chi in np.linspace(-math.pi, math.pi, 7):
            v1, v2 = _oam_outcomes(chi)
            assert abs(np.vdot(v1, v2)) < 1e-12

    def test_oam_plus_state_at_quarter_phase(self):
        # (1+i) = sqrt(2) e^{i pi/4} and (1-i) e^{i pi/2} = sqrt(2) e^{i pi/4},
        # so the state is (|-2> + |+2>)/sqrt(2) times a global e^{i pi/4}.
        v = _oam_outcomes(math.pi / 2)[0]
        expected = np.array([SQRT_HALF, SQRT_HALF], dtype=complex)
        assert abs(np.vdot(expected, v)) == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(expected, v) / abs(np.vdot(expected, v)) == pytest.approx(
            cmath.exp(1j * math.pi / 4), abs=1e-12
        )

    def test_spin_plus_state_at_zero_phase_is_horizontal(self):
        v = _spin_outcomes(0.0)[0]
        np.testing.assert_allclose(v, [SQRT_HALF, SQRT_HALF], atol=1e-12)

    def test_spin_plus_state_at_half_turn_is_vertical(self):
        v = _spin_outcomes(math.pi)[0]
        vert = np.array([-1j * SQRT_HALF, 1j * SQRT_HALF])
        assert abs(np.vdot(vert, v)) == pytest.approx(1.0, abs=1e-12)

    def test_spin_outcomes_orthogonal(self):
        for chi in np.linspace(-math.pi, math.pi, 7):
            plus, minus = _spin_outcomes(chi)
            assert abs(np.vdot(plus, minus)) < 1e-12


class TestJointProbabilities:
    def test_frozen_values_at_peak_settings(self):
        bell = spin_orbit_bell_state()
        probs = joint_probabilities(bell, math.pi / 2, math.pi / 4)
        high = (1 + SQRT_HALF) / 4  # 0.4267766952966369
        low = (1 - SQRT_HALF) / 4  # 0.0732233047033631
        assert probs[0] == pytest.approx(high, abs=1e-12)
        assert probs[3] == pytest.approx(high, abs=1e-12)
        assert probs[1] == pytest.approx(low, abs=1e-12)
        assert probs[2] == pytest.approx(low, abs=1e-12)
        e = probs[0] + probs[3] - probs[1] - probs[2]
        assert e == pytest.approx(math.sin(3 * math.pi / 4), abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        bell = spin_orbit_bell_state()
        pairs = []
        for _ in range(25):
            chi_a, chi_b = rng.uniform(-math.pi, math.pi, size=2)
            pairs.append((chi_a, chi_b))
            expected = brute_force_joint_probabilities(bell, chi_a, chi_b)
            actual = joint_probabilities(bell, chi_a, chi_b)
            np.testing.assert_allclose(actual, expected, atol=1e-12)
        chi_a, chi_b = np.array(pairs).T
        batched = joint_probabilities(bell, chi_a, chi_b)
        assert batched.shape == (25, 4)
        for row, (a, b) in zip(batched, pairs):
            oracle = brute_force_joint_probabilities(bell, a, b)
            np.testing.assert_allclose(row, oracle, atol=1e-12)

    def test_nan_state_rejected(self):
        bell = spin_orbit_bell_state()
        grid = bell.grid.copy()
        grid[0, 0] = math.nan
        bob = PhotonState(bell.m_max, grid)
        with pytest.raises(ValueError, match="^analyzer input must be unit norm, got nan$"):
            joint_probabilities(bob, 0.0, 0.0)
        with pytest.raises(ValueError, match="unit norm"):
            sweep(0.0, [0.0, 1.0], 0, RngSeed(0), bob=bob)

    def test_batched_rows_equal_scalar_calls(self):
        rng = np.random.default_rng(19)
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        state = PhotonState.from_amplitudes(4, {("L", -2): c[0], ("R", 2): c[1]})
        chi_a, chi_b = rng.uniform(-math.pi, math.pi, size=(2, 40))
        batched = joint_probabilities(state, chi_a, chi_b)
        for row, a, b in zip(batched, chi_a, chi_b):
            for form in SCALAR_FORMS:
                assert joint_probabilities(state, form(a), form(b)).tobytes() == row.tobytes()

    def test_outer_broadcast_shape(self):
        bell = spin_orbit_bell_state()
        chi_a = np.linspace(-math.pi, math.pi, 5)[:, None]
        chi_b = np.linspace(-1.0, 1.0, 3)[None, :]
        probs = joint_probabilities(bell, chi_a, chi_b)
        assert probs.shape == (5, 3, 4)
        assert joint_probabilities(bell, 0.1, 0.2).shape == (4,)
        np.testing.assert_allclose(
            correlation(joint_probabilities(bell, chi_a, chi_b)), np.sin(chi_a + chi_b), atol=1e-12
        )

    def test_charge_beyond_truncation_rejected(self):
        bell = spin_orbit_bell_state(m=2, m_max=2)
        with pytest.raises(TruncationError):
            joint_probabilities(bell, 0.0, 0.0, m=3)

    def test_zero_charge_rejected(self):
        with pytest.raises(ValueError, match="^m must be at least 1, got 0$"):
            joint_probabilities(spin_orbit_bell_state(), 0.0, 0.0, m=0)

    @pytest.mark.parametrize("m", [2.0, 2.5, True])
    def test_non_integer_charge_rejected(self, m):
        # Before the check 2.0 failed in the fancy index, 2.5 as a truncation
        # and True as lost weight.
        with pytest.raises(ValueError, match=f"^m must be an integer, got {m}$"):
            joint_probabilities(spin_orbit_bell_state(), 0.1, 0.1, m=m)

    def test_numpy_integer_charge_is_the_charge(self):
        bell = spin_orbit_bell_state()
        want = joint_probabilities(bell, 0.1, 0.1, m=2)
        assert joint_probabilities(bell, 0.1, 0.1, m=np.int64(2)).tobytes() == want.tobytes()

    def test_non_finite_setting_rejected(self):
        bell = spin_orbit_bell_state()
        with pytest.raises(ValueError, match="finite"):
            joint_probabilities(bell, [0.0, math.nan], 0.0)
        with pytest.raises(ValueError, match="finite"):
            joint_probabilities(bell, 0.0, math.inf)
        for value in NON_FINITE_0D.values():
            for chi_a, chi_b in ((value, 0.2), (0.1, value)):
                with pytest.raises(ValueError,
                                   match="^analyzer setting must be finite, got -?(nan|inf)$"):
                    joint_probabilities(bell, chi_a, chi_b)

    def test_uniform_at_zero_settings(self):
        bell = spin_orbit_bell_state()
        np.testing.assert_allclose(
            joint_probabilities(bell, 0.0, 0.0), [0.25] * 4, atol=1e-12
        )

    def test_completeness(self):
        rng = np.random.default_rng(23)
        bell = spin_orbit_bell_state()
        for _ in range(10):
            chi_a, chi_b = rng.uniform(-math.pi, math.pi, size=2)
            assert sum(joint_probabilities(bell, chi_a, chi_b)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_marginals_are_unbiased(self):
        bell = spin_orbit_bell_state()
        rng = np.random.default_rng(29)
        for _ in range(10):
            chi_a, chi_b = rng.uniform(-math.pi, math.pi, size=2)
            p_pp, p_pm, p_mp, p_mm = joint_probabilities(bell, chi_a, chi_b)
            assert p_pp + p_pm == pytest.approx(0.5, abs=1e-12)
            assert p_pp + p_mp == pytest.approx(0.5, abs=1e-12)

    def test_support_outside_analyzer_subspace_rejected(self):
        stray = PhotonState.from_amplitudes(
            4, {("L", -2): 0.8, ("R", 0): 0.6}
        )
        with pytest.raises(LostWeightError):
            joint_probabilities(stray, 0.3, 0.4)

    def test_non_unit_input_rejected(self):
        small = PhotonState.from_amplitudes(4, {("L", -2): 0.5})
        with pytest.raises(ValueError):
            joint_probabilities(small, 0.0, 0.0)


class TestExpectation:
    def test_analytic_law_on_grid(self):
        bell = spin_orbit_bell_state()
        grid = np.linspace(-math.pi, math.pi, 32, endpoint=False)
        worst = max(
            abs(correlation(joint_probabilities(bell, a, b)) - math.sin(a + b))
            for a in grid
            for b in grid
        )
        assert worst <= 1e-12

    def test_peak_pair_value(self):
        bell = spin_orbit_bell_state()
        assert correlation(joint_probabilities(bell, math.pi / 2, math.pi / 4)) == pytest.approx(
            SQRT_HALF, abs=1e-12
        )

    def test_null_at_zero(self):
        bell = spin_orbit_bell_state()
        assert correlation(joint_probabilities(bell, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_correlation(self):
        bell = spin_orbit_bell_state()
        assert correlation(joint_probabilities(bell, math.pi / 4, math.pi / 4)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_law_holds_for_wider_charge(self):
        bell4 = spin_orbit_bell_state(m=4)
        rng = np.random.default_rng(31)
        for _ in range(10):
            chi_a, chi_b = rng.uniform(-math.pi, math.pi, size=2)
            assert correlation(joint_probabilities(bell4, chi_a, chi_b, m=4)) == pytest.approx(
                math.sin(chi_a + chi_b), abs=1e-12
            )


class TestInterferometer:
    @pytest.mark.parametrize("scale", [0.0, 2.0, math.nan])
    def test_non_unit_input_rejected_like_the_kernel(self, scale):
        bell = spin_orbit_bell_state()
        bob = PhotonState(bell.m_max, bell.grid * scale)
        message = f"^analyzer input must be unit norm, got {bob.norm()}$"
        for route in (joint_probabilities, interferometer_detect):
            with pytest.raises(ValueError, match=message):
                route(bob, 0.1, math.nan)  # the norm is checked before the settings

    def test_bipartite_input_rejected_by_both_routes(self):
        message = "^the analyzer takes Bob's heralded PhotonState, got BipartiteState$"
        for route in (joint_probabilities, interferometer_detect):
            with pytest.raises(TypeError, match=message):
                route(prepare_hybrid(), 0.1, 0.2)

    def test_matches_projector_shortcut_at_peak(self):
        bell = spin_orbit_bell_state()
        alpha, beta = math.radians(22.5), math.radians(22.5)
        detected = interferometer_detect(bell, alpha, beta)
        shortcut = joint_probabilities(bell, 4 * alpha, 2 * beta)
        np.testing.assert_allclose(detected, shortcut, atol=1e-10)

    def test_matches_projector_shortcut_at_null(self):
        bell = spin_orbit_bell_state()
        detected = interferometer_detect(bell, 0.0, 0.0)
        np.testing.assert_allclose(detected, [0.25] * 4, atol=1e-10)

    def test_equivalence_on_angle_grid(self):
        bell = spin_orbit_bell_state()
        grid = np.linspace(-math.pi / 2, math.pi / 2, 16)
        alpha, beta = grid[:, None], grid[None, :]
        detected = interferometer_detect(bell, alpha, beta)
        shortcut = joint_probabilities(bell, 4 * alpha, 2 * beta)
        assert detected.shape == (16, 16, 4)
        worst = np.max(np.abs(detected - shortcut))
        assert worst <= 1e-10

    def test_equivalence_for_complex_amplitudes(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            c /= np.linalg.norm(c)
            state = PhotonState.from_amplitudes(
                4, {("L", -2): c[0], ("R", 2): c[1]}
            )
            alpha, beta = rng.uniform(-math.pi, math.pi, size=2)
            detected = interferometer_detect(state, alpha, beta)
            shortcut = joint_probabilities(state, 4 * alpha, 2 * beta)
            np.testing.assert_allclose(detected, shortcut, atol=1e-10)

    def test_zero_oam_input_ignores_prism_rotation(self):
        state = PhotonState.basis_state("L", 0, 2)
        reference = interferometer_detect(state, 0.0, 0.3)
        probs = interferometer_detect(state, np.linspace(-math.pi, math.pi, 17), 0.3)
        np.testing.assert_allclose(probs, np.broadcast_to(reference, (17, 4)), atol=1e-12)

    def test_probabilities_sum_to_one(self):
        bell = spin_orbit_bell_state()
        assert sum(interferometer_detect(bell, 0.4, -0.9)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_batched_rows_equal_scalar_calls(self):
        bell = spin_orbit_bell_state()
        rng = np.random.default_rng(43)
        alpha, beta = rng.uniform(-math.pi, math.pi, size=(2, 25))
        batched = interferometer_detect(bell, alpha, beta)
        assert batched.shape == (25, 4)
        for row, a, b in zip(batched, alpha, beta):
            for form in SCALAR_FORMS:
                scalar = interferometer_detect(bell, form(a), form(b))
                assert scalar.shape == (4,) and scalar.tobytes() == row.tobytes()

    def test_outer_broadcast_shape(self):
        bell = spin_orbit_bell_state()
        alpha = np.linspace(-1.0, 1.0, 5)[:, None]
        beta = np.linspace(-2.0, 2.0, 3)[None, :]
        grid = interferometer_detect(bell, alpha, beta)
        assert grid.shape == (5, 3, 4)
        for i in range(5):
            for j in range(3):
                np.testing.assert_allclose(
                    grid[i, j], interferometer_detect(bell, alpha[i, 0], beta[0, j]),
                    rtol=0, atol=1e-15,
                )

    @pytest.mark.parametrize("bad", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_settings_rejected(self, bad, value):
        bell = spin_orbit_bell_state()
        angles = {"alpha": np.array([0.1, 0.2, 0.3]), "beta": np.array([0.4, 0.5, 0.6])}
        angles[bad][1] = value
        with pytest.raises(ValueError, match=f"analyzer setting must be finite, got {value}"):
            interferometer_detect(bell, angles["alpha"], angles["beta"])


def replay_detect(bob, alpha, beta):
    """Reference analyzer: every element applied on its own, none composed or folded.

    Per setting of the broadcast (alpha, beta): qwp(pi/4), each splitter arm,
    the image inversion on the reflected arm, the Dove pair, the recombiner,
    then per port qwp(-pi/4), hwp(0), hwp(beta) and the detectors' H/V rows.
    """
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, float), np.asarray(beta, float))
    m_max = bob.m_max
    grid = waveplate_op("qwp", math.pi / 4)._apply_grid(bob.grid, m_max)
    arm_t, inverted = _P_H @ grid, (_P_V @ grid)[:, ::-1]
    probs = np.empty(alpha.shape + (4,))
    for idx in np.ndindex(alpha.shape):
        arm_r = dove_pair_op(alpha[idx], m_max)._apply_grid(inverted, m_max)
        ports = np.stack([SQRT_HALF * (arm_t + 1j * arm_r), SQRT_HALF * (1j * arm_t + arm_r)])
        for plate in (waveplate_op("qwp", -math.pi / 4), waveplate_op("hwp", 0.0),
                      waveplate_op("hwp", beta[idx])):
            ports = plate._apply_grid(ports, m_max)
        probs[idx] = (np.abs(_CIRC_TO_LIN @ ports) ** 2).sum(axis=-1).reshape(4)
    return probs


def random_unit_state(rng, m_max):
    shape = (2, 2 * m_max + 1)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return PhotonState(m_max, amps / np.linalg.norm(amps))


class TestInterferometerReplay:
    """The composed fast path against the element-by-element reference."""

    @pytest.mark.parametrize("m_max", range(7))
    def test_scalar_settings_match_replay(self, m_max):
        rng = np.random.default_rng(100 + m_max)
        for _ in range(20):
            bob = random_unit_state(rng, m_max)
            alpha, beta = rng.uniform(-2 * math.pi, 2 * math.pi, size=2)
            fast, ref = interferometer_detect(bob, alpha, beta), replay_detect(bob, alpha, beta)
            assert fast.shape == ref.shape == (4,)
            assert np.max(np.abs(fast - ref)) <= 1e-15

    @pytest.mark.parametrize("m_max", range(7))
    def test_broadcast_settings_match_replay(self, m_max):
        rng = np.random.default_rng(200 + m_max)
        for _ in range(5):
            bob = random_unit_state(rng, m_max)
            alpha = rng.uniform(-2 * math.pi, 2 * math.pi, size=(7, 1))
            beta = rng.uniform(-2 * math.pi, 2 * math.pi, size=5)
            fast, ref = interferometer_detect(bob, alpha, beta), replay_detect(bob, alpha, beta)
            assert fast.shape == ref.shape == (7, 5, 4)
            assert np.max(np.abs(fast - ref)) <= 1e-15

    def test_replay_matches_kernel_on_the_bell_state(self):
        bell = spin_orbit_bell_state()
        grid = np.linspace(-math.pi / 2, math.pi / 2, 9)
        alpha, beta = grid[:, None], grid[None, :]
        np.testing.assert_allclose(
            replay_detect(bell, alpha, beta), joint_probabilities(bell, 4 * alpha, 2 * beta),
            rtol=0, atol=1e-12,
        )

    def test_each_call_builds_no_element(self, monkeypatch):
        bell = spin_orbit_bell_state()
        interferometer_detect(bell, 0.1, 0.2)  # the fixed plates are built on first use

        def no_build(*args, **kwargs):
            raise AssertionError("interferometer_detect built an element")

        for module in (elements, experiment):  # experiment imports only waveplate_op
            for name in ("dove_pair_op", "waveplate_op"):
                monkeypatch.setattr(module, name, no_build, raising=False)
        monkeypatch.setattr(ElementOp, "__init__", no_build)
        probs = interferometer_detect(bell, np.array([0.1, 0.3]), np.array([0.2, 0.4]))
        assert probs.shape == (2, 4)

    @pytest.mark.parametrize("alpha,beta,shape", [
        (np.array(0.7), np.array(-1.3), (4,)),
        (1, -2, (4,)),
        (np.linspace(-3, 3, 6).reshape(2, 3), np.array([0.5, -0.25, 2.0]), (2, 3, 4)),
    ])
    def test_setting_kinds_match_replay(self, alpha, beta, shape):
        bob = random_unit_state(np.random.default_rng(301), 3)
        fast, ref = interferometer_detect(bob, alpha, beta), replay_detect(bob, alpha, beta)
        assert fast.shape == ref.shape == shape
        assert np.max(np.abs(fast - ref)) <= 1e-15

    @pytest.mark.parametrize("seed", BENCH_SEEDS)
    def test_bench_outputs_match_replay(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the filterless q-plate lint
            result = compile_bench(random_bench(np.random.default_rng(seed))).run()
        assert result.bob is not None and result.herald_probability * result.filter_weight > 0
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(-2 * math.pi, 2 * math.pi, size=(5, 1))
        beta = rng.uniform(-2 * math.pi, 2 * math.pi, size=3)
        fast = interferometer_detect(result.bob, alpha, beta)
        assert np.max(np.abs(fast - replay_detect(result.bob, alpha, beta))) <= 1e-15

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf] + [
        pytest.param(value, id=name) for name, value in NON_FINITE_0D.items()])
    def test_non_finite_scalar_settings_rejected(self, value):
        bell = spin_orbit_bell_state()
        for alpha, beta in ((value, 0.2), (0.1, value)):
            with pytest.raises(ValueError,
                               match="^analyzer setting must be finite, got -?(nan|inf)$"):
                interferometer_detect(bell, alpha, beta)

    @pytest.mark.parametrize("alpha", [1e308, -1e308] + [
        pytest.param(form(alpha), id=f"{form.__name__}-{alpha}")
        for form in (np.float64, np.asarray) for alpha in (1e308, -1e308)
    ] + [
        pytest.param(form(np.nextafter(BELL_ALPHA_MAX, math.inf)), id=f"{form.__name__}-above-bound")
        for form in (float, np.float64, np.asarray)
    ])
    def test_overflowing_dove_phase_rejected(self, alpha):
        """2*m*alpha overflows at m = 2 for |alpha| = 1e308: rejected as by dove_pair_op, as
        is the first float above sys.float_info.max / (2*m_max + 1)."""
        bell = spin_orbit_bell_state()
        message = f"Dove angle {float(alpha)} overflows a phase 2*m*alpha at m_max=2"
        for alphas in (alpha, np.array([0.1, alpha])):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                interferometer_detect(bell, alphas, 0.0)

    def test_large_finite_settings_stay_finite(self):
        """beta = 1e308 has a finite hwp phase, and so has alpha = 1e308 on m = 0 alone; alpha
        at +-sys.float_info.max / (2*m_max + 1), in every form, is accepted."""
        probs = interferometer_detect(spin_orbit_bell_state(), 0.0, 1e308)
        assert np.all(np.isfinite(probs)) and abs(probs.sum() - 1.0) <= 1e-12
        for form in SCALAR_FORMS + (np.atleast_1d,):
            for alpha in (BELL_ALPHA_MAX, -BELL_ALPHA_MAX):
                probs = interferometer_detect(spin_orbit_bell_state(), form(alpha), 0.3)
                assert np.all(np.isfinite(probs)) and abs(probs.sum() - 1.0) <= 1e-12
        flat = PhotonState.from_amplitudes(0, {("L", 0): SQRT_HALF, ("R", 0): SQRT_HALF})
        assert interferometer_detect(flat, 1e308, 0.3).tobytes() == (
            interferometer_detect(flat, 0.0, 0.3).tobytes()
        )


# sha256 of joint_probabilities(...).tobytes() over a 16x16 grid, computed with version
# 0.15.0: (m_max, analyzer m, digest) per seeded random state on spin x {-m, +m}.
KERNEL_DIGESTS = (
    (2, 2, "80ebaf280e9d2b624eee24d2e983baccdc51b769746cbc1dae6d1c8217ae75b9"),
    (3, 3, "24481af86dfdcb7458ca0bf00005afca1c944e01ebae8b6a552c3d502568328a"),
    (6, 2, "74850a0af641951de6390a41a14f4106bdfd497122b45809bbfe09e1efcf1568"),
)


# sha256 of interferometer_detect(...).tobytes() over the same 16x16 grid, now of (alpha,
# beta), computed with version 0.22.0: (m_max, m, digest) for the same seeded states.
CHAIN_DIGESTS = (
    (2, 2, "a4ebcdd6637dfcaf6da561e4d86815d3ee1bf89c8557196abb4d6b67880a8f5d"),
    (3, 3, "c58c5501a2388a1e89557d12b768e36928e1ab17282a473cb3e8862630b30507"),
    (6, 2, "06a4999854fd4e5116306d524719a72f382cfce01b5cf487446e255f352adacd"),
)


def grid_digest(route, seed, m_max, m):
    """sha256 of ``route`` over the 16x16 outer grid of settings, on a random unit state on
    spin x {-m, +m} drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    labels = (("L", -m), ("R", -m), ("L", m), ("R", m))
    bob = PhotonState.from_amplitudes(m_max, dict(zip(labels, amps / np.linalg.norm(amps))))
    angle = np.linspace(-math.pi, math.pi, 16, endpoint=False)
    probs = route(bob, angle[:, None], angle[None, :])
    assert probs.shape == (16, 16, 4) and probs.dtype == np.float64
    return hashlib.sha256(probs.tobytes()).hexdigest()


@pytest.mark.parametrize("seed", range(len(KERNEL_DIGESTS)))
def test_kernel_bytes_are_pinned(seed):
    m_max, m, digest = KERNEL_DIGESTS[seed]
    assert grid_digest(functools.partial(joint_probabilities, m=m), seed, m_max, m) == digest


@pytest.mark.parametrize("seed", range(len(CHAIN_DIGESTS)))
def test_chain_bytes_are_pinned(seed):
    m_max, m, digest = CHAIN_DIGESTS[seed]
    assert grid_digest(interferometer_detect, seed, m_max, m) == digest


@pytest.mark.parametrize("seed", [0, 1])
def test_analyzer_bytes_do_not_depend_on_the_truncation(seed):
    """At q = 1 the heralded state gives the same bytes from both routes at m_max 2
    (the default since 0.15.0) and 4, point by point over a 16x16 grid of (alpha,
    beta) that covers a full turn of chi_A = 4 alpha and chi_B = 2 beta.  (At
    q = 0.5 the chain's bytes do differ between truncations.)"""
    rng = np.random.default_rng(seed)
    a0, b0 = rng.uniform(0.0, math.pi / 32), rng.uniform(0.0, math.pi / 16)
    grid = [(a0 + i * math.pi / 32, b0 + j * math.pi / 16) for i in range(16) for j in range(16)]
    outputs = []
    for m_max in (2, 4):
        bob = herald(prepare_hybrid(m_max=m_max)).state
        outputs.append(b"".join(
            interferometer_detect(bob, a, b).tobytes()
            + joint_probabilities(bob, 4 * a, 2 * b).tobytes() for a, b in grid
        ))
    assert outputs[0] == outputs[1]


# A bench whose Bob output (|L,+2> + |R,-2>)/sqrt(2) lies wholly off the q-plate span.
OFF_SPAN_BENCH = (
    "source spdc\nfilter smf side=bob\nqplate q=1 side=bob\nhwp theta=0 side=bob\n"
    "herald basis=H side=alice\n"
)


def test_routes_differ_off_the_qplate_span():
    """The two routes are different measurements off the span: here E has opposite signs."""
    bob = compile_bench(parse(OFF_SPAN_BENCH)).run().bob
    expected = PhotonState.from_amplitudes(2, {("L", 2): SQRT_HALF, ("R", -2): SQRT_HALF})
    assert states_equal_up_to_phase(bob, expected)
    kernel = joint_probabilities(bob, math.pi / 2, math.pi / 4)
    chain = interferometer_detect(bob, math.pi / 8, math.pi / 8)
    np.testing.assert_allclose(kernel, [0.4268, 0.0732, 0.0732, 0.4268], atol=5e-5)
    np.testing.assert_allclose(chain, [0.0732, 0.4268, 0.4268, 0.0732], atol=5e-5)
    np.testing.assert_allclose(chain, replay_detect(bob, math.pi / 8, math.pi / 8),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("generator", [random_bench, random_alice_bench],
                         ids=["bob", "alice"])
def test_bench_outputs_keep_weights_and_agree_on_the_span(generator):
    """Over seeds 0-499: the filter weight lies in [0, 1], the herald probability
    too up to rounding, and on each heralded output with one analyzer charge
    m and no weight off the q-plate span the chain at (alpha, beta) equals the
    kernel at (2 m alpha, 2 beta)."""
    on_span = 0
    for seed in range(500):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the filterless q-plate lint
            result = compile_bench(generator(np.random.default_rng(seed))).run()
        prob, weight, m = result.herald_probability, result.filter_weight, result.analyzer_m
        assert 0.0 <= weight <= 1.0
        if prob is None:
            continue
        assert 0.0 <= prob <= 1 + 1e-12
        if prob * weight == 0 or m is None:
            continue
        bob = result.bob
        off_span = 1.0 - abs(bob.amplitude("L", -m)) ** 2 - abs(bob.amplitude("R", m)) ** 2
        if off_span > LOST_WEIGHT_TOL:
            continue
        alpha, beta = np.random.default_rng(seed).uniform(-2 * math.pi, 2 * math.pi, size=(2, 64))
        chain = interferometer_detect(bob, alpha, beta)
        kernel = joint_probabilities(bob, 2 * m * alpha, 2 * beta, m=m)
        assert np.max(np.abs(chain - kernel)) <= 1e-12, seed
        on_span += 1
    assert on_span >= 30  # 37 outputs from each generator at these seeds


_ANGLE_ARRAYS = hnp.arrays(
    float, st.integers(1, 8), elements=st.floats(-2 * math.pi, 2 * math.pi)
)


_AMPLITUDES = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=4, max_size=4,
).filter(lambda c: abs(c[0]) ** 2 + abs(c[3]) ** 2 > 1e-3)


@settings(max_examples=50, deadline=None)
@given(m_max=st.integers(2, 6), amps=_AMPLITUDES, alpha=_ANGLE_ARRAYS, beta=_ANGLE_ARRAYS)
def test_chain_matches_kernel_on_random_states(m_max, amps, alpha, beta):
    """Random states on spin x {-2, +2} at random settings.

    The chain is a complete measurement on the whole subspace, and equals
    the kernel on the q-plate output span {|L,-2>, |R,+2>}.  Off that span
    the two are different measurements: |R,-2> + i|R,+2> gives 1/4 at every
    detector of the chain but (0, 0, 1/2, 1/2) from the kernel at (0, 0).
    """
    alpha, beta = alpha[:, None], beta[None, :]
    labels = (("L", -2), ("L", 2), ("R", -2), ("R", 2))
    c = np.array(amps) / np.linalg.norm(amps)
    full = PhotonState.from_amplitudes(m_max, dict(zip(labels, c)))
    np.testing.assert_allclose(
        interferometer_detect(full, alpha, beta).sum(axis=-1), 1.0, rtol=0, atol=1e-12
    )
    c = c[[0, 3]] / np.linalg.norm(c[[0, 3]])
    state = PhotonState.from_amplitudes(m_max, {("L", -2): c[0], ("R", 2): c[1]})
    detected = interferometer_detect(state, alpha, beta)
    assert detected.shape == (alpha.size, beta.size, 4)
    np.testing.assert_allclose(
        detected, joint_probabilities(state, 4 * alpha, 2 * beta), rtol=0, atol=1e-10
    )
