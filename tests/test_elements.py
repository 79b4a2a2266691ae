import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import basis_labels, is_unitary, product_state, states_equal_up_to_phase

from spinorbit.elements import (
    QPlateSpec,
    dove_pair_op,
    mirror_op,
    qplate_op,
    smf_filter_op,
    symmetry_order,
    waveplate_op,
)
from spinorbit.qstate import (
    _CIRC_TO_LIN,
    BipartiteState,
    ElementOp,
    PhotonState,
    TruncationError,
    apply,
    apply_bob,
    inner,
    spin_ket,
)

SQRT_HALF = math.sqrt(0.5)


class TestQPlateSpec:
    def test_half_integer_q_accepted(self):
        assert QPlateSpec(0.5).two_q == 1

    def test_non_half_integer_q_rejected(self):
        with pytest.raises(ValueError):
            QPlateSpec(0.3)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            QPlateSpec(float("nan"))


def local_transmission(spec, phi):
    """Local 2x2 polarization action of the plate at azimuth phi over (L, R).

    The axis angle there is alpha = q*phi + alpha0; the plate sends
    L -> R with phase e^{i 2 alpha} and R -> L with e^{-i 2 alpha}.
    """
    ph = np.exp(2j * (spec.q * phi + spec.alpha0))
    return np.array([[0.0, np.conj(ph)], [ph, 0.0]])


class TestTransmissionMatrix:
    """The q-plate block at axis offset alpha is the local transmission at alpha."""

    def test_at_zero_angle(self):
        block = qplate_op(QPlateSpec(1, 0.0), 2).blocks[..., 0]
        np.testing.assert_allclose(block, [[0, 1], [1, 0]], atol=1e-15)

    def test_at_quarter_turn(self):
        # alpha = pi/4 substituted by hand: L -> R phase i, R -> L phase -i.
        block = qplate_op(QPlateSpec(1, math.pi / 4), 2).blocks[..., 0]
        np.testing.assert_allclose(block, [[0, -1j], [1j, 0]], atol=1e-15)

    @pytest.mark.parametrize("q,alpha0,phi", [(1, 0.0, 0.3), (-2, 1.1, 2.0), (0.5, 0.2, 4.4)])
    def test_unitary_and_antidiagonal(self, q, alpha0, phi):
        spec = QPlateSpec(q, q * phi + alpha0)
        block = qplate_op(spec, abs(spec.two_q)).blocks[..., 0]
        np.testing.assert_allclose(block.conj().T @ block, np.eye(2), atol=1e-12)
        assert block[0, 0] == 0 and block[1, 1] == 0

    @pytest.mark.parametrize("q,alpha0", [(1, 0.0), (2, 0.7), (-1, 0.4), (0.5, 1.2)])
    def test_consistent_with_quantum_operator(self, q, alpha0):
        # The full operator's transition amplitudes, combined with the
        # azimuthal phase e^{i 2q phi} of the OAM shift, reproduce the
        # local matrix entries at alpha = q*phi + alpha0 on every sector.
        spec = QPlateSpec(q, alpha0)
        m_max = 2 * abs(spec.two_q) + 1
        full = qplate_op(spec, m_max)
        m = 0
        left_in = PhotonState.basis_state("L", m, m_max)
        right_in = PhotonState.basis_state("R", m, m_max)
        to_r = inner(
            PhotonState.basis_state("R", m + spec.two_q, m_max), apply(full, left_in)
        )
        to_l = inner(
            PhotonState.basis_state("L", m - spec.two_q, m_max), apply(full, right_in)
        )
        for phi in np.linspace(0, 2 * math.pi, 9):
            local = local_transmission(spec, phi)
            shift_phase = np.exp(2j * spec.q * phi)
            assert local[1, 0] == pytest.approx(to_r * shift_phase, abs=1e-12)
            assert local[0, 1] == pytest.approx(to_l * np.conj(shift_phase), abs=1e-12)


class TestQPlateOp:
    def test_maps_left_to_right_with_oam_shift(self):
        op = qplate_op(QPlateSpec(1, 0.0), 4)
        out = apply(op, PhotonState.basis_state("L", 0, 4))
        assert out.amplitude("R", 2) == pytest.approx(1.0, abs=1e-12)

    def test_maps_right_to_left_with_oam_shift(self):
        op = qplate_op(QPlateSpec(1, 0.0), 4)
        out = apply(op, PhotonState.basis_state("R", 0, 4))
        assert out.amplitude("L", -2) == pytest.approx(1.0, abs=1e-12)

    def test_axis_offset_becomes_phase(self):
        op = qplate_op(QPlateSpec(1, math.pi / 4), 4)
        out = apply(op, PhotonState.basis_state("L", 0, 4))
        assert out.amplitude("R", 2) == pytest.approx(1j, abs=1e-12)

    def test_horizontal_input_becomes_bell_state(self):
        op = qplate_op(QPlateSpec(1, 0.0), 4)
        out = apply(op, product_state("H", 0, 4))
        assert out.amplitude("R", 2) == pytest.approx(SQRT_HALF, abs=1e-12)
        assert out.amplitude("L", -2) == pytest.approx(SQRT_HALF, abs=1e-12)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_double_pass_restores_input_ray(self):
        op = qplate_op(QPlateSpec(1, 0.7), 4)
        for spin in ("L", "R"):
            for m in range(-2, 3):
                s = PhotonState.basis_state(spin, m, 4)
                assert abs(inner(s, apply(op, apply(op, s)))) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_unitary_away_from_boundary(self):
        op = qplate_op(QPlateSpec(1, 0.3), 4)
        sub = [i for i, (spin, m) in enumerate(basis_labels(op.m_max)) if abs(m) <= 2]
        block = op.matrix[:, sub]
        np.testing.assert_allclose(
            block.conj().T @ block, np.eye(len(sub)), atol=1e-12
        )

    def test_boundary_support_rejected(self):
        op = qplate_op(QPlateSpec(1, 0.0), 2)
        with pytest.raises(TruncationError):
            apply(op, PhotonState.basis_state("L", 2, 2))

    def test_m_max_too_small_rejected(self):
        with pytest.raises(ValueError):
            qplate_op(QPlateSpec(2, 0.0), 2)


class TestWavePlates:
    def test_qwp_at_45_produces_quoted_factors(self):
        op = waveplate_op("qwp", math.pi / 4)
        out_lin = _CIRC_TO_LIN @ apply(op, spin_ket("L"))
        np.testing.assert_allclose(out_lin, [(1 + 1j) * SQRT_HALF, 0], atol=1e-12)
        out_lin = _CIRC_TO_LIN @ apply(op, spin_ket("R"))
        np.testing.assert_allclose(out_lin, [0, (1 - 1j) * SQRT_HALF], atol=1e-12)

    def test_qwp_pair_restores_circular_up_to_phase(self):
        forward = waveplate_op("qwp", math.pi / 4)
        backward = waveplate_op("qwp", -math.pi / 4)
        out = apply(backward, apply(forward, spin_ket("L")))
        assert states_equal_up_to_phase(out, spin_ket("L"))
        out = apply(backward, apply(forward, spin_ket("R")))
        assert states_equal_up_to_phase(out, spin_ket("R"))

    def test_hwp_cascade_relative_phase(self):
        beta = math.radians(22.5)
        first, second = waveplate_op("hwp", 0.0), waveplate_op("hwp", beta)
        u_l = apply(second, apply(first, spin_ket("L")))
        u_r = apply(second, apply(first, spin_ket("R")))
        # Diagonal in the circular basis with relative phase 2*beta = pi/4.
        assert abs(u_l[1]) < 1e-12 and abs(u_r[0]) < 1e-12
        relative = u_l[0] / u_r[1]
        assert relative == pytest.approx(np.exp(1j * math.pi / 4), abs=1e-12)

    @pytest.mark.parametrize("kind", ["qwp", "hwp"])
    @pytest.mark.parametrize("theta", [0.0, 0.3, -1.2, math.pi / 3])
    def test_unitary(self, kind, theta):
        assert is_unitary(waveplate_op(kind, theta), 1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            waveplate_op("twp", 0.0)


class TestDovePair:
    def test_rotated_arm_phase_on_twisted_light(self):
        op = dove_pair_op(math.radians(22.5), 4)
        state = product_state(spin_ket("V"), 2, 4)
        out = apply(op, state)
        assert inner(state, out) == pytest.approx(1j, abs=1e-12)

    def test_zero_oam_untouched(self):
        op = dove_pair_op(1.234, 4)
        state = product_state(spin_ket("V"), 0, 4)
        np.testing.assert_allclose(apply(op, state).grid, state.grid, atol=1e-12)

    def test_zero_rotation_is_identity(self):
        op = dove_pair_op(0.0, 2)
        np.testing.assert_allclose(op.matrix, np.eye(10), atol=1e-15)

    def test_unitary_and_polarization_preserving(self):
        op = dove_pair_op(0.77, 3)
        assert is_unitary(op, 1e-12)
        state = product_state(spin_ket("H"), 3, 3)
        np.testing.assert_allclose(apply(op, state).grid, state.grid, atol=1e-12)

    @pytest.mark.parametrize("alpha", [1e308, -1e308])
    def test_overflowing_phase_rejected(self, alpha):
        with pytest.raises(ValueError, match="overflows a phase 2\\*m\\*alpha at m_max=2"):
            dove_pair_op(alpha, 2)

    @pytest.mark.parametrize("m_max", [0, 1, 2, 7])
    def test_largest_angle_is_unitary(self, m_max):
        bound = sys.float_info.max / (2 * m_max + 1)
        for alpha in (bound, -bound):
            assert is_unitary(dove_pair_op(alpha, m_max), 1e-12)
        with pytest.raises(ValueError):
            dove_pair_op(math.nextafter(bound, math.inf), m_max)

    def test_any_finite_angle_at_zero_charge(self):
        np.testing.assert_array_equal(dove_pair_op(1e308, 0).blocks, dove_pair_op(0.0, 0).blocks)


class TestSmfFilter:
    def test_fundamental_mode_passes(self):
        op = smf_filter_op(2)
        out = apply(op, PhotonState.basis_state("L", 0, 2))
        assert out.norm() ** 2 == pytest.approx(1.0)

    def test_twisted_mode_blocked(self):
        op = smf_filter_op(2)
        out = apply(op, PhotonState.basis_state("L", 2, 2))
        assert out.norm() ** 2 == pytest.approx(0.0)

    def test_partial_weight(self):
        op = smf_filter_op(2)
        s = PhotonState.from_amplitudes(
            2, {("L", 0): SQRT_HALF, ("L", 2): SQRT_HALF}
        )
        out = apply(op, s)
        assert out.norm() ** 2 == pytest.approx(0.5, abs=1e-12)
        assert states_equal_up_to_phase(
            PhotonState(2, out.grid / out.norm()), PhotonState.basis_state("L", 0, 2)
        )


class TestAxisAngle:
    def test_axis_angle_formula(self):
        assert QPlateSpec(1, 0.0).axis_angle(math.pi / 2) == pytest.approx(math.pi / 2)

    def test_half_charge_plate(self):
        assert QPlateSpec(0.5, 0.0).axis_angle(math.pi) == pytest.approx(math.pi / 2)

    def test_offset_at_zero_azimuth(self):
        assert QPlateSpec(2, 0.4).axis_angle(0.0) == pytest.approx(0.4)


class TestSymmetry:
    def test_unit_charge_is_rotationally_invariant(self):
        assert symmetry_order(1) is None

    def test_two_fold(self):
        assert symmetry_order(2) == 2

    def test_four_fold(self):
        assert symmetry_order(3) == 4

    def test_half_charge_one_fold(self):
        assert symmetry_order(0.5) == 1

    @pytest.mark.parametrize("q", [0.5, 2, 3, -1, 0])
    def test_pattern_invariant_under_symmetry_rotation(self, q):
        # Rotating the plate co-rotates the axis directions:
        # alpha'(phi) = alpha(phi - delta) + delta, compared mod pi.
        spec = QPlateSpec(q, 0.3)
        order = symmetry_order(q)
        delta = 2 * math.pi / order
        phi = np.linspace(0, 2 * math.pi, 37)
        alpha = lambda p: spec.q * p + spec.alpha0
        rotated = alpha(phi - delta) + delta
        residue = (rotated - alpha(phi)) / math.pi
        assert np.allclose(residue, np.round(residue), atol=1e-12)


def test_mirror_is_identity():
    op = mirror_op(2)
    np.testing.assert_allclose(op.matrix, np.eye(10), atol=1e-15)


class TestSpinOnly:
    @pytest.mark.parametrize(
        "op",
        [mirror_op(2), ElementOp(np.eye(2)), waveplate_op("qwp", 0.3), waveplate_op("hwp", 0.3),
         smf_filter_op(0), dove_pair_op(0.3, 0)],
        ids=["mirror", "spin_op", "qwp", "hwp", "smf-m0", "dove-m0"],
    )
    def test_polarization_elements_are_spin_only(self, op):
        assert op.spin_only

    @pytest.mark.parametrize(
        "op",
        [qplate_op(QPlateSpec(1), 4), qplate_op(QPlateSpec(0.5), 1),
         smf_filter_op(1), smf_filter_op(2), dove_pair_op(0.3, 1), dove_pair_op(0.3, 2)],
        ids=["qplate-q1", "qplate-q0.5", "smf-m1", "smf-m2", "dove-m1", "dove-m2"],
    )
    def test_oam_or_batched_elements_are_not(self, op):
        assert not op.spin_only


class TestOneSetting:
    @pytest.mark.parametrize("angle", [[0.1, 0.2], np.array([0.1, 0.2]), np.array([0.1])],
                             ids=["list", "array-2", "array-1"])
    @pytest.mark.parametrize("build", [
        lambda a: waveplate_op("qwp", a), lambda a: waveplate_op("hwp", a),
        lambda a: dove_pair_op(a, 2),
    ], ids=["qwp", "hwp", "dove"])
    def test_non_scalar_angle_rejected(self, build, angle):
        with pytest.raises(ValueError) as err:
            build(angle)
        assert str(err.value) == f"angle must be a scalar, got shape {np.shape(angle)}"

    @pytest.mark.parametrize("angle,shown", [
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (np.array(math.nan), "nan"),
    ], ids=["inf", "-inf", "nan", "array-nan"])
    @pytest.mark.parametrize("build", [
        lambda a: waveplate_op("qwp", a), lambda a: waveplate_op("hwp", a),
        lambda a: dove_pair_op(a, 2),
    ], ids=["qwp", "hwp", "dove"])
    def test_non_finite_angle_rejected(self, build, angle, shown):
        with pytest.raises(ValueError) as err:
            build(angle)
        assert str(err.value) == f"angle must be finite, got {shown}"

    def test_blocks_and_names_are_pinned(self):
        # Bench digests and CLI outputs rest on these bytes; names print each angle as given.
        digest = hashlib.sha256()
        for angle in (0.0, -0.0, 1, -2, 0.3, -1.2, math.pi / 4, -math.pi / 4, 7.5, 1e15,
                      5e-324, np.array(0.7)):
            ops = [waveplate_op("qwp", angle), waveplate_op("hwp", angle)]
            for op in ops + [dove_pair_op(angle, m_max) for m_max in (0, 1, 4)]:
                digest.update(op.name.encode() + op.blocks.tobytes())
        assert digest.hexdigest() == (
            "3cc4b3aa52b56f67b36cd0ae98a2d731fd7294fc99ddd1bfc5626b091dad7272"
        )


# Projectors onto |H> and |V> over (L, R), from the kets in the qstate docstring.
P_H = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
P_V = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)


def dense_reference(m_max, image):
    """Matrix whose column (spin, m) holds image(spin, m), a {(spin, m): amp} map.

    Images outside the truncation are dropped.
    """
    labels = basis_labels(m_max)
    mat = np.zeros((len(labels), len(labels)), dtype=complex)
    for col, (spin, m) in enumerate(labels):
        for label, amp in image(spin, m).items():
            if abs(label[1]) <= m_max:
                mat[labels.index(label), col] = amp
    return mat


QPLATE_CASES = [
    (q, m_max) for q in (0.5, 1, -1, 2) for m_max in (2, 4, 7) if abs(2 * q) <= m_max
]


class TestDenseMatrix:
    @pytest.mark.parametrize("q,m_max", QPLATE_CASES)
    def test_qplate(self, q, m_max):
        phase = np.exp(2j * 0.37)
        two_q = round(2 * q)

        def image(spin, m):
            if spin == "L":
                return {("R", m + two_q): phase}
            return {("L", m - two_q): np.conj(phase)}

        op = qplate_op(QPlateSpec(q, 0.37), m_max)
        np.testing.assert_allclose(op.matrix, dense_reference(m_max, image), atol=1e-15)

    @pytest.mark.parametrize("m_max", [2, 4, 7])
    @pytest.mark.parametrize(
        "make,block",
        [
            (lambda m_max: dove_pair_op(0.61, m_max),
             lambda m: P_H + np.exp(2j * m * 0.61) * P_V),
            (smf_filter_op, lambda m: np.eye(2) * (m == 0)),
            (mirror_op, lambda m: np.eye(2)),
        ],
        ids=["dove_pair", "smf", "mirror"],
    )
    def test_unshifted_elements(self, make, block, m_max):
        def image(spin, m):
            col = block(m)[:, "LR".index(spin)]
            return {("L", m): col[0], ("R", m): col[1]}

        op = make(m_max)
        np.testing.assert_allclose(op.matrix, dense_reference(m_max, image), atol=1e-15)


@pytest.mark.parametrize("q,spin,m", [(1, "L", 2), (1, "R", -2), (-1, "L", -2), (-1, "R", 2)])
def test_apply_bob_boundary_support_rejected(q, spin, m):
    state = BipartiteState.from_amplitudes(
        2, {("L", spin, m): SQRT_HALF, ("R", "L", 0): SQRT_HALF}
    )
    with pytest.raises(TruncationError):
        apply_bob(qplate_op(QPlateSpec(q), 2), state)


_ANGLES = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(theta=_ANGLES, alpha=_ANGLES, alpha0=_ANGLES,
       m_max=st.integers(1, 6), two_q=st.integers(-3, 3))
def test_elements_unitary_at_random_angles(theta, alpha, alpha0, m_max, two_q):
    for op in (
        waveplate_op("qwp", theta),
        waveplate_op("hwp", theta),
        dove_pair_op(alpha, m_max),
        mirror_op(m_max),
    ):
        assert is_unitary(op, 1e-12)
        dense = op.matrix
        np.testing.assert_allclose(dense.conj().T @ dense, np.eye(len(dense)), atol=1e-12)
    # The q-plate is an isometry on the charges it cannot shift out.
    wide = m_max + abs(two_q)
    op = qplate_op(QPlateSpec(two_q / 2, alpha0), wide)
    inside = [i for i, (_, m) in enumerate(basis_labels(op.m_max)) if abs(m) <= m_max]
    block = op.matrix[:, inside]
    np.testing.assert_allclose(block.conj().T @ block, np.eye(len(inside)), atol=1e-12)
