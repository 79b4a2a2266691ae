import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import flat, is_unitary, states_equal_up_to_phase

from spinorbit.elements import mirror_op
from spinorbit.experiment import herald, spin_orbit_bell_state
from spinorbit.qstate import (
    _CIRC_TO_LIN,
    NORM_TOL,
    BasisMismatchError,
    BipartiteState,
    ElementOp,
    PhotonState,
    TruncationError,
    _real,
    apply,
    apply_bob,
    inner,
    spin_ket,
)

SQRT_HALF = math.sqrt(0.5)
_PAIR = BipartiteState.from_amplitudes(1, {("L", "R", 0): 1.0})


def random_state(m_max, rng):
    shape = (2, 2 * m_max + 1)
    grid = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    grid /= np.linalg.norm(grid)
    return PhotonState(m_max, grid)


def random_unitary_op(m_max, rng):
    """Element with an independent random 2x2 unitary block per OAM charge."""
    n_oam = 2 * m_max + 1
    z = rng.normal(size=(n_oam, 2, 2)) + 1j * rng.normal(size=(n_oam, 2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[:, None, :]
    return ElementOp(np.moveaxis(q, 0, -1), m_max=m_max)


def dagger(op):
    """Adjoint of an unshifted element: each block conjugate-transposed."""
    return ElementOp(op.blocks.conj().swapaxes(0, 1), m_max=op.m_max)


def oam_ket(amps: dict, m_max: int) -> np.ndarray:
    """A (2*m_max+1,) OAM ket from {m: amplitude}."""
    ket = np.zeros(2 * m_max + 1, dtype=complex)
    for m, a in amps.items():
        ket[m + m_max] = a
    return ket


class TestTensor:
    """Product states spin x OAM, built as the outer product that is their grid."""

    def test_two_spin_product_state(self):
        pair = BipartiteState(0, np.outer(spin_ket("H"), spin_ket("H"))[..., None])
        # |H>|H> expands with amplitude 1/2 on every circular combination,
        # all signs positive, so each joint probability is 1/4.
        assert pair.grid.shape == (2, 2, 1)
        np.testing.assert_allclose(pair.grid[..., 0], 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_spin_with_oam_charge(self):
        state = PhotonState(2, np.outer(spin_ket("L"), oam_ket({0: 1.0}, 2)))
        assert state.amplitude("L", 0) == pytest.approx(1.0)
        assert state.norm() == pytest.approx(1.0)

    def test_linearity_in_spin_factor(self):
        plus = np.array([SQRT_HALF, SQRT_HALF])
        state = PhotonState(2, np.outer(plus, oam_ket({2: 1.0}, 2)))
        assert state.amplitude("L", 2) == pytest.approx(SQRT_HALF)
        assert state.amplitude("R", 2) == pytest.approx(SQRT_HALF)
        assert state.amplitude("L", -2) == 0

    def test_norm_multiplies(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = PhotonState(1, np.outer(a, oam_ket({1: 0.5, -1: 0.5}, 1)))
        assert state.norm() == pytest.approx(
            np.linalg.norm(a) * math.sqrt(0.5), abs=1e-12
        )

    def test_oam_beyond_truncation_rejected(self):
        with pytest.raises(TruncationError):
            PhotonState.from_amplitudes(2, {("L", 3): 1.0})

    def test_truncation_inferred_from_widest_charge(self):
        state = spin_orbit_bell_state(3)
        assert state.m_max == 3
        assert state.amplitude("L", -3) == state.amplitude("R", 3) == SQRT_HALF

    def test_factor_types_rejected(self):
        # An outer product whose OAM factor does not span the truncation is no grid.
        message = r"^grid shape \(2, 4\) does not match m_max=2: expected \(2, 5\)$"
        with pytest.raises(ValueError, match=message):
            PhotonState(2, np.outer(spin_ket("H"), np.ones(4)))
        message = r"^grid shape \(2, 2\) does not match m_max=1: expected \(2, 2, 3\)$"
        with pytest.raises(ValueError, match=message):
            BipartiteState(1, np.outer(spin_ket("H"), spin_ket("H")))


class TestGrid:
    """A state holds its (spin, m) grid and nothing else: the constructor takes only the grid."""

    @pytest.mark.parametrize("kind,lead", [(PhotonState, ()), (BipartiteState, (2,))])
    @pytest.mark.parametrize("m_max", [0, 2])
    def test_grid_is_stored_and_a_flat_form_raises(self, kind, lead, m_max):
        rng = np.random.default_rng(m_max)
        shape = (*lead, 2, 2 * m_max + 1)
        grid = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        state = kind(m_max, grid)
        assert state.grid.shape == shape and state.grid.tobytes() == grid.tobytes()
        assert not state.grid.flags.writeable and state.grid.flags.c_contiguous
        flat_shape = (*lead, 2 * (2 * m_max + 1))
        message = (rf"^grid shape {re.escape(str(flat_shape))} does not match m_max={m_max}: "
                   rf"expected {re.escape(str(shape))}$")
        with pytest.raises(ValueError, match=message):
            kind(m_max, grid.reshape(flat_shape))

    def test_transposed_grid_shapes_raise_the_shape_message(self):
        message = r"^grid shape \(3, 2\) does not match m_max=1: expected \(2, 3\)$"
        with pytest.raises(ValueError, match=message):
            PhotonState(1, np.zeros((3, 2)))
        for shape in ((2, 3, 2), (3, 2, 2)):
            message = (rf"^grid shape {re.escape(str(shape))} does not match m_max=1: "
                       r"expected \(2, 2, 3\)$")
            with pytest.raises(ValueError, match=message):
                BipartiteState(1, np.zeros(shape))

    @pytest.mark.parametrize("m_max,message", [
        (1.5, "m_max must be an integer, got 1.5"),
        (2.0, "m_max must be an integer, got 2.0"),
        (True, "m_max must be an integer, got True"),
        (-1, "m_max must be at least 0, got -1"),
    ])
    def test_truncation_must_be_an_integer_of_at_least_0(self, m_max, message):
        # 1.5 gives 4.0 charges, which matched the (2, 4) grid it was checked against.
        for build in (lambda: PhotonState(m_max, np.zeros((2, 4))),
                      lambda: BipartiteState(m_max, np.zeros((2, 2, 4)))):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()

    def test_numpy_integer_truncation_is_stored_as_an_int(self):
        for state in (PhotonState(np.int64(1), np.zeros((2, 3))),
                      BipartiteState(np.uint8(1), np.zeros((2, 2, 3)))):
            assert type(state.m_max) is int and state.m_max == 1

    def test_fortran_ordered_grid_is_stored_c_ordered(self):
        grid = np.asfortranarray(np.arange(10, dtype=complex).reshape(2, 5))
        state = PhotonState(2, grid)
        assert state.grid.flags.c_contiguous
        assert state.grid.tobytes() == np.arange(10, dtype=complex).tobytes()


class TestBasisLabels:
    def test_index_is_spin_major(self):
        # The label (spin, m) is the grid cell [spin, m + m_max]; read flat, as
        # ElementOp.matrix acts, the grid runs spin-major.
        assert PhotonState.basis_state("R", 2, 2).grid[1, 4] == 1.0
        assert flat(PhotonState.basis_state("L", -2, 2))[0] == 1.0
        assert flat(PhotonState.basis_state("R", 2, 2))[9] == 1.0

    def test_bad_spin_rejected(self):
        with pytest.raises(ValueError, match="^spin must be 'L' or 'R', got 'H'$"):
            PhotonState.basis_state("H", 0, 2)

    def test_charge_beyond_truncation_rejected(self):
        with pytest.raises(TruncationError, match="^\\|m\\|=3 exceeds truncation m_max=2$"):
            PhotonState.basis_state("L", -3, 2)

    @pytest.mark.parametrize("build,error,message", [
        (lambda: BipartiteState.from_amplitudes(2, {("H", "L", 0): 1.0}),
         ValueError, "spin must be 'L' or 'R', got 'H'"),
        (lambda: _PAIR.amplitude("X", "L", 0), ValueError, "spin must be 'L' or 'R', got 'X'"),
        (lambda: _PAIR.amplitude("L", "V", 0), ValueError, "spin must be 'L' or 'R', got 'V'"),
        (lambda: PhotonState.from_amplitudes(2, {("L", 1.5): 1.0}),
         ValueError, "m must be an integer, got 1.5"),
        (lambda: spin_orbit_bell_state().amplitude("L", 2.0),
         ValueError, "m must be an integer, got 2.0"),
        (lambda: _PAIR.amplitude("L", "L", True), ValueError, "m must be an integer, got True"),
        (lambda: PhotonState.basis_state("L", 0, 2.0),
         ValueError, "m_max must be an integer, got 2.0"),
        (lambda: spin_orbit_bell_state(m=2.0), ValueError, "m_max must be an integer, got 2.0"),
        (lambda: spin_orbit_bell_state(m=2.0, m_max=2),
         ValueError, "m must be an integer, got -2.0"),
        (lambda: BipartiteState.from_amplitudes(1, {("L", "R", -2): 1.0}),
         TruncationError, "|m|=2 exceeds truncation m_max=1"),
        (lambda: _PAIR.amplitude("R", "R", 3), TruncationError, "|m|=3 exceeds truncation m_max=1"),
        (lambda: PhotonState.from_amplitudes(2, {("L",): 1}),
         ValueError, "a PhotonState label is (spin, m), got ('L',)"),
        (lambda: BipartiteState.from_amplitudes(2, {("L", 0): 1}),
         ValueError, "a BipartiteState label is (alice_spin, bob_spin, m), got ('L', 0)"),
    ], ids=["pair-alice-spin", "pair-amplitude-alice-spin", "pair-amplitude-bob-spin",
            "fractional-charge", "float-charge", "bool-charge", "float-truncation",
            "bell-float-truncation", "bell-float-charge", "pair-charge-beyond",
            "pair-amplitude-charge-beyond", "short-label", "pair-short-label"])
    def test_every_label_is_checked_by_one_rule(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()

    def test_numpy_integer_charge_is_a_label(self):
        bell = spin_orbit_bell_state(np.int64(2))
        assert bell.amplitude("L", np.int64(-2)) == bell.amplitude("R", np.int8(2)) == SQRT_HALF

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="^unknown polarization label 'X'$"):
            spin_ket("X")

    def test_three_vector_rejected(self):
        with pytest.raises(ValueError, match="^spin state must have exactly two components$"):
            spin_ket([1.0, 0.0, 0.0])


class TestApply:
    def test_identity_leaves_state(self):
        rng = np.random.default_rng(3)
        s = random_state(2, rng)
        eye = ElementOp(np.eye(2), m_max=2)
        np.testing.assert_allclose(apply(eye, s).grid, s.grid, atol=1e-15)

    def test_spin_flip_on_basis_state(self):
        x = ElementOp(np.array([[0, 1], [1, 0]]))
        out = apply(x, PhotonState.basis_state("L", 0, 2))
        assert out.amplitude("R", 0) == pytest.approx(1.0)
        assert out.norm() == pytest.approx(1.0)

    def test_bipartite_state_matches_apply_bob(self):
        rng = np.random.default_rng(19)
        grid = np.zeros((2, 2, 5), dtype=complex)  # |m| <= 1, so a shift by 1 stays inside
        grid[..., 1:4] = rng.normal(size=(2, 2, 3)) + 1j * rng.normal(size=(2, 2, 3))
        pair = BipartiteState(2, grid)
        for op in (random_unitary_op(2, rng), ElementOp([[0, 1], [1, 0]], shift=1, m_max=2)):
            out = apply(op, pair)
            assert type(out) is BipartiteState and out.m_max == 2
            assert out.grid.tobytes() == apply_bob(op, pair).grid.tobytes()
            # The same contraction on the pair's (Alice spin, Bob spin, m) grid.
            by_rows = op._apply_grid(pair.grid, 2)
            assert out.grid.tobytes() == by_rows.tobytes()

    def test_photon_state_rejected_by_apply_bob(self):
        message = ("^apply_bob takes a BipartiteState, got PhotonState; "
                   "use apply for single-photon states$")
        with pytest.raises(TypeError, match=message):
            apply_bob(ElementOp(np.eye(2), m_max=1), PhotonState.basis_state("L", 0, 1))

    def test_basis_mismatch_rejected(self):
        op = ElementOp(np.eye(2), m_max=1)
        with pytest.raises(BasisMismatchError):
            apply(op, PhotonState.basis_state("L", 0, 2))

    def test_norm_preserved_by_random_unitaries(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            op = random_unitary_op(2, rng)
            assert is_unitary(op, 1e-12)
            s = random_state(2, rng)
            assert apply(op, s).norm() == pytest.approx(1.0, abs=1e-12)

    def test_inner_adjoint_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            op = random_unitary_op(1, rng)
            a, b = random_state(1, rng), random_state(1, rng)
            lhs = inner(a, apply(op, b))
            rhs = inner(apply(dagger(op), a), b)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestElementOp:
    def test_blocks_must_fit_truncation(self):
        with pytest.raises(ValueError):
            ElementOp(np.ones((2, 2, 4)), m_max=2)
        with pytest.raises(ValueError):
            ElementOp(np.eye(2), shift=1)
        with pytest.raises(ValueError):
            ElementOp(np.eye(2), shift=3, m_max=2)
        with pytest.raises(ValueError, match=r"^blocks \(3, 2, 2, 1\) do not fit"):
            ElementOp(np.ones((3, 2, 2, 1)))  # an element holds one setting

    @pytest.mark.parametrize("m_max,message", [
        (1.5, "m_max must be an integer, got 1.5"),
        (True, "m_max must be an integer, got True"),
        (-1, "m_max must be at least 0, got -1"),
    ])
    def test_truncation_must_be_an_integer_of_at_least_0(self, m_max, message):
        for build in (lambda: ElementOp(np.eye(2), m_max=m_max), lambda: mirror_op(m_max)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()
        assert type(ElementOp(np.eye(2), m_max=np.int64(2)).m_max) is int

    def test_truncation_mismatch_rejected(self):
        with pytest.raises(BasisMismatchError):
            apply(ElementOp(np.eye(2), m_max=1), PhotonState.basis_state("L", 0, 2))

    def test_alice_rejects_oam_elements(self):
        # The bench compiler lets only spin_only elements act on Alice's photon.
        for op in (
            ElementOp([[0, 1], [1, 0]], shift=1, m_max=2),
            ElementOp(np.ones((2, 2, 5)), m_max=2),
        ):
            assert not op.spin_only

    @pytest.mark.parametrize("shift", [-3, -2, -1, 0, 1, 2, 3])
    def test_apply_matches_dense_matrix(self, shift):
        # Random per-charge blocks; the state avoids charges the shift
        # would carry out, where apply raises and the matrix drops.
        rng = np.random.default_rng(17 + shift)
        m_max = 4
        blocks = rng.normal(size=(2, 2, 9)) + 1j * rng.normal(size=(2, 2, 9))
        op = ElementOp(blocks, shift=shift, m_max=m_max)
        amps = {
            (spin, m): complex(rng.normal(), rng.normal())
            for spin in ("L", "R")
            for m in range(-m_max + abs(shift), m_max - abs(shift) + 1)
        }
        s = PhotonState.from_amplitudes(m_max, amps)
        np.testing.assert_allclose(
            flat(apply(op, s)), op.matrix @ flat(s), atol=1e-12
        )


class TestInner:
    def test_self_overlap_is_one(self):
        s = PhotonState.basis_state("L", 0, 2)
        assert inner(s, s) == pytest.approx(1.0)

    def test_orthogonal_basis_states(self):
        a = PhotonState.basis_state("L", 0, 2)
        b = PhotonState.basis_state("R", 0, 2)
        assert inner(a, b) == 0

    def test_bell_state_component(self):
        bell = PhotonState.from_amplitudes(
            2, {("L", -2): SQRT_HALF, ("R", 2): SQRT_HALF}
        )
        assert inner(bell, PhotonState.basis_state("L", -2, 2)) == pytest.approx(
            SQRT_HALF
        )

    def test_bipartite_overlap(self):
        rng = np.random.default_rng(5)
        a, b = (BipartiteState(1, rng.normal(size=(2, 2, 3)) + 1j * rng.normal(size=(2, 2, 3)))
                for _ in range(2))
        assert inner(a, b) == np.vdot(a.grid, b.grid)
        assert inner(a, a) == pytest.approx(np.linalg.norm(a.grid) ** 2, abs=1e-12)

    def test_truncation_mismatch_rejected(self):
        with pytest.raises(BasisMismatchError, match="^states use different truncations$"):
            inner(BipartiteState(1, np.zeros((2, 2, 3))), BipartiteState(2, np.zeros((2, 2, 5))))
        with pytest.raises(BasisMismatchError, match="^states use different truncations$"):
            inner(PhotonState.basis_state("L", 0, 1), PhotonState.basis_state("L", 0, 2))

    @pytest.mark.parametrize("kinds", [("photon", "pair"), ("pair", "photon"),
                                       ("photon", "ket"), ("ket", "pair")])
    def test_states_of_two_kinds_rejected(self, kinds):
        made = {"photon": PhotonState.basis_state("L", 0, 1),
                "pair": BipartiteState(1, np.eye(2, 6).reshape(2, 2, 3)), "ket": "H"}
        a, b = (made[kind] for kind in kinds)
        message = ("^inner takes two PhotonStates, two BipartiteStates or two spin kets, "
                   f"got {type(a).__name__} and {type(b).__name__}$")
        for compare in (inner, states_equal_up_to_phase):
            with pytest.raises(TypeError, match=message):
                compare(a, b)

    def test_two_spin_kets(self):
        assert inner("H", spin_ket("L")) == pytest.approx(SQRT_HALF)
        assert states_equal_up_to_phase("R", spin_ket("R") * 1j)

    def test_conjugate_linear_in_first_argument(self):
        a = spin_ket("L") * 1j
        assert inner(a, spin_ket("L")) == pytest.approx(-1j)


class TestProject:
    """Alice's spin projection, made by herald."""

    def test_matching_spin_projection_is_certain(self):
        bob = PhotonState.basis_state("L", 0, 2)
        s = BipartiteState(2, np.multiply.outer(spin_ket("L"), bob.grid))
        out = herald(s, "L")
        assert out.probability == pytest.approx(1.0)
        assert states_equal_up_to_phase(out.state, bob)

    def test_orthogonal_projection_flags_empty(self):
        bob = PhotonState.basis_state("L", 0, 2)
        s = BipartiteState(2, np.multiply.outer(spin_ket("L"), bob.grid))
        out = herald(s, "R")
        assert out.probability == 0.0
        assert out.state.norm() < NORM_TOL

    def test_alice_projection_collapses_bob(self):
        # Hand expansion: rewriting Alice's circular components in the
        # H/V basis puts weight 1/2 on |H>_A, and conditioning on it
        # leaves Bob in (|L,-2> + |R,+2>)/sqrt(2); |V>_A flips the relative
        # sign, and |L>_A or |R>_A keeps one branch.
        hybrid = BipartiteState.from_amplitudes(
            2, {("L", "L", -2): SQRT_HALF, ("R", "R", 2): SQRT_HALF}
        )
        expected = {
            "H": {("L", -2): SQRT_HALF, ("R", 2): SQRT_HALF},
            "V": {("L", -2): SQRT_HALF, ("R", 2): -SQRT_HALF},
            "L": {("L", -2): 1.0},
            "R": {("R", 2): 1.0},
        }
        for basis, amps in expected.items():
            out = herald(hybrid, basis)
            assert out.probability == pytest.approx(0.5, abs=1e-12)
            assert states_equal_up_to_phase(
                out.state, PhotonState.from_amplitudes(2, amps)
            )

    def test_completeness_of_dichotomic_pair(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = BipartiteState(2, rng.normal(size=(2, 2, 5)) + 1j * rng.normal(size=(2, 2, 5)))
            s = BipartiteState(2, s.grid / s.norm())
            for plus, minus in (("H", "V"), ("L", "R")):
                p1 = herald(s, plus).probability
                p2 = herald(s, minus).probability
                assert p1 + p2 == pytest.approx(1.0, abs=1e-12)


class TestBasisChange:
    def test_h_expands_into_circular(self):
        # |H> = (|L> + |R>)/sqrt(2).
        np.testing.assert_allclose(
            spin_ket("H"), SQRT_HALF * (spin_ket("L") + spin_ket("R")), atol=1e-15
        )

    def test_left_circular_in_linear_basis(self):
        # Inverting the 2x2 basis matrix by hand gives |L> = (|H> + i|V>)/sqrt(2).
        np.testing.assert_allclose(
            SQRT_HALF * (spin_ket("H") + 1j * spin_ket("V")), spin_ket("L"), atol=1e-15
        )
        np.testing.assert_allclose(
            _CIRC_TO_LIN @ spin_ket("L"), [SQRT_HALF, 1j * SQRT_HALF], atol=1e-15
        )

    def test_round_trip_is_exact_identity(self):
        v = spin_ket("V")
        back = _CIRC_TO_LIN.conj().T @ (_CIRC_TO_LIN @ v)
        np.testing.assert_allclose(back, v, atol=1e-15)

    def test_bell_state_basis_identity(self):
        # (|H>|H> + |V>|V>)/sqrt(2) == (|L>|R> + |R>|L>)/sqrt(2), amplitude-wise.
        pair = (np.outer(spin_ket("H"), spin_ket("H"))
                + np.outer(spin_ket("V"), spin_ket("V"))) / math.sqrt(2)
        expected = np.array([[0, SQRT_HALF], [SQRT_HALF, 0]], dtype=complex)
        np.testing.assert_allclose(pair, expected, atol=1e-12)


_L0 = PhotonState.basis_state("L", 0, 1)


@pytest.mark.parametrize(
    "a,b,equal",
    [(_L0, PhotonState(1, 2 * _L0.grid), True),
     (PhotonState.zero(1), PhotonState.zero(1), True),
     (PhotonState.zero(1), _L0, False)],
    ids=["state-and-its-double", "two-zero-states", "zero-and-nonzero"],
)
def test_states_equal_up_to_phase_compares_rays(a, b, equal):
    assert states_equal_up_to_phase(a, b) is equal
    assert states_equal_up_to_phase(b, a) is equal


class TestValueSemantics:
    def test_vectors_are_frozen(self):
        s = PhotonState.basis_state("L", 0, 1)
        with pytest.raises(ValueError):
            s.grid[0, 0] = 0.0

    def test_global_phase_not_stripped(self):
        s = PhotonState.basis_state("L", 0, 1)
        t = PhotonState(1, s.grid * 1j)
        assert t.amplitude("L", 0) == pytest.approx(1j)
        assert states_equal_up_to_phase(s, t)

    def test_bipartite_norm_and_amplitude(self):
        state = BipartiteState.from_amplitudes(
            1, {("L", "R", 0): SQRT_HALF, ("R", "L", 0): SQRT_HALF}
        )
        assert state.norm() == pytest.approx(1.0)
        assert state.amplitude("L", "R", 0) == pytest.approx(SQRT_HALF)


_LABELS = st.integers(0, 6).flatmap(lambda m_max: st.tuples(
    st.just(m_max),
    st.dictionaries(
        st.tuples(st.sampled_from("LR"), st.sampled_from("LR"), st.integers(-m_max, m_max)),
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        max_size=12)))


@settings(max_examples=60, deadline=None)
@given(_LABELS)
def test_labels_round_trip_through_the_grid(case):
    """from_amplitudes then amplitude returns every amplitude, which sits at grid[s, m + m_max]."""
    m_max, amps = case
    photon_amps = {(b, m): a for (_, b, m), a in amps.items()}
    for kind, lead, labels in ((BipartiteState, (2,), amps), (PhotonState, (), photon_amps)):
        state = kind.from_amplitudes(m_max, labels)
        assert state.grid.shape == (*lead, 2, 2 * m_max + 1)
        assert np.count_nonzero(state.grid) == sum(a != 0 for a in labels.values())
        for (*spins, m), a in labels.items():
            assert state.amplitude(*spins, m) == a
            assert state.grid[(*("LR".index(s) for s in spins), m + m_max)] == a
        with pytest.raises(ValueError, match="^grid shape .* does not match m_max="):
            kind(m_max, flat(state))


class TestReal:
    """The one rule for a real number: what it accepts and what it returns."""

    @pytest.mark.parametrize("value", [3, -0.5, np.float64(-0.5), np.float32(0.5),
                                       np.int64(3), np.uint8(3), np.array(0.25)],
                             ids=["int", "float", "float64", "float32", "int64", "uint8", "0-d"])
    def test_scalar_forms_give_a_python_float(self, value):
        for array in (False, True):
            got = _real("x", value, array=array)
            assert type(got) is float and got == float(value)

    @pytest.mark.parametrize("value", [[1, 2], (0.5, -1), np.array([0.5], np.float32),
                                       np.arange(3, dtype=np.uint16), [[0.1], [0.2]]],
                             ids=["int-list", "tuple", "float32", "uint16", "nested"])
    def test_arrays_give_a_float_ndarray(self, value):
        got = _real("x", value, array=True)
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.tolist() == np.asarray(value, dtype=float).tolist()
        message = f"x must be a scalar, got shape {got.shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            _real("x", value)

    def test_ints_are_read_within_numpys_64_bits(self):
        assert _real("x", 2**64 - 1) == 2.0**64 and _real("x", -(2**63)) == -(2.0**63)
        for value in (2**64, -(2**63) - 1, 10**400):
            with pytest.raises(ValueError, match=f"^x must be a real number, got {value}$"):
                _real("x", value)

    @pytest.mark.parametrize("value,shown", [
        ("0.3", "'0.3'"), (True, "True"), (np.False_, repr(np.False_)), (1 + 0j, "(1+0j)"),
        (None, "None"), (np.timedelta64(3, "s"), repr(np.timedelta64(3, "s"))),
        ([True, False], "list of dtype bool"), (np.array([0.1, None]), "ndarray of dtype object"),
        (np.ma.masked_array([0.1, 0.2]), "MaskedArray of dtype float64"),
    ], ids=["str", "bool", "np.bool_", "complex", "None", "timedelta64", "bool-list",
            "object-array", "masked-array"])
    def test_anything_else_names_the_input(self, value, shown):
        for array in (False, True):
            with pytest.raises(ValueError) as err:
                _real("alpha", value, array=array)
            assert str(err.value) == f"alpha must be a real number, got {shown}"
