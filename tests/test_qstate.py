import math

import numpy as np
import pytest
from oracles import is_unitary, states_equal_up_to_phase

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
    apply,
    apply_bob,
    basis_index,
    inner,
    spin_ket,
)

SQRT_HALF = math.sqrt(0.5)


def random_state(m_max, rng):
    vec = rng.normal(size=2 * (2 * m_max + 1)) + 1j * rng.normal(
        size=2 * (2 * m_max + 1)
    )
    vec /= np.linalg.norm(vec)
    return PhotonState(m_max, vec)


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
        np.testing.assert_allclose(pair.matrix, 0.5 * np.ones((2, 2)), atol=1e-15)

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
        with pytest.raises(ValueError, match=r"^vector length \(2, 4\) does not match m_max=2$"):
            PhotonState(2, np.outer(spin_ket("H"), np.ones(4)))
        with pytest.raises(ValueError, match="^matrix shape does not match m_max$"):
            BipartiteState(1, np.outer(spin_ket("H"), spin_ket("H")))


class TestGrid:
    """A state holds its (spin, m) grid; the flat field is a view of it."""

    @pytest.mark.parametrize("kind,lead,field", [(PhotonState, (), "vector"),
                                                 (BipartiteState, (2,), "matrix")])
    @pytest.mark.parametrize("m_max", [0, 2])
    def test_grid_and_flat_forms_build_the_same_state(self, kind, lead, field, m_max):
        rng = np.random.default_rng(m_max)
        shape = (*lead, 2, 2 * m_max + 1)
        grid = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        state, flat = kind(m_max, grid), kind(m_max, grid.reshape(*lead, -1))
        assert state.grid.shape == flat.grid.shape == shape
        assert state.grid.tobytes() == flat.grid.tobytes() == grid.tobytes()
        assert getattr(state, field).tobytes() == getattr(flat, field).tobytes()
        assert np.shares_memory(state.grid, getattr(state, field))
        assert not state.grid.flags.writeable and state.grid.flags.c_contiguous

    def test_transposed_grid_shapes_raise_the_shape_message(self):
        with pytest.raises(ValueError, match=r"^vector length \(3, 2\) does not match m_max=1$"):
            PhotonState(1, np.zeros((3, 2)))
        for shape in ((2, 3, 2), (3, 2, 2)):
            with pytest.raises(ValueError, match="^matrix shape does not match m_max$"):
                BipartiteState(1, np.zeros(shape))

    @pytest.mark.parametrize("m_max,message", [
        (1.5, "m_max must be an integer, got 1.5"),
        (2.0, "m_max must be an integer, got 2.0"),
        (True, "m_max must be an integer, got True"),
        (-1, "m_max must be at least 0, got -1"),
    ])
    def test_truncation_must_be_an_integer_of_at_least_0(self, m_max, message):
        # 1.5 gives a flat size of 8.0, which matched the (8,) vector it was checked against.
        for build in (lambda: PhotonState(m_max, np.zeros(8)),
                      lambda: BipartiteState(m_max, np.zeros((2, 8)))):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()

    def test_numpy_integer_truncation_is_stored_as_an_int(self):
        for state in (PhotonState(np.int64(1), np.zeros(6)),
                      BipartiteState(np.uint8(1), np.zeros((2, 6)))):
            assert type(state.m_max) is int and state.m_max == 1

    def test_fortran_ordered_grid_is_stored_c_ordered(self):
        grid = np.asfortranarray(np.arange(10, dtype=complex).reshape(2, 5))
        state = PhotonState(2, grid)
        assert state.grid.flags.c_contiguous
        assert state.vector.tolist() == list(range(10))


class TestBasisLabels:
    def test_index_is_spin_major(self):
        assert basis_index("L", -2, 2) == 0
        assert basis_index("R", 2, 2) == 9

    def test_bad_spin_rejected(self):
        with pytest.raises(ValueError, match="^spin must be 'L' or 'R', got 'H'$"):
            basis_index("H", 0, 2)

    def test_charge_beyond_truncation_rejected(self):
        with pytest.raises(TruncationError, match="^\\|m\\|=3 exceeds truncation m_max=2$"):
            basis_index("L", -3, 2)

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
        np.testing.assert_allclose(apply(eye, s).vector, s.vector, atol=1e-15)

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
            assert out.matrix.tobytes() == apply_bob(op, pair).matrix.tobytes()
            # The same contraction on the flat matrix read as (Alice spin, Bob spin, m).
            by_rows = op._apply_grid(pair.matrix.reshape(2, 2, -1), 2)
            assert out.matrix.tobytes() == by_rows.tobytes()

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
            apply(op, s).vector, op.matrix @ s.vector, atol=1e-12
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
        a, b = (BipartiteState(1, rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6)))
                for _ in range(2))
        assert inner(a, b) == np.vdot(a.matrix, b.matrix)
        assert inner(a, a) == pytest.approx(np.linalg.norm(a.matrix) ** 2, abs=1e-12)

    def test_truncation_mismatch_rejected(self):
        with pytest.raises(BasisMismatchError, match="^states use different truncations$"):
            inner(BipartiteState(1, np.zeros((2, 6))), BipartiteState(2, np.zeros((2, 10))))
        with pytest.raises(BasisMismatchError, match="^states use different truncations$"):
            inner(PhotonState.basis_state("L", 0, 1), PhotonState.basis_state("L", 0, 2))

    @pytest.mark.parametrize("kinds", [("photon", "pair"), ("pair", "photon"),
                                       ("photon", "ket"), ("ket", "pair")])
    def test_states_of_two_kinds_rejected(self, kinds):
        made = {"photon": PhotonState.basis_state("L", 0, 1),
                "pair": BipartiteState(1, np.eye(2, 6)), "ket": "H"}
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
        s = BipartiteState(2, np.outer(spin_ket("L"), bob.vector))
        out = herald(s, "L")
        assert out.probability == pytest.approx(1.0)
        assert states_equal_up_to_phase(out.state, bob)

    def test_orthogonal_projection_flags_empty(self):
        bob = PhotonState.basis_state("L", 0, 2)
        s = BipartiteState(2, np.outer(spin_ket("L"), bob.vector))
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
            s = BipartiteState(2, rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10)))
            s = BipartiteState(2, s.matrix / s.norm())
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
    [(_L0, PhotonState(1, 2 * _L0.vector), True),
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
            s.vector[0] = 0.0

    def test_global_phase_not_stripped(self):
        s = PhotonState.basis_state("L", 0, 1)
        t = PhotonState(1, s.vector * 1j)
        assert t.amplitude("L", 0) == pytest.approx(1j)
        assert states_equal_up_to_phase(s, t)

    def test_bipartite_norm_and_amplitude(self):
        state = BipartiteState.from_amplitudes(
            1, {("L", "R", 0): SQRT_HALF, ("R", "L", 0): SQRT_HALF}
        )
        assert state.norm() == pytest.approx(1.0)
        assert state.amplitude("L", "R", 0) == pytest.approx(SQRT_HALF)
