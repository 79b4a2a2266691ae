"""Reference forms the tests compare the library against; no command uses them."""

import numpy as np

from spinorbit.qstate import NORM_TOL, SPIN_LABELS, PhotonState, inner, spin_ket


def basis_labels(m_max: int) -> tuple[tuple[str, int], ...]:
    """The (spin, m) labels in the order of ``ElementOp.matrix``: a state's grid read flat."""
    return tuple((s, m) for s in SPIN_LABELS for m in range(-m_max, m_max + 1))


def basis_index(spin: str, m: int, m_max: int) -> int:
    """The position of the (spin, m) label in :func:`basis_labels`."""
    return basis_labels(m_max).index((spin, m))


def flat(state) -> np.ndarray:
    """A state's grid over the (spin, m) labels of :func:`basis_labels`, the order
    ``ElementOp.matrix`` acts in: (2*(2*m_max+1),) for a photon, and (2, ...) with a
    row per Alice spin for a pair."""
    return state.grid.reshape(*state.grid.shape[:-2], -1)


def product_state(spin, m: int, m_max: int) -> PhotonState:
    """The product of a spin state (a label or (c_L, c_R)) and the OAM charge m."""
    oam = np.zeros(2 * m_max + 1)
    oam[m + m_max] = 1.0
    return PhotonState(m_max, np.outer(spin_ket(spin), oam))


def states_equal_up_to_phase(a, b, tol: float = NORM_TOL) -> bool:
    """Ray equality of nonzero states: |<a|b>| = |a| |b| within tol, any norms.

    Two zero states (norm below tol) are equal; a zero and a nonzero are not.
    """
    ip = abs(inner(a, b))
    na = a.norm() if hasattr(a, "norm") else float(np.linalg.norm(spin_ket(a)))
    nb = b.norm() if hasattr(b, "norm") else float(np.linalg.norm(spin_ket(b)))
    if na < tol or nb < tol:
        return na < tol and nb < tol
    return abs(ip / (na * nb) - 1.0) <= tol


def is_unitary(op, tol: float = NORM_TOL) -> bool:
    """Every block of an element unitary and no amplitude shifted out of the truncation."""
    gram = np.einsum("sto,suo->otu", op.blocks.conj(), op.blocks)
    return op.shift == 0 and bool(np.max(np.abs(gram - np.eye(2))) <= tol)
