"""State vectors and operators for a single photon's polarization and OAM.

A single photon carries two coupled degrees of freedom here: spin (circular
polarization, labels "L" and "R") and orbital angular momentum (an integer
topological charge m, truncated to |m| <= m_max).  States are dense complex
vectors over the ordered label set

    ("L", -M), ..., ("L", +M), ("R", -M), ..., ("R", +M)

and all operations are pure functions over immutable values, so everything
in this module is safe to share across threads.

The linear polarization basis is fixed as

    |H> = (|L> + |R>) / sqrt(2)
    |V> = (|L> - |R>) / (i sqrt(2))

and every element matrix elsewhere in the package is derived under this
convention.  Global phases are physical bookkeeping and never stripped;
use :func:`states_equal_up_to_phase` when a ray-level comparison is wanted.
"""

from __future__ import annotations

import math
from typing import Mapping, Union

import numpy as np

NORM_TOL = 1e-12

SPIN_LABELS = ("L", "R")

_SQRT_HALF = math.sqrt(0.5)

# Circular components (c_L, c_R) of the named polarization states.
SPIN_KETS: dict[str, np.ndarray] = {
    "L": np.array([1.0, 0.0], dtype=complex),
    "R": np.array([0.0, 1.0], dtype=complex),
    "H": np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex),
    "V": np.array([-1j * _SQRT_HALF, 1j * _SQRT_HALF], dtype=complex),
}
for _v in SPIN_KETS.values():
    _v.setflags(write=False)

# Rows give (c_H, c_V) from (c_L, c_R): the conjugated H and V kets.
_CIRC_TO_LIN = np.array([SPIN_KETS["H"].conj(), SPIN_KETS["V"].conj()])
_CIRC_TO_LIN.setflags(write=False)


class BasisMismatchError(ValueError):
    """Raised when an operator and a state disagree about their basis."""


class TruncationError(ValueError):
    """Raised when an operation would push amplitude beyond the OAM cutoff."""


def oam_dim(m_max: int) -> int:
    return 2 * m_max + 1


def state_dim(m_max: int) -> int:
    return 2 * oam_dim(m_max)


def basis_index(spin: str, m: int, m_max: int) -> int:
    """Flat index of the (spin, m) basis label."""
    if spin not in SPIN_LABELS:
        raise ValueError(f"spin must be 'L' or 'R', got {spin!r}")
    if abs(m) > m_max:
        raise TruncationError(f"|m|={abs(m)} exceeds truncation m_max={m_max}")
    return SPIN_LABELS.index(spin) * oam_dim(m_max) + (m + m_max)


def basis_labels(m_max: int) -> tuple[tuple[str, int], ...]:
    return tuple((s, m) for s in SPIN_LABELS for m in range(-m_max, m_max + 1))


def spin_ket(state: Union[str, np.ndarray]) -> np.ndarray:
    """Coerce a polarization name or length-2 array into circular components."""
    if isinstance(state, str):
        try:
            return SPIN_KETS[state]
        except KeyError:
            raise ValueError(f"unknown polarization label {state!r}") from None
    vec = np.asarray(state, dtype=complex).reshape(-1)
    if vec.shape != (2,):
        raise ValueError("spin state must have exactly two components")
    return vec


def _frozen(arr: np.ndarray, dtype=complex) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


class _Record:
    """Immutable record whose fields are its ``__slots__``, in order.

    A subclass lists its fields in ``__slots__``, and its ``__init__`` ends by
    passing one value per slot, in order, to ``_Record.__init__``, the only
    code that sets a slot.  A slot whose name starts with ``_`` is not a
    field: it holds what ``__init__`` derives.  Records compare equal to
    records of the same type with equal fields and hash by their fields; the
    states and operators below take ``object``'s identity ``__eq__``/``__hash__``
    instead.  ``__reduce__`` rebuilds a record through ``__init__``, so
    ``copy`` and ``pickle`` work without assignment.
    """

    __slots__ = ()

    def __init__(self, *values):
        slots, n = self.__slots__, len(values)
        if n != len(slots):
            raise TypeError(f"{type(self).__qualname__} takes {len(slots)} values, got {n}")
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__
                          if name[0] != "_")
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._fields()


class PhotonState(_Record):
    """Single-photon amplitude vector over the (spin, m) basis."""

    __slots__ = ("m_max", "vector")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, m_max: int, vector: np.ndarray):
        vec = _frozen(vector)
        if vec.shape != (state_dim(m_max),):
            raise ValueError(f"vector length {vec.shape} does not match m_max={m_max}")
        _Record.__init__(self, m_max, vec)

    @classmethod
    def zero(cls, m_max: int) -> "PhotonState":
        return cls(m_max, np.zeros(state_dim(m_max), dtype=complex))

    @classmethod
    def basis_state(cls, spin: str, m: int, m_max: int) -> "PhotonState":
        vec = np.zeros(state_dim(m_max), dtype=complex)
        vec[basis_index(spin, m, m_max)] = 1.0
        return cls(m_max, vec)

    @classmethod
    def from_amplitudes(
        cls, m_max: int, amps: Mapping[tuple[str, int], complex]
    ) -> "PhotonState":
        vec = np.zeros(state_dim(m_max), dtype=complex)
        for (spin, m), a in amps.items():
            vec[basis_index(spin, m, m_max)] = a
        return cls(m_max, vec)

    def amplitude(self, spin: str, m: int) -> complex:
        return complex(self.vector[basis_index(spin, m, self.m_max)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))

    def as_grid(self) -> np.ndarray:
        """View as a (2, 2*m_max+1) array indexed by (spin, m + m_max)."""
        return self.vector.reshape(2, oam_dim(self.m_max))


class BipartiteState(_Record):
    """Two-photon amplitudes: Alice spin only, Bob spin and OAM.

    Alice's photon is analyzed in polarization alone (her OAM is fixed at
    zero by the source and never stored).  ``matrix`` has shape
    (2, state_dim): rows Alice L/R, columns Bob's labels.
    """

    __slots__ = ("m_max", "matrix")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, m_max: int, matrix: np.ndarray):
        mat = _frozen(matrix)
        if mat.shape != (2, state_dim(m_max)):
            raise ValueError("matrix shape does not match m_max")
        _Record.__init__(self, m_max, mat)

    @classmethod
    def from_amplitudes(
        cls, m_max: int, amps: Mapping[tuple[str, str, int], complex]
    ) -> "BipartiteState":
        mat = np.zeros((2, state_dim(m_max)), dtype=complex)
        for (a_spin, b_spin, m), a in amps.items():
            mat[SPIN_LABELS.index(a_spin), basis_index(b_spin, m, m_max)] = a
        return cls(m_max, mat)

    def amplitude(self, alice_spin: str, bob_spin: str, m: int) -> complex:
        return complex(
            self.matrix[
                SPIN_LABELS.index(alice_spin), basis_index(bob_spin, m, self.m_max)
            ]
        )

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))


class ElementOp(_Record):
    """Optical element: a 2x2 spin block per OAM charge, then an OAM shift.

    ``blocks`` is a 2x2 array over (L, R), stored as (2, 2, 1), or a
    (2, 2, 2*m_max+1) array indexed last by the input charge m + m_max; an
    element holds one setting, so any other shape raises ValueError.
    Applying the element maps each column m of the (spin, m) grid through
    its block, then moves the L row to m - shift and the R row to m + shift.
    Amplitude above NORM_TOL carried past |m| <= m_max raises
    TruncationError.  ``m_max`` None marks a constant, unshifted block that
    acts on any truncation and on bare spin states.
    """

    __slots__ = ("blocks", "shift", "m_max", "name")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, blocks: np.ndarray, shift: int = 0, m_max: int | None = None,
                 name: str = ""):
        blocks = _frozen(blocks)
        blocks = blocks[..., None] if blocks.ndim == 2 else blocks
        n_oam = 1 if m_max is None else oam_dim(m_max)
        if blocks.shape not in ((2, 2, 1), (2, 2, n_oam)):
            raise ValueError(f"blocks {blocks.shape} do not fit m_max={m_max}")
        if shift and (m_max is None or abs(shift) > m_max):
            raise ValueError(f"m_max={m_max} cannot hold a +-{abs(shift)} OAM shift")
        _Record.__init__(self, blocks, int(shift), m_max, name)

    @property
    def basis(self) -> tuple:
        return SPIN_LABELS if self.m_max is None else basis_labels(self.m_max)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def spin_only(self) -> bool:
        """Acts on polarization alone: one 2x2 block for every charge, no shift."""
        return self.shift == 0 and self.blocks.shape == (2, 2, 1)

    @property
    def matrix(self) -> np.ndarray:
        """Dense matrix over :attr:`basis`, built on demand for inspection."""
        n_oam = self.dim // 2
        blocks = np.broadcast_to(self.blocks, (2, 2, n_oam))
        rows = [[np.eye(n_oam, k=k) * blocks[s, t] for t in (0, 1)]
                for s, k in ((0, self.shift), (1, -self.shift))]
        return _frozen(np.block(rows))

    def is_unitary(self, tol: float = NORM_TOL) -> bool:
        """Every block unitary and no amplitude shifted out of the truncation."""
        gram = np.einsum("sto,suo->otu", self.blocks.conj(), self.blocks)
        return self.shift == 0 and bool(np.max(np.abs(gram - np.eye(2))) <= tol)

    def _apply_grid(self, grid: np.ndarray, m_max: int) -> np.ndarray:
        """Apply to a (..., 2, n) grid of states at truncation m_max.

        The grid holds all 2*m_max+1 charges, or, when narrower, only the
        centre |m| <= (n-1)/2, which the per-charge blocks are sliced to match.
        """
        name = self.name or "element"
        if self.m_max not in (None, m_max):
            raise BasisMismatchError(f"{name} is built for m_max={self.m_max}, not {m_max}")
        blocks, n_oam = self.blocks, grid.shape[-1]
        if blocks.shape[-1] > n_oam:
            cut = (blocks.shape[-1] - n_oam) // 2
            blocks = blocks[..., cut : cut + n_oam]
        out = np.einsum("...sto,...to->...so", blocks, grid)
        k = abs(self.shift)
        if k == 0:
            return out
        down, up = (0, 1) if self.shift > 0 else (1, 0)  # rows moving to lower/higher m
        lost = max(abs(out[..., down, :k]).max(), abs(out[..., up, n_oam - k :]).max())
        if lost > NORM_TOL:
            raise TruncationError(f"{name} shifts amplitude {lost:.3g} past m_max={m_max}")
        shifted = np.zeros_like(out)
        shifted[..., down, : n_oam - k] = out[..., down, k:]
        shifted[..., up, k:] = out[..., up, : n_oam - k]
        return shifted


def tensor(a, b, m_max: int | None = None):
    """Tensor product of single-photon factors.

    Accepted forms:
      * two spin states -> 2x2 two-spin amplitude table (rows first factor)
      * spin state and an OAM ket (an integer charge, or a {m: amp} map)
        -> PhotonState

    Output amplitudes are products of the input amplitudes, so the norm of
    the result is the product of the factor norms.
    """
    a_vec = spin_ket(a) if isinstance(a, (str, np.ndarray, list, tuple)) else None
    if a_vec is None:
        raise TypeError("first tensor factor must be a spin state")
    if isinstance(b, (str,)) or (
        isinstance(b, (np.ndarray, list, tuple)) and np.asarray(b).size == 2
    ):
        b_vec = spin_ket(b)
        return np.outer(a_vec, b_vec)
    if isinstance(b, (int, np.integer)):
        oam: dict[int, complex] = {int(b): 1.0}
    elif isinstance(b, Mapping):
        oam = {int(m): complex(v) for m, v in b.items()}
    else:
        raise TypeError("second tensor factor must be a spin state or an OAM ket")
    if m_max is None:
        m_max = max(abs(m) for m in oam)
    if any(abs(m) > m_max for m in oam):
        raise TruncationError("OAM ket exceeds the requested truncation")
    amps = {
        (spin, m): a_vec[i] * v
        for i, spin in enumerate(SPIN_LABELS)
        for m, v in oam.items()
    }
    return PhotonState.from_amplitudes(m_max, amps)


def apply(op: ElementOp, state):
    """Apply an element to a state; preserves norm iff the element is unitary.

    Elements map the (spin, m) grid; a constant unshifted element also maps
    a bare spin state.
    """
    if isinstance(state, BipartiteState):
        raise TypeError("use apply_bob for bipartite states")
    if isinstance(state, PhotonState):
        grid = op._apply_grid(state.as_grid(), state.m_max)
        return PhotonState(state.m_max, grid.reshape(-1))
    return op._apply_grid(spin_ket(state)[:, None], 0)[:, 0]


def apply_bob(op: ElementOp, state: BipartiteState) -> BipartiteState:
    """Apply an element to Bob's photon, leaving Alice untouched."""
    if not isinstance(state, BipartiteState):
        raise TypeError(f"apply_bob takes a BipartiteState, got {type(state).__name__}; "
                        "use apply for single-photon states")
    grids = state.matrix.reshape(2, 2, oam_dim(state.m_max))
    out = op._apply_grid(grids, state.m_max)
    return BipartiteState(state.m_max, out.reshape(2, -1))


def inner(a, b) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument; a state
    pairs only with a state of its own kind."""
    if isinstance(a, PhotonState) and isinstance(b, PhotonState):
        if a.m_max != b.m_max:
            raise BasisMismatchError("states use different truncations")
        return complex(np.vdot(a.vector, b.vector))
    if isinstance(a, BipartiteState) and isinstance(b, BipartiteState):
        if a.m_max != b.m_max:
            raise BasisMismatchError("states use different truncations")
        return complex(np.vdot(a.matrix, b.matrix))
    if isinstance(a, (PhotonState, BipartiteState)) or isinstance(b, (PhotonState, BipartiteState)):
        raise TypeError(f"inner takes two PhotonStates, two BipartiteStates or two spin kets, "
                        f"got {type(a).__name__} and {type(b).__name__}")
    return complex(np.vdot(spin_ket(a), spin_ket(b)))


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
