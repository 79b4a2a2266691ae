"""States and operators for a single photon's polarization and OAM.

A single photon carries two coupled degrees of freedom here: spin (circular
polarization, labels "L" and "R") and orbital angular momentum (an integer
topological charge m, truncated to |m| <= m_max).  A state stores its
amplitudes only as a grid indexed (spin, m + m_max), of shape
(2, 2*m_max+1), with Alice's spin as a leading axis for a pair; every
element acts on that grid, and the (spin, m) label of a cell is read and
written through one rule.  All operations are pure functions over
immutable values, so everything in this module is safe to share across
threads.

The linear polarization basis is fixed as

    |H> = (|L> + |R>) / sqrt(2)
    |V> = (|L> - |R>) / (i sqrt(2))

and every element matrix elsewhere in the package is derived under this
convention.  Global phases are physical bookkeeping and never stripped.
"""

from __future__ import annotations

import math
import numbers
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


def _integer(name: str, value) -> int:
    """``value`` as a Python int; ``ValueError`` unless it is an integer (a bool is not)."""
    # The Integral ABC check is slow next to an analyzer call; an exact int skips it.
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value, array: bool = False):
    """``value`` as a Python float, or with ``array`` as a float ndarray if it has a shape;
    ``ValueError`` unless it is a Python int or float, or numpy numbers of dtype kind i, u or f
    (a bool, complex, string, masked array or an int past numpy's 64 bits is not)."""
    if type(value) is float:  # the analyzers read two settings per call; skip every test
        return value
    arr = np.asanyarray(value)
    if type(arr) is not np.ndarray or arr.dtype.kind not in "iuf":
        plain = arr.ndim == 0 and type(arr) is np.ndarray  # an array's repr may span lines
        shown = repr(value) if plain else f"{type(value).__name__} of dtype {arr.dtype}"
        raise ValueError(f"{name} must be a real number, got {shown}")
    if arr.ndim and not array:
        raise ValueError(f"{name} must be a scalar, got shape {arr.shape}")
    return arr.astype(float, copy=False) if arr.ndim else float(arr)


def _truncation(m_max) -> int:
    """``m_max`` as a Python int; ``ValueError`` unless it is an integer of at least 0."""
    m_max = _integer("m_max", m_max)
    if m_max < 0:
        raise ValueError(f"m_max must be at least 0, got {m_max}")
    return m_max


def oam_dim(m_max: int) -> int:
    return 2 * m_max + 1


def _cell(m_max: int, m, *spins) -> tuple[int, ...]:
    """The grid index (*spin rows, m + m_max) of the label (*spins, m).

    A spin other than "L" or "R" or a charge that is not an integer raises
    ValueError, and |m| > m_max TruncationError.
    """
    for spin in spins:
        if spin not in SPIN_LABELS:
            raise ValueError(f"spin must be 'L' or 'R', got {spin!r}")
    m = _integer("m", m)
    if abs(m) > m_max:
        raise TruncationError(f"|m|={abs(m)} exceeds truncation m_max={m_max}")
    return (*map(SPIN_LABELS.index, spins), m + m_max)


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


class _State(_Record):
    """A state record: its truncation ``m_max`` and its read-only, C-ordered
    complex ``grid`` of amplitudes indexed (..., spin, m + m_max), with
    ``_spins`` spin axes.  The constructor takes the grid alone; any other
    shape raises ValueError.
    """

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, m_max: int, grid: np.ndarray):
        m_max = _truncation(m_max)
        grid = np.array(grid, dtype=complex, order="C")
        shape = (2,) * self._spins + (oam_dim(m_max),)
        if grid.shape != shape:
            raise ValueError(f"grid shape {grid.shape} does not match m_max={m_max}: "
                             f"expected {shape}")
        grid.setflags(write=False)
        _Record.__init__(self, m_max, grid)

    @classmethod
    def from_amplitudes(cls, m_max: int, amps: Mapping[tuple, complex]):
        """The state with amplitude ``a`` at each (*spins, m) label of ``amps``, 0 elsewhere;
        a label of another form raises ValueError."""
        m_max = _truncation(m_max)
        grid = np.zeros((2,) * cls._spins + (oam_dim(m_max),), dtype=complex)
        for label, a in amps.items():
            if not isinstance(label, tuple) or len(label) != cls._spins + 1:
                raise ValueError(f"a {cls.__name__} label is {cls._label_form}, got {label!r}")
            grid[_cell(m_max, label[-1], *label[:-1])] = a
        return cls(m_max, grid)

    def norm(self) -> float:
        return float(np.linalg.norm(self.grid))


class PhotonState(_State):
    """Single-photon amplitudes on the (2, 2*m_max+1) (spin, m) grid."""

    __slots__ = ("m_max", "grid")
    _spins = 1
    _label_form = "(spin, m)"

    @classmethod
    def zero(cls, m_max: int) -> "PhotonState":
        return cls.from_amplitudes(m_max, {})

    @classmethod
    def basis_state(cls, spin: str, m: int, m_max: int) -> "PhotonState":
        return cls.from_amplitudes(m_max, {(spin, m): 1.0})

    def amplitude(self, spin: str, m: int) -> complex:
        return complex(self.grid[_cell(self.m_max, m, spin)])


class BipartiteState(_State):
    """Two-photon amplitudes: Alice spin only, Bob spin and OAM.

    Alice's photon is analyzed in polarization alone (her OAM is fixed at
    zero by the source and never stored).  The grid has shape
    (2, 2, 2*m_max+1), indexed (Alice spin, Bob spin, m + m_max).
    """

    __slots__ = ("m_max", "grid")
    _spins = 2
    _label_form = "(alice_spin, bob_spin, m)"

    def amplitude(self, alice_spin: str, bob_spin: str, m: int) -> complex:
        return complex(self.grid[_cell(self.m_max, m, alice_spin, bob_spin)])


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
        if m_max is not None:
            m_max = _truncation(m_max)
        n_oam = 1 if m_max is None else oam_dim(m_max)
        if blocks.shape not in ((2, 2, 1), (2, 2, n_oam)):
            raise ValueError(f"blocks {blocks.shape} do not fit m_max={m_max}")
        if shift and (m_max is None or abs(shift) > m_max):
            raise ValueError(f"m_max={m_max} cannot hold a +-{abs(shift)} OAM shift")
        _Record.__init__(self, blocks, int(shift), m_max, name)

    @property
    def spin_only(self) -> bool:
        """Acts on polarization alone: one 2x2 block for every charge, no shift."""
        return self.shift == 0 and self.blocks.shape == (2, 2, 1)

    @property
    def matrix(self) -> np.ndarray:
        """Dense matrix over the (spin, m) labels in the order (L, -m_max), ...,
        (L, +m_max), (R, -m_max), ..., (R, +m_max), a state's grid read flat, or
        over (L, R) when ``m_max`` is None: the reference the tests compare the
        grid contraction with."""
        n_oam = 1 if self.m_max is None else oam_dim(self.m_max)
        blocks = np.broadcast_to(self.blocks, (2, 2, n_oam))
        rows = [[np.eye(n_oam, k=k) * blocks[s, t] for t in (0, 1)]
                for s, k in ((0, self.shift), (1, -self.shift))]
        return _frozen(np.block(rows))

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


def apply(op: ElementOp, state):
    """Apply an element to a state's grid, for a pair to Bob's photon; preserves
    norm iff the element is unitary.  A constant unshifted element also maps a
    bare spin state.
    """
    if isinstance(state, _State):
        return type(state)(state.m_max, op._apply_grid(state.grid, state.m_max))
    return op._apply_grid(spin_ket(state)[:, None], 0)[:, 0]


def apply_bob(op: ElementOp, state: BipartiteState) -> BipartiteState:
    """:func:`apply` for a pair only: the element acts on Bob's photon, leaving Alice untouched."""
    if not isinstance(state, BipartiteState):
        raise TypeError(f"apply_bob takes a BipartiteState, got {type(state).__name__}; "
                        "use apply for single-photon states")
    return apply(op, state)


def inner(a, b) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument; a state
    pairs only with a state of its own kind."""
    if isinstance(a, _State) or isinstance(b, _State):
        if type(a) is not type(b):
            raise TypeError(f"inner takes two PhotonStates, two BipartiteStates or two spin "
                            f"kets, got {type(a).__name__} and {type(b).__name__}")
        if a.m_max != b.m_max:
            raise BasisMismatchError("states use different truncations")
        return complex(np.vdot(a.grid, b.grid))
    return complex(np.vdot(spin_ket(a), spin_ket(b)))
