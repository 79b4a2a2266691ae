"""Optical elements as per-charge 2x2 spin blocks plus an OAM shift.

Every constructor returns an immutable :class:`~spinorbit.qstate.ElementOp`:
one 2x2 block over the circular polarization basis (L, R), either shared
by every OAM charge m or given per charge, followed by an integer shift
of the OAM charge.  Storage and application cost grow as O(m_max).  Each
element holds one hardware setting: its angle is a scalar, and a settings
scan belongs to the analyzers in :mod:`spinorbit.experiment`.  ``.matrix``
densifies an element for inspection only.  Conventions fixed here:

* A q-plate with axis pattern alpha(r, phi) = q*phi + alpha0 flips the
  circular polarization and shifts m by +-2q, with transition phases
  exp(+-i*2*alpha0).  ``QPlateSpec.axis_angle`` evaluates the pattern,
  which does not depend on r.
* The quarter-wave plate is the standard retarder R(theta) diag(1, i)
  R(-theta) in the linear basis; at theta = 45 deg it sends |L> to
  (1+i)/sqrt(2) |H> and |R> to (1-i)/sqrt(2) |V>, factors the downstream
  analyzers rely on.
* The half-wave element is parameterized by the circular phase it
  imprints: hwp(theta) maps |L> -> e^{-i theta}|R> and |R> -> e^{+i theta}|L>
  (a pi retarder with its fast axis at -theta/2).  A pair hwp(0), hwp(b)
  then leaves a net relative phase 2b between the |L> and |R> components,
  which is the analyzer phase convention used throughout.
* The Dove-prism pair acts as a pure OAM-dependent relative phase
  e^{i 2 m alpha} on the arm carrying |V>, with polarization untouched.

Nothing here writes a file: the ``field`` command samples and writes the
axis pattern.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .qstate import _CIRC_TO_LIN, SPIN_KETS, ElementOp, _frozen, _integer, _real, _Record

_HALF_TURN_TOL = 1e-9

# Projections |H><H| and |V><V| over (L, R): the two arms of a polarizing splitter.
_P_H, _P_V = (_frozen(np.outer(k, k.conj())) for k in (SPIN_KETS["H"], SPIN_KETS["V"]))


class QPlateSpec(_Record):
    """Geometry of a q-plate: axis pattern alpha(r, phi) = q*phi + alpha0."""

    __slots__ = ("q", "alpha0")

    def __init__(self, q: float, alpha0: float = 0.0):
        q, alpha0 = _real("q", q), _real("alpha0", alpha0)
        if not math.isfinite(2 * q) or abs(2 * q - round(2 * q)) > _HALF_TURN_TOL:
            raise ValueError(f"2q must be an integer, got q={q}")
        _Record.__init__(self, q, alpha0)

    @property
    def two_q(self) -> int:
        """Integer OAM shift 2q."""
        return round(2 * self.q)

    def axis_angle(self, phi):
        """Optical-axis angle q*phi + alpha0 mod pi, in [0, pi), at azimuth phi.

        ``phi`` is a real number or an array of them (``_real``); the pattern does
        not depend on the radius.
        """
        return np.mod(self.q * _real("phi", phi, array=True) + self.alpha0, math.pi)


def qplate_op(spec: QPlateSpec, m_max: int) -> ElementOp:
    """Spin x OAM action |L, m> -> e^{i 2 a0}|R, m+2q>, |R, m> -> e^{-i 2 a0}|L, m-2q>.

    Applying the result to a state with support that the shift would carry
    past the truncation raises TruncationError.
    """
    phase = np.exp(2j * spec.alpha0)
    blocks = np.array([[0.0, np.conj(phase)], [phase, 0.0]])
    name = f"qplate(q={spec.q}, alpha0={spec.alpha0})"
    return ElementOp(blocks, shift=spec.two_q, m_max=m_max, name=name)


def _dove_angle(alpha, m_max: int):
    """``alpha``, a float or a float array read by ``_real``, unchanged; an entry with |alpha|
    above sys.float_info.max / (2*m_max + 1), where a phase 2*m*alpha could overflow, raises
    ValueError."""
    limit = sys.float_info.max / (2 * m_max + 1)
    if type(alpha) is float and abs(alpha) <= limit:  # a scalar within the bound: no array
        return alpha
    over = np.abs(alpha) > limit
    if np.count_nonzero(over):
        shown = np.asarray(alpha)[over][0]
        raise ValueError(f"Dove angle {shown} overflows a phase 2*m*alpha at m_max={m_max}")
    return alpha


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def waveplate_op(kind: str, theta) -> ElementOp:
    """Wave plate as a polarization operator over the circular basis.

    kind "qwp": quarter-wave retarder with fast axis at theta.
    kind "hwp": half-wave element imprinting circular phase theta (see the
    module docstring for the angle convention).
    """
    kind = kind.lower() if isinstance(kind, str) else kind
    angle = _real("angle", theta)
    if kind == "qwp":
        lin = _rotation(angle) @ np.diag([1.0, 1j]) @ _rotation(-angle)
        circ = _CIRC_TO_LIN.conj().T @ lin @ _CIRC_TO_LIN
    elif kind == "hwp":
        plus, minus = np.exp(angle * np.array([1j, -1j]))  # e^{i theta}, e^{-i theta}
        circ = np.array([[0, plus], [minus, 0]])
    else:
        raise ValueError(f"unknown wave plate kind {kind!r}")
    return ElementOp(circ, name=f"{kind}({theta})")


def dove_pair_op(alpha, m_max: int) -> ElementOp:
    """Two-arm Dove prism composite with relative rotation alpha.

    Per OAM charge m, the component carried on the |V> arm is advanced by
    e^{i 2 m alpha} while the |H> arm is untouched; for m = 0 the arms stay
    in phase regardless of alpha.  Polarization is unaffected.  |alpha| above
    sys.float_info.max / (2*m_max + 1), where a phase 2*m*alpha could
    overflow, raises ValueError.
    """
    m_max = _integer("m_max", m_max, low=0)
    angle = _dove_angle(_real("angle", alpha), m_max)
    turns = np.zeros(2 * m_max + 1, dtype=complex)  # i 2 m alpha
    turns.imag = angle * np.arange(-2 * m_max, 2 * m_max + 1, 2.0)
    blocks = _P_H[..., None] + np.exp(turns, out=turns) * _P_V[..., None]
    return ElementOp(blocks, m_max=m_max, name=f"dove_pair({alpha})")


def smf_filter_op(m_max: int) -> ElementOp:
    """Single-mode-fiber filter: keeps only the fundamental m = 0 mode.

    A projector, not a unitary; the squared norm after application is the
    transmitted weight.
    """
    m_max = _integer("m_max", m_max, low=0)
    blocks = np.eye(2)[..., None] * (np.arange(-m_max, m_max + 1) == 0)
    return ElementOp(blocks, m_max=m_max, name="smf")


def mirror_op(m_max: int) -> ElementOp:
    """Steering mirror, modeled as the identity.

    Relative arm parity in the analyzer is owned by the interferometer
    model, not by individual mirrors.
    """
    return ElementOp(np.eye(2), m_max=m_max, name="mirror")


def symmetry_order(q: float) -> int | None:
    """Rotational symmetry order |2(q-1)| of the axis pattern.

    Returns None for q = 1, the rotationally invariant pattern.  The
    symmetry is that of the physical plate: rotating the sample by
    2*pi/|2(q-1)| co-rotates the axis directions, alpha'(phi) =
    alpha(phi - delta) + delta, and leaves the pattern unchanged mod pi.
    """
    spec = QPlateSpec(q)
    order = abs(round(2 * (spec.q - 1)))
    return None if order == 0 else order
