"""The heralded spin-orbit entanglement experiment.

Preparation: a polarization-entangled photon pair, Bob's photon filtered
to the fundamental m = 0 fiber mode and sent through a q-plate, then
Alice's detection in a chosen polarization basis heralds Bob's photon in
a single-photon spin-orbit Bell state, e.g. (|L,-2> + |R,+2>)/sqrt(2)
for q = 1.

Measurement: Bob's photon is analyzed jointly in an OAM observable with
phase chi_A and a polarization observable with phase chi_B.  Two routes
are provided and must agree on the span of the q-plate outputs |L,-m>, |R,+m>:

* the closed-form kernel (:func:`joint_probabilities`): the outcome states
  of both dichotomic observables are written down directly on the
  spin x {-m, +m} subspace, and one einsum over arrays of settings gives
  the four squared overlaps per setting; a scalar setting pair takes the
  same products and sums on four Python complex numbers, with the same
  bytes, and
* the element-by-element optical chain (:func:`interferometer_detect`)
  over broadcast arrays of hardware angles (alpha, beta): quarter-wave
  plate at 45 deg, polarizing splitter, Dove-prism pair at relative angle
  alpha, non-polarizing recombiner, then per output port a quarter-wave
  plate at -45 deg, two half-wave elements (0 and beta) and a polarizing
  splitter feeding two detectors; the fixed plates and the recombiner's
  port factors fold into one map built once per process, and each call
  builds no element: the Dove pair and hwp(beta) are phase vectors.

The settings map as chi_A = 2*m*alpha (m the OAM magnitude, 2 by default)
and chi_B = 2*beta; for the heralded Bell state the correlation is
E(chi_A, chi_B) = sin(chi_A + chi_B).
"""

from __future__ import annotations

import cmath
import math
from functools import cache, lru_cache

import numpy as np

from .elements import (
    _P_H,
    _P_V,
    QPlateSpec,
    _dove_angle,
    qplate_op,
    smf_filter_op,
    waveplate_op,
)
from .qstate import (
    _CIRC_TO_LIN,
    BipartiteState,
    NORM_TOL,
    PhotonState,
    TruncationError,
    _frozen,
    _integer,
    _real,
    _Record,
    apply_bob,
    oam_dim,
    spin_ket,
)

LOST_WEIGHT_TOL = 1e-9
_HWP_PHASES = _frozen([1j, -1j])  # hwp(beta) on the columns L, R, per unit beta


@lru_cache(maxsize=4)
def _dove_charges(m_max: int) -> np.ndarray:
    """The Dove pair's phase per unit alpha on each charge, 2i*m for m = -m_max..m_max;
    bounded, since at m_max = 2**16 one vector holds 2 MB."""
    return _frozen(2j * np.arange(-m_max, m_max + 1))


@cache
def _fixed_plates():
    """The analyzer's setting-independent front map (2, 2, 2, 2), built on first use: per
    splitter arm P = _P_H, _P_V, qwp(-pi/4) P qwp(pi/4) times the recombiner's factor into
    each output port, (1, i)/sqrt(2) for the transmitted arm and (i, 1)/sqrt(2) for the other."""
    qwp_in, qwp_out = (waveplate_op("qwp", t).blocks[..., 0] for t in (math.pi / 4, -math.pi / 4))
    arm_t, arm_r = (qwp_out @ arm @ qwp_in * math.sqrt(0.5) for arm in (_P_H, _P_V))
    return _frozen([[arm_t, 1j * arm_t], [1j * arm_r, arm_r]])


class LostWeightError(ValueError):
    """State support fell outside the analyzer subspace by more than tolerance."""


class HeraldOutcome(_Record):
    """Bob's post-herald state and the probability of the heralding click."""

    __slots__ = ("state", "probability")

    def __init__(self, state: PhotonState, probability: float):
        _Record.__init__(self, state, probability)


def spdc_source(m_max: int = 0) -> BipartiteState:
    """Photon-pair source in (|H>_A |H>_B + |V>_A |V>_B)/sqrt(2), Bob m = 0; m_max 0 by default."""
    m_max = _integer("m_max", m_max, low=0)
    h = spin_ket("H")
    v = spin_ket("V")
    amps = np.zeros((2, 2, oam_dim(m_max)), dtype=complex)  # (Alice, Bob spin, m)
    amps[:, :, m_max] = (np.outer(h, h) + np.outer(v, v)) / math.sqrt(2)
    return BipartiteState(m_max, amps)


def prepare_hybrid(
    spec: QPlateSpec = QPlateSpec(1, 0.0), m_max: int | None = None
) -> BipartiteState:
    """Source, fiber filter on Bob, then Bob's q-plate.

    For q = 1 the result is
    (|L>_A (|L,-2>)_B + |R>_A (|R,+2>)_B) / sqrt(2).  By default m_max is |2q|,
    the widest charge it holds, as in the compiled bench of these stages.
    """
    m_max = abs(spec.two_q) if m_max is None else m_max
    state = spdc_source(m_max)
    state = apply_bob(smf_filter_op(m_max), state)  # weight 1 for this source
    return apply_bob(qplate_op(spec, m_max), state)


def herald(state: BipartiteState, alice_basis="H") -> HeraldOutcome:
    """Project Alice onto a polarization state and return Bob's reduced state.

    ``alice_basis`` is a label or a unit (c_L, c_R) vector; any other norm
    raises ValueError.  A zero-probability herald comes back flagged: zero
    state, probability 0.
    """
    if not isinstance(state, BipartiteState):
        raise TypeError(f"herald takes a BipartiteState, got {type(state).__name__}")
    chi = spin_ket(alice_basis)
    nrm = math.sqrt(sum(abs(v) ** 2 for v in chi))
    if not abs(nrm - 1.0) <= NORM_TOL:  # written so that a NaN norm fails
        raise ValueError(f"herald basis must have unit norm, got {nrm}")
    bob = chi.conj() @ state.grid.reshape(2, -1)  # Bob's (spin, m) cells read flat
    prob = float(np.vdot(bob, bob).real)
    if prob < NORM_TOL**2:
        return HeraldOutcome(state=PhotonState.zero(state.m_max), probability=0.0)
    return HeraldOutcome(PhotonState(state.m_max, bob.reshape(2, -1) / math.sqrt(prob)), prob)


def spin_orbit_bell_state(m: int = 2, m_max: int | None = None) -> PhotonState:
    """The heralded single-photon Bell state (|L,-m> + |R,+m>)/sqrt(2); m_max |m| by default."""
    m = _integer("m", m)
    m_max = abs(m) if m_max is None else m_max
    amp = math.sqrt(0.5)
    return PhotonState.from_amplitudes(m_max, {("L", -m): amp, ("R", m): amp})


def _finite_settings(a, b, m_max=None):
    """Two analyzer settings read by ``_real``: Python floats if both are scalars, else float
    arrays.  With ``m_max``, ``a`` is a Dove angle, bounded by ``_dove_angle``.  Numpy's ufuncs
    take a Python float without building a 0-d array, and give the same bytes."""
    a, b = _real("analyzer setting", a, array=True), _real("analyzer setting", b, array=True)
    if type(a) is not float or type(b) is not float:
        a, b = np.asarray(a), np.asarray(b)
    if m_max is not None:
        a = _dove_angle(a, m_max)
    return a, b


def _unit_grid(bob: PhotonState) -> np.ndarray:
    """Bob's (spin, m) grid; a squared norm off 1 by more than LOST_WEIGHT_TOL raises ValueError."""
    if not isinstance(bob, PhotonState):
        raise TypeError(f"the analyzer takes Bob's heralded PhotonState, got {type(bob).__name__}")
    grid = bob.grid
    if not abs(np.vdot(grid, grid).real - 1.0) <= LOST_WEIGHT_TOL:  # a NaN norm fails too
        raise ValueError(f"analyzer input must be unit norm, got {bob.norm()}")
    return grid


def _outcome_pair(a, b) -> np.ndarray:
    """Outcome states a|0> + b|1> (+1) and a|0> - b|1> (-1) as a (..., 2, 2) array."""
    out = np.empty(b.shape + (2, 2), dtype=complex)
    out[..., 0] = a
    out[..., 0, 1] = b
    out[..., 1, 1] = -b
    return out


def _oam_outcomes(chi_a) -> np.ndarray:
    """OAM observable on the {-m, +m} subspace: unit outcome states
    (1/2) [ (1+i)|-m> +- (1-i) e^{i chi_a} |+m> ] over (|-m>, |+m>).

    Eigenvalue +1 is the detector port fed by the + superposition.
    """
    return _outcome_pair((1 + 1j) / 2, (1 - 1j) * np.exp(1j * chi_a) / 2)


def _spin_outcomes(chi_b) -> np.ndarray:
    """Polarization observable: outcome states (|L> +- e^{i chi_b}|R>) / sqrt(2) over (L, R)."""
    return _outcome_pair(math.sqrt(0.5), np.exp(1j * chi_b) * math.sqrt(0.5))


def joint_probabilities(bob: PhotonState, chi_a, chi_b, m: int = 2) -> np.ndarray:
    """Joint outcome probabilities (p_pp, p_pm, p_mp, p_mm), shape (..., 4).

    ``chi_a`` and ``chi_b`` broadcast together; scalar settings give shape
    (4,).  First index is the OAM outcome, second the polarization outcome.
    One einsum overlaps the outcome states of :func:`_oam_outcomes` and
    :func:`_spin_outcomes` with Bob's grid columns m_max -+ m; two scalar
    settings skip it and form the four overlaps in Python complex arithmetic,
    term for term as the einsum does, so a scalar call's bytes equal those of
    the matching row of a batched call.  The input's
    squared norm must be 1 within 1e-9, with support in spin x {-m, +m}:
    weight outside it beyond 1e-9 at any setting raises LostWeightError.
    Settings must be finite real numbers (not bools) and m an integer of at
    least 1; m > m_max raises TruncationError.
    """
    grid = _unit_grid(bob)
    m = _integer("m", m, low=1)
    if m > bob.m_max:
        raise TruncationError(f"analyzer charge +-{m} exceeds truncation m_max={bob.m_max}")
    chi_a, chi_b = _finite_settings(chi_a, chi_b)
    # Both paths form each amplitude in one order, O and S being the arrays of _oam_outcomes and
    # _spin_outcomes and sub[j, k] Bob's cell (j, m_max -+ m) conjugated: products
    # (O[a, k] * S[b, j]) * sub[j, k], summed over the spin j within each charge k, then the two
    # charge sums added.  The einsum sums in its operands' stride order, so that order rests on
    # the fancy index's F-ordered sub (the equal C-ordered slice gives other bytes); the sweep
    # CSV pins and the kernel digests hold both paths to it.  Conjugation and sign flips are
    # exact in every product and sum, so the scalar path forms each conjugate, the overlap
    # <outcome|cells> itself, from conjugated outcome entries, and its -+ terms by flipping the
    # + ones: the same magnitudes, bit for bit.
    if type(chi_a) is float:
        (u0, v0), (u1, v1) = grid[:, bob.m_max - m : bob.m_max + m + 1 : 2 * m].tolist()
        e_a, e_b = cmath.exp(1j * chi_a).conjugate(), cmath.exp(1j * chi_b).conjugate()
        o0, o1 = (1 - 1j) / 2, (1 + 1j) * e_a / 2  # conjugates of _oam_outcomes' entries
        s0, s1 = math.sqrt(0.5), e_b * math.sqrt(0.5)  # and of _spin_outcomes'
        p, q, r, t = o0 * s0 * u0, o0 * s1 * u1, o1 * s0 * v0, o1 * s1 * v1
        wp, wm, xp, xm = p + q, p - q, r + t, r - t  # charge -m and +m sums, spin outcome +-
        probs = np.abs([wp + xp, wm + xm, wp - xp, wm - xm])
        probs *= probs
    else:
        sub = grid[:, [bob.m_max - m, bob.m_max + m]].conj()  # (spin, -m/+m)
        oam, spin = _oam_outcomes(chi_a), _spin_outcomes(chi_b)
        amps = np.einsum("...ak,...bs,sk->...ab", oam, spin, sub)
        probs = (np.abs(amps) ** 2).reshape(amps.shape[:-2] + (4,))
    lost = 1.0 - np.add.reduce(probs, -1)
    if np.count_nonzero(lost > LOST_WEIGHT_TOL):
        raise LostWeightError(
            f"probability weight {np.max(lost):.3g} lies outside the +-{m} analyzer subspace"
        )
    return probs


def correlation(outcomes):
    """p_pp + p_mm - p_pm - p_mp over the last axis of (p_pp, p_pm, p_mp, p_mm) weights.

    Of :func:`joint_probabilities` for the heralded Bell state it is
    E(chi_a, chi_b) = sin(chi_a + chi_b).
    """
    p = np.asarray(outcomes)
    return p[..., 0] + p[..., 3] - p[..., 1] - p[..., 2]


def interferometer_detect(bob: PhotonState, alpha, beta) -> np.ndarray:
    """Element-by-element simulation of the two-port analyzer, shape (..., 4).

    ``alpha`` and ``beta`` broadcast together; scalar settings give shape
    (4,).  Returns detector probabilities (p_pp, p_pm, p_mp, p_mm) labeled
    as in :func:`joint_probabilities`; with chi_a = 2*m*alpha and
    chi_b = 2*beta the two routes agree on states prepared by the q-plate
    chain.  The input must be unit norm, as for :func:`joint_probabilities`,
    and settings finite reals, |alpha| at most sys.float_info.max / (2*m_max + 1)
    so that every Dove phase 2*m*alpha is finite.

    The reflected path of the recombination loop carries one extra image
    inversion (odd mirror parity), applied before its Dove prism.  Without
    it the two arms reach the recombiner in orthogonal OAM modes, nothing
    interferes, and every detector fires with probability 1/4.

    No element is built or applied per call.  Per port, hwp(beta) hwp(0)
    qwp(-pi/4) acts alike on both arms, so it commutes with the recombiner,
    and hwp(beta) = diag(e^{i beta}, e^{-i beta}) X with X hwp(0) = 1 (X swaps
    L and R): :func:`_fixed_plates` holds the rest.  The reflected arm lies in
    the range of _P_V, where the Dove pair _P_H + e^{2 i m alpha} _P_V is the
    phase e^{2 i m alpha} per charge m, which commutes with qwp(-pi/4), and
    the recombiner's port factors commute with both.
    """
    grid = _unit_grid(bob)
    alpha, beta = _finite_settings(alpha, beta, bob.m_max)
    if isinstance(alpha, np.ndarray):  # each setting meets a (port, spin, m) block
        alpha, beta = alpha[..., None, None, None], beta[..., None, None, None]
    arms = _fixed_plates() @ grid  # (transmitted, reflected) x ports "plus", "minus"
    dove = np.exp(alpha * _dove_charges(bob.m_max))
    ports = arms[0] + arms[1, ..., ::-1] * dove  # reflected arm: image inversion, Dove pair
    det = (_CIRC_TO_LIN * np.exp(beta * _HWP_PHASES)) @ ports  # detectors H (+1), V (-1)
    probs = np.einsum("...k,...k->...", det.conj(), det).real
    return probs.reshape(probs.shape[:-2] + (4,))
