"""The heralded spin-orbit entanglement experiment.

Preparation: a polarization-entangled photon pair, Bob's photon filtered
to the fundamental m = 0 fiber mode and sent through a q-plate, then
Alice's detection in a chosen polarization basis heralds Bob's photon in
a single-photon spin-orbit Bell state, e.g. (|L,-2> + |R,+2>)/sqrt(2)
for q = 1.

Measurement: Bob's photon is analyzed jointly in an OAM observable with
phase chi_A and a polarization observable with phase chi_B.  Two routes
are provided and must agree:

* the projector shortcut (:func:`joint_probabilities`), built directly
  from the dichotomic +-1 observables, and
* the element-by-element optical chain (:func:`interferometer_detect`):
  quarter-wave plate at 45 deg, polarizing splitter, Dove-prism pair at
  relative angle alpha, non-polarizing recombiner, then per output port a
  quarter-wave plate at -45 deg, two half-wave elements (0 and beta) and a
  polarizing splitter feeding two detectors.

The settings map as chi_A = 2*m*alpha (m the OAM magnitude, 2 by default)
and chi_B = 2*beta; for the heralded Bell state the correlation is
E(chi_A, chi_B) = sin(chi_A + chi_B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import QPlateSpec, dove_pair_op, qplate_op, smf_filter_op, waveplate_op
from .qstate import (
    BipartiteState,
    PhotonState,
    Projector,
    apply,
    apply_bob,
    project,
    spin_ket,
)

LOST_WEIGHT_TOL = 1e-9


class LostWeightError(ValueError):
    """State support fell outside the analyzer subspace by more than tolerance."""


@dataclass(frozen=True)
class HeraldOutcome:
    """Bob's post-herald state and the probability of the heralding click."""

    state: PhotonState
    probability: float


@dataclass(frozen=True)
class Observable:
    """Dichotomic observable: +1 and -1 outcome projectors."""

    plus: Projector
    minus: Projector

    def projector(self, outcome: int) -> Projector:
        if outcome == +1:
            return self.plus
        if outcome == -1:
            return self.minus
        raise ValueError("outcome must be +1 or -1")


@dataclass(frozen=True)
class AnalyzerSettings:
    """Analyzer phases and their hardware angles.

    chi_a = 2*m*alpha (Dove-pair relative rotation alpha, OAM magnitude m)
    and chi_b = 2*beta (half-wave element angle beta).  Conversions are
    exact multiplications and divisions by powers of two when m = 2.
    """

    chi_a: float
    chi_b: float
    m: int = 2

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("analyzer OAM magnitude must be a positive integer")

    @property
    def alpha(self) -> float:
        return self.chi_a / (2 * self.m)

    @property
    def beta(self) -> float:
        return self.chi_b / 2

    @classmethod
    def from_angles(cls, alpha: float, beta: float, m: int = 2) -> "AnalyzerSettings":
        return cls(chi_a=2 * m * alpha, chi_b=2 * beta, m=m)


def default_m_max(q: float) -> int:
    """Truncation bound for a single pass through a q-plate: 2*ceil(|2q|)."""
    return 2 * math.ceil(abs(2 * QPlateSpec(q).q))


def spdc_source(m_max: int = 4) -> BipartiteState:
    """Photon-pair source in (|H>_A |H>_B + |V>_A |V>_B)/sqrt(2), Bob m = 0."""
    h = spin_ket("H")
    v = spin_ket("V")
    pair = (np.outer(h, h) + np.outer(v, v)) / math.sqrt(2)
    return BipartiteState.from_spin_pair(pair, m=0, m_max=m_max)


def prepare_hybrid(
    spec: QPlateSpec = QPlateSpec(1, 0.0), m_max: int | None = None
) -> BipartiteState:
    """Source, fiber filter on Bob, then Bob's q-plate.

    For q = 1 the result is
    (|L>_A (|L,-2>)_B + |R>_A (|R,+2>)_B) / sqrt(2).
    """
    if m_max is None:
        m_max = default_m_max(spec.q)
    state = spdc_source(m_max)
    state = apply_bob(smf_filter_op(m_max), state)  # weight 1 for this source
    return apply_bob(qplate_op(spec, m_max), state)


def herald(state: BipartiteState, alice_basis="H") -> HeraldOutcome:
    """Project Alice onto a polarization state and return Bob's reduced state.

    A zero-probability herald comes back flagged: zero state, probability 0.
    """
    chi = spin_ket(alice_basis)
    proj = Projector(
        "spin", {"L": complex(chi[0]), "R": complex(chi[1])}, side="alice"
    )
    bob, prob = project(state, proj)
    return HeraldOutcome(state=bob, probability=prob)


def spin_orbit_bell_state(m: int = 2, m_max: int | None = None) -> PhotonState:
    """The heralded single-photon Bell state (|L,-m> + |R,+m>)/sqrt(2)."""
    if m_max is None:
        m_max = 2 * m
    amp = math.sqrt(0.5)
    return PhotonState.from_amplitudes(m_max, {("L", -m): amp, ("R", m): amp})


def observable_A(chi_a: float, m: int = 2) -> Observable:
    """OAM observable on the {-m, +m} subspace.

    Outcome states are the unit-normalized
    (1/2) [ (1+i)|-m> +- (1-i) e^{i chi_a} |+m> ] ; eigenvalue +1 is the
    detector port fed by the + superposition.
    """
    if m < 1:
        raise ValueError("analyzer OAM magnitude must be a positive integer")
    a = (1 + 1j) / 2
    b = (1 - 1j) * np.exp(1j * chi_a) / 2
    plus = Projector("oam", {-m: a, +m: b})
    minus = Projector("oam", {-m: a, +m: -b})
    return Observable(plus=plus, minus=minus)


def observable_B(chi_b: float) -> Observable:
    """Polarization observable with outcome states (|L> +- e^{i chi_b}|R>)/sqrt(2)."""
    a = complex(math.sqrt(0.5))
    b = np.exp(1j * chi_b) * math.sqrt(0.5)
    plus = Projector("spin", {"L": a, "R": b})
    minus = Projector("spin", {"L": a, "R": -b})
    return Observable(plus=plus, minus=minus)


def _joint_amplitude(
    bob: PhotonState, oam_proj: Projector, spin_proj: Projector
) -> complex:
    chi = spin_proj.target_vector(bob.m_max)
    w = oam_proj.target_vector(bob.m_max)
    joint = np.outer(chi, w)
    return complex(np.vdot(joint.reshape(-1), bob.vector))


def joint_probabilities(
    bob: PhotonState, chi_a: float, chi_b: float, m: int = 2
) -> tuple[float, float, float, float]:
    """Joint outcome probabilities (p_pp, p_pm, p_mp, p_mm).

    First index is the OAM outcome, second the polarization outcome.  The
    input must be unit norm with support in spin x {-m, +m}; weight outside
    that analyzer subspace beyond 1e-9 raises LostWeightError.
    """
    nrm = bob.norm()
    if abs(nrm - 1.0) > LOST_WEIGHT_TOL:
        raise ValueError(f"analyzer input must be unit norm, got {nrm}")
    obs_a = observable_A(chi_a, m=m)
    obs_b = observable_B(chi_b)
    probs = tuple(
        abs(_joint_amplitude(bob, obs_a.projector(sa), obs_b.projector(sb))) ** 2
        for sa in (+1, -1)
        for sb in (+1, -1)
    )
    lost = 1.0 - sum(probs)
    if lost > LOST_WEIGHT_TOL:
        raise LostWeightError(
            f"probability weight {lost:.3g} lies outside the +-{m} analyzer subspace"
        )
    return probs  # type: ignore[return-value]


def correlation(outcomes) -> float:
    """p_pp + p_mm - p_pm - p_mp from outcome weights (p_pp, p_pm, p_mp, p_mm)."""
    return outcomes[0] + outcomes[3] - outcomes[1] - outcomes[2]


def expectation(bob: PhotonState, chi_a: float, chi_b: float, m: int = 2) -> float:
    """Correlation E(chi_a, chi_b) of :func:`joint_probabilities`.

    Equals sin(chi_a + chi_b) for the heralded Bell state.
    """
    return correlation(joint_probabilities(bob, chi_a, chi_b, m=m))


def interferometer_detect(
    bob: PhotonState, alpha: float, beta: float
) -> tuple[float, float, float, float]:
    """Element-by-element simulation of the two-port analyzer.

    Returns detector probabilities (p_pp, p_pm, p_mp, p_mm) labeled as in
    :func:`joint_probabilities`; with chi_a = 2*m*alpha and chi_b = 2*beta
    the two routes agree on states prepared by the q-plate chain.

    The reflected path of the recombination loop carries one extra image
    inversion (odd mirror parity), applied before its Dove prism.  Without
    it the two arms reach the recombiner in orthogonal OAM modes, nothing
    interferes, and every detector fires with probability 1/4.
    """
    m_max = bob.m_max
    psi = apply(waveplate_op("qwp", math.pi / 4), bob)
    grid = psi.as_grid()

    h = spin_ket("H")
    v = spin_ket("V")
    arm_t = np.outer(h, h.conj()) @ grid
    arm_r = np.outer(v, v.conj()) @ grid

    arm_r = arm_r[:, ::-1]  # image inversion m -> -m
    arm_r = apply(
        dove_pair_op(alpha, m_max), PhotonState(m_max, arm_r.reshape(-1))
    ).as_grid()

    # Symmetric 50/50 recombiner, phase i on reflection.
    s = math.sqrt(0.5)
    ports = {
        "plus": s * (arm_t + 1j * arm_r),
        "minus": s * (1j * arm_t + arm_r),
    }

    qwp_out = waveplate_op("qwp", -math.pi / 4)
    hwp_pair = waveplate_op("hwp", beta).compose(waveplate_op("hwp", 0.0))
    out = {}
    for name, port_grid in ports.items():
        port = PhotonState(m_max, port_grid.reshape(-1))
        port = apply(qwp_out, port)
        port = apply(hwp_pair, port)
        pg = port.as_grid()
        b_plus = h.conj() @ pg
        b_minus = v.conj() @ pg
        out[name, +1] = float(np.vdot(b_plus, b_plus).real)
        out[name, -1] = float(np.vdot(b_minus, b_minus).real)
    return (
        out["plus", +1],
        out["plus", -1],
        out["minus", +1],
        out["minus", -1],
    )
