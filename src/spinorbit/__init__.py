"""Deterministic simulator of single-photon spin-orbit entanglement.

A q-plate couples a photon's circular polarization to its orbital angular
momentum; heralding one photon of a polarization-entangled pair leaves
the other in a single-photon spin-orbit Bell state.  This package
prepares that state, measures it with paired phase analyzers (both as
closed-form outcome states and as an element-by-element optical chain), and
evaluates the CHSH combination exactly, with shot noise, and against the
brute-force noncontextual hidden-variable bound.
"""

__version__ = "0.24.0"

from .chsh import (
    CIRCLE_SETTINGS,
    ChshSettings,
    CountRecord,
    McEstimate,
    RngSeed,
    SweepRow,
    SweepTable,
    TSIRELSON_SETTINGS,
    chsh_combination,
    chsh_monte_carlo,
    estimate_E,
    nchv_max_S,
    pair_probabilities,
    sample_counts,
    sweep,
)
from .elements import (
    QPlateSpec,
    dove_pair_op,
    mirror_op,
    qplate_op,
    smf_filter_op,
    symmetry_order,
    waveplate_op,
)
from .experiment import (
    HeraldOutcome,
    LostWeightError,
    correlation,
    herald,
    interferometer_detect,
    joint_probabilities,
    prepare_hybrid,
    spdc_source,
    spin_orbit_bell_state,
)
from .qstate import (
    BipartiteState,
    ElementOp,
    PhotonState,
    apply,
    apply_bob,
    inner,
    spin_ket,
)

__all__ = [
    "BipartiteState",
    "CIRCLE_SETTINGS",
    "ChshSettings",
    "CountRecord",
    "ElementOp",
    "HeraldOutcome",
    "LostWeightError",
    "McEstimate",
    "PhotonState",
    "QPlateSpec",
    "RngSeed",
    "SweepRow",
    "SweepTable",
    "TSIRELSON_SETTINGS",
    "apply",
    "apply_bob",
    "chsh_combination",
    "chsh_monte_carlo",
    "correlation",
    "dove_pair_op",
    "estimate_E",
    "herald",
    "inner",
    "interferometer_detect",
    "joint_probabilities",
    "mirror_op",
    "nchv_max_S",
    "pair_probabilities",
    "prepare_hybrid",
    "qplate_op",
    "sample_counts",
    "smf_filter_op",
    "spdc_source",
    "spin_ket",
    "spin_orbit_bell_state",
    "sweep",
    "symmetry_order",
    "waveplate_op",
]
