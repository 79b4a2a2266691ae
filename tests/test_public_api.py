"""The package's public names and its version, pinned so a change is deliberate."""

import re
from pathlib import Path

import spinorbit

PUBLIC = [
    "BipartiteState", "CIRCLE_SETTINGS", "ChshSettings", "CountRecord", "ElementOp",
    "HeraldOutcome", "LostWeightError", "McEstimate", "PhotonState",
    "QPlateSpec", "RngSeed", "SweepRow", "SweepTable", "TSIRELSON_SETTINGS",
    "apply", "apply_bob", "chsh_combination", "chsh_monte_carlo", "correlation",
    "dove_pair_op", "estimate_E",
    "herald", "inner", "interferometer_detect", "joint_probabilities", "mirror_op",
    "nchv_max_S", "pair_probabilities", "prepare_hybrid", "qplate_op",
    "sample_counts", "smf_filter_op", "spdc_source", "spin_ket", "spin_orbit_bell_state",
    "sweep", "symmetry_order", "waveplate_op",
]


def test_all_is_the_pinned_list():
    assert len(spinorbit.__all__) == len(set(spinorbit.__all__))
    assert set(spinorbit.__all__) == set(PUBLIC)


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(spinorbit, name) is not None, name


def test_pyproject_version_matches_package():
    # A regex, not tomllib: the package supports Python 3.10.
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    versions = re.findall(r'^version = "([^"]+)"$', text, flags=re.MULTILINE)
    assert versions == [spinorbit.__version__]
