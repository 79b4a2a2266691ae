"""The package's public names and its version, pinned so a change is deliberate."""

import ast
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinorbit
from spinorbit.benchdsl import BenchAst, BenchPipeline, CompileError, Stage

ROOT = Path(__file__).resolve().parent.parent

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
    text = (ROOT / "pyproject.toml").read_text()
    versions = re.findall(r'^version = "([^"]+)"$', text, flags=re.MULTILINE)
    assert versions == [spinorbit.__version__]


def test_sources_parse_as_python_3_10():
    """CI also runs Python 3.10: every source parses under its grammar.  This catches
    syntax only, not a standard-library name that 3.10 lacks."""
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


#: Values that are not real numbers, or not finite ones.  A finite float (1e308) is a real
#: number: an entry may take it or raise its own error.
ODD_VALUES = [np.True_, np.False_, np.datetime64("2020"), np.timedelta64(3, "s"), None,
              np.array([0.1, None]), np.ma.masked_array([0.1, 0.2], mask=[0, 1]), b"1",
              np.ma.masked_array(0.5), math.nan, math.inf, -math.inf, np.float64(math.nan),
              np.array(math.inf), 1e308, -1e308]
ODD_VALUE = st.one_of(
    st.text(max_size=3), st.binary(max_size=3), st.booleans(),
    st.floats(-4, 4).flatmap(lambda x: st.sampled_from([complex(x), np.complex128(x),
                                                        np.array(x + 0j)])),
    st.sampled_from(ODD_VALUES),
)

_BELL = spinorbit.spin_orbit_bell_state()
_SOURCE = Stage("source", {"kind": "spdc"}, "both", 1)

#: Every public entry that reads a real number, with the error type it raises.
REAL_ENTRIES = {
    "QPlateSpec-q": (lambda v: spinorbit.QPlateSpec(v), ValueError),
    "QPlateSpec-alpha0": (lambda v: spinorbit.QPlateSpec(1, v), ValueError),
    "symmetry_order": (spinorbit.symmetry_order, ValueError),
    "waveplate_op-qwp": (lambda v: spinorbit.waveplate_op("qwp", v), ValueError),
    "waveplate_op-hwp": (lambda v: spinorbit.waveplate_op("hwp", v), ValueError),
    "dove_pair_op": (lambda v: spinorbit.dove_pair_op(v, 2), ValueError),
    "joint_probabilities-chi_a": (lambda v: spinorbit.joint_probabilities(_BELL, v, 0.2),
                                  ValueError),
    "joint_probabilities-chi_b": (lambda v: spinorbit.joint_probabilities(_BELL, 0.1, v),
                                  ValueError),
    "interferometer_detect-alpha": (lambda v: spinorbit.interferometer_detect(_BELL, v, 0.2),
                                    ValueError),
    "interferometer_detect-beta": (lambda v: spinorbit.interferometer_detect(_BELL, 0.1, v),
                                   ValueError),
    "pair_probabilities": (
        lambda v: spinorbit.pair_probabilities(spinorbit.ChshSettings(0.1, 0.2, 0.3, v)),
        ValueError),
    "sweep-chi_b": (lambda v: spinorbit.sweep(v, [0.1, 0.2], 0, None), ValueError),
    "sweep-grid": (lambda v: spinorbit.sweep(0.3, v, 0, None), ValueError),
    "Stage": (lambda v: BenchPipeline(BenchAst((_SOURCE, Stage("hwp", {"theta": v}, "bob", 3)))),
              CompileError),
}


@pytest.mark.parametrize("entry", REAL_ENTRIES)
@settings(max_examples=25, deadline=None)
@given(value=ODD_VALUE)
def test_odd_values_raise_one_error(entry, value):
    call, error = REAL_ENTRIES[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning once let a complex through
        try:
            call(value)
        except Exception as err:  # caught whatever its type, so that the assert names it
            assert type(err) is error, repr(err)
            assert str(err) and "\n" not in str(err)
        else:
            assert type(value) is float and math.isfinite(value), f"{value!r} was accepted"


for _value in ODD_VALUES:  # each fixed value runs on every entry, beside the drawn ones
    test_odd_values_raise_one_error = example(value=_value)(test_odd_values_raise_one_error)
