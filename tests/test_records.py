"""The contract of the package's immutable record types.

Every record is immutable.  The three array-holding types compare and hash by
identity; every other record compares by value with instances of its own
type only, hashes by value when its fields are hashable, shows its field
values in ``repr`` and survives ``copy`` and ``pickle``.  The bench DSL's
records follow the value contract too; a ``Stage`` compares without its line
number and, like the records that hold stages, has no hash.
"""

import copy
import inspect
import math
import pickle
import re

import numpy as np
import pytest

from spinorbit.benchdsl import (
    SCHEMAS,
    BenchAst,
    BenchPipeline,
    PipelineResult,
    Stage,
    compile_bench,
    parse,
)
from spinorbit.chsh import ChshSettings, CountRecord, McEstimate, NchvResult, RngSeed, SweepRow
from spinorbit.elements import OrientationField, QPlateSpec
from spinorbit.experiment import HeraldOutcome
from spinorbit.qstate import BipartiteState, ElementOp, PhotonState

_STATE = PhotonState(1, np.eye(6)[1])
_GRID = np.linspace(0.0, 1.0, 3)
_ALPHA = _GRID[None]  # shared, so two fields compare by identity
_COUNTS = CountRecord(1, 2, 3, 4)

# name -> (factory, field names in order); each call builds a fresh instance.
VALUE_RECORDS = {
    "QPlateSpec": (lambda: QPlateSpec(1, 0.5), ("q", "alpha0")),
    "OrientationField": (
        lambda: OrientationField(QPlateSpec(1), _GRID, _GRID, _ALPHA),
        ("spec", "r", "phi", "alpha"),
    ),
    "HeraldOutcome": (lambda: HeraldOutcome(_STATE, 0.5), ("state", "probability")),
    "ChshSettings": (
        lambda: ChshSettings(0.1, 0.2, 0.3, 0.4),
        ("chi_a", "chi_a_prime", "chi_b", "chi_b_prime"),
    ),
    "CountRecord": (lambda: CountRecord(1, 2, 3, 4), ("n_pp", "n_pm", "n_mp", "n_mm")),
    "RngSeed": (lambda: RngSeed(7, 3), ("seed", "stream")),
    "SweepRow": (
        lambda: SweepRow(0.1, 0.2, (0.25,) * 4, _COUNTS, 0.0, 0.5, False),
        ("chi_a", "chi_b", "probabilities", "counts", "e_exact", "e_estimated", "is_circle"),
    ),
    "NchvResult": (lambda: NchvResult(2.0, -2.0, {"a": 1}), ("max_s", "min_s", "argmax")),
    "McEstimate": (
        lambda: McEstimate(2.5, 0.1, (0.5,) * 4, (_COUNTS,) * 4),
        ("s_estimate", "standard_error", "e_estimates", "counts"),
    ),
}
UNHASHABLE = {"OrientationField", "NchvResult"}  # a field holds an array or a dict

IDENTITY_RECORDS = {
    "PhotonState": (lambda: PhotonState(1, np.eye(6)[1]), ("m_max", "vector")),
    "BipartiteState": (lambda: BipartiteState(1, np.zeros((2, 6))), ("m_max", "matrix")),
    "ElementOp": (lambda: ElementOp(np.eye(2)), ("blocks", "shift", "m_max", "name")),
}
ALL_RECORDS = {**VALUE_RECORDS, **IDENTITY_RECORDS}


def same(x, y) -> bool:
    """Equal values; arrays by content and states, which compare by identity, by vector."""
    if isinstance(x, PhotonState):
        return x.m_max == y.m_max and same(x.vector, y.vector)
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    return x == y


def fields_equal(a, b, names) -> bool:
    return all(same(getattr(a, n), getattr(b, n)) for n in names)


@pytest.mark.parametrize("name", sorted(ALL_RECORDS))
class TestEveryRecord:
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        make, fields = ALL_RECORDS[name]
        rec = make()
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, None)
            with pytest.raises(AttributeError):
                delattr(rec, field)
        with pytest.raises(AttributeError):
            rec.extra = 1

    def test_repr_shows_every_field(self, name):
        make, fields = ALL_RECORDS[name]
        rec = make()
        shown = ", ".join(f"{f}={getattr(rec, f)!r}" for f in fields)
        assert repr(rec) == f"{name}({shown})"

    def test_keywords_are_the_field_names(self, name):
        make, fields = ALL_RECORDS[name]
        rec = make()
        again = type(rec)(**{f: getattr(rec, f) for f in fields})
        assert fields_equal(rec, again, fields)

    def test_copy_and_pickle_keep_the_fields(self, name):
        make, fields = ALL_RECORDS[name]
        rec = make()
        for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(twin) is type(rec)
            assert fields_equal(rec, twin, fields)


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
class TestValueRecords:
    def test_equal_by_value(self, name):
        make, _ = VALUE_RECORDS[name]
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b

    def test_hash_by_value(self, name):
        make, _ = VALUE_RECORDS[name]
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(make())
        else:
            assert hash(make()) == hash(make())
            assert len({make(), make()}) == 1

    def test_never_equal_to_a_tuple_of_its_fields(self, name):
        make, fields = VALUE_RECORDS[name]
        rec = make()
        assert rec != tuple(getattr(rec, f) for f in fields)
        assert rec != object()


@pytest.mark.parametrize(
    "a,b",
    [
        (CountRecord(1, 2, 3, 4), CountRecord(1, 2, 3, 5)),
        (RngSeed(7, 3), RngSeed(7, 4)),
        (ChshSettings(0.1, 0.2, 0.3, 0.4), ChshSettings(0.1, 0.2, 0.3, 0.5)),
        (QPlateSpec(1, 0.5), QPlateSpec(1, 0.25)),
        (HeraldOutcome(_STATE, 0.5), HeraldOutcome(_STATE, 0.25)),
        (McEstimate(2.5, 0.1, (0.5,) * 4, (_COUNTS,) * 4),
         McEstimate(2.5, 0.2, (0.5,) * 4, (_COUNTS,) * 4)),
        (SweepRow(0.1, 0.2, (0.25,) * 4, None, 0.0, None, False),
         SweepRow(0.1, 0.2, (0.25,) * 4, None, 0.0, None, True)),
    ],
)
def test_one_field_apart_is_unequal(a, b):
    assert a != b and not a == b


def test_records_of_another_type_with_equal_fields_are_unequal():
    assert RngSeed(7, 3) != QPlateSpec(7, 3)
    assert QPlateSpec(7, 3).q == 7 and QPlateSpec(7, 3).alpha0 == 3


def test_count_record_is_not_a_tuple():
    assert CountRecord(1, 2, 3, 4) != (1, 2, 3, 4)
    assert (1, 2, 3, 4) != CountRecord(1, 2, 3, 4)
    assert CountRecord(1, 2, 3, 4).as_tuple() == (1, 2, 3, 4)


@pytest.mark.parametrize("name", sorted(IDENTITY_RECORDS))
def test_array_records_compare_by_identity(name):
    make, _ = IDENTITY_RECORDS[name]
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b, a}) == 2


class TestDefaultsAndNormalisation:
    def test_defaults(self):
        op = ElementOp(np.eye(2))
        assert (op.shift, op.m_max, op.name) == (0, None, "")
        assert QPlateSpec(1).alpha0 == 0.0
        assert RngSeed(1).stream == 0

    def test_arrays_are_read_only_complex_copies(self):
        src = np.eye(6)[1]
        state = PhotonState(1, src)
        src[1] = 5.0
        assert state.vector[1] == 1.0 and state.vector.dtype == complex
        assert not state.vector.flags.writeable
        for arr in (BipartiteState(1, np.zeros((2, 6))).matrix,
                    ElementOp(np.eye(2)).blocks):
            assert arr.dtype == complex and not arr.flags.writeable

    def test_fields_are_normalised(self):
        op = ElementOp(np.eye(2), shift=np.int64(1), m_max=2)
        assert op.blocks.shape == (2, 2, 1)
        assert type(op.shift) is int and op.shift == 1
        spec = QPlateSpec(1, 0)
        assert type(spec.q) is float and type(spec.alpha0) is float


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: PhotonState(1, np.zeros(5)), "vector length (5,) does not match m_max=1"),
        (lambda: BipartiteState(1, np.zeros((2, 5))), "matrix shape does not match m_max"),
        (lambda: ElementOp(np.eye(3)), "blocks (3, 3, 1) do not fit m_max=None"),
        (lambda: ElementOp(np.zeros((2, 2, 4)), m_max=2), "blocks (2, 2, 4) do not fit m_max=2"),
        (lambda: ElementOp(np.eye(2), shift=1), "m_max=None cannot hold a +-1 OAM shift"),
        (lambda: ElementOp(np.eye(2), shift=-3, m_max=2), "m_max=2 cannot hold a +-3 OAM shift"),
        (lambda: QPlateSpec(math.inf), "q-plate parameters must be finite"),
        (lambda: QPlateSpec(1, math.nan), "q-plate parameters must be finite"),
        (lambda: QPlateSpec(0.3), "2q must be an integer, got q=0.3"),
        (lambda: ChshSettings(0.0, math.nan, 0.0, 0.0), "all CHSH settings must be finite"),
        (lambda: ChshSettings(0.0, 0.0, 0.0, -math.inf), "all CHSH settings must be finite"),
        (lambda: CountRecord(1, 2, -1, 4), "counts must be non-negative"),
        (lambda: RngSeed(-1), "seed must fit in an unsigned 64-bit integer"),
        (lambda: RngSeed(2**64), "seed must fit in an unsigned 64-bit integer"),
        (lambda: RngSeed(0, -1), "stream index must be non-negative"),
    ],
)
def test_validation_errors(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


# The bench DSL's records.  Their field names are read from the constructor,
# whose keywords are the fields in order.
_FIG2 = "source spdc\nfilter smf side=bob\nqplate q=1 alpha0=0 side=bob\nherald basis=H side=alice\n"
_PIPELINE = compile_bench(parse(_FIG2))
_RESULT = _PIPELINE.run()
_SOURCE = "Stage(keyword='source', params={'kind': 'spdc'}, side='both', line=1)"
_QWP = "Stage(keyword='qwp', params={'theta': 0.5}, side='bob', line=2)"


def dsl_fields(cls) -> tuple:
    return tuple(inspect.signature(cls).parameters)


def rebuilt(rec):
    """A fresh record of the same type from the given one's fields, passed by keyword."""
    return type(rec)(**{f: getattr(rec, f) for f in dsl_fields(type(rec))})


DSL_RECORDS = {
    "ParamSpec": lambda: rebuilt(SCHEMAS["qplate"].params[1]),
    "StageSchema": lambda: rebuilt(SCHEMAS["qplate"]),
    "Stage": lambda: Stage("qwp", {"theta": 0.5}, "bob", 2),
    "BenchAst": lambda: BenchAst((Stage("source", {"kind": "spdc"}, "both", 1),
                                  Stage("qwp", {"theta": 0.5}, "bob", 2))),
    "PipelineResult": lambda: PipelineResult(_RESULT.bipartite, _RESULT.bob, 0.5, 1.0, 2),
    "BenchPipeline": lambda: BenchPipeline(_PIPELINE.steps, 4),
}
DSL_UNHASHABLE = {"Stage", "BenchAst", "BenchPipeline"}  # a stage's params are a dict
DSL_PICKLED = sorted(set(DSL_RECORDS) - {"ParamSpec", "StageSchema"})  # schemas hold builders


def deep_same(x, y) -> bool:
    """Equal field by field, through containers, arrays and identity-compared states."""
    if type(x) is not type(y):
        return False
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    if isinstance(x, (tuple, list)):
        return len(x) == len(y) and all(map(deep_same, x, y))
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(deep_same(x[k], y[k]) for k in x)
    if isinstance(x, (PhotonState, BipartiteState, ElementOp)):
        names = type(x).__slots__
    elif type(x).__name__ in DSL_RECORDS:
        names = dsl_fields(type(x))
    else:
        return x == y
    return all(deep_same(getattr(x, n), getattr(y, n)) for n in names)


@pytest.mark.parametrize("name", sorted(DSL_RECORDS))
class TestBenchRecords:
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        rec = DSL_RECORDS[name]()
        for field in dsl_fields(type(rec)):
            with pytest.raises(AttributeError):
                setattr(rec, field, None)
            with pytest.raises(AttributeError):
                delattr(rec, field)
        with pytest.raises(AttributeError):
            rec.extra = 1

    def test_equal_by_value_and_only_to_its_own_type(self, name):
        a, b = DSL_RECORDS[name](), DSL_RECORDS[name]()
        assert a is not b
        assert a == b and not a != b
        assert a != tuple(getattr(a, f) for f in dsl_fields(type(a)))
        assert a != object()

    def test_hash(self, name):
        make = DSL_RECORDS[name]
        if name in DSL_UNHASHABLE:
            with pytest.raises(TypeError):
                hash(make())
        else:
            assert hash(make()) == hash(make())

    def test_repr_shows_every_field(self, name):
        rec = DSL_RECORDS[name]()
        shown = ", ".join(f"{f}={getattr(rec, f)!r}" for f in dsl_fields(type(rec)))
        assert repr(rec) == f"{name}({shown})"

    def test_copy_keeps_the_fields(self, name):
        rec = DSL_RECORDS[name]()
        for twin in (copy.copy(rec), copy.deepcopy(rec)):
            assert deep_same(rec, twin)


@pytest.mark.parametrize("name", DSL_PICKLED)
def test_bench_records_pickle(name):
    rec = DSL_RECORDS[name]()
    assert deep_same(rec, pickle.loads(pickle.dumps(rec)))


def test_stage_and_bench_reprs():
    assert repr(DSL_RECORDS["Stage"]()) == _QWP
    assert repr(DSL_RECORDS["BenchAst"]()) == f"BenchAst(stages=({_SOURCE}, {_QWP}))"


def test_stage_equality_ignores_the_line_but_copies_keep_it():
    stage = Stage("qwp", {"theta": 0.5}, "bob", 2)
    assert stage == Stage("qwp", {"theta": 0.5}, "bob", 7)
    assert stage != Stage("qwp", {"theta": 0.5}, "alice", 2)
    assert stage != Stage("hwp", {"theta": 0.5}, "bob", 2)
    assert Stage("mirror", {}, "bob").line == 0
    for twin in (copy.copy(stage), copy.deepcopy(stage), pickle.loads(pickle.dumps(stage))):
        assert twin.line == 2
