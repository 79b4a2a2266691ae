"""The contract of the package's immutable record types.

Every record is immutable.  The four array-holding types compare and hash by
identity; every other record compares by value with instances of its own
type only, hashes by value when its fields are hashable, shows its field
values in ``repr`` and survives ``copy`` and ``pickle``.  The bench DSL's
records follow the value contract too; a ``Stage`` compares without its line
number and, like the records that hold stages, has no hash.
"""

import ast
import copy
import inspect
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

import spinorbit
from spinorbit.benchdsl import (
    SCHEMAS,
    BenchAst,
    BenchPipeline,
    PipelineResult,
    Stage,
    compile_bench,
    parse,
)
from spinorbit.chsh import (
    ChshSettings,
    CountRecord,
    McEstimate,
    NchvResult,
    RngSeed,
    SweepRow,
    SweepTable,
    sweep,
)
from spinorbit.elements import QPlateSpec
from spinorbit.experiment import HeraldOutcome
from spinorbit.qstate import BipartiteState, ElementOp, PhotonState, _Record

_STATE = PhotonState.basis_state("L", 0, 1)
_GRID = np.linspace(0.0, 1.0, 3)
_COUNTS = CountRecord(1, 2, 3, 4)

# name -> (factory, field names in order); each call builds a fresh instance.
VALUE_RECORDS = {
    "QPlateSpec": (lambda: QPlateSpec(1, 0.5), ("q", "alpha0")),
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
UNHASHABLE = {"NchvResult"}  # a field holds a dict

IDENTITY_RECORDS = {
    "PhotonState": (lambda: PhotonState.basis_state("L", 0, 1), ("m_max", "grid")),
    "BipartiteState": (lambda: BipartiteState(1, np.zeros((2, 2, 3))), ("m_max", "grid")),
    "ElementOp": (lambda: ElementOp(np.eye(2)), ("blocks", "shift", "m_max", "name")),
    "SweepTable": (
        lambda: SweepTable(_GRID, 0.2, np.full((3, 4), 0.25), np.arange(12).reshape(3, 4),
                           np.zeros(3), np.full(3, 0.5), np.array([True, False, False])),
        ("chi_a", "chi_b", "probabilities", "counts", "e_exact", "e_estimated", "is_circle"),
    ),
}
ALL_RECORDS = {**VALUE_RECORDS, **IDENTITY_RECORDS}


def same(x, y) -> bool:
    """Equal values; arrays by content and states, which compare by identity, by grid."""
    if isinstance(x, PhotonState):
        return x.m_max == y.m_max and same(x.grid, y.grid)
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
        src = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        state = PhotonState(1, src)
        src[0, 1] = 5.0
        assert state.grid[0, 1] == 1.0 and state.grid.dtype == complex
        assert not state.grid.flags.writeable
        for arr in (BipartiteState(1, np.zeros((2, 2, 3))).grid,
                    ElementOp(np.eye(2)).blocks):
            assert arr.dtype == complex and not arr.flags.writeable

    def test_fields_are_normalised(self):
        op = ElementOp(np.eye(2), shift=np.int64(1), m_max=2)
        assert op.blocks.shape == (2, 2, 1)
        assert type(op.shift) is int and op.shift == 1
        spec = QPlateSpec(1, 0)
        assert type(spec.q) is float and type(spec.alpha0) is float
        settings = ChshSettings(1, np.float32(0.5), np.int64(-2), np.array(0.25))
        assert settings._fields() == (1.0, 0.5, -2.0, 0.25)
        assert all(type(v) is float for v in settings._fields())


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: PhotonState(1, np.zeros(5)),
         "grid shape (5,) does not match m_max=1: expected (2, 3)"),
        (lambda: BipartiteState(1, np.zeros((2, 5))),
         "grid shape (2, 5) does not match m_max=1: expected (2, 2, 3)"),
        (lambda: ElementOp(np.eye(3)), "blocks (3, 3, 1) do not fit m_max=None"),
        (lambda: ElementOp(np.zeros((2, 2, 4)), m_max=2), "blocks (2, 2, 4) do not fit m_max=2"),
        (lambda: ElementOp(np.eye(2), shift=1), "m_max=None cannot hold a +-1 OAM shift"),
        (lambda: ElementOp(np.eye(2), shift=-3, m_max=2), "m_max=2 cannot hold a +-3 OAM shift"),
        # These rows keep the ids of their 0.24.0 messages, each naming the rule it checks.
        pytest.param(lambda: QPlateSpec(math.inf), "q must be finite, got inf",
                     id="<lambda>-q-plate parameters must be finite0"),
        pytest.param(lambda: QPlateSpec(1, math.nan), "alpha0 must be finite, got nan",
                     id="<lambda>-q-plate parameters must be finite1"),
        (lambda: QPlateSpec(0.3), "2q must be an integer, got q=0.3"),
        pytest.param(lambda: ChshSettings(0.0, math.nan, 0.0, 0.0),
                     "chi_a_prime must be finite, got nan",
                     id="<lambda>-all CHSH settings must be finite0"),
        pytest.param(lambda: ChshSettings(0.0, 0.0, 0.0, -math.inf),
                     "chi_b_prime must be finite, got -inf",
                     id="<lambda>-all CHSH settings must be finite1"),
        pytest.param(lambda: CountRecord(1, 2, -1, 4), "n_mp must be at least 0, got -1",
                     id="<lambda>-counts must be non-negative"),
        pytest.param(lambda: RngSeed(-1), "seed must be at least 0, got -1",
                     id="<lambda>-seed must fit in an unsigned 64-bit integer0"),
        pytest.param(lambda: RngSeed(2**64), f"seed must be at most {2**64 - 1}, got {2**64}",
                     id="<lambda>-seed must fit in an unsigned 64-bit integer1"),
        pytest.param(lambda: RngSeed(0, -1), "stream must be at least 0, got -1",
                     id="<lambda>-stream index must be non-negative"),
        (lambda: SweepTable(_GRID, 0.0, np.zeros((2, 4)), None, np.zeros(3), None,
                            np.zeros(3, bool)),
         "sweep column probabilities has shape (2, 4), not (3, 4)"),
        (lambda: SweepTable(_GRID, 0.0, np.zeros((3, 4)), np.zeros((3, 3)), np.zeros(3),
                            np.zeros(3), np.zeros(3, bool)),
         "sweep column counts has shape (3, 3), not (3, 4)"),
        (lambda: SweepTable(0.5, 0.0, np.zeros((1, 4)), None, np.zeros(1), None,
                            np.zeros(1, bool)),
         "sweep column chi_a has shape (), not (1,)"),
        (lambda: SweepTable(["0.5"], 0.0, np.zeros((1, 4)), None, np.zeros(1), None,
                            np.zeros(1, bool)),
         "chi_a must be a real number, got list of dtype <U3"),
        (lambda: SweepTable(_GRID, True, np.zeros((3, 4)), None, np.zeros(3), None,
                            np.zeros(3, bool)),
         "chi_b must be a real number, got True"),
    ],
)
def test_validation_errors(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


_CIRCLE_GRID = [math.pi / 2, 0.1, -math.pi, 2.0]
_COLUMNS = ("chi_a", "probabilities", "counts", "e_exact", "e_estimated", "is_circle")


class TestSweepTable:
    def test_columns_are_read_only_copies_of_their_dtype(self):
        grid = np.array(_CIRCLE_GRID)
        table = sweep(math.pi / 4, grid, 100, RngSeed(3))
        assert grid.flags.writeable  # the table froze its own copy
        grid[0] = 9.0
        assert table.chi_a[0] == math.pi / 2
        for name in _COLUMNS:
            with pytest.raises(ValueError):
                getattr(table, name)[0] = 0
        assert [getattr(table, name).dtype for name in _COLUMNS] == [
            np.float64, np.float64, np.int64, np.float64, np.float64, np.bool_]
        assert type(table.chi_b) is float

    def test_rows_are_built_from_the_columns_on_demand(self):
        table = sweep(math.pi / 4, _CIRCLE_GRID, 100, RngSeed(3))
        assert len(table) == 4
        assert list(table) == [table[k] for k in range(4)]
        assert table[-1] == table[3] and table[-4] == table[0]
        assert table[np.int64(2)] == table[2]
        row = table[2]
        assert type(row) is SweepRow and row.is_circle is True
        assert row.chi_a == table.chi_a[2] and row.e_exact == table.e_exact[2]
        assert row.counts == CountRecord(*table.counts[2].tolist())
        assert row.e_estimated == table.e_estimated[2]
        for k in (4, -5):
            with pytest.raises(IndexError):
                table[k]
        with pytest.raises(TypeError):
            table[1:3]

    def test_exact_sweep_has_no_count_columns(self):
        table = sweep(math.pi / 4, _CIRCLE_GRID, 0, RngSeed(3))
        assert table.counts is None and table.e_estimated is None
        assert all(row.counts is None and row.e_estimated is None for row in table)
        assert [row.is_circle for row in table] == [True, False, True, False]

    def test_equal_sweeps_are_distinct_tables_of_equal_rows(self):
        a = sweep(math.pi / 4, _CIRCLE_GRID, 100, RngSeed(3))
        b = sweep(math.pi / 4, _CIRCLE_GRID, 100, RngSeed(3))
        assert a == a and a != b
        assert list(a) == list(b)

    def test_copies_keep_rows_and_read_only_columns(self):
        table = sweep(math.pi / 4, _CIRCLE_GRID, 100, RngSeed(3))
        for twin in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
            assert twin is not table and twin != table
            assert list(twin) == list(table)
            assert not any(getattr(twin, name).flags.writeable for name in _COLUMNS)


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
    "BenchPipeline": lambda: BenchPipeline(_PIPELINE.ast, 4),
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


class TestBenchPipelineRecord:
    """A pipeline's fields are its AST and truncation; its steps are compiled from them."""

    def test_steps_are_not_a_field(self):
        with pytest.raises(AttributeError):
            _PIPELINE.steps = ()
        assert "steps" not in repr(_PIPELINE)
        assert repr(_PIPELINE) == f"BenchPipeline(ast={_PIPELINE.ast!r}, m_max=2)"

    def test_two_compiles_of_one_bench_are_equal(self):
        again = compile_bench(parse(_FIG2))
        assert again == _PIPELINE and again is not _PIPELINE
        assert BenchPipeline(parse(_FIG2)) == _PIPELINE

    def test_copies_compile_again_and_run_bit_identically(self):
        twins = (copy.copy(_PIPELINE), copy.deepcopy(_PIPELINE),
                 pickle.loads(pickle.dumps(_PIPELINE)))
        for twin in twins:
            assert twin == _PIPELINE
            assert [stage for stage, _ in twin.steps] == [stage for stage, _ in _PIPELINE.steps]
            result = twin.run()
            assert result.herald_probability == _RESULT.herald_probability
            assert result.bob.grid.tobytes() == _RESULT.bob.grid.tobytes()
            assert result.bipartite.grid.tobytes() == _RESULT.bipartite.grid.tobytes()


def test_stage_equality_ignores_the_line_but_copies_keep_it():
    stage = Stage("qwp", {"theta": 0.5}, "bob", 2)
    assert stage == Stage("qwp", {"theta": 0.5}, "bob", 7)
    assert stage != Stage("qwp", {"theta": 0.5}, "alice", 2)
    assert stage != Stage("hwp", {"theta": 0.5}, "bob", 2)
    assert Stage("mirror", {}, "bob").line == 0
    for twin in (copy.copy(stage), copy.deepcopy(stage), pickle.loads(pickle.dumps(stage))):
        assert twin.line == 2


def test_only_the_base_record_sets_a_slot():
    """Every ``object.__setattr__`` call in the package sits in ``qstate._Record``."""
    owners = []
    for path in sorted(Path(spinorbit.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                        and isinstance(node.value, ast.Name) and node.value.id == "object"):
                    owners.append((path.stem, getattr(stmt, "name", None)))
    assert owners and set(owners) == {("qstate", "_Record")}


def test_a_record_takes_one_value_per_slot():
    class Pair(_Record):
        __slots__ = ("a", "b")

        def __init__(self, *values):
            _Record.__init__(self, *values)

    pair = Pair(1, 2)
    assert (pair.a, pair.b) == (1, 2)
    with pytest.raises(TypeError, match="Pair takes 2 values, got 1"):
        Pair(1)
    with pytest.raises(TypeError, match="Pair takes 2 values, got 3"):
        Pair(1, 2, 3)
