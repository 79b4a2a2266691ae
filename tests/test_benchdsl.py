import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorbit.benchdsl import (
    SCHEMAS,
    BenchAst,
    BenchPipeline,
    CompileError,
    ParseError,
    Stage,
    compile_bench,
    parse,
    reduce_angle,
    serialize,
)
from spinorbit.elements import QPlateSpec, qplate_op, smf_filter_op, waveplate_op
from spinorbit.experiment import expectation, herald, prepare_hybrid
from spinorbit.qstate import states_equal_up_to_phase

FIG2 = """\
source spdc
filter smf side=bob
qplate q=1 alpha0=0 side=bob
herald basis=H side=alice
"""


def make_stage(keyword, side=None, line=0, **params):
    """Build a resolved stage the way the parser would."""
    schema = SCHEMAS[keyword]
    resolved = {}
    if schema.kind_choices is not None:
        resolved["kind"] = params.pop("kind", schema.kind_choices[0])
    for spec in schema.params:
        value = params.pop(spec.name, spec.default)
        if spec.angle:
            value = reduce_angle(float(value))
        resolved[spec.name] = value
    assert not params, f"unknown params {params}"
    return Stage(keyword, resolved, side or schema.default_side, line)


class TestParse:
    def test_four_stage_preparation(self):
        ast = parse(FIG2)
        assert [s.keyword for s in ast.stages] == ["source", "filter", "qplate", "herald"]
        assert [s.line for s in ast.stages] == [1, 2, 3, 4]
        assert ast.stages[0].params == {"kind": "spdc"}
        assert ast.stages[1].side == "bob"
        assert ast.stages[2].params == {"q": 1.0, "alpha0": 0.0}
        assert ast.stages[3].params == {"basis": "H"}
        assert ast.stages[3].side == "alice"

    def test_comments_and_blank_lines_skipped(self):
        ast = parse("# a comment\n\nsource spdc  # trailing\n\nherald side=alice\n")
        assert len(ast.stages) == 2
        assert ast.stages[1].line == 5

    def test_degree_suffix_converts(self):
        ast = parse("source spdc\nqwp theta=45deg\n")
        assert ast.stages[1].params["theta"] == pytest.approx(math.pi / 4)

    def test_defaults_resolved(self):
        ast = parse("source\nqplate q=2\n")
        assert ast.stages[0].params["kind"] == "spdc"
        assert ast.stages[1].params["alpha0"] == 0.0
        assert ast.stages[1].side == "bob"

    def test_bad_number_reported_with_position(self):
        with pytest.raises(ParseError) as err:
            parse("qplate q=banana")
        assert err.value.kind == "bad-number"
        assert err.value.line == 1
        assert err.value.column == 10

    @pytest.mark.parametrize(
        "text,column",
        [("qwp theta=1e400", 11), ("dove alpha=1e999deg", 12),
         ("qplate alpha0=1e309 q=1", 15), ("qplate q=1e400", 10)],
    )
    def test_overflowing_number_is_a_bad_number(self, text, column):
        with pytest.raises(ParseError, match="expected a finite number") as err:
            parse(f"source spdc\n{text}\n")
        assert err.value.kind == "bad-number"
        assert (err.value.line, err.value.column) == (2, column)

    def test_empty_input_missing_source(self):
        with pytest.raises(ParseError) as err:
            parse("")
        assert err.value.kind == "missing-param"

    def test_source_must_come_first(self):
        with pytest.raises(ParseError) as err:
            parse("herald basis=H\nsource spdc\n")
        assert err.value.kind == "misplaced-stage"
        assert err.value.line == 1

    def test_second_source_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("source spdc\nsource spdc\n")
        assert err.value.kind == "misplaced-stage"
        assert err.value.line == 2

    def test_second_herald_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("source spdc\nherald\nherald\n")
        assert err.value.kind == "misplaced-stage"
        assert err.value.line == 3

    def test_unknown_keyword(self):
        with pytest.raises(ParseError) as err:
            parse("source spdc\nteleporter power=9\n")
        assert err.value.kind == "unknown-keyword"
        assert err.value.line == 2

    def test_duplicate_parameter(self):
        with pytest.raises(ParseError) as err:
            parse("source spdc\nqplate q=1 q=2\n")
        assert err.value.kind == "duplicate-param"

    def test_missing_required_parameter(self):
        with pytest.raises(ParseError) as err:
            parse("source spdc\nqplate alpha0=0\n")
        assert err.value.kind == "missing-param"

    def test_unknown_side_value(self):
        with pytest.raises(ParseError) as err:
            parse("source spdc\nqplate q=1 side=charlie\n")
        assert err.value.kind == "unknown-keyword"

    def test_error_position_indexes_input(self):
        text = "source spdc\nqplate q=oops side=bob\n"
        with pytest.raises(ParseError) as err:
            parse(text)
        lines = text.splitlines()
        assert 1 <= err.value.line <= len(lines)
        assert 1 <= err.value.column <= len(lines[err.value.line - 1])


class TestSerialize:
    def test_round_trip_canonical_bench(self):
        ast = parse(FIG2)
        assert parse(serialize(ast)) == ast

    def test_comments_are_not_preserved(self):
        text = "# setup\nsource spdc # the pair source\nherald\n"
        assert "#" not in serialize(parse(text))

    def test_seventeen_digit_angles_reparse_exactly(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            theta = float(rng.uniform(-10, 10))
            ast = BenchAst((make_stage("source"), make_stage("qwp", theta=theta)))
            again = parse(serialize(ast))
            assert again == ast
            assert again.stages[1].params["theta"] == reduce_angle(theta)

    def test_round_trip_on_generated_benches(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            ast = random_bench(rng)
            assert parse(serialize(ast)) == ast


def random_bench(rng) -> BenchAst:
    stages = [make_stage("source")]
    n = rng.integers(1, 6)
    for _ in range(n):
        kind = rng.choice(["filter", "qplate", "qwp", "hwp", "dove", "mirror"])
        if kind == "qplate":
            stages.append(
                make_stage(
                    "qplate",
                    q=float(rng.integers(-4, 5)) / 2 or 1.0,
                    alpha0=float(rng.uniform(-7, 7)),
                )
            )
        elif kind in ("qwp", "hwp"):
            stages.append(make_stage(kind, theta=float(rng.uniform(-7, 7))))
        elif kind == "dove":
            stages.append(make_stage("dove", alpha=float(rng.uniform(-7, 7))))
        else:
            stages.append(make_stage(kind))
    if rng.random() < 0.7:
        stages.append(make_stage("herald", basis=str(rng.choice(["H", "V", "L", "R"]))))
    return BenchAst(tuple(stages))


class TestCompile:
    def test_fig2_pipeline_matches_direct_construction(self):
        pipeline = compile_bench(parse(FIG2))
        result = pipeline.run()
        direct = herald(prepare_hybrid())
        assert result.herald_probability == pytest.approx(
            direct.probability, abs=1e-12
        )
        assert states_equal_up_to_phase(result.bob, direct.state)
        assert result.analyzer_m == 2
        assert result.filter_weight == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("basis", ["H", "V", "L", "R"])
    def test_herald_basis_matches_direct_construction(self, basis):
        text = FIG2.replace("basis=H", f"basis={basis}")
        result = compile_bench(parse(text)).run()
        direct = herald(prepare_hybrid(), basis)
        assert result.herald_probability == pytest.approx(
            direct.probability, abs=1e-12
        )
        np.testing.assert_allclose(result.bob.vector, direct.state.vector, atol=1e-12)

    def test_bipartite_is_the_pre_herald_state(self):
        result = compile_bench(parse(FIG2)).run()
        np.testing.assert_allclose(
            result.bipartite.matrix, prepare_hybrid().matrix, atol=1e-12
        )

    def test_bench_without_herald(self):
        text = "source spdc\nfilter smf side=bob\nqplate q=1 side=bob\n"
        result = compile_bench(parse(text)).run()
        assert result.bob is None
        assert result.herald_probability is None
        assert result.analyzer_m == 2
        np.testing.assert_allclose(
            result.bipartite.matrix, prepare_hybrid().matrix, atol=1e-12
        )

    def test_wider_charge_bench(self):
        text = "source spdc\nfilter smf side=bob\nqplate q=2 side=bob\nherald basis=H\n"
        result = compile_bench(parse(text)).run()
        assert result.analyzer_m == 4
        assert result.bob.amplitude("L", -4) == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )
        assert result.bob.amplitude("R", 4) == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )

    def test_missing_filter_warns_but_compiles(self):
        text = "source spdc\nqplate q=1 side=bob\nherald basis=H\n"
        with pytest.warns(UserWarning):
            pipeline = compile_bench(parse(text))
        result = pipeline.run()
        # The ideal source carries no OAM, so the output is unchanged.
        reference = compile_bench(parse(FIG2)).run()
        assert states_equal_up_to_phase(result.bob, reference.bob)

    def test_oam_elements_cannot_act_on_alice(self):
        text = "source spdc\nqplate q=1 side=alice\nherald\n"
        with pytest.raises(CompileError) as err:
            compile_bench(parse(text))
        assert err.value.line == 2

    def test_post_herald_stages_must_be_bob(self):
        text = "source spdc\nherald\nqwp theta=0.5 side=alice\n"
        with pytest.raises(CompileError) as err:
            compile_bench(parse(text))
        assert err.value.line == 3

    def test_element_side_both_rejected(self):
        text = "source spdc\nmirror side=both\n"
        with pytest.raises(CompileError):
            compile_bench(parse(text))

    def test_alice_waveplate_allowed_before_herald(self):
        # A half-wave element on Alice's arm swaps her circular components,
        # so heralding on |H> still succeeds with probability 1/2.
        text = "source spdc\nfilter smf side=bob\nhwp theta=0 side=alice\nqplate q=1 side=bob\nherald basis=H\n"
        result = compile_bench(parse(text)).run()
        assert result.herald_probability == pytest.approx(0.5, abs=1e-12)

    def test_alice_mirror_runs(self):
        # The mirror is the identity, so the bench reproduces fig2.
        text = (
            "source spdc\nmirror side=alice\nfilter smf side=bob\n"
            "qplate q=1 side=bob\nherald basis=H side=alice\n"
        )
        result = compile_bench(parse(text)).run()
        assert result.herald_probability == pytest.approx(0.5, abs=1e-12)
        for chi_a, chi_b in [(0.3, -1.1), (math.pi / 2, math.pi / 4)]:
            e = expectation(result.bob, chi_a, chi_b, m=result.analyzer_m)
            assert e == pytest.approx(math.sin(chi_a + chi_b), abs=1e-12)

    def test_filter_of_roundoff_is_not_renormalized(self):
        # The two q-plate paths into m = 0 cancel up to roundoff after the herald.
        text = (
            "source spdc\nqplate q=0.5 side=bob\nqwp theta=22.5deg side=bob\n"
            "herald basis=V\nqwp theta=22.5deg side=bob\nqplate q=0.5 side=bob\n"
            "filter smf side=bob\n"
        )
        try:
            result = compile_bench(parse(text)).run()
        except ValueError as err:
            assert "zero state" in str(err)
        else:
            assert result.filter_weight == 0.0

    @pytest.mark.parametrize(
        "text",
        [
            # The bench of the roundoff test above: only roundoff reaches m = 0.
            "source spdc\nqplate q=0.5 side=bob\nqwp theta=22.5deg side=bob\n"
            "herald basis=V\nqwp theta=22.5deg side=bob\nqplate q=0.5 side=bob\n"
            "filter smf side=bob\n",
            "source spdc\nqplate q=1 side=bob\nfilter smf side=bob\nherald basis=H\n",
        ],
        ids=["roundoff", "exact-zero"],
    )
    def test_filter_without_weight_gives_zero(self, text):
        result = compile_bench(parse(text)).run()
        assert result.filter_weight == 0.0
        assert not result.bob.vector.any()
        assert result.analyzer_m is None

    def test_steps_are_the_elements_after_the_source(self):
        pipeline = compile_bench(parse(FIG2))
        assert pipeline.m_max == 4
        assert [stage.keyword for stage, _ in pipeline.steps] == ["filter", "qplate", "herald"]
        filt, plate, herald_op = (op for _, op in pipeline.steps)
        assert herald_op is None
        assert filt.name == "smf" and plate.shift == 2 and plate.m_max == 4

    def test_element_that_cannot_be_built_fails_at_compile(self):
        # A q = 1 plate shifts by 2, which m_max = 1 cannot hold.
        with pytest.raises(ValueError, match="cannot hold"):
            compile_bench(parse(FIG2), m_max=1)

    @pytest.mark.parametrize("keyword", ["filter smf", "dove alpha=0.4"])
    def test_oam_elements_act_on_alice_at_m_max_0(self, keyword):
        # At m_max = 0 these are spin-only: the identity on Alice's m = 0 photon.
        text = f"source spdc\n{keyword} side=alice\nherald\n"
        result = compile_bench(parse(text), m_max=0).run()
        assert result.herald_probability == pytest.approx(0.5, abs=1e-12)

    def test_q_is_checked_before_stage_sides(self):
        # The truncation is fixed from every q before any stage is checked.
        text = "source spdc\nmirror side=both\nqplate q=0.3\n"
        with pytest.raises(ValueError, match="2q must be an integer"):
            compile_bench(parse(text))

    @pytest.mark.parametrize(
        "stages,line",
        [
            ((), 1),
            ((make_stage("qwp", line=1, theta=0.5), make_stage("herald", line=2)), 1),
            ((make_stage("qwp", line=1, theta=0.5), make_stage("source", line=2)), 1),
            ((make_stage("source", line=1), make_stage("source", line=2)), 2),
            ((make_stage("source", line=1), make_stage("herald", line=2),
              make_stage("herald", line=3)), 3),
            ((make_stage("source", line=1), Stage("laser", {}, "bob", 2)), 2),
        ],
        ids=["empty", "missing-source", "misplaced-source", "repeated-source",
             "repeated-herald", "unknown-keyword"],
    )
    def test_hand_built_ast_rejected_at_compile(self, stages, line):
        with pytest.raises(CompileError) as err:
            compile_bench(BenchAst(stages))
        assert err.value.line == line

    def test_hand_built_alice_qplate_rejected(self):
        # run() would contract the q-plate through its charge-0 block alone,
        # drop its +-2 shift and report herald probability 0.5.
        plate = make_stage("qplate", side="alice", line=2, q=1.0)
        steps = ((plate, qplate_op(QPlateSpec(1), 4)), (make_stage("herald", line=3), None))
        with pytest.raises(CompileError, match="cannot act on Alice") as err:
            BenchPipeline(steps, 4)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "step",
        [
            (make_stage("qwp", side="bob", line=2, theta=0.5), None),
            (make_stage("herald", line=2), waveplate_op("qwp", 0.5)),
            (make_stage("filter", side="bob", line=2), smf_filter_op(2)),
            (make_stage("hwp", side="both", line=2, theta=0.5), waveplate_op("hwp", 0.5)),
            (make_stage("herald", side="bob", line=2), None),
            (make_stage("source", line=2), smf_filter_op(4)),
            (Stage("laser", {}, "bob", 2), smf_filter_op(4)),
        ],
        ids=["element-missing", "herald-with-element", "wrong-truncation",
             "element-on-both", "herald-on-bob", "source-as-step", "unknown-keyword"],
    )
    def test_hand_built_steps_rejected(self, step):
        with pytest.raises(CompileError) as err:
            BenchPipeline((step,), 4)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "stage,op,message",
        [
            (Stage("qplate", {"q": 1.0}, "bob", 2), qplate_op(QPlateSpec(1), 4),
             "stage 'qplate' is missing parameter 'alpha0'"),
            (Stage("herald", {}, "alice", 2), None, "stage 'herald' is missing parameter 'basis'"),
            (Stage("qwp", {"theta": math.nan}, "bob", 2), waveplate_op("qwp", math.nan),
             "'theta' must be a finite number, got nan"),
        ],
        ids=["qplate-without-alpha0", "herald-without-basis", "qwp-nan-theta"],
    )
    def test_hand_built_params_checked_against_schema(self, stage, op, message):
        # Before the check these raised KeyError or ran to a NaN herald probability.
        herald_after = () if stage.keyword == "herald" else (make_stage("herald", line=3),)
        for build in (
            lambda: compile_bench(BenchAst((make_stage("source", line=1), stage) + herald_after)),
            lambda: BenchPipeline(((stage, op),), 4),
        ):
            with pytest.raises(CompileError) as err:
                build()
            assert (err.value.line, err.value.message) == (2, message)

    @pytest.mark.parametrize(
        "step,message",
        [
            ((make_stage("hwp", side="alice", line=5, theta=0.5), waveplate_op("hwp", 0.5)),
             "stages after the herald act on Bob's photon only"),
            ((make_stage("herald", line=5), None), "at most one herald stage is allowed"),
        ],
        ids=["alice-after-herald", "second-herald"],
    )
    def test_hand_built_step_after_the_herald_rejected(self, step, message):
        steps = compile_bench(parse(FIG2)).steps + (step,)
        with pytest.raises(CompileError) as err:
            BenchPipeline(steps, 4)
        assert (err.value.line, err.value.message) == (5, message)

    def test_post_herald_bob_stage_applies(self):
        text = FIG2 + "hwp theta=0 side=bob\n"
        result = compile_bench(parse(text)).run()
        # The swap maps the Bell state onto its spin-flipped twin.
        assert result.bob.amplitude("R", -2) == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_benches_conserve_norm(seed):
    ast = random_bench(np.random.default_rng(seed))
    two_q = sum(abs(2 * s.params["q"]) for s in ast.stages if s.keyword == "qplate")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q-plate without a mode filter
        result = compile_bench(ast, m_max=max(2, round(two_q))).run()
    prob = result.herald_probability
    if prob is not None:
        assert 0.0 <= prob <= 1.0
    if result.filter_weight > 0 and (prob is None or prob > 0):
        final = result.bipartite if result.bob is None else result.bob
        assert abs(final.norm() - 1.0) <= 1e-12
