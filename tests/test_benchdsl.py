import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorbit.benchdsl import (
    MAX_M_MAX,
    SCHEMAS,
    BenchAst,
    BenchPipeline,
    CompileError,
    ParseError,
    PipelineResult,
    Stage,
    StageSchema,
    compile_bench,
    parse,
    reduce_angle,
    serialize,
)
from spinorbit.elements import mirror_op, waveplate_op
from spinorbit.experiment import expectation, herald, prepare_hybrid, spdc_source
from spinorbit.qstate import (
    NORM_TOL,
    BipartiteState,
    apply,
    apply_bob,
    oam_dim,
    states_equal_up_to_phase,
)

FIG2 = """\
source spdc
filter smf side=bob
qplate q=1 alpha0=0 side=bob
herald basis=H side=alice
"""


def recorded_builds(monkeypatch) -> list:
    """Wrap every element builder in SCHEMAS; the list records each (keyword, m_max) built."""
    calls = []
    for keyword, schema in list(SCHEMAS.items()):
        if schema.build is None:
            continue

        def build(params, m_max, keyword=keyword, inner=schema.build):
            calls.append((keyword, m_max))
            return inner(params, m_max)

        monkeypatch.setitem(SCHEMAS, keyword, StageSchema(
            schema.params, schema.default_side, schema.kind_choices, build))
    return calls


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


def cascade_text(plates: int = 8, q: float = 1) -> str:
    """Source, fiber filter, then q-plates with hwp(0) and a mirror between each pair."""
    lines = ["source spdc", "filter smf side=bob"]
    for i in range(plates):
        if i:
            lines += ["hwp theta=0 side=bob", "mirror side=bob"]
        lines.append(f"qplate q={q:g} side=bob")
    return "\n".join(lines + ["herald basis=H side=alice"]) + "\n"


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

    @pytest.mark.parametrize(
        "line,element",
        [("qwp theta=0.3", lambda m_max: waveplate_op("qwp", 0.3)),
         ("hwp theta=0.3", lambda m_max: waveplate_op("hwp", 0.3)),
         ("mirror", mirror_op)],
        ids=["qwp", "hwp", "mirror"],
    )
    def test_alice_step_is_her_spin_block_on_the_source(self, line, element):
        result = compile_bench(parse(f"source spdc\n{line} side=alice\n")).run()
        m_max = result.bipartite.m_max
        want = element(m_max).blocks[..., 0] @ spdc_source(m_max).matrix
        np.testing.assert_array_equal(result.bipartite.matrix, want)

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

    @pytest.mark.parametrize(
        "text,m_max,line,width",
        [
            (FIG2.replace("q=1 ", "q=1e7 "), None, 3, 40_000_000),
            ("source spdc\nqplate q=2 side=bob\nfilter smf side=bob\nqplate q=16384.5 side=bob\n"
             "qplate q=0.5 side=bob\nherald\n", None, 4, 65_538),
            (FIG2, MAX_M_MAX + 1, 1, 65_537),
            (cascade_text(5, q=8192), None, 15, 81_920),
        ],
        ids=["inferred", "widest-plate", "explicit", "reach"],
    )
    def test_truncation_above_the_limit_fails_before_any_build(self, monkeypatch, text,
                                                                m_max, line, width):
        calls = recorded_builds(monkeypatch)
        with pytest.raises(CompileError) as exc:
            compile_bench(parse(text), m_max=m_max)
        assert exc.value.line == line
        assert exc.value.message == f"truncation m_max={width} exceeds the limit 65536"
        assert calls == []

    @pytest.mark.parametrize("m_max", [-1, 2.5, True, math.nan, "4"])
    def test_explicit_truncation_must_be_an_integer_in_range(self, monkeypatch, m_max):
        calls = recorded_builds(monkeypatch)
        with pytest.raises(CompileError) as exc:
            compile_bench(parse(FIG2), m_max=m_max)
        assert exc.value.line == 1
        assert exc.value.message == (
            f"truncation m_max={m_max!r} must be an integer from 0 to 65536")
        assert calls == []

    @pytest.mark.parametrize("m_max", [4, np.int64(4)])
    def test_explicit_truncation_accepts_integers(self, m_max):
        assert compile_bench(parse(FIG2), m_max=m_max).m_max == 4

    def test_truncation_at_the_limit_compiles(self, monkeypatch):
        assert MAX_M_MAX == 2**16
        calls = recorded_builds(monkeypatch)
        pipeline = compile_bench(parse(FIG2.replace("q=1 ", "q=16384 ")))
        assert pipeline.m_max == MAX_M_MAX
        assert calls == [("filter", MAX_M_MAX), ("qplate", MAX_M_MAX)]

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

    def test_post_herald_bob_stage_applies(self):
        text = FIG2 + "hwp theta=0 side=bob\n"
        result = compile_bench(parse(text)).run()
        # The swap maps the Bell state onto its spin-flipped twin.
        assert result.bob.amplitude("R", -2) == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )


def full_width_run(pipeline: BenchPipeline) -> PipelineResult:
    """The pipeline's steps replayed on the whole truncation through apply_bob,
    apply and herald, with the filter and analyzer arithmetic of BenchPipeline.run."""
    m_max = pipeline.m_max
    state, bipartite, prob, weight = spdc_source(m_max), None, None, 1.0
    for stage, op in pipeline.steps:
        if op is None:
            bipartite = state
            outcome = herald(state, stage.params["basis"])
            state, prob = outcome.state, outcome.probability
        elif stage.side == "alice":
            state = BipartiteState(m_max, op.blocks[..., 0] @ state.matrix)
        else:
            state = apply(op, state) if prob is not None else apply_bob(op, state)
        if stage.keyword == "filter":
            amps = state.vector if prob is not None else state.matrix
            norm = float(np.linalg.norm(amps))
            weight *= norm**2 if norm >= NORM_TOL else 0.0
            state = type(state)(m_max, amps / norm if norm >= NORM_TOL else np.zeros_like(amps))
    amps = state.vector if prob is not None else state.matrix
    peaks = np.abs(amps).reshape(-1, oam_dim(m_max)).max(axis=0)
    magnitudes = {abs(int(m) - m_max) for m in np.flatnonzero(peaks > NORM_TOL)}
    analyzer_m = (magnitudes.pop() if len(magnitudes) == 1 else None) or None
    if prob is None:
        return PipelineResult(state, None, None, weight, analyzer_m)
    return PipelineResult(bipartite, state, prob, weight, analyzer_m)


def run_outcome(run, pipeline: BenchPipeline) -> tuple:
    """("ok", every result field as exact bytes) or ("error", type, message)
    of ``run(pipeline)``."""
    try:
        result = run(pipeline)
    except ValueError as err:
        return ("error", type(err), str(err))
    bob, prob = result.bob, result.herald_probability
    return ("ok", result.bipartite.m_max, result.bipartite.matrix.tobytes(),
            None if bob is None else (bob.m_max, bob.vector.tobytes()),
            None if prob is None else prob.hex(), result.filter_weight.hex(),
            result.analyzer_m)


# The random_bench seeds below 23,000 whose q-plates add up past the widest
# single-pass bound: each raised TruncationError when the truncation ignored the
# reach.  Each maps to the truncation its reach now gives it.
REACH_SEEDS = {
    803: 6, 808: 6, 1795: 9, 1895: 8, 2357: 5, 3012: 9, 4768: 7, 5184: 10, 6143: 9,
    6356: 10, 6585: 10, 7601: 7, 8050: 6, 9910: 8, 10388: 9, 10750: 7, 10884: 9, 11341: 8,
    11372: 7, 12097: 9, 12152: 9, 12374: 8, 13155: 7, 14801: 9, 14939: 11, 15103: 10,
    15945: 6, 17138: 6, 17812: 9, 17937: 12, 18080: 11, 18534: 9, 18638: 5, 18650: 7,
    21491: 7, 22323: 9, 22744: 10, 22941: 7,
}

# Benches whose window differs from the whole truncation in a way random_bench rarely draws.
WINDOW_BENCHES = [
    ("cascade", cascade_text(), 256),
    # The filter empties both rows, so the reach stays 1 while the next plate shifts by 4.
    ("emptied-filter", "source spdc\nqplate q=0.5 side=bob\nfilter smf side=bob\n"
                       "qplate q=2 side=bob\nherald\n", 40),
    ("emptied-filter-then-swap", "source spdc\nqplate q=1 side=bob\nfilter smf side=bob\n"
                                 "qplate q=-3 side=bob\nhwp theta=0.4 side=bob\n", 12),
    ("post-herald", cascade_text(3) + "qwp theta=0.3 side=bob\nqplate q=1.5 side=bob\n"
                    "dove alpha=0.2 side=bob\nfilter smf side=bob\n", 30),
    ("alice-step", "source spdc\nqwp theta=0.3 side=alice\nqplate q=1 side=bob\n"
                   "hwp theta=1.1 side=alice\nherald basis=V\n", 9),
    ("no-plate", "source spdc\nqwp theta=0.7 side=bob\ndove alpha=0.5 side=bob\n", 7),
    # Alice's matrix product leaves -0.0 in columns that no later step rewrites.
    ("alice-signed-zero", "source spdc\nqwp theta=1.8796 side=alice\nherald basis=V\n", 3),
    # A norm over two amplitudes rounds otherwise than over the same two among zeros.
    ("filter-of-one-charge", "source spdc\nherald basis=H\nqwp theta=1.9959 side=bob\n"
                             "hwp theta=1.7226 side=bob\nqwp theta=-1.5638 side=bob\n"
                             "filter smf side=bob\n", 10),
]


class TestReach:
    def test_plate_cascade_compiles_at_its_reach(self):
        pipeline = compile_bench(parse(cascade_text()))
        assert pipeline.m_max == 16
        result = pipeline.run()
        assert result.analyzer_m == 16
        assert result.bob.amplitude("L", -16) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert result.bob.amplitude("R", 16) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    @pytest.mark.parametrize("seed,m_max", sorted(REACH_SEEDS.items()))
    def test_benches_past_the_single_pass_bound_run(self, seed, m_max):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # q-plate without a mode filter
            pipeline = compile_bench(random_bench(np.random.default_rng(seed)))
        assert pipeline.m_max == m_max
        assert run_outcome(BenchPipeline.run, pipeline) == run_outcome(full_width_run, pipeline)

    def test_reach_counts_amplitudes_that_cancel(self):
        # qwp(0) then qwp(90deg) is i times the identity, but the walk merges the
        # rows, so three plates reach 6 although no amplitude passes |m| = 2.
        pair = "qwp theta=0 side=bob\nqwp theta=90deg side=bob\n"
        text = ("source spdc\nfilter smf side=bob\n" + f"qplate q=1 side=bob\n{pair}" * 2
                + "qplate q=1 side=bob\nherald\n")
        wide = compile_bench(parse(text)).run()
        narrow = compile_bench(parse(text), m_max=4).run()
        assert wide.bob.m_max == 6 and narrow.bob.m_max == 4
        np.testing.assert_allclose(wide.bob.as_grid()[:, 2:-2], narrow.bob.as_grid(),
                                   atol=1e-15)
        assert wide.analyzer_m == narrow.analyzer_m == 2

    @pytest.mark.parametrize("m_max", [None, 1, 2, 3, 5, 40])
    def test_run_matches_the_full_width_replay_on_random_benches(self, m_max):
        ran = 0
        for seed in range(300):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # q-plate without a mode filter
                    pipeline = compile_bench(random_bench(np.random.default_rng(seed)), m_max)
            except ValueError:
                continue  # a plate the truncation cannot hold
            want = run_outcome(full_width_run, pipeline)
            assert run_outcome(BenchPipeline.run, pipeline) == want, seed
            ran += want[0] == "ok"
        assert ran >= 100

    @pytest.mark.parametrize("text,m_max", [row[1:] for row in WINDOW_BENCHES],
                             ids=[row[0] for row in WINDOW_BENCHES])
    def test_run_matches_the_full_width_replay(self, text, m_max):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # q-plate without a mode filter
            pipeline = compile_bench(parse(text), m_max)
        outcome = run_outcome(BenchPipeline.run, pipeline)
        assert outcome[0] == "ok"
        assert outcome == run_outcome(full_width_run, pipeline)


def _fig2_with_q(q):
    return (make_stage("source", line=1), make_stage("filter", line=2),
            make_stage("qplate", line=3, q=q), make_stage("herald", line=4))


_SOURCE = make_stage("source", line=1)

# One fault per bench: (id, bench text or hand-built stages, m_max, (type, line, message)).
# A bare ValueError carries no line.
FAULT_PINS = [
    ("empty", "", None, (ParseError, 1, "bench has no source stage")),
    ("empty", (), None, (CompileError, 1, "bench has no source stage")),
    ("missing-source", "qwp theta=0.5\nherald\n", None,
     (ParseError, 1, "first stage must be the source")),
    ("missing-source", (make_stage("qwp", line=1, theta=0.5), make_stage("herald", line=2)), None,
     (CompileError, 1, "first stage must be the source")),
    ("misplaced-source", "qwp theta=0.5\nsource spdc\n", None,
     (ParseError, 1, "first stage must be the source")),
    ("misplaced-source", (make_stage("qwp", line=1, theta=0.5), make_stage("source", line=2)),
     None, (CompileError, 1, "first stage must be the source")),
    ("repeated-source", "source spdc\nsource spdc\n", None,
     (ParseError, 2, "only one source stage is allowed")),
    ("repeated-source", (_SOURCE, make_stage("source", line=2)), None,
     (CompileError, 2, "only one source stage is allowed")),
    ("repeated-herald", "source spdc\nherald\nherald\n", None,
     (ParseError, 3, "at most one herald stage is allowed")),
    ("repeated-herald", (_SOURCE, make_stage("herald", line=2), make_stage("herald", line=3)),
     None, (CompileError, 3, "at most one herald stage is allowed")),
    ("unknown-keyword", "source spdc\nlaser power=9\n", None,
     (ParseError, 2, "unknown stage 'laser'")),
    ("unknown-keyword", (_SOURCE, Stage("laser", {}, "bob", 2)), None,
     (CompileError, 2, "unknown stage 'laser'")),
    ("side-both", "source spdc\nhwp theta=0 side=both\n", None,
     (CompileError, 2, "element stage 'hwp' needs side=alice or side=bob")),
    ("side-both", (_SOURCE, make_stage("hwp", side="both", line=2, theta=0.0)), None,
     (CompileError, 2, "element stage 'hwp' needs side=alice or side=bob")),
    ("herald-on-bob", "source spdc\nherald side=bob\n", None,
     (CompileError, 2, "herald must act on side=alice")),
    ("herald-on-bob", (_SOURCE, make_stage("herald", side="bob", line=2)), None,
     (CompileError, 2, "herald must act on side=alice")),
    ("source-side", "source spdc side=alice\nherald\n", None,
     (CompileError, 1, "source must act on side=both")),
    ("source-side", (make_stage("source", side="bob", line=1), make_stage("herald", line=2)),
     None, (CompileError, 1, "source must act on side=both")),
    # run() would contract an Alice q-plate through its charge-0 block alone,
    # drop its +-2 shift and report herald probability 0.5.
    ("alice-qplate", "source spdc\nqplate q=1 side=alice\nherald\n", None,
     (CompileError, 2, "'qplate' involves OAM and cannot act on Alice's photon")),
    ("alice-qplate", (_SOURCE, make_stage("qplate", side="alice", line=2, q=1.0),
                      make_stage("herald", line=3)), None,
     (CompileError, 2, "'qplate' involves OAM and cannot act on Alice's photon")),
    ("alice-after-herald", "source spdc\nherald\nqwp theta=0.5 side=alice\n", None,
     (CompileError, 3, "stages after the herald act on Bob's photon only")),
    ("alice-after-herald", (_SOURCE, make_stage("herald", line=2),
                            make_stage("qwp", side="alice", line=3, theta=0.5)), None,
     (CompileError, 3, "stages after the herald act on Bob's photon only")),
    ("missing-param", "source spdc\nqplate alpha0=0\n", None,
     (ParseError, 2, "stage 'qplate' requires parameter 'q'")),
    ("missing-param", (_SOURCE, Stage("qplate", {"q": 1.0}, "bob", 2)), None,
     (CompileError, 2, "stage 'qplate' is missing parameter 'alpha0'")),
    ("herald-without-basis", (_SOURCE, Stage("herald", {}, "alice", 2)), None,
     (CompileError, 2, "stage 'herald' is missing parameter 'basis'")),
    ("nan-theta", "source spdc\nqwp theta=nan\n", None,
     (ParseError, 2, "expected a number, got 'nan'")),
    ("nan-theta", (_SOURCE, Stage("qwp", {"theta": math.nan}, "bob", 2)), None,
     (CompileError, 2, "'theta' must be a finite number, got nan")),
    ("bad-basis", "source spdc\nherald basis=X\n", None,
     (ParseError, 2, "'basis' must be one of ('H', 'V', 'L', 'R'), got 'X'")),
    ("bad-basis", (_SOURCE, Stage("herald", {"basis": "X"}, "alice", 2)), None,
     (CompileError, 2, "'basis' must be one of ('H', 'V', 'L', 'R'), got 'X'")),
    ("q-not-half-integer", FIG2.replace("q=1 ", "q=0.3 "), None,
     (ValueError, None, "2q must be an integer, got q=0.3")),
    ("q-not-half-integer", _fig2_with_q(0.3), None,
     (ValueError, None, "2q must be an integer, got q=0.3")),
    ("q-overflow", FIG2.replace("q=1 ", "q=1e308 "), None,
     (ValueError, None, "2q must be an integer, got q=1e+308")),
    ("q-overflow", _fig2_with_q(1e308), None,
     (ValueError, None, "2q must be an integer, got q=1e+308")),
    ("q-too-wide", FIG2.replace("q=1 ", "q=1e7 "), None,
     (CompileError, 3, "truncation m_max=40000000 exceeds the limit 65536")),
    ("q-too-wide", _fig2_with_q(1e7), None,
     (CompileError, 3, "truncation m_max=40000000 exceeds the limit 65536")),
    # Five plates of shift 16384 add up to 81920: the fault is at the fifth.
    ("reach-too-wide", cascade_text(5, q=8192), None,
     (CompileError, 15, "truncation m_max=81920 exceeds the limit 65536")),
    ("reach-too-wide", parse(cascade_text(5, q=8192)).stages, None,
     (CompileError, 15, "truncation m_max=81920 exceeds the limit 65536")),
    ("m_max-too-narrow", FIG2, 1, (ValueError, None, "m_max=1 cannot hold a +-2 OAM shift")),
    ("m_max-too-narrow", _fig2_with_q(1.0), 1,
     (ValueError, None, "m_max=1 cannot hold a +-2 OAM shift")),
]


@pytest.mark.parametrize(
    "bench,m_max,fault", [row[1:] for row in FAULT_PINS],
    ids=[f"{row[0]}-{'text' if isinstance(row[1], str) else 'built'}" for row in FAULT_PINS],
)
def test_single_fault_benches_are_pinned(bench, m_max, fault):
    # A parsed bench goes through compile_bench; a hand-built one through both compilers.
    kind, line, message = fault
    if isinstance(bench, str):
        compilers = [lambda: compile_bench(parse(bench), m_max)]
    else:
        compilers = [lambda: compile_bench(BenchAst(bench), m_max),
                     lambda: BenchPipeline(BenchAst(bench), m_max)]
    for compile_ in compilers:
        with pytest.raises(kind) as err:
            compile_()
        assert type(err.value) is kind
        assert (getattr(err.value, "line", None),
                getattr(err.value, "message", str(err.value))) == (line, message)


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
