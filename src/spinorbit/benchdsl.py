"""A small line-oriented description language for optical benches.

One stage per line: a keyword, an optional bare variant token, then
``name=value`` parameters.  ``#`` starts a comment, blank lines are
ignored, and numbers accept a ``deg`` suffix (stored as radians).  The
canonical heralded-preparation bench reads::

    source spdc
    filter smf side=bob
    qplate q=1 alpha0=0 side=bob
    herald basis=H side=alice

Each keyword's meaning is one :data:`SCHEMAS` row: its parameters, default
side, variant tokens and element builder.  Exactly one ``source`` stage must
come first and at most one ``herald`` is allowed.  Parsing resolves defaults, so :func:`serialize` followed by
:func:`parse` reproduces the AST structurally; comments are not preserved.
:func:`compile_bench` builds each element once; Alice takes only spin-only
elements, and a filter leaving a norm below 1e-12 gives weight 0, as a herald does.
"""

from __future__ import annotations

import math
import numbers
import re
import warnings

import numpy as np

from . import experiment
from .elements import (
    QPlateSpec,
    dove_pair_op,
    mirror_op,
    qplate_op,
    smf_filter_op,
    waveplate_op,
)
from .qstate import NORM_TOL, BipartiteState, ElementOp, PhotonState, _Record

_TWO_PI = 2 * math.pi

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?(deg)?\Z")


class ParseError(Exception):
    """Syntax or schema violation, located in the source text."""

    def __init__(self, line: int, column: int, kind: str, message: str):
        super().__init__(f"line {line}, column {column}: {message} [{kind}]")
        self.line = line
        self.column = column
        self.kind = kind
        self.message = message


class CompileError(Exception):
    """Semantically invalid bench, located by stage line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class ParamSpec(_Record):
    """One stage parameter: required exactly when it has no default, an
    identifier among ``choices`` if it has them and a finite number if not."""

    __slots__ = ("name", "default", "angle", "choices")

    def __init__(self, name: str, default=None, angle: bool = False,
                 choices: tuple[str, ...] | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "default", default)
        object.__setattr__(self, "angle", angle)
        object.__setattr__(self, "choices", choices)


class StageSchema(_Record):
    """What a keyword means: its parameters, default side, bare variant tokens
    (the first is the default) and ``build(params, m_max)``, which makes its
    element; ``build`` is None for the source and the herald."""

    __slots__ = ("params", "default_side", "kind_choices", "build")

    def __init__(self, params: tuple[ParamSpec, ...], default_side: str,
                 kind_choices: tuple[str, ...] | None = None, build=None):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "default_side", default_side)
        object.__setattr__(self, "kind_choices", kind_choices)
        object.__setattr__(self, "build", build)


SCHEMAS: dict[str, StageSchema] = {
    "source": StageSchema((), "both", ("spdc",)),
    "filter": StageSchema((), "bob", ("smf",), lambda p, m_max: smf_filter_op(m_max)),
    "qplate": StageSchema(
        (ParamSpec("q"), ParamSpec("alpha0", default=0.0, angle=True)), "bob",
        build=lambda p, m_max: qplate_op(QPlateSpec(p["q"], p["alpha0"]), m_max),
    ),
    "qwp": StageSchema((ParamSpec("theta", angle=True),), "bob",
                       build=lambda p, m_max: waveplate_op("qwp", p["theta"])),
    "hwp": StageSchema((ParamSpec("theta", angle=True),), "bob",
                       build=lambda p, m_max: waveplate_op("hwp", p["theta"])),
    "dove": StageSchema((ParamSpec("alpha", angle=True),), "bob",
                        build=lambda p, m_max: dove_pair_op(p["alpha"], m_max)),
    "mirror": StageSchema((), "bob", build=lambda p, m_max: mirror_op(m_max)),
    "herald": StageSchema((ParamSpec("basis", default="H", choices=("H", "V", "L", "R")),),
                          "alice"),
}

_SIDES = ("alice", "bob", "both")


class Stage(_Record):
    """One resolved bench stage; line numbers are carried but not compared."""

    __slots__ = ("keyword", "params", "side", "line")

    def __init__(self, keyword: str, params: dict, side: str, line: int = 0):
        object.__setattr__(self, "keyword", keyword)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "line", line)

    def __eq__(self, other):  # no __hash__: params is a dict
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.keyword, self.params, self.side) == (other.keyword, other.params, other.side)


class BenchAst(_Record):
    __slots__ = ("stages",)

    def __init__(self, stages: tuple[Stage, ...]):
        object.__setattr__(self, "stages", stages)


def reduce_angle(value: float) -> float:
    """Canonical angle representative in (-pi, pi], stable under re-parsing."""
    r = math.remainder(value, _TWO_PI)
    return 0.0 if r == 0.0 else r  # fold -0.0


def _parse_number(token: str, line: int, column: int) -> float:
    m = _NUMBER_RE.match(token)
    if not m:
        raise ParseError(line, column, "bad-number", f"expected a number, got {token!r}")
    value = math.radians(float(token[:-3])) if m.group(3) == "deg" else float(token)
    if not math.isfinite(value):
        raise ParseError(line, column, "bad-number", f"expected a finite number, got {token!r}")
    return value


def _tokenize(raw_line: str) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs; text after '#' is a comment."""
    text = raw_line.split("#", 1)[0]
    out = []
    for m in re.finditer(r"\S+", text):
        out.append((m.group(), m.start() + 1))
    return out


def _parse_stage(tokens: list[tuple[str, int]], line_no: int) -> Stage:
    keyword, kw_col = tokens[0]
    schema = SCHEMAS.get(keyword)
    if schema is None:
        raise ParseError(line_no, kw_col, "unknown-keyword", f"unknown stage {keyword!r}")

    params: dict = {}
    side = None
    rest = tokens[1:]

    if rest and "=" not in rest[0][0]:
        token, col = rest[0]
        if schema.kind_choices is None:
            raise ParseError(
                line_no, col, "unknown-keyword",
                f"stage {keyword!r} takes no positional token",
            )
        if token not in schema.kind_choices:
            raise ParseError(
                line_no, col, "unknown-keyword",
                f"unknown {keyword} variant {token!r}",
            )
        params["kind"] = token
        rest = rest[1:]
    elif schema.kind_choices is not None:
        params["kind"] = schema.kind_choices[0]

    by_name = {p.name: p for p in schema.params}
    for token, col in rest:
        if "=" not in token:
            raise ParseError(
                line_no, col, "unknown-keyword",
                f"expected name=value, got bare token {token!r}",
            )
        name, value = token.split("=", 1)
        value_col = col + len(name) + 1
        if name == "side":
            if side is not None:
                raise ParseError(line_no, col, "duplicate-param", "side given twice")
            if value not in _SIDES:
                raise ParseError(
                    line_no, value_col, "unknown-keyword", f"unknown side {value!r}"
                )
            side = value
            continue
        spec = by_name.get(name)
        if spec is None:
            raise ParseError(
                line_no, col, "unknown-keyword",
                f"unknown parameter {name!r} for stage {keyword!r}",
            )
        if name in params:
            raise ParseError(
                line_no, col, "duplicate-param", f"parameter {name!r} given twice"
            )
        if spec.choices is None:
            num = _parse_number(value, line_no, value_col)
            params[name] = reduce_angle(num) if spec.angle else num
        else:
            if not _IDENT_RE.match(value):
                raise ParseError(
                    line_no, value_col, "unknown-keyword",
                    f"expected an identifier, got {value!r}",
                )
            if value not in spec.choices:
                raise ParseError(
                    line_no, value_col, "unknown-keyword",
                    f"{name!r} must be one of {spec.choices}, got {value!r}",
                )
            params[name] = value

    for spec in schema.params:
        if spec.name not in params:
            if spec.default is None:
                raise ParseError(
                    line_no, kw_col, "missing-param",
                    f"stage {keyword!r} requires parameter {spec.name!r}",
                )
            params[spec.name] = reduce_angle(float(spec.default)) if spec.angle else spec.default

    return Stage(
        keyword=keyword,
        params=params,
        side=side if side is not None else schema.default_side,
        line=line_no,
    )


def parse(text: str) -> BenchAst:
    """Parse bench text into an AST; raises ParseError at the first fault."""
    stages = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        stages.append(_parse_stage(tokens, line_no))
    _check_order(stages)
    return BenchAst(stages=tuple(stages))


def _check_order(stages: list[Stage]) -> None:
    """Raise ParseError unless one source comes first and at most one herald follows."""
    if not stages:
        raise ParseError(1, 1, "missing-param", "bench has no source stage")
    heralds = 0
    for i, stage in enumerate(stages):
        heralds += stage.keyword == "herald"
        if i == 0 and stage.keyword != "source":
            message = "first stage must be the source"
        elif i > 0 and stage.keyword == "source":
            message = "only one source stage is allowed"
        elif heralds > 1:
            message = "at most one herald stage is allowed"
        else:
            continue
        raise ParseError(stage.line, 1, "misplaced-stage", message)


def serialize(ast: BenchAst) -> str:
    """Canonical text form; parse(serialize(ast)) equals ast structurally."""
    lines = []
    for stage in ast.stages:
        schema = SCHEMAS[stage.keyword]
        parts = [stage.keyword]
        if schema.kind_choices is not None:
            parts.append(str(stage.params["kind"]))
        for spec in schema.params:
            value = stage.params[spec.name]
            parts.append(f"{spec.name}={value if spec.choices else f'{float(value):.17g}'}")
        parts.append(f"side={stage.side}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


class PipelineResult(_Record):
    """Outcome of running a bench: the prepared states and bookkeeping.

    ``bipartite`` is the two-photon state just before the herald (the final
    state if the bench has none); ``bob`` is Bob's heralded and further
    processed photon, None without a herald, as is ``herald_probability``.
    ``filter_weight`` is the product of the filters' transmitted weights.
    ``analyzer_m`` is the single nonzero |m| of the final state's OAM
    support (charges whose largest amplitude exceeds NORM_TOL), else None.
    """

    __slots__ = ("bipartite", "bob", "herald_probability", "filter_weight", "analyzer_m")

    def __init__(self, bipartite: BipartiteState, bob: PhotonState | None,
                 herald_probability: float | None, filter_weight: float,
                 analyzer_m: int | None):
        object.__setattr__(self, "bipartite", bipartite)
        object.__setattr__(self, "bob", bob)
        object.__setattr__(self, "herald_probability", herald_probability)
        object.__setattr__(self, "filter_weight", filter_weight)
        object.__setattr__(self, "analyzer_m", analyzer_m)


class BenchPipeline(_Record):
    """Each stage after the source with the element :func:`compile_bench`
    built for it once at ``m_max`` (None for the herald); :meth:`run` applies them.
    Construction checks each step, compiled or built by hand (:func:`_step_fault`)."""

    __slots__ = ("steps", "m_max")

    def __init__(self, steps: tuple[tuple[Stage, ElementOp | None], ...], m_max: int):
        after_herald = False
        for stage, op in steps:
            if (fault := _step_fault(stage, op, m_max, after_herald)) is not None:
                raise CompileError(stage.line, fault)
            after_herald = after_herald or stage.keyword == "herald"
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "m_max", m_max)

    def run(self) -> PipelineResult:
        """Pass one amplitude array, indexed (Alice spin, Bob spin, m + m_max)
        up to the herald and (Bob spin, m + m_max) after it, through the steps.
        A filter output of norm below NORM_TOL has weight 0, as a herald's has."""
        grid = experiment.spdc_source(self.m_max).matrix.reshape(2, 2, -1)
        bipartite = bob = herald_prob = None
        weight = 1.0
        for stage, op in self.steps:
            if op is None:
                bipartite = BipartiteState(self.m_max, grid.reshape(2, -1))
                outcome = experiment.herald(bipartite, stage.params["basis"])
                grid, herald_prob = outcome.state.as_grid(), outcome.probability
                continue
            if stage.side == "alice":
                grid = (op.blocks[..., 0] @ grid.reshape(2, -1)).reshape(grid.shape)
            else:
                grid = op._apply_grid(grid, self.m_max)
            if stage.keyword == "filter":
                norm = float(np.linalg.norm(grid))
                weight *= norm**2 if norm >= NORM_TOL else 0.0
                grid = grid / norm if norm >= NORM_TOL else np.zeros_like(grid)

        peaks = np.abs(grid).reshape(-1, grid.shape[-1]).max(axis=0)
        magnitudes = {abs(int(m) - self.m_max) for m in np.flatnonzero(peaks > NORM_TOL)}
        analyzer_m = magnitudes.pop() if len(magnitudes) == 1 else None
        if herald_prob is None:
            bipartite = BipartiteState(self.m_max, grid.reshape(2, -1))
        else:
            bob = PhotonState(self.m_max, grid.reshape(-1))
        return PipelineResult(bipartite, bob, herald_prob, weight, analyzer_m or None)


def _params_fault(stage: Stage):
    """Why a stage's params break its schema, else None: a parameter missing,
    a number not finite or an identifier outside its choices."""
    schema = SCHEMAS.get(stage.keyword)
    if schema is None:
        return None  # the step check names the unknown stage
    for spec in schema.params:
        if spec.name not in stage.params:
            return f"stage {stage.keyword!r} is missing parameter {spec.name!r}"
        value = stage.params[spec.name]
        if spec.choices is None:
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
                return f"{spec.name!r} must be a finite number, got {value!r}"
        elif value not in spec.choices:
            return f"{spec.name!r} must be one of {spec.choices}, got {value!r}"
    return None


def _step_fault(stage: Stage, op: ElementOp | None, m_max: int, after_herald: bool):
    """Why :meth:`BenchPipeline.run` would misapply a step, else None."""
    keyword, side, schema = stage.keyword, stage.side, SCHEMAS.get(stage.keyword)
    if schema is None:
        return f"unknown stage {keyword!r}"
    if (fault := _params_fault(stage)) is not None:
        return fault
    if keyword == "source":
        return "only one source stage is allowed"
    if keyword == "herald" and after_herald:
        return "at most one herald stage is allowed"
    if (op is None) != (schema.build is None):
        return f"{keyword!r} step has {'an' if op is not None else 'no'} element"
    if op is None:
        return None if side == "alice" else "herald must act on side=alice"
    if side not in ("alice", "bob"):
        return f"element stage {keyword!r} needs side=alice or side=bob"
    if side == "alice" and after_herald:
        return "stages after the herald act on Bob's photon only"
    if side == "alice" and not op.spin_only:
        return f"{keyword!r} involves OAM and cannot act on Alice's photon"
    if op.blocks.shape[-1] not in (1, 2 * m_max + 1):
        return f"{keyword!r} blocks {op.blocks.shape} do not fit m_max={m_max}"
    return None


def compile_bench(ast: BenchAst, m_max: int | None = None) -> BenchPipeline:
    """Fix the truncation, build each element once and check the pipeline.

    The truncation defaults to the widest single-pass bound over the bench's
    q-plates.  A missing source or a step :class:`BenchPipeline` rejects
    raises CompileError, as does a stage whose params break its schema, before
    any element is built; an element that cannot be built raises its ValueError.
    """
    for stage in ast.stages:
        if (fault := _params_fault(stage)) is not None:
            raise CompileError(stage.line, fault)
    bounds = [experiment.default_m_max(stage.params["q"])
              for stage in ast.stages if stage.keyword == "qplate"]
    if m_max is None:
        m_max = max(bounds, default=2)
    if not ast.stages:
        raise CompileError(1, "bench has no source stage")
    if ast.stages[0].keyword != "source":
        raise CompileError(ast.stages[0].line, "first stage must be the source")
    steps = []
    for stage in ast.stages[1:]:  # an unknown stage gets no element; BenchPipeline names it
        build = getattr(SCHEMAS.get(stage.keyword), "build", None)
        steps.append((stage, None if build is None else build(stage.params, m_max)))
    pipeline = BenchPipeline(tuple(steps), m_max)

    if bounds and not any(stage.keyword == "filter" for stage, _ in steps):
        warnings.warn(
            "bench has a q-plate but no mode filter; an ideal source carries "
            "no OAM, so the output is unchanged",
            stacklevel=2,
        )
    return pipeline
