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
side, variant tokens and element builder.  Exactly one ``source`` stage, on
``side=both``, must come first and at most one ``herald`` is allowed.  Parsing
resolves defaults, so :func:`serialize` followed by :func:`parse` reproduces
the AST structurally; comments are not preserved.  :class:`BenchPipeline`
compiles an AST and builds each element once; Alice takes only spin-only
elements, and a filter leaving a norm below 1e-12 gives weight 0, as a herald
does.
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
from .qstate import NORM_TOL, BipartiteState, ElementOp, PhotonState, _Record, oam_dim

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

#: The widest truncation a bench may use.  Each OAM element holds a 2x2 block
#: per charge, (2, 2, 2*m_max+1) complex: about 8 MB at this bound.
MAX_M_MAX = 2**16


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
    if (fault := _order_fault(stages)) is not None:
        raise ParseError(fault[0], 1, "misplaced-stage" if stages else "missing-param", fault[1])
    return BenchAst(stages=tuple(stages))


def _order_fault(stages) -> tuple[int, str] | None:
    """(line, message) unless one source comes first and at most one herald follows."""
    if not stages:
        return 1, "bench has no source stage"
    heralds = 0
    for i, stage in enumerate(stages):
        heralds += stage.keyword == "herald"
        if i == 0 and stage.keyword != "source":
            return stage.line, "first stage must be the source"
        if i > 0 and stage.keyword == "source":
            return stage.line, "only one source stage is allowed"
        if heralds > 1:
            return stage.line, "at most one herald stage is allowed"
    return None


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
    """A bench compiled once at truncation ``m_max``: :attr:`steps` pairs each
    stage after the source with the element its :data:`SCHEMAS` row builds,
    None for the herald.

    By default ``m_max`` is the widest single-pass bound over the q-plates or
    the bench's reach (:func:`_reach`), whichever is larger.  Each rule is
    checked once, before any build where it can be: the params, the q-plate
    bounds, the stage order, the truncation (an integer from 0 to
    :data:`MAX_M_MAX`, a fault located at the stage that sets it), then the
    sides (:func:`_step_fault`); each fault is a CompileError.  The compile also
    fixes the window :meth:`run` works in: the reach, widened to every
    element's |shift| and capped at ``m_max``.  The fields are ``ast`` and
    ``m_max``; copies compile again.
    """

    __slots__ = ("ast", "m_max", "_steps", "_window")

    def __init__(self, ast: BenchAst, m_max: int | None = None):
        for stage in ast.stages:
            if (fault := _params_fault(stage)) is not None:
                raise CompileError(stage.line, fault)
        bounds = [(experiment.default_m_max(stage.params["q"]), stage.line)
                  for stage in ast.stages if stage.keyword == "qplate"]
        reach, reach_line = _reach(ast.stages)
        line = 1
        if m_max is None:
            m_max, line = max(bounds, key=lambda bound: bound[0], default=(2, 1))
            if reach > m_max:
                m_max, line = reach, reach_line
        if (fault := _order_fault(ast.stages)) is not None:
            raise CompileError(*fault)
        if isinstance(m_max, bool) or not isinstance(m_max, numbers.Integral) or m_max < 0:
            raise CompileError(1, f"truncation m_max={m_max!r} must be an integer from 0 "
                                  f"to {MAX_M_MAX}")
        if m_max > MAX_M_MAX:
            raise CompileError(line, f"truncation m_max={m_max} exceeds the limit {MAX_M_MAX}")
        steps = []
        for stage in ast.stages[1:]:
            build = SCHEMAS[stage.keyword].build
            steps.append((stage, None if build is None else build(stage.params, m_max)))
        after_herald = False
        for stage, op in ((ast.stages[0], None), *steps):
            if (fault := _step_fault(stage, op, after_herald)) is not None:
                raise CompileError(stage.line, fault)
            after_herald = after_herald or stage.keyword == "herald"
        # Alice's matrix product rounds a column by where it sits in the row and
        # can leave -0.0 outside the reach, so a bench with an Alice element
        # keeps the whole truncation.
        window = max([reach, *(abs(op.shift) for _, op in steps if op is not None)])
        if any(stage.side == "alice" and op is not None for stage, op in steps):
            window = m_max
        object.__setattr__(self, "ast", ast)
        object.__setattr__(self, "m_max", m_max)
        object.__setattr__(self, "_steps", tuple(steps))
        object.__setattr__(self, "_window", min(m_max, window))

    @property
    def steps(self) -> tuple[tuple[Stage, ElementOp | None], ...]:
        """Each stage after the source with its element, None for the herald."""
        return self._steps

    def run(self) -> PipelineResult:
        """Pass one amplitude array, indexed (Alice spin, Bob spin, m + W)
        up to the herald and (Bob spin, m + W) after it, through the steps.

        W is the compiled window: no step puts amplitude outside |m| <= W, so
        the charges beyond it are never stored.  The herald and a filter's norm
        see the grid zero-padded to ``m_max``, so that they round as on the
        whole truncation, and the returned states are padded to ``m_max``.
        A filter output of norm below NORM_TOL has weight 0, as a herald's has.
        """
        m_max, window = self.m_max, self._window
        centre = slice(m_max - window, m_max + window + 1)

        def padded(grid):
            if window == m_max:
                return grid
            full = np.zeros(grid.shape[:-1] + (oam_dim(m_max),), dtype=complex)
            full[..., centre] = grid
            return full

        grid = experiment.spdc_source(window).matrix.reshape(2, 2, -1)
        bipartite = bob = herald_prob = None
        weight = 1.0
        for stage, op in self._steps:
            if op is None:
                bipartite = BipartiteState(m_max, padded(grid).reshape(2, -1))
                outcome = experiment.herald(bipartite, stage.params["basis"])
                grid, herald_prob = outcome.state.as_grid()[..., centre], outcome.probability
                continue
            if stage.side == "alice":
                grid = (op.blocks[..., 0] @ grid.reshape(2, -1)).reshape(grid.shape)
            else:
                grid = op._apply_grid(grid, m_max)
            if stage.keyword == "filter":
                norm = float(np.linalg.norm(padded(grid)))
                weight *= norm**2 if norm >= NORM_TOL else 0.0
                grid = grid / norm if norm >= NORM_TOL else np.zeros_like(grid)

        peaks = np.abs(grid).reshape(-1, grid.shape[-1]).max(axis=0)
        magnitudes = {abs(int(m) - window) for m in np.flatnonzero(peaks > NORM_TOL)}
        analyzer_m = magnitudes.pop() if len(magnitudes) == 1 else None
        grid = padded(grid)
        if herald_prob is None:
            bipartite = BipartiteState(m_max, grid.reshape(2, -1))
        else:
            bob = PhotonState(m_max, grid.reshape(-1))
        return PipelineResult(bipartite, bob, herald_prob, weight, analyzer_m or None)


def _reach(stages) -> tuple[int, int]:
    """The largest |m| that Bob's L or R row can hold after any stage, and the
    line of the first stage where it does (0 at line 1 if none moves OAM).

    Each row's charges are kept as the interval (lo, hi) they span, None once
    a filter empties it.  The source gives (0, 0) to both rows; a filter keeps
    0 only; a q-plate shifting by s maps (L, R) to (R - s, L + s); hwp swaps
    the rows, mirror keeps them, and qwp and dove merge them; Alice's steps and
    the herald leave them alone.  The walk is structural: amplitudes that
    cancel, as through qwp(0) then qwp(90deg), still count.
    """
    left = right = (0, 0)
    reach, line = 0, 1
    for stage in stages[1:]:
        if stage.side != "bob":
            continue
        keyword = stage.keyword
        if keyword == "filter":
            left = (0, 0) if left and left[0] <= 0 <= left[1] else None
            right = (0, 0) if right and right[0] <= 0 <= right[1] else None
        elif keyword == "hwp":
            left, right = right, left
        elif keyword in ("qwp", "dove"):
            if left and right:
                left = right = (min(left[0], right[0]), max(left[1], right[1]))
            else:
                left = right = left or right
        elif keyword == "qplate":  # the only stage that can widen the reach
            s = round(2 * stage.params["q"])
            left, right = (right and (right[0] - s, right[1] - s),
                           left and (left[0] + s, left[1] + s))
            widest = max([max(-row[0], row[1]) for row in (left, right) if row], default=0)
            if widest > reach:
                reach, line = widest, stage.line
    return reach, line


def _params_fault(stage: Stage):
    """Why a stage breaks its schema, else None: an unknown keyword, a
    parameter missing, a number not finite or an identifier outside its choices."""
    schema = SCHEMAS.get(stage.keyword)
    if schema is None:
        return f"unknown stage {stage.keyword!r}"
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


def _step_fault(stage: Stage, op: ElementOp | None, after_herald: bool):
    """Why :meth:`BenchPipeline.run` would act on the wrong photon, else None."""
    if stage.keyword == "source":
        return None if stage.side == "both" else "source must act on side=both"
    if op is None:
        return None if stage.side == "alice" else "herald must act on side=alice"
    if stage.side not in ("alice", "bob"):
        return f"element stage {stage.keyword!r} needs side=alice or side=bob"
    if stage.side == "alice" and after_herald:
        return "stages after the herald act on Bob's photon only"
    if stage.side == "alice" and not op.spin_only:
        return f"{stage.keyword!r} involves OAM and cannot act on Alice's photon"
    return None


def compile_bench(ast: BenchAst, m_max: int | None = None) -> BenchPipeline:
    """``BenchPipeline(ast, m_max)``, warning when a bench has a q-plate but no
    mode filter."""
    pipeline = BenchPipeline(ast, m_max)
    keywords = {stage.keyword for stage in ast.stages}
    if "qplate" in keywords and "filter" not in keywords:
        warnings.warn(
            "bench has a q-plate but no mode filter; an ideal source carries "
            "no OAM, so the output is unchanged",
            stacklevel=2,
        )
    return pipeline
