"""A small line-oriented description language for optical benches.

One stage per line: a keyword, then its variant token bare if it has one
(optional), then ``name=value`` parameters.  ``#`` starts a comment, blank
lines are ignored, and numbers accept a ``deg`` suffix (stored as radians).
The canonical heralded-preparation bench reads::

    source spdc
    filter smf side=bob
    qplate q=1 alpha0=0 side=bob
    herald basis=H side=alice

Each keyword's meaning is one :data:`SCHEMAS` row: its parameters, default
side and element builder.  One :class:`ParamSpec` rule checks every
parameter, ``side=`` and the variant (the ``kind`` parameter) included.
Exactly one ``source`` stage, on ``side=both``, must come first and at most
one ``herald`` is allowed.  Parsing resolves defaults, so :func:`serialize`
followed by :func:`parse` reproduces the AST structurally; comments are not
preserved.  :class:`BenchPipeline` (also named ``compile_bench``) compiles
an AST and builds each distinct element once; equal stages share one
element.  Unless given one, the truncation ``m_max`` is the widest charge
the bench needs (fig2: 2).  Alice takes only spin-only elements, and a
filter leaving a norm below 1e-12 gives weight 0, as a herald does.
"""

from __future__ import annotations

import math
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
from .qstate import NORM_TOL, BipartiteState, ElementOp, PhotonState, _real, _Record, _truncation

_TWO_PI = 2 * math.pi

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?(deg)?\Z")


class BenchError(Exception):
    """A bench that cannot be analyzed; ``spinorbit run`` prints it and exits 2."""


class ParseError(BenchError):
    """Syntax or schema violation, located in the source text."""

    def __init__(self, line: int, column: int, kind: str, message: str):
        super().__init__(f"line {line}, column {column}: {message} [{kind}]")
        self.line = line
        self.column = column
        self.kind = kind
        self.message = message


class CompileError(BenchError):
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
        _Record.__init__(self, name, default, angle, choices)


class StageSchema(_Record):
    """What a keyword means: its parameters, default side and
    ``build(params, m_max)``, which makes its element; ``build`` is None for
    the source and the herald.  A ``kind`` parameter is the stage's variant,
    written as a bare token right after the keyword."""

    __slots__ = ("params", "default_side", "build")

    def __init__(self, params: tuple[ParamSpec, ...], default_side: str, build=None):
        _Record.__init__(self, params, default_side, build)


SCHEMAS: dict[str, StageSchema] = {
    "source": StageSchema((ParamSpec("kind", default="spdc", choices=("spdc",)),), "both"),
    "filter": StageSchema((ParamSpec("kind", default="smf", choices=("smf",)),), "bob",
                          build=lambda p, m_max: smf_filter_op(m_max)),
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

#: Every stage takes ``side=``; parsing moves it from the params to :attr:`Stage.side`.
_SIDE = ParamSpec("side", choices=("alice", "bob", "both"))

#: The widest truncation a bench may use.  Each OAM element holds a 2x2 block
#: per charge, (2, 2, 2*m_max+1) complex: about 8 MB at this bound.
MAX_M_MAX = 2**16


class Stage(_Record):
    """One resolved bench stage; line numbers are carried but not compared."""

    __slots__ = ("keyword", "params", "side", "line")

    def __init__(self, keyword: str, params: dict, side: str, line: int = 0):
        _Record.__init__(self, keyword, params, side, line)

    def __eq__(self, other):  # no __hash__: params is a dict
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.keyword, self.params, self.side) == (other.keyword, other.params, other.side)


class BenchAst(_Record):
    __slots__ = ("stages",)

    def __init__(self, stages: tuple[Stage, ...]):
        _Record.__init__(self, stages)


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

    by_name = {p.name: p for p in (*schema.params, _SIDE)}
    params: dict = {}
    for i, (token, col) in enumerate(tokens[1:]):
        name, eq, value = token.partition("=")
        if not eq:  # only the token after the keyword may be bare: the variant
            if i or "kind" not in by_name:
                raise ParseError(
                    line_no, col, "unknown-keyword",
                    f"expected name=value, got bare token {token!r}",
                )
            name, value = "kind", token
        spec = by_name.get(name)
        if spec is None or (eq and name == "kind"):  # the variant is written bare only
            raise ParseError(
                line_no, col, "unknown-keyword",
                f"unknown parameter {name!r} for stage {keyword!r}",
            )
        if name in params:
            raise ParseError(
                line_no, col, "duplicate-param", f"parameter {name!r} given twice"
            )
        value_col = col + len(token) - len(value)
        if spec.choices is None:
            num = _parse_number(value, line_no, value_col)
            params[name] = reduce_angle(num) if spec.angle else num
        elif value in spec.choices:
            params[name] = value
        else:
            raise ParseError(
                line_no, value_col, "unknown-keyword",
                f"{name!r} must be one of {spec.choices}, got {value!r}"
                if _IDENT_RE.match(value) else f"expected an identifier, got {value!r}",
            )

    side = params.pop("side", schema.default_side)
    for spec in schema.params:
        if spec.name not in params:
            if spec.default is None:
                raise ParseError(
                    line_no, kw_col, "missing-param",
                    f"stage {keyword!r} requires parameter {spec.name!r}",
                )
            params[spec.name] = reduce_angle(float(spec.default)) if spec.angle else spec.default

    return Stage(keyword, params, side, line_no)


def parse(text: str) -> BenchAst:
    """Parse bench text into an AST; raises ParseError at the first fault.

    Each distinct line text is parsed once: a line repeating an earlier one
    gets a copy of its stage, with its own line number and params dict.
    """
    stages = []
    first: dict[str, Stage | None] = {}  # None for a blank or comment-only line
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if raw in first:
            if (stage := first[raw]) is not None:
                stages.append(Stage(stage.keyword, dict(stage.params), stage.side, line_no))
            continue
        tokens = _tokenize(raw)
        first[raw] = stage = _parse_stage(tokens, line_no) if tokens else None
        if stage is not None:
            stages.append(stage)
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
        parts = [stage.keyword]
        for spec in SCHEMAS[stage.keyword].params:
            value = stage.params[spec.name]
            value = value if spec.choices else f"{float(value):.17g}"
            parts.append(str(value) if spec.name == "kind" else f"{spec.name}={value}")
        parts.append(f"side={stage.side}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


class PipelineResult(_Record):
    """Outcome of running a bench: the prepared states and bookkeeping.

    ``bipartite`` is the two-photon state just before the herald (the final
    state if the bench has none); ``bob`` is Bob's heralded and further
    processed photon, None without a herald, as is ``herald_probability``.
    ``filter_weight`` is the product of each filter's (norm after / norm before)**2.
    ``analyzer_m`` is the single nonzero |m| of the final state's OAM
    support (charges whose largest amplitude exceeds NORM_TOL), else None.
    """

    __slots__ = ("bipartite", "bob", "herald_probability", "filter_weight", "analyzer_m")

    def __init__(self, bipartite: BipartiteState, bob: PhotonState | None,
                 herald_probability: float | None, filter_weight: float,
                 analyzer_m: int | None):
        _Record.__init__(self, bipartite, bob, herald_probability, filter_weight, analyzer_m)


class BenchPipeline(_Record):
    """A bench compiled once at truncation ``m_max``: :attr:`steps` pairs each
    stage after the source with the element its :data:`SCHEMAS` row builds,
    None for the herald.  Each distinct element is built once; equal stages
    (same keyword and params) share one element.

    One rule sizes the bench: it needs the larger of its reach (:func:`_reach`)
    and every q-plate's |2q|, Alice's included.  By default ``m_max`` is that
    need, and the window :meth:`run` applies each element to is the need capped
    at ``m_max``.  Each rule is checked once, before any build where it can be:
    the params, each q (2q an integer, else a ValueError), the stage order, the
    truncation (an integer from 0 to :data:`MAX_M_MAX`, a fault located at the
    stage that sets it), then the sides (:func:`_step_fault`); each other fault
    is a CompileError.
    Last, a bench with a q-plate but no mode filter gets a UserWarning.  The
    fields are ``ast`` and ``m_max``; copies compile, and warn, again.
    """

    __slots__ = ("ast", "m_max", "_steps", "_window")

    def __init__(self, ast: BenchAst, m_max: int | None = None):
        for stage in ast.stages:
            if (fault := _params_fault(stage)) is not None:
                raise CompileError(stage.line, fault)
        # QPlateSpec checks each q before _reach rounds 2q; on a tie the plate's line wins.
        plates = [(abs(QPlateSpec(stage.params["q"]).two_q), stage.line)
                  for stage in ast.stages if stage.keyword == "qplate"]
        need, line = max([*plates, _reach(ast.stages)], key=lambda bound: bound[0])
        m_max, line = (need, line) if m_max is None else (m_max, 1)
        if (fault := _order_fault(ast.stages)) is not None:
            raise CompileError(*fault)
        try:
            m_max = _truncation(m_max)
        except ValueError:  # m_max is still the caller's value
            raise CompileError(1, f"truncation m_max={m_max!r} must be an integer from 0 "
                                  f"to {MAX_M_MAX}") from None
        if m_max > MAX_M_MAX:
            raise CompileError(line, f"truncation m_max={m_max} exceeds the limit {MAX_M_MAX}")
        steps, built = [], {}  # equal stages share one element; repr keeps -0.0 apart
        for stage in ast.stages[1:]:
            build, op = SCHEMAS[stage.keyword].build, None
            key = (stage.keyword, repr(sorted(stage.params.items())))
            if build is not None and (op := built.get(key)) is None:
                op = built[key] = build(stage.params, m_max)
            steps.append((stage, op))
        after_herald = False
        for stage, op in ((ast.stages[0], None), *steps):
            if (fault := _step_fault(stage, op, after_herald)) is not None:
                raise CompileError(stage.line, fault)
            after_herald = after_herald or stage.keyword == "herald"
        _Record.__init__(self, ast, m_max, tuple(steps), min(m_max, need))
        keywords = {stage.keyword for stage in ast.stages}
        if "qplate" in keywords and "filter" not in keywords:
            warnings.warn("bench has a q-plate but no mode filter; an ideal source carries "
                          "no OAM, so the output is unchanged", stacklevel=2)

    @property
    def steps(self) -> tuple[tuple[Stage, ElementOp | None], ...]:
        """Each stage after the source with its element, None for the herald;
        equal stages share one element, so an element may appear more than once."""
        return self._steps

    def run(self) -> PipelineResult:
        """Pass one amplitude array, indexed (Alice spin, Bob spin, m + m_max)
        up to the herald and (Bob spin, m + m_max) after it, through the steps.

        The array keeps every charge, but each element acts only on the
        compiled window |m| <= W, outside which no step puts amplitude; an
        Alice element acts on the (Bob spin, Alice spin, m) view.  The
        herald, a filter's norm, the analyzer support and the returned states
        read the whole array.
        A filter output of norm below NORM_TOL has weight 0, as a herald's has.
        """
        m_max, window = self.m_max, self._window
        centre = slice(m_max - window, m_max + window + 1)
        grid = experiment.spdc_source(m_max).grid.copy()
        bipartite = bob = herald_prob = None
        weight = 1.0
        for stage, op in self._steps:
            if op is None:
                bipartite = BipartiteState(m_max, grid)
                outcome = experiment.herald(bipartite, stage.params["basis"])
                grid, herald_prob = outcome.state.grid.copy(), outcome.probability
                continue
            before = float(np.linalg.norm(grid)) if stage.keyword == "filter" else None
            rows = grid.swapaxes(0, 1) if stage.side == "alice" else grid
            rows[..., centre] = op._apply_grid(rows[..., centre], m_max)
            if before is not None:
                norm = float(np.linalg.norm(grid))
                weight *= (norm / before) ** 2 if norm >= NORM_TOL else 0.0
                grid = grid / norm if norm >= NORM_TOL else np.zeros_like(grid)

        peaks = np.abs(grid).reshape(-1, grid.shape[-1]).max(axis=0)
        magnitudes = {abs(int(m) - m_max) for m in np.flatnonzero(peaks > NORM_TOL)}
        analyzer_m = magnitudes.pop() if len(magnitudes) == 1 else None
        if herald_prob is None:
            bipartite = BipartiteState(m_max, grid)
        else:
            bob = PhotonState(m_max, grid)
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
    parameter missing, a number not real (``_real``) or not finite, an identifier
    outside its choices or a parameter the schema does not list."""
    schema = SCHEMAS.get(stage.keyword)
    if schema is None:
        return f"unknown stage {stage.keyword!r}"
    for spec in schema.params:
        if spec.name not in stage.params:
            return f"stage {stage.keyword!r} is missing parameter {spec.name!r}"
        value = stage.params[spec.name]
        if spec.choices is None:
            try:
                value = _real(repr(spec.name), value)
            except ValueError as err:
                return str(err)
            if not math.isfinite(value):
                return f"{spec.name!r} must be a finite number, got {value!r}"
        elif value not in spec.choices:
            return f"{spec.name!r} must be one of {spec.choices}, got {value!r}"
    if len(stage.params) > len(schema.params):  # each listed name is present: one is not listed
        known = {spec.name for spec in schema.params}
        name = next(name for name in stage.params if name not in known)
        return f"unknown parameter {name!r} for stage {stage.keyword!r}"
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


compile_bench = BenchPipeline
