"""Command-line interface.

Subcommands:

* ``chsh``   exact or Monte-Carlo CHSH evaluation at four analyzer phases
* ``sweep``  scan chi_A at fixed chi_B, writing a CSV of probabilities/counts
* ``nchv``   brute-force noncontextual bound next to the quantum value
* ``field``  sample a plate's optical-axis pattern to CSV
* ``run``    execute a .bench file and analyze the prepared state

Angles accept plain radians, ``pi`` fractions (``pi/2``, ``-pi``, ``0.75pi``)
or degrees (``22.5deg``).  Every file output gets a sidecar
``<name>.manifest.json`` recording the resolved parameters, seed, RNG
identity and tool version; stdout commands embed the same manifest in
their ``--json`` form.  Exit codes: 0 success, 1 usage error, invalid
value or file error, 2 bench parse/semantic error, 3 numeric contract violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from datetime import datetime, timezone

from . import __version__
from .chsh import (
    GENERATOR_ID,
    TSIRELSON_SETTINGS,
    ChshSettings,
    RngSeed,
    chsh_combination,
    chsh_monte_carlo,
    estimate_E,
    nchv_max_S,
    pair_probabilities,
    sample_counts,
    sweep,
)
from .elements import QPlateSpec, orientation_field, symmetry_order
from .experiment import LostWeightError, correlation, joint_probabilities
from .qstate import TruncationError

SEED_ENV_VAR = "SPINORBIT_SEED"


def parse_angle(text: str) -> float:
    """Angle literal: radians, a pi fraction, or degrees with a deg suffix."""
    s = text.strip().lower().replace(" ", "")
    if not s:
        raise ValueError("empty angle")
    sign = 1.0
    if s[0] in "+-":
        if s[0] == "-":
            sign = -1.0
        s = s[1:]
    try:
        if s.endswith("deg"):
            return sign * math.radians(float(s[:-3]))
        if "pi" in s:
            pre, _, post = s.partition("pi")
            value = float(pre) if pre else 1.0
            if post:
                if not post.startswith("/"):
                    raise ValueError
                value /= float(post[1:])
            return sign * value * math.pi
        return sign * float(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from None


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class _Parser(argparse.ArgumentParser):
    # Usage problems exit with code 1; argparse's default of 2 is reserved
    # for bench parse errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _rng_seed(args) -> RngSeed:
    """The command's RNG seed: --seed, else $SPINORBIT_SEED, else 0."""
    seed = args.seed
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(raw)
        except ValueError:
            print(f"spinorbit: warning: ignoring ${SEED_ENV_VAR}={raw!r} (not an integer); "
                  "using seed 0", file=sys.stderr)
            seed = 0
    return RngSeed(seed, args.stream)


def _manifest(command: str, params: dict, seed: RngSeed | None) -> dict:
    man = {
        "command": command,
        "parameters": params,
        "generator": GENERATOR_ID,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if seed is not None:
        man["seed"] = seed.seed
        man["stream"] = seed.stream
    return man


def _write_manifest(path: str, manifest: dict) -> str:
    base, _ = os.path.splitext(path)
    man_path = base + ".manifest.json"
    with open(man_path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return man_path


def _settings_params(settings: ChshSettings) -> dict:
    return {name: getattr(settings, name) for name in ChshSettings.__slots__}


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "json", False):
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def _angle_args(parser, names_defaults):
    for name, default in names_defaults:
        parser.add_argument(
            f"--{name}", type=parse_angle, default=default,
            help=f"analyzer phase (default {_fmt(default)} rad)",
        )


def cmd_chsh(args) -> int:
    settings = ChshSettings(args.chi_a, args.chi_a_prime, args.chi_b, args.chi_b_prime)
    params = {**_settings_params(settings), "mode": args.mode}
    lines = []
    if args.mode == "exact":
        e_values = correlation(pair_probabilities(settings)).tolist()
        s = chsh_combination(e_values)
        payload = {"e_values": e_values, "s": s}
        seed = None
    else:
        if args.shots is None:
            print("spinorbit: error: montecarlo mode requires --shots", file=sys.stderr)
            raise SystemExit(1)
        seed = _rng_seed(args)
        params.update({"shots": args.shots})
        result = chsh_monte_carlo(settings, args.shots, seed)
        e_values = list(result.e_estimates)
        s = result.s_estimate
        payload = {
            "e_values": e_values,
            "s": s,
            "standard_error": result.standard_error,
            "counts": [c.as_tuple() for c in result.counts],
        }
        lines.append(f"shots per setting: {args.shots}   seed: {seed.seed}")
    for (a, b), e in zip(settings.pairs(), e_values):
        lines.append(f"E(chi_A={_fmt(a)}, chi_B={_fmt(b)}) = {_fmt(e)}")
    lines.append(f"S = {_fmt(s)}")
    if args.mode == "montecarlo":
        lines.append(f"standard error = {_fmt(payload['standard_error'])}")
    payload["manifest"] = _manifest("chsh", params, seed)
    _emit(args, payload, lines)
    return 0


def cmd_sweep(args) -> int:
    seed = _rng_seed(args)
    n = args.points
    grid = [-math.pi + 2 * math.pi * k / n for k in range(n)]
    rows = sweep(args.chi_b, grid, args.shots, seed)
    with_counts = args.shots > 0

    header = ["chi_A_rad", "chi_B_rad", "p_pp", "p_pm", "p_mp", "p_mm"]
    if with_counts:
        header += ["n_pp", "n_pm", "n_mp", "n_mm"]
    header += ["e_exact"]
    if with_counts:
        header += ["e_est"]
    with open(args.out, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [_fmt(row.chi_a), _fmt(row.chi_b)]
            cells += [_fmt(p) for p in row.probabilities]
            if with_counts:
                cells += [str(c) for c in row.counts.as_tuple()]
            cells.append(_fmt(row.e_exact))
            if with_counts:
                cells.append(_fmt(row.e_estimated))
            fh.write(",".join(cells) + "\n")

    params = {
        "chi_b": args.chi_b,
        "points": n,
        "shots": args.shots,
        "out": args.out,
    }
    manifest = _manifest("sweep", params, seed)
    manifest["circle_rows"] = [i for i, r in enumerate(rows) if r.is_circle]
    man_path = _write_manifest(args.out, manifest)
    print(f"wrote {len(rows)} rows to {args.out} (manifest: {man_path})")
    return 0


def cmd_nchv(args) -> int:
    settings = ChshSettings(args.chi_a, args.chi_a_prime, args.chi_b, args.chi_b_prime)
    result = nchv_max_S(settings)
    quantum = chsh_combination(correlation(pair_probabilities(settings)).tolist())
    gap = quantum - result.max_s

    lines = [
        f"classical (noncontextual) max S = {_fmt(result.max_s)}",
        f"achieved by assignment {result.argmax}",
        f"quantum S at these settings   = {_fmt(quantum)}",
        f"gap                           = {_fmt(gap)}",
    ]
    payload = {
        "classical_max": result.max_s,
        "quantum_s": quantum,
        "gap": gap,
        "assignment": result.argmax,
        "manifest": _manifest("nchv", _settings_params(settings), None),
    }
    _emit(args, payload, lines)
    return 0


def cmd_field(args) -> int:
    spec = QPlateSpec(args.q, args.alpha0)
    fld = orientation_field(spec, args.n_r, args.n_phi)
    fld.to_csv(args.out)
    order = symmetry_order(spec.q)
    params = {
        "q": spec.q,
        "alpha0": spec.alpha0,
        "n_r": args.n_r,
        "n_phi": args.n_phi,
        "out": args.out,
    }
    manifest = _manifest("field", params, None)
    manifest["symmetry_order"] = order
    manifest["rotationally_invariant"] = order is None
    man_path = _write_manifest(args.out, manifest)
    desc = "rotationally invariant" if order is None else f"{order}-fold symmetric"
    print(f"wrote axis pattern ({desc}) to {args.out} (manifest: {man_path})")
    return 0


def cmd_run(args) -> int:
    # Imported here, so that the commands that run no bench never load the DSL.
    from .benchdsl import CompileError, ParseError, compile_bench, parse

    with open(args.bench) as fh:
        text = fh.read()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pipeline = compile_bench(parse(text))
    except (ParseError, CompileError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for warning in caught:
        print(f"spinorbit: warning: {warning.message}", file=sys.stderr)
    result = pipeline.run()
    if result.bob is None:
        print("bench has no herald stage; nothing to analyze", file=sys.stderr)
        return 2
    if result.herald_probability * result.filter_weight == 0:
        raise ValueError(
            "herald probability is 0: the bench's filters and herald leave no "
            "photon to analyze"
        )
    m = args.analyzer_m if args.analyzer_m else result.analyzer_m
    if m is None:
        raise ValueError("cannot infer the analyzer OAM magnitude; pass --analyzer-m")
    if m > result.bob.m_max:
        raise ValueError(
            f"--analyzer-m {m} exceeds the bench truncation m_max={result.bob.m_max}"
        )

    probs = joint_probabilities(result.bob, args.chi_a, args.chi_b, m=m)
    e_exact = correlation(probs)
    lines = [
        f"bench: {args.bench}",
        f"herald probability = {_fmt(result.herald_probability)}",
        f"analyzer OAM magnitude m = {m}",
        f"p(A+B+)={_fmt(probs[0])} p(A+B-)={_fmt(probs[1])} "
        f"p(A-B+)={_fmt(probs[2])} p(A-B-)={_fmt(probs[3])}",
        f"E({_fmt(args.chi_a)}, {_fmt(args.chi_b)}) = {_fmt(e_exact)}",
    ]
    payload = {
        "herald_probability": result.herald_probability,
        "analyzer_m": m,
        "probabilities": list(probs),
        "e_exact": e_exact,
    }
    seed = None
    if args.shots:
        seed = _rng_seed(args)
        counts = sample_counts(probs, args.shots, seed)
        e_est = estimate_E(counts)
        lines.append(
            f"counts (shots={args.shots}): {counts.as_tuple()}  e_est = {_fmt(e_est)}"
        )
        payload["counts"] = counts.as_tuple()
        payload["e_estimated"] = e_est
    params = {
        "bench": args.bench,
        "chi_a": args.chi_a,
        "chi_b": args.chi_b,
        "shots": args.shots,
        "analyzer_m": m,
    }
    payload["manifest"] = _manifest("run", params, seed)
    _emit(args, payload, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinorbit",
        description="Simulator of single-photon spin-orbit entanglement from q-plates.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    default_angles = [
        ("chi-a", TSIRELSON_SETTINGS.chi_a),
        ("chi-a-prime", TSIRELSON_SETTINGS.chi_a_prime),
        ("chi-b", TSIRELSON_SETTINGS.chi_b),
        ("chi-b-prime", TSIRELSON_SETTINGS.chi_b_prime),
    ]

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default from ${SEED_ENV_VAR} or 0)")
        p.add_argument("--stream", type=int, default=0, help="RNG stream index")

    p = sub.add_parser("chsh", help="evaluate the CHSH parameter S")
    _angle_args(p, default_angles)
    p.add_argument("--mode", choices=("exact", "montecarlo"), default="exact")
    p.add_argument("--shots", type=int, default=None,
                   help="coincidences per setting (montecarlo mode)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    add_seed(p)
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("sweep", help="scan chi_A at fixed chi_B into a CSV")
    p.add_argument("--chi-b", type=parse_angle, default=math.pi / 4)
    p.add_argument("--points", type=int, default=64,
                   help="grid size over [-pi, pi) (default 64)")
    p.add_argument("--shots", type=int, default=0,
                   help="coincidences per grid point (0 = exact only)")
    p.add_argument("--out", required=True, help="output CSV path")
    add_seed(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("nchv", help="noncontextual bound vs quantum value")
    _angle_args(p, default_angles)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    # nchv draws nothing; --seed is accepted and ignored so existing command lines run.
    p.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_nchv)

    p = sub.add_parser("field", help="sample a plate's optical-axis pattern")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--alpha0", type=parse_angle, default=0.0)
    p.add_argument("--n-r", type=int, default=16)
    p.add_argument("--n-phi", type=int, default=90)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("run", help="execute a .bench file and analyze it")
    p.add_argument("bench", help="path to a .bench file")
    p.add_argument("--chi-a", type=parse_angle, default=math.pi / 2)
    p.add_argument("--chi-b", type=parse_angle, default=math.pi / 4)
    p.add_argument("--shots", type=int, default=0)
    p.add_argument("--analyzer-m", type=int, default=0,
                   help="override the inferred analyzer OAM magnitude")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    add_seed(p)
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LostWeightError, TruncationError) as exc:
        print(f"numeric contract violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        message = "out of memory" if isinstance(exc, MemoryError) and not str(exc) else exc
        print(f"spinorbit: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
