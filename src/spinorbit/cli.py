"""Command-line interface.

Subcommands:

* ``chsh``   exact or Monte-Carlo CHSH evaluation at four analyzer phases
* ``sweep``  scan chi_A at fixed chi_B, writing a CSV of probabilities/counts
* ``nchv``   brute-force noncontextual bound next to the quantum value
* ``field``  sample a plate's optical-axis pattern to CSV
* ``run``    execute a .bench file and analyze the prepared state

Angles accept plain radians, ``pi`` fractions (``pi/2``, ``-pi``, ``0.75pi``)
or degrees (``22.5deg``), with at most one sign, at the front; a negative
exponent form takes the ``=`` spelling (``--chi-b=-1e-05``), as argparse
reads a separate ``-1e-05`` token as an option.  Every file
output gets a sidecar ``<name>.manifest.json`` recording the command's options
as parsed, tool version and, if the command draws, seed and RNG identity;
stdout commands embed the same manifest in their ``--json`` form.  Exit codes:
0 success, 1 usage error, invalid value or file error, 2 bench parse/semantic
error, 3 numeric contract violation.  A failed command prints one error line
and leaves no output file; :func:`main` prints the warnings after a successful
command's output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

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
from .elements import QPlateSpec, symmetry_order
from .experiment import LOST_WEIGHT_TOL, LostWeightError, correlation, joint_probabilities
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
        if s.startswith(("+", "-")):  # one sign, at the front
            raise ValueError
        if s.endswith("deg"):
            return sign * math.radians(float(s[:-3]))
        if "pi" in s:
            pre, _, post = s.partition("pi")
            value = float(pre) if pre else 1.0
            if post:
                if not post.startswith("/") or post.startswith(("/+", "/-")):
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
    """The command's RNG seed: --seed, else $SPINORBIT_SEED (0 and a warning if not an int)."""
    seed = args.seed
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(raw)
        except ValueError:
            warnings.warn(f"ignoring ${SEED_ENV_VAR}={raw!r} (not an integer); using seed 0")
            seed = 0
    return RngSeed(seed, args.stream)


# Options a manifest does not record: the command's name, its handler, the output's form,
# and the seed and stream, which are top-level keys when the command draws.
_UNRECORDED = frozenset({"command", "func", "json", "seed", "stream"})


def _manifest(args, seed: RngSeed | None, **resolved) -> dict:
    """The command's manifest: its options as parsed (None left out), ``resolved`` over them."""
    params = {k: v for k, v in vars(args).items() if k not in _UNRECORDED and v is not None}
    man = {
        "command": args.command,
        "parameters": {**params, **resolved},
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "python_version": "%d.%d.%d" % sys.version_info[:3],
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if seed is not None:
        man.update(generator=GENERATOR_ID, seed=seed.seed, stream=seed.stream)
    return man


def _write_outputs(args, header: list[str], columns: list[np.ndarray], manifest: dict) -> str:
    """Write equal-length columns as a CSV at ``args.out``, then its sidecar manifest.

    Returns the sidecar's path, ``<name>.manifest.json``.  Before anything is
    opened, a sidecar that already exists as a regular file must record an
    ``out`` of this output's basename: the manifest of another output with the
    same stem (``s.csv`` beside ``s.txt``) is never replaced.  If a write fails,
    the regular files this call opened are removed before the error propagates,
    so a failed command leaves no output; a file it never opened is left alone.
    """
    man_path = os.path.splitext(args.out)[0] + ".manifest.json"
    if os.path.isfile(man_path):
        with open(man_path, "rb") as fh:
            try:
                owner = json.load(fh)["parameters"]["out"]
            except (ValueError, LookupError, TypeError):
                owner = None
        if not isinstance(owner, str) or os.path.basename(owner) != os.path.basename(args.out):
            raise FileExistsError(f"{man_path} is not the manifest of {args.out}; "
                                  "not overwriting it")
    # Integer columns print as integers, every other column as a float that round-trips.
    cells = [list(map(str if col.dtype.kind == "i" else _fmt, col.tolist())) for col in columns]
    opened = []
    try:
        with open(args.out, "w", newline="\n") as fh:
            opened.append(args.out)
            fh.write(",".join(header) + "\n")
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))
        with open(man_path, "w", newline="\n") as fh:
            opened.append(man_path)
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except BaseException:
        for path in opened:
            with contextlib.suppress(OSError):
                if stat.S_ISREG(os.lstat(path).st_mode):  # never a device or a link
                    os.remove(path)
        raise
    return man_path


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
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
    lines = []
    if args.mode == "exact":
        if args.shots is not None:
            raise ValueError("exact mode takes no --shots")
        e_values = correlation(pair_probabilities(settings)).tolist()
        s = chsh_combination(e_values)
        payload = {"e_values": e_values, "s": s}
        seed = None
    else:
        if args.shots is None:
            raise ValueError("montecarlo mode requires --shots")
        seed = _rng_seed(args)
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
    payload["manifest"] = _manifest(args, seed)
    _emit(args, payload, lines)
    return 0


def cmd_sweep(args) -> int:
    seed = _rng_seed(args) if args.shots > 0 else None
    n = args.points
    grid = [-math.pi + 2 * math.pi * k / n for k in range(n)]
    table = sweep(args.chi_b, grid, args.shots, seed)
    with_counts = table.counts is not None

    header = ["chi_A_rad", "chi_B_rad", "p_pp", "p_pm", "p_mp", "p_mm"]
    columns = [table.chi_a, np.full(n, table.chi_b), *table.probabilities.T]
    if with_counts:
        header += ["n_pp", "n_pm", "n_mp", "n_mm"]
        columns += list(table.counts.T)
    header += ["e_exact"]
    columns.append(table.e_exact)
    if with_counts:
        header += ["e_est"]
        columns.append(table.e_estimated)
    manifest = _manifest(args, seed)
    manifest["circle_rows"] = np.flatnonzero(table.is_circle).tolist()
    man_path = _write_outputs(args, header, columns, manifest)
    print(f"wrote {len(table)} rows to {args.out} (manifest: {man_path})")
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
        "manifest": _manifest(args, None),
    }
    _emit(args, payload, lines)
    return 0


def cmd_field(args) -> int:
    spec = QPlateSpec(args.q, args.alpha0)
    n_r, n_phi = args.n_r, args.n_phi
    if n_r < 1 or n_phi < 1:
        raise ValueError("grid must have at least one sample per axis")
    r = np.arange(1, n_r + 1) / n_r
    phi = 2 * math.pi * np.arange(n_phi) / n_phi
    # One row per (r, phi), phi fastest; the pattern is the same at every radius.
    columns = [np.repeat(r, n_phi), np.tile(phi, n_r), np.tile(spec.axis_angle(phi), n_r)]
    order = symmetry_order(spec.q)
    manifest = _manifest(args, None)
    manifest["symmetry_order"] = order
    manifest["rotationally_invariant"] = order is None
    man_path = _write_outputs(args, ["r", "phi", "alpha"], columns, manifest)
    desc = "rotationally invariant" if order is None else f"{order}-fold symmetric"
    print(f"wrote axis pattern ({desc}) to {args.out} (manifest: {man_path})")
    return 0


def cmd_run(args) -> int:
    # Imported here, so that the commands that run no bench never load the DSL or hashlib.
    import hashlib

    from .benchdsl import BenchError, compile_bench, parse

    with open(args.bench, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{args.bench}: line {line} is not UTF-8 "
                         f"(byte {data[exc.start]:#04x})") from None
    result = compile_bench(parse(text)).run()
    if result.bob is None:
        raise BenchError("bench has no herald stage; nothing to analyze")
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
    # The optical chain measures what the kernel reports only on the q-plate span.
    bob = result.bob
    off_span = 1.0 - abs(bob.amplitude("L", -m)) ** 2 - abs(bob.amplitude("R", m)) ** 2
    if off_span > LOST_WEIGHT_TOL:
        warnings.warn(f"weight {off_span:.3g} lies off the q-plate output span |L,-{m}>, "
                      f"|R,+{m}>, where the optical-chain analyzer measures other probabilities")
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
        "off_span_weight": off_span,
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
    payload["manifest"] = _manifest(args, seed, analyzer_m=m)
    payload["manifest"].update(m_max=result.bob.m_max,
                               bench_sha256=hashlib.sha256(data).hexdigest())
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


def _bench_errors() -> tuple:
    """The bench DSL's error class once ``run`` has loaded it; no other command does."""
    dsl = sys.modules.get(f"{__package__}.benchdsl")
    return (dsl.BenchError,) if dsl else ()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)  # other categories keep their filters
        try:
            if hasattr(args, "seed"):  # checked whether or not the command draws
                RngSeed(0 if args.seed is None else args.seed, getattr(args, "stream", 0))
            code = args.func(args)
        except _bench_errors() as exc:  # evaluated only once an exception is raised
            print(exc, file=sys.stderr)
            return 2
        except (LostWeightError, TruncationError) as exc:
            print(f"numeric contract violation: {exc}", file=sys.stderr)
            return 3
        except (ValueError, OSError, MemoryError) as exc:
            message = "out of memory" if isinstance(exc, MemoryError) and not str(exc) else exc
            print(f"spinorbit: error: {message}", file=sys.stderr)
            return 1
    if code == 0:  # a failed command prints its one error line and nothing else
        for warning in caught:
            print(f"spinorbit: warning: {warning.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
