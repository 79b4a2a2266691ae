"""spinorbit benchmark: one workload per run, closed loop, one client, one thread.

Usage (from the root of a spinorbit checkout):

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads: sweep-sampled, bench-cascade, optical-chain, cli-cold (see
README.md for what each stresses and why).  An op starts only after the
previous one has finished and been checked; the loop runs whole cycles of the
workload's input variants until --seconds have passed.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` wraps the package's public functions
and reports the per-layer metrics instead.  ``all`` runs every workload
untraced and traced, in child processes, and prints one table.  Op and
set-up times are also reported scaled by a reference task timed next to
them, which cancels the host's drifting speed (see README.md).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; details (environment, digest, tail percentile, layer
breakdown) go to .perfbench_out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sweep-sampled", "bench-cascade", "optical-chain", "cli-cold")
REQUIRED = ("src/spinorbit/__init__.py", "benches/fig2.bench")
SETUP_PROBES = 7
SCALING_M = (4, 16, 64, 256)
CLI_PROBE_CYCLES = 2
REGISTERED = ("setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb")  # see BENCHMARK.json
LAYERS = ("qstate", "elements", "experiment", "chsh", "benchdsl", "cli")
CHILD_TIMEOUT_S = 170


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    k = n - 11
    return s[k], 100.0 * (k + 1) / n


def environment() -> dict:
    import numpy

    def sysconf(code: int):
        try:  # glibc _SC_LEVEL2_CACHE_SIZE = 191, _SC_LEVEL3_CACHE_SIZE = 194
            return os.sysconf(code) or None
        except (ValueError, OSError):
            return None

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    dim = 2 * (2 * 256 + 1)  # bench-cascade's dense state dimension at m_max=256
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": sysconf(191),
        "l3_bytes": sysconf(194),
        "bench_cascade_dense_op_bytes": dim * dim * 16,
        "bench_cascade_state_bytes": 2 * dim * 16,
    }


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_loop(wl, seconds: float, tracer=None) -> dict:
    """Closed loop over whole cycles of the workload's variants; gates every op.

    The workload's reference is timed before every ``reference_every`` ops
    and once after the loop.  Each op is also reported scaled by
    reference_nominal_s over the mean of the two reference times around it.
    """
    from tracing import ROOT_SPAN

    raw, refs, passed, errors = [], [], [], []
    digest = hashlib.sha256()
    i = 0
    deadline = time.perf_counter() + seconds
    while True:
        v = i % wl.variants
        if i % wl.reference_every == 0:
            refs.append(timed(wl.reference))
        err = None
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(v)
            else:
                with tracer.span(ROOT_SPAN):
                    out = wl.run(v)
        except Exception as exc:  # a failed op is counted, never fatal
            err = f"op {i}: {exc!r}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.op_id = -1
        ok = False
        if err is None:
            try:
                ok = bool(wl.check(v, out))
                if i < wl.variants:
                    digest.update(wl.digest(v, out))
            except Exception as exc:  # an output the gate cannot read fails the op
                err = f"op {i} gate: {exc!r}"
        raw.append(t1 - t0)
        passed.append(ok)
        if not ok:
            errors.append(err or f"op {i} (variant {v}): gate failed")
        i += 1
        if i % wl.variants == 0 and time.perf_counter() >= deadline:
            break
    refs.append(timed(wl.reference))
    scaled = [t * 2 * wl.reference_nominal_s / (refs[k // wl.reference_every]
                                                 + refs[k // wl.reference_every + 1])
              for k, t in enumerate(raw)]
    return {"attempted": i, "failed": i - sum(passed),
            "digest": digest.hexdigest(), "errors": errors[:5],
            "raw": raw, "scaled": scaled, "passed": passed,
            "reference_ms": [r * 1e3 for r in refs]}


def e2e_lines(e2e: dict) -> list[str]:
    """One line per end-to-end metric: name, scaled value, unit, and the rest."""
    lines = []
    for name, m in e2e.items():
        extra = f"  unscaled {m['unscaled']:.6g}" if "unscaled" in m else ""
        if "percentile" in m:
            extra += f"  (p{m['percentile']:.1f} of {m['samples']} ops)"
        lines.append(f"{name:<12} {m['value']:>12.6g} {m['unit']:<5}{extra}")
    return lines


def op_stats(times: list[float], passed: list[bool]) -> dict:
    """Rate, median and tail of one series of op times (seconds)."""
    ok = [t for t, p in zip(times, passed) if p] or times
    tail_s, tail_pct = tail(ok)
    return {"ops_per_s": sum(passed) / sum(times), "op_p50_ms": statistics.median(ok) * 1e3,
            "op_tail_ms": tail_s * 1e3, "tail_percentile": tail_pct, "samples": len(ok)}


def measure_setup(name: str, seed: int, env: dict) -> dict:
    """Fresh interpreter -> import spinorbit -> inputs built, several times.

    Each probe follows a fresh-interpreter reference, by which it is scaled.
    """
    from workloads import CliCold

    cmd = [sys.executable, str(PERFBENCH / "workloads.py"), name, str(seed)]
    raw, scaled = [], []
    for k in range(SETUP_PROBES + 1):
        speed = CliCold.reference_nominal_s / timed(CliCold.reference)
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        if k:  # the first probe only fills bytecode caches
            raw.append(float(proc.stdout.split()[-1]) - t0)
            scaled.append(raw[-1] * speed)
    return {"raw_s": raw, "scaled_s": scaled}


def time_us(fn, budget_s: float = 0.1, max_reps: int = 1000) -> float:
    samples = []
    spent = 0.0
    while len(samples) < 5 or (spent < budget_s and len(samples) < max_reps):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        samples.append(dt)
        spent += dt
    return statistics.median(samples) * 1e6


def scaling_rows() -> dict:
    """Single calls against m_max, untraced: the per-layer scaling rows."""
    from spinorbit import elements, experiment, qstate

    rows = {}
    spec = elements.QPlateSpec(1)
    for m in SCALING_M:
        state = experiment.prepare_hybrid(m_max=m)
        op = elements.qplate_op(spec, m)
        bob = experiment.herald(state).state
        rows[f"elements.qplate_op.us_at_m{m}"] = time_us(lambda: elements.qplate_op(spec, m))
        rows[f"elements.dove_pair_op.us_at_m{m}"] = time_us(lambda: elements.dove_pair_op(0.3, m))
        rows[f"qstate.apply_bob.us_at_m{m}"] = time_us(lambda: qstate.apply_bob(op, state))
        rows[f"experiment.joint_probabilities.us_at_m{m}"] = time_us(
            lambda: experiment.joint_probabilities(bob, 0.3, 0.2))
    return rows


def cli_stats(tracer, labels) -> dict:
    """Medians over CLI ops traced through clishim.py: import and main per subcommand."""
    a = tracer.arrays()
    dur_ms = (a["end"] - a["start"]) * 1e3
    names = list(a["names"])
    out = {"import_ms": [], "main_ms": {label: [] for label in labels}}
    for idx in range(len(dur_ms)):
        name = names[a["name_id"][idx]]
        if a["op"][idx] < 0:
            continue
        if name == "cli.import":
            out["import_ms"].append(dur_ms[idx])
        elif name == "cli.main":
            out["main_ms"][labels[a["op"][idx] % len(labels)]].append(dur_ms[idx])
    med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    return {"import_ms": med(out["import_ms"]),
            "main_ms": {k: med(v) for k, v in out["main_ms"].items()}}


def cli_probe(workloads, tracing, seed: int):
    """Two cycles of the cli-cold commands through the traced shim."""
    tracer = tracing.Tracer()
    wl = workloads.CliCold(seed, tracer)
    for i in range(CLI_PROBE_CYCLES * wl.variants):
        tracer.op_id = i
        with tracer.span(tracing.ROOT_SPAN):
            wl.run(i % wl.variants)
    tracer.op_id = -1
    return tracer, wl


def layer_metrics(summ: dict, scaling: dict, cli: dict, exit_nonzero: int,
                  ops_per_s: float, tracing) -> dict:
    calls, busy, self_ms, nbytes = (summ["calls"], summ["busy_ms"], summ["self_ms"],
                                    summ["bytes"])
    g = lambda d, key: d.get(key, 0.0)  # noqa: E731  (a function no op called)
    m = {"trace.ops_per_s": metric(ops_per_s, "1/s")}
    for layer in LAYERS + ("harness",):
        m[f"{layer}.self_ms"] = metric(g(summ["layer_self_ms"], layer), "ms")
    for fn in ("apply", "apply_bob"):
        m[f"qstate.{fn}.calls"] = metric(g(calls, f"qstate.{fn}"), "count")
        m[f"qstate.{fn}.busy_ms"] = metric(g(busy, f"qstate.{fn}"), "ms")
    m["qstate.project.busy_ms"] = metric(g(busy, "qstate.project"), "ms")
    m["qstate.op_bytes"] = metric(sum(g(nbytes, n) for n in tracing.APPLIES), "bytes")
    m["elements.build.calls"] = metric(sum(g(calls, n) for n in tracing.ELEMENT_CONSTRUCTORS), "count")
    m["elements.build.busy_ms"] = metric(sum(g(busy, n) for n in tracing.ELEMENT_CONSTRUCTORS), "ms")
    m["elements.build.bytes"] = metric(sum(g(nbytes, n) for n in tracing.ELEMENT_CONSTRUCTORS), "bytes")
    for fn in ("qplate_op", "dove_pair_op", "waveplate_op"):
        m[f"elements.{fn}.busy_ms"] = metric(g(busy, f"elements.{fn}"), "ms")
    m["experiment.joint_probabilities.calls"] = metric(
        g(calls, "experiment.joint_probabilities"), "count")
    m["experiment.joint_probabilities.busy_ms"] = metric(
        g(busy, "experiment.joint_probabilities"), "ms")
    m["experiment.interferometer_detect.busy_ms"] = metric(
        g(busy, "experiment.interferometer_detect"), "ms")
    m["experiment.interferometer_detect.self_ms"] = metric(
        g(self_ms, "experiment.interferometer_detect"), "ms")
    m["experiment.herald.busy_ms"] = metric(g(busy, "experiment.herald"), "ms")
    m["chsh.sweep.self_ms"] = metric(g(self_ms, "chsh.sweep"), "ms")
    for fn in ("sample_counts", "rng_generator"):
        m[f"chsh.{fn}.calls"] = metric(g(calls, f"chsh.{fn}"), "count")
        m[f"chsh.{fn}.busy_ms"] = metric(g(busy, f"chsh.{fn}"), "ms")
    for fn in ("parse", "compile_bench", "run"):
        m[f"benchdsl.{fn}.busy_ms"] = metric(g(busy, f"benchdsl.{fn}"), "ms")
    m["benchdsl.run.self_ms"] = metric(g(self_ms, "benchdsl.run"), "ms")
    m["cli.import_ms"] = metric(cli["import_ms"], "ms")
    for label, value in cli["main_ms"].items():
        m[f"cli.main.{label}.busy_ms"] = metric(value, "ms")
    m["cli.exit_nonzero"] = metric(exit_nonzero, "count")
    for key, value in scaling.items():
        m[key] = metric(value, "us")
    return m


def run_one(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]
    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    traced = args.trace == 1
    tracer = tracing.Tracer() if traced else None
    wl = workloads.make(args.workload, args.seed, tracer)
    is_cli = args.workload == "cli-cold"
    try:
        wl.run(0)  # warm-up, untimed: bytecode caches, lazy imports, allocator
    except Exception:  # the timed loop counts this failure if it repeats
        pass
    if traced:
        tracer.install()
    loop = run_loop(wl, args.seconds, tracer)
    scaled = op_stats(loop["scaled"], loop["passed"])
    raw = op_stats(loop["raw"], loop["passed"])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "attempted": loop["attempted"], "failed": loop["failed"],
        "error_rate": loop["failed"] / loop["attempted"],
        "digest": loop["digest"], "errors": loop["errors"],
        "scaled": scaled, "raw": raw, "reference_ms": loop["reference_ms"],
        "op_ms": {"raw": [t * 1e3 for t in loop["raw"]],
                  "scaled": [t * 1e3 for t in loop["scaled"]]},
    }
    if traced:
        tracer.uninstall()
        summ = tracer.summary()
        if is_cli:
            cli, exit_nonzero = cli_stats(tracer, wl.labels), wl.exit_nonzero
        else:
            probe, probe_wl = cli_probe(workloads, tracing, args.seed)
            probe_wl.cleanup()
            cli, exit_nonzero = cli_stats(probe, probe_wl.labels), probe_wl.exit_nonzero
        metrics = layer_metrics(summ, scaling_rows(), cli, exit_nonzero,
                                scaled["ops_per_s"], tracing)
        op_ms = summ["busy_ms"].get(tracing.ROOT_SPAN, 0.0)
        report["layer_share"] = {k: v / op_ms for k, v in
                                 sorted(summ["layer_self_ms"].items(), key=lambda kv: -kv[1])}
        report["untraced_functions"] = tracer.missing
        spans_path = OUT_DIR / f"spans-{args.workload}.npz"
        import numpy

        numpy.savez(spans_path, **tracer.arrays())
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        rusage = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
        peak_mb = resource.getrusage(rusage).ru_maxrss / 1024
        setup = measure_setup(args.workload, args.seed, workloads.child_env())
        report["setup"] = setup
        e2e = {
            "setup_s": {"value": statistics.median(setup["scaled_s"]),
                        "unscaled": statistics.median(setup["raw_s"]), "unit": "s"},
            "ops_per_s": {"value": scaled["ops_per_s"], "unscaled": raw["ops_per_s"],
                          "unit": "1/s"},
            "op_p50_ms": {"value": scaled["op_p50_ms"], "unscaled": raw["op_p50_ms"],
                          "unit": "ms"},
            "op_tail_ms": {"value": scaled["op_tail_ms"], "unscaled": raw["op_tail_ms"],
                           "unit": "ms", "percentile": scaled["tail_percentile"],
                           "samples": scaled["samples"]},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "error_rate": {"value": report["error_rate"], "unit": "ratio"},
        }
        report["end_to_end"] = e2e
        metrics = {name: metric(e2e[name]["value"], e2e[name]["unit"]) for name in REGISTERED}
    if is_cli:
        wl.cleanup()
    report["metrics"] = metrics
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {loop['attempted']}  failed {loop['failed']}  "
          f"error_rate {report['error_rate']:.6g} ratio  digest {loop['digest'][:16]}")
    for line in e2e_lines(report.get("end_to_end", {})):
        print(line)
    for share in report.get("layer_share", {}).items():
        print(f"self-time share  {share[0]:<10} {share[1]:7.1%}")
    if traced:
        for name, m in metrics.items():
            print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    for err in loop["errors"]:
        print(f"error: {err}")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": loop["failed"] == 0, "attempted": loop["attempted"],
                      "failed": loop["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process, as one table."""
    rows, all_ok = [], True
    for name in WORKLOAD_NAMES:
        reports = []
        for trace in (0, 1):
            cmd = [sys.executable, str(PERFBENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S + 60)
            if proc.returncode != 0:
                print(f"{name} trace={trace} exited {proc.returncode}:\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            all_ok = all_ok and result["correct"]
            path = OUT_DIR / f"{name}-seed{args.seed}-trace{trace}.json"
            reports.append(json.loads(path.read_text()))
        rows.append(reports)

    print(f"seed {args.seed}, {args.seconds} s per run, closed loop, 1 client; "
          "times scaled to nominal machine speed (unscaled in brackets)")
    for plain, traced in rows:
        print(f"\n{plain['workload']}")
        for line in e2e_lines(plain["end_to_end"]):
            print("  " + line)
        overhead = 1 - traced["scaled"]["ops_per_s"] / plain["scaled"]["ops_per_s"]
        print(f"  traced ops_per_s {traced['scaled']['ops_per_s']:.6g} 1/s "
              f"(tracing overhead {overhead:.1%})")
        shares = ", ".join(f"{k} {v:.0%}" for k, v in list(traced["layer_share"].items())[:4])
        print(f"  self time: {shares}")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {ROOT}; "
              "run from the root of a spinorbit checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
