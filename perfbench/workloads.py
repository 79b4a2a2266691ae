"""Workload inputs, operations and correctness gates for the spinorbit benchmark.

Each workload builds a few input variants from the seed, runs one operation
("op") on a variant at a time, checks the op's output against the physics,
and turns the output into bytes for the determinism digest.

Run as a script (``python3 perfbench/workloads.py <workload> <seed>``) it
imports spinorbit, builds that workload's inputs in a fresh interpreter and
prints the monotonic clock; run.py times set-up this way.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spinorbit import benchdsl, chsh, experiment

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
SQRT8 = 2 * math.sqrt(2)


def child_env() -> dict:
    """Environment for spinorbit subprocesses: the checkout's src, no seed override."""
    env = dict(os.environ)
    env.pop("SPINORBIT_SEED", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _floats(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


# Machine-speed references.  On a shared host the same op runs up to 40%
# slower for tens of seconds at a time when neighbours are busy.  A fixed
# piece of work of the same kind, timed next to the ops, sees the same
# slowdown, so run.py divides it out.  No reference touches spinorbit.
_REF_PHASES = np.linspace(0.0, 1.0, 18)


def interpreter_reference() -> None:
    """Small-array numpy calls driven from Python, like the in-process ops."""
    for i in range(300):
        b = np.exp(1j * _REF_PHASES * i)
        c = np.outer(b[:2], b[:2].conj())
        sum(abs(complex(x)) for x in (c @ c).reshape(-1))


def dense_reference() -> None:
    """Allocate and copy a dense m_max=256 operator, apply it twice, like bench-cascade."""
    op = np.array(np.zeros((1026, 1026), dtype=complex))
    state = np.ones((2, 1026), dtype=complex)
    for _ in range(2):
        state = state @ op.T


def fresh_interpreter_reference() -> None:
    """A fresh interpreter that imports numpy, like the start of a CLI op."""
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(),
                   capture_output=True, check=True, timeout=60)


class InProcess:
    """Ops that run in this process; a reference is timed before each.

    reference_nominal_s is about the reference's time on an idle core; it
    only sets the scale of the scaled times.
    """

    reference = staticmethod(interpreter_reference)
    reference_nominal_s = 0.004
    reference_every = 1


class SweepSampled(InProcess):
    """chsh.sweep at chi_B = pi/4 over a 1024-point chi_A grid, 10^4 shots per row.

    Lives in the analyzer and the multinomial sampler; builds no element.
    """

    name = "sweep-sampled"
    points = 1024
    shots = 10**4
    chi_b = math.pi / 4
    variants = 4

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.bob = experiment.spin_orbit_bell_state(m=2)
        self.inputs = []
        step = 2 * math.pi / self.points
        for _ in range(self.variants):
            offset = float(rng.uniform(0.0, step))
            grid = [-math.pi + offset + step * k for k in range(self.points)]
            rng_seed = chsh.RngSeed(int(rng.integers(2**63)))
            self.inputs.append((grid, rng_seed))

    def run(self, v: int):
        grid, rng_seed = self.inputs[v]
        return chsh.sweep(self.chi_b, grid, self.shots, rng_seed, bob=self.bob)

    def check(self, v: int, rows) -> bool:
        grid, _ = self.inputs[v]
        probs = np.array([r.probabilities for r in rows])
        counts = np.array([r.counts.as_tuple() for r in rows])
        s = np.sin(np.asarray(grid) + self.chi_b)
        want = np.stack([1 + s, 1 - s, 1 - s, 1 + s], axis=1) / 4
        return (len(rows) == self.points
                and bool(np.all(np.abs(probs - want) <= 1e-12))
                and bool(np.all(counts.sum(axis=1) == self.shots)))

    def digest(self, v: int, rows) -> bytes:
        probs = _floats([r.probabilities for r in rows])
        counts = np.array([r.counts.as_tuple() for r in rows], dtype=np.int64)
        return probs + counts.tobytes()


def cascade_bench(plates: int = 8) -> str:
    """Source, fiber filter, then q=1 plates with a half-wave plate and a mirror between each."""
    lines = ["source spdc", "filter smf side=bob"]
    for i in range(plates):
        if i:
            lines += ["hwp theta=0 side=bob", "mirror side=bob"]
        lines.append("qplate q=1 side=bob")
    lines.append("herald basis=H side=alice")
    return "\n".join(lines) + "\n"


class BenchCascade(InProcess):
    """Parse, compile at m_max=256, run and analyze an 8-plate cascade.

    Every dense operator is (2*(2*256+1))^2 complex values; the heralded
    state carries OAM +-16, so the analyzer infers m = 16.
    """

    name = "bench-cascade"
    reference = staticmethod(dense_reference)
    reference_nominal_s = 0.009
    m_max = 256
    variants = 4

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.text = cascade_bench()
        self.inputs = [tuple(float(x) for x in rng.uniform(-math.pi, math.pi, 2))
                       for _ in range(self.variants)]

    def run(self, v: int):
        chi_a, chi_b = self.inputs[v]
        pipeline = benchdsl.compile_bench(benchdsl.parse(self.text), m_max=self.m_max)
        result = pipeline.run()
        probs = experiment.joint_probabilities(result.bob, chi_a, chi_b, m=result.analyzer_m)
        return result.herald_probability, result.analyzer_m, probs

    def check(self, v: int, out) -> bool:
        chi_a, chi_b = self.inputs[v]
        herald_p, m, p = out
        e = p[0] + p[3] - p[1] - p[2]
        return (abs(herald_p - 0.5) <= 1e-12 and m == 16
                and abs(e - math.sin(chi_a + chi_b)) <= 1e-12)

    def digest(self, v: int, out) -> bytes:
        herald_p, m, p = out
        return _floats([herald_p, m, *p])


class OpticalChain(InProcess):
    """prepare_hybrid + herald, then the element-by-element analyzer on a 16x16 grid.

    Every (alpha, beta) point is cross-checked against the projector route
    joint_probabilities(4*alpha, 2*beta): the paper's two-route agreement.
    Thousands of tiny element constructions at m_max = 4.
    """

    name = "optical-chain"
    grid = 16
    variants = 4

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.inputs = []
        for _ in range(self.variants):
            a0 = float(rng.uniform(0.0, math.pi / 32))
            b0 = float(rng.uniform(0.0, math.pi / 16))
            # chi_A = 4*alpha and chi_B = 2*beta each cover a full turn.
            alphas = [a0 + i * math.pi / 32 for i in range(self.grid)]
            betas = [b0 + j * math.pi / 16 for j in range(self.grid)]
            self.inputs.append([(a, b) for a in alphas for b in betas])

    def run(self, v: int):
        bob = experiment.herald(experiment.prepare_hybrid()).state
        chain, proj = [], []
        for alpha, beta in self.inputs[v]:
            chain.append(experiment.interferometer_detect(bob, alpha, beta))
            proj.append(experiment.joint_probabilities(bob, 4 * alpha, 2 * beta))
        return np.array(chain), np.array(proj)

    def check(self, v: int, out) -> bool:
        chain, proj = out
        return chain.shape == (self.grid**2, 4) and bool(np.all(np.abs(chain - proj) <= 1e-10))

    def digest(self, v: int, out) -> bytes:
        chain, proj = out
        return _floats(chain) + _floats(proj)


def _value(pattern: str, text: str) -> float:
    m = re.search(pattern, text, re.MULTILINE)
    if m is None:
        raise ValueError(f"output has no match for {pattern!r}")
    return float(m.group(1))


class CliCold:
    """One ``python -m spinorbit.cli`` subprocess per op, cycling five commands.

    The only workload through argparse, manifests and file output, and the
    one where interpreter start and import time show.  With a tracer, each
    op runs through clishim.py instead, which records spans in the child.
    """

    name = "cli-cold"
    labels = ("chsh", "chsh-mc", "run", "sweep", "nchv")
    reference = staticmethod(fresh_interpreter_reference)
    reference_nominal_s = 0.15
    reference_every = len(labels)
    variants = len(labels)
    sweep_points = 64
    timeout_s = 60

    def __init__(self, seed: int, tracer=None):
        cli_seed = str(int(np.random.default_rng(seed).integers(2**31)))
        self.sweep_csv = OUT_DIR / f"cli-sweep-{os.getpid()}.csv"
        self.argvs = (
            ["chsh", "--seed", cli_seed],
            ["chsh", "--mode", "montecarlo", "--shots", "1000000", "--seed", cli_seed],
            ["run", "benches/fig2.bench", "--shots", "10000", "--seed", cli_seed],
            ["sweep", "--points", str(self.sweep_points), "--shots", "10000",
             "--out", str(self.sweep_csv), "--seed", cli_seed],
            ["nchv", "--json", "--seed", cli_seed],
        )
        self.tracer = tracer
        self.env = child_env()
        self.exit_nonzero = 0

    def run(self, v: int):
        argv = self.argvs[v]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "spinorbit.cli", *argv]
        else:
            cmd = [sys.executable, str(PERFBENCH / "clishim.py"), *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=self.timeout_s)
        rc, stdout = proc.returncode, proc.stdout
        if self.tracer is not None and rc == 0:
            shim = json.loads(stdout.strip().splitlines()[-1])
            self.tracer.add_child_spans(shim["spans"])
            rc, stdout = shim["rc"], shim["stdout"]
        self.exit_nonzero += rc != 0
        return rc, stdout

    def cleanup(self) -> None:
        for path in (self.sweep_csv, self.sweep_csv.with_suffix(".manifest.json")):
            path.unlink(missing_ok=True)

    def values(self, v: int, out) -> list[float]:
        """The numbers the gate and digest read from one command's output."""
        _, text = out
        label = self.labels[v]
        if label == "chsh":
            return [_value(r"^S = (\S+)", text)]
        if label == "chsh-mc":
            return [_value(r"^S = (\S+)", text), _value(r"^standard error = (\S+)", text)]
        if label == "run":
            counts = re.search(r"counts \(shots=\d+\): \(([^)]*)\)", text).group(1)
            return [_value(r"^herald probability = (\S+)", text),
                    _value(r"^E\([^)]*\) = (\S+)", text),
                    *(float(c) for c in counts.split(","))]
        if label == "sweep":
            rows = self.sweep_csv.read_text().splitlines()
            header = rows[0].split(",")
            cols = [header.index(c) for c in ("chi_A_rad", "chi_B_rad", "e_exact", "n_pp")]
            return [float(r.split(",")[c]) for r in rows[1:] for c in cols]
        report = json.loads(text)
        return [report["quantum_s"], report["classical_max"]]

    def check(self, v: int, out) -> bool:
        if out[0] != 0:
            return False
        vals = self.values(v, out)
        label = self.labels[v]
        if label == "chsh":
            return abs(vals[0] - SQRT8) <= 1e-12
        if label == "chsh-mc":
            return abs(vals[0] - SQRT8) <= 5 * vals[1]
        if label == "run":
            return (abs(vals[0] - 0.5) <= 1e-12
                    and abs(vals[1] - math.sin(math.pi / 2 + math.pi / 4)) <= 1e-12
                    and sum(vals[2:]) == 10000)
        if label == "sweep":
            rows = np.array(vals).reshape(-1, 4)
            return (len(rows) == self.sweep_points
                    and bool(np.all(np.abs(rows[:, 2] - np.sin(rows[:, 0] + rows[:, 1])) <= 1e-12)))
        return abs(vals[0] - SQRT8) <= 1e-12 and vals[1] == 2.0

    def digest(self, v: int, out) -> bytes:
        return _floats(self.values(v, out))


WORKLOADS = {cls.name: cls for cls in (SweepSampled, BenchCascade, OpticalChain, CliCold)}


def make(name: str, seed: int, tracer=None):
    cls = WORKLOADS[name]
    return cls(seed, tracer) if cls is CliCold else cls(seed)


if __name__ == "__main__":
    make(sys.argv[1], int(sys.argv[2]))
    print(repr(time.monotonic()))
