"""Quick self-check of the benchmark: one cycle of every workload, both modes.

Run with ``python3 -m pytest -q perfbench`` (about a minute).  It is not
part of the package's test suite, whose pytest testpaths is ``tests/``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Metrics the benchmark is specified to report: end-to-end ones in the
# details file (four of them registered), per-layer ones in the result line.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MB", "error_rate": "ratio"}
NAMED = {
    0: ["setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"],
    1: ["qstate.apply.calls", "qstate.apply.busy_ms", "qstate.apply_bob.calls",
        "qstate.apply_bob.busy_ms", "qstate.project.busy_ms", "qstate.op_bytes",
        "elements.build.calls", "elements.build.busy_ms", "elements.build.bytes",
        "elements.qplate_op.busy_ms", "elements.dove_pair_op.busy_ms",
        "elements.waveplate_op.busy_ms",
        "experiment.joint_probabilities.calls", "experiment.joint_probabilities.busy_ms",
        "experiment.interferometer_detect.busy_ms",
        "experiment.interferometer_detect.self_ms", "experiment.herald.busy_ms",
        "chsh.sweep.self_ms", "chsh.sample_counts.calls", "chsh.sample_counts.busy_ms",
        "chsh.rng_generator.calls", "chsh.rng_generator.busy_ms",
        "benchdsl.parse.busy_ms", "benchdsl.compile_bench.busy_ms",
        "benchdsl.run.busy_ms", "benchdsl.run.self_ms",
        "cli.import_ms", "cli.exit_nonzero", "trace.ops_per_s"]
       + [f"cli.main.{sub}.busy_ms" for sub in ("chsh", "chsh-mc", "run", "sweep", "nchv")]
       + [f"{fn}.us_at_m{m}" for fn in ("elements.qplate_op", "elements.dove_pair_op",
                                        "qstate.apply_bob", "experiment.joint_probabilities")
          for m in (4, 16, 64, 256)],
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_cycle_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    registered = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == registered
    assert set(NAMED[trace]) <= set(registered)
    if trace == 0:
        details = json.loads((ROOT / ".perfbench_out" /
                              f"{workload}-seed7-trace0.json").read_text())
        assert {k: m["unit"] for k, m in details["end_to_end"].items()} == END_TO_END
        assert details["error_rate"] == 0


def test_same_seed_same_digest():
    digests = []
    for _ in range(2):
        assert bench("--workload", "optical-chain", "--seed", "3", "--seconds", "0").returncode == 0
        details = ROOT / ".perfbench_out" / "optical-chain-seed3-trace0.json"
        digests.append(json.loads(details.read_text())["digest"])
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep-sampled", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
