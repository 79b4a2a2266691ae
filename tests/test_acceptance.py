"""Acceptance suite: one test per shipping criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.
"""

import math
import os

import numpy as np
from oracles import basis_index, basis_labels

from spinorbit.benchdsl import compile_bench, parse, serialize
from spinorbit.chsh import (
    CIRCLE_SETTINGS,
    TSIRELSON_SETTINGS,
    ChshSettings,
    RngSeed,
    chsh_combination,
    chsh_monte_carlo,
    nchv_max_S,
    pair_probabilities,
    sweep,
)
from spinorbit.elements import (
    QPlateSpec,
    dove_pair_op,
    qplate_op,
    waveplate_op,
)
from spinorbit.experiment import (
    correlation,
    herald,
    interferometer_detect,
    joint_probabilities,
    prepare_hybrid,
    spin_orbit_bell_state,
)
from spinorbit.qstate import PhotonState

SQRT2 = math.sqrt(2.0)
FIG2_PATH = os.path.join(os.path.dirname(__file__), "..", "benches", "fig2.bench")


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} [{verdict}] {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_01_exact_chsh():
    bell = spin_orbit_bell_state()
    s = chsh_combination(correlation(pair_probabilities(TSIRELSON_SETTINGS, bell)))
    err = abs(s - 2 * SQRT2)
    report(1, "exact CHSH S = 2*sqrt(2) at the stated settings", err <= 1e-12,
           f"S={float(s)!r}, |err|={err:.2e}")


def test_criterion_02_correlation_law():
    bell = spin_orbit_bell_state()
    grid = np.linspace(-math.pi, math.pi, 32, endpoint=False)
    a, b = grid[:, None], grid[None, :]
    worst = float(np.max(np.abs(correlation(joint_probabilities(bell, a, b)) - np.sin(a + b))))
    report(2, "E(chi_A, chi_B) = sin(chi_A + chi_B) on a 32x32 grid",
           worst <= 1e-12, f"max|err|={worst:.2e}")


def test_criterion_03_qplate_mapping_and_unitarity():
    op = qplate_op(QPlateSpec(1, 0.0), 4)
    left = op.matrix[:, basis_index("L", 0, 4)]
    right = op.matrix[:, basis_index("R", 0, 4)]
    expected_l = np.zeros(18, dtype=complex)
    expected_l[basis_index("R", 2, 4)] = 1.0
    expected_r = np.zeros(18, dtype=complex)
    expected_r[basis_index("L", -2, 4)] = 1.0
    mapping_ok = np.array_equal(left, expected_l) and np.array_equal(
        right, expected_r
    )

    unit_dev = 0.0
    sub = [i for i, (_, m) in enumerate(basis_labels(4)) if abs(m) <= 2]
    block = op.matrix[:, sub]
    unit_dev = max(
        unit_dev, float(np.max(np.abs(block.conj().T @ block - np.eye(len(sub)))))
    )
    for element in (
        waveplate_op("qwp", math.pi / 4),
        waveplate_op("qwp", -math.pi / 4),
        waveplate_op("hwp", 0.0),
        waveplate_op("hwp", math.radians(22.5)),
        dove_pair_op(math.radians(22.5), 4),
    ):
        dev = float(
            np.max(
                np.abs(
                    element.matrix.conj().T @ element.matrix
                    - np.eye(len(element.matrix))
                )
            )
        )
        unit_dev = max(unit_dev, dev)
    report(3, "q-plate maps |L,0>->|R,+2>, |R,0>->|L,-2>; elements unitary",
           mapping_ok and unit_dev <= 1e-12, f"max unitarity dev={unit_dev:.2e}")


def test_criterion_04_state_preparation():
    hybrid = prepare_hybrid()
    amp = math.sqrt(0.5)
    dev = max(
        abs(hybrid.amplitude("L", "L", -2) - amp),
        abs(hybrid.amplitude("R", "R", 2) - amp),
        abs(hybrid.amplitude("L", "R", 2)),
        abs(hybrid.amplitude("R", "L", -2)),
        abs(hybrid.amplitude("L", "L", 0)),
    )
    outcome = herald(hybrid)
    herald_dev = abs(outcome.probability - 0.5)
    bob_dev = max(
        abs(outcome.state.amplitude("L", -2) - amp),
        abs(outcome.state.amplitude("R", 2) - amp),
    )
    ok = dev <= 1e-12 and herald_dev <= 1e-12 and bob_dev <= 1e-12
    report(4, "hybrid preparation and herald reproduce the Bell state at p=0.5",
           ok, f"amp dev={max(dev, bob_dev):.2e}, herald dev={herald_dev:.2e}")


def test_criterion_05_pipeline_equivalence():
    bell = spin_orbit_bell_state()
    grid = np.linspace(-math.pi / 2, math.pi / 2, 16)
    alpha, beta = grid[:, None], grid[None, :]
    detected = interferometer_detect(bell, alpha, beta)
    shortcut = joint_probabilities(bell, 4 * alpha, 2 * beta)
    worst = float(np.max(np.abs(detected - shortcut)))
    report(5, "optical chain matches the projector shortcut on a 16x16 grid",
           worst <= 1e-10, f"max|err|={worst:.2e}")


def test_criterion_06_noncontextual_bound():
    settings_ok = nchv_max_S(TSIRELSON_SETTINGS).max_s == 2.0
    rng = np.random.default_rng(2024)
    random_ok = all(
        nchv_max_S(ChshSettings(*rng.uniform(-math.pi, math.pi, 4))).max_s == 2.0
        and nchv_max_S(ChshSettings(*rng.uniform(-math.pi, math.pi, 4))).min_s
        == -2.0
        for _ in range(100)
    )
    bell = spin_orbit_bell_state()
    quantum = chsh_combination(correlation(pair_probabilities(TSIRELSON_SETTINGS, bell)))
    gap_err = abs((quantum - 2.0) - (2 * SQRT2 - 2))
    report(6, "16-assignment bound |S| <= 2; quantum gap = 2*sqrt(2) - 2",
           settings_ok and random_ok and gap_err <= 1e-12,
           f"gap err={gap_err:.2e}")


def test_criterion_07_monte_carlo_consistency():
    shots = 10**6
    result = chsh_monte_carlo(TSIRELSON_SETTINGS, shots, RngSeed(42))
    close = abs(result.s_estimate - 2 * SQRT2) <= 5 * result.standard_error
    se_ok = abs(result.standard_error - math.sqrt(2.0 / shots)) <= 2e-4
    again = chsh_monte_carlo(TSIRELSON_SETTINGS, shots, RngSeed(42))
    reproducible = result.counts == again.counts
    report(7, "10^6-shot CHSH within 5 SE of 2*sqrt(2); seeds reproduce counts",
           close and se_ok and reproducible,
           f"S={result.s_estimate:.6f}, SE={result.standard_error:.6f}")


def test_criterion_08_sweep_reproduction():
    grid = np.linspace(-math.pi, math.pi, 64, endpoint=False)
    worst = 0.0
    for chi_b in (math.pi / 4, -math.pi / 4):
        for row in sweep(chi_b, grid, shots=0, seed=RngSeed(0)):
            s = math.sin(row.chi_a + row.chi_b)
            expected = ((1 + s) / 4, (1 - s) / 4, (1 - s) / 4, (1 + s) / 4)
            worst = max(
                worst,
                max(abs(p - e) for p, e in zip(row.probabilities, expected)),
            )
    bell = spin_orbit_bell_state()
    circle_dev = max(
        abs(abs(correlation(joint_probabilities(bell, a, b))) - SQRT2 / 2)
        for a, b in CIRCLE_SETTINGS
    )
    report(8, "sweep curves equal (1 +- sin)/4; circle settings give |E|=sqrt(2)/2",
           worst <= 1e-12 and circle_dev <= 1e-12,
           f"curve err={worst:.2e}, circle err={circle_dev:.2e}")


def test_criterion_09_zero_oam_null_test():
    state = PhotonState.basis_state("L", 0, 2)
    reference = interferometer_detect(state, 0.0, 0.37)
    probs = interferometer_detect(state, np.linspace(-math.pi, math.pi, 33), 0.37)
    worst = float(np.max(np.abs(probs - reference)))
    report(9, "zero-OAM input leaves detectors independent of prism rotation",
           worst <= 1e-12, f"max|dev|={worst:.2e}")


def test_criterion_10_dsl_round_trip_and_full_stack():
    from test_benchdsl import random_bench

    rng = np.random.default_rng(7)
    round_trip_ok = all(
        parse(serialize(ast)) == ast for ast in (random_bench(rng) for _ in range(50))
    )

    with open(FIG2_PATH) as fh:
        ast = parse(fh.read())
    result = compile_bench(ast).run()
    grid = np.linspace(-math.pi, math.pi, 16, endpoint=False)
    a, b = grid[:, None], grid[None, :]
    worst = float(np.max(np.abs(correlation(joint_probabilities(result.bob, a, b))
                                - np.sin(a + b))))
    report(10, "50 benches round-trip; fig2 bench satisfies the sine law",
           round_trip_ok and worst <= 1e-12, f"law err={worst:.2e}")
