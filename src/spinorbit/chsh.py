"""CHSH evaluation: exact correlations, shot-noise counts, and the classical bound.

The CHSH combination used throughout is

    S = E(chi_A, chi_B) + E(chi_A, chi_B') - E(chi_A', chi_B) + E(chi_A', chi_B')

with the single minus on the (chi_A', chi_B) term.  For the heralded
spin-orbit Bell state E = sin(chi_A + chi_B), so the settings
(pi/2, -pi, pi/4, -pi/4) reach S = 2*sqrt(2), while every deterministic
noncontextual assignment of +-1 outcomes is capped at |S| <= 2
(:func:`nchv_max_S` checks this by exhausting all 16 assignments).

Counting statistics are multinomial draws from the exact four-outcome
probabilities, reproducible bit for bit from an explicit (seed, stream)
pair; the generator identity is recorded in :data:`GENERATOR_ID`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .experiment import correlation, joint_probabilities, spin_orbit_bell_state
from .qstate import PhotonState

GENERATOR_ID = (
    "numpy.random.Generator(PCG64), seeded via "
    "SeedSequence(entropy=seed, spawn_key=(stream, ...))"
)

#: The four (chi_A, chi_B) pairs at which |E| = sqrt(2)/2 and S peaks at 2*sqrt(2).
CIRCLE_SETTINGS: tuple[tuple[float, float], ...] = (
    (math.pi / 2, math.pi / 4),
    (math.pi / 2, -math.pi / 4),
    (-math.pi, math.pi / 4),
    (-math.pi, -math.pi / 4),
)


@dataclass(frozen=True)
class ChshSettings:
    """The four analyzer phases entering S."""

    chi_a: float
    chi_a_prime: float
    chi_b: float
    chi_b_prime: float

    def __post_init__(self):
        for v in (self.chi_a, self.chi_a_prime, self.chi_b, self.chi_b_prime):
            if not math.isfinite(v):
                raise ValueError("all CHSH settings must be finite")

    def pairs(self) -> tuple[tuple[float, float], ...]:
        """Setting pairs in S order: (a,b), (a,b'), (a',b), (a',b')."""
        return (
            (self.chi_a, self.chi_b),
            (self.chi_a, self.chi_b_prime),
            (self.chi_a_prime, self.chi_b),
            (self.chi_a_prime, self.chi_b_prime),
        )


#: Settings at which the heralded state's sine-law correlations reach 2*sqrt(2).
TSIRELSON_SETTINGS = ChshSettings(math.pi / 2, -math.pi, math.pi / 4, -math.pi / 4)


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts for the four detector-port pairs."""

    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int

    def __post_init__(self):
        for n in self.as_tuple():
            if n < 0:
                raise ValueError("counts must be non-negative")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n_pp, self.n_pm, self.n_mp, self.n_mm)

    @property
    def total(self) -> int:
        return sum(self.as_tuple())


@dataclass(frozen=True)
class RngSeed:
    """Seed plus stream index for reproducible, parallel-safe sampling.

    Identical (seed, stream) values reproduce identical draws bit for bit;
    distinct streams are statistically independent.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.stream < 0:
            raise ValueError("stream index must be non-negative")

    def generator(self, *lanes: int) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream, *lanes)
        )
        return np.random.default_rng(ss)

    def substream(self, offset: int) -> "RngSeed":
        return RngSeed(self.seed, self.stream + offset)


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a phase sweep: exact probabilities plus sampled counts."""

    chi_a: float
    chi_b: float
    probabilities: tuple[float, float, float, float]
    counts: CountRecord | None
    e_exact: float
    e_estimated: float | None
    is_circle: bool


@dataclass(frozen=True)
class NchvResult:
    """Extremal S over deterministic noncontextual assignments."""

    max_s: float
    min_s: float
    argmax: dict[str, int]


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo CHSH estimate with its standard error."""

    s_estimate: float
    standard_error: float
    e_estimates: tuple[float, float, float, float]
    counts: tuple[CountRecord, CountRecord, CountRecord, CountRecord]


def chsh_combination(e_values: Sequence[float]) -> float:
    """S = E1 + E2 - E3 + E4 from correlations in :meth:`ChshSettings.pairs` order."""
    return e_values[0] + e_values[1] - e_values[2] + e_values[3]


def chsh_S(settings: ChshSettings, e_func: Callable[[float, float], float]) -> float:
    """Evaluate S from a correlation function over setting pairs."""
    return chsh_combination([e_func(a, b) for a, b in settings.pairs()])


def pair_probabilities(
    settings: ChshSettings, bob: PhotonState | None = None, m: int = 2
) -> np.ndarray:
    """Joint probabilities at the four setting pairs, shape (4, 4), in S order.

    One analyzer call; ``bob`` defaults to the heralded Bell state of charge m.
    """
    if bob is None:
        bob = spin_orbit_bell_state(m=m)
    chi_a, chi_b = zip(*settings.pairs())
    return joint_probabilities(bob, chi_a, chi_b, m=m)


def estimate_E(counts: CountRecord) -> float:
    """Count-ratio correlation estimate.

    (n_pp + n_mm - n_pm - n_mp) / total; always within [-1, 1].
    """
    total = counts.total
    if total <= 0:
        raise ValueError("cannot estimate a correlation from zero counts")
    return correlation(counts.as_tuple()) / total


def sample_counts(
    probs: Sequence[float], shots: int, seed: RngSeed
) -> CountRecord:
    """Multinomial draw of ``shots`` coincidences over the four outcomes."""
    p = np.asarray(probs, dtype=float)
    if p.shape != (4,):
        raise ValueError("expected exactly four outcome probabilities")
    if np.any(p < -1e-12):
        raise ValueError("probabilities must be non-negative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {p.sum()}")
    if shots < 1:
        raise ValueError("shots must be at least 1")
    p = np.clip(p, 0.0, None)
    draw = seed.generator().multinomial(shots, p / p.sum())
    return CountRecord(*(int(n) for n in draw))


_ASSIGNMENT_KEYS = ("a", "a_prime", "b", "b_prime")


def enumerate_assignments() -> list[tuple[float, dict[str, int]]]:
    """All 16 deterministic +-1 assignments with their S values.

    A noncontextual assignment fixes one outcome per setting, so
    E(x, y) = a(x) * b(y) and S = a*b + a*b' - a'*b + a'*b'.  The value of
    S never depends on the numeric settings, only on the four signs.
    """
    rows = []
    for signs in product((+1, -1), repeat=4):
        a, ap, b, bp = signs
        s = chsh_combination((a * b, a * bp, ap * b, ap * bp))
        rows.append((float(s), dict(zip(_ASSIGNMENT_KEYS, signs))))
    return rows


def nchv_max_S(settings: ChshSettings | None = None) -> NchvResult:
    """Brute-force noncontextual bound: max S = 2 for every settings choice.

    ``settings`` is accepted for interface symmetry with the quantum
    evaluation; deterministic assignments make the bound independent of it.
    """
    del settings
    rows = enumerate_assignments()
    max_s, argmax = max(rows, key=lambda r: r[0])
    min_s = min(s for s, _ in rows)
    return NchvResult(max_s=max_s, min_s=min_s, argmax=argmax)


def _is_circle(chi_a: float, chi_b: float, tol: float = 1e-12) -> bool:
    return any(
        abs(chi_a - ca) <= tol and abs(chi_b - cb) <= tol
        for ca, cb in CIRCLE_SETTINGS
    )


def sweep(
    chi_b: float,
    chi_a_grid: Sequence[float],
    shots: int,
    seed: RngSeed,
    bob: PhotonState | None = None,
    m: int = 2,
) -> list[SweepRow]:
    """Scan chi_A at fixed chi_B: exact probabilities, counts, both E values.

    One analyzer call covers the whole grid.  Each row samples from its own
    RNG substream (stream + row index), so rows are reproducible
    independently of evaluation order.  ``shots = 0`` skips sampling and
    leaves the count fields empty.
    """
    if len(chi_a_grid) == 0:
        raise ValueError("chi_A grid must not be empty")
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if bob is None:
        bob = spin_orbit_bell_state(m=m)
    grid_probs = joint_probabilities(bob, chi_a_grid, chi_b, m=m)
    grid_e = correlation(grid_probs)
    rows = []
    for idx, chi_a in enumerate(chi_a_grid):
        probs = tuple(grid_probs[idx].tolist())
        counts = None
        e_est = None
        if shots > 0:
            counts = sample_counts(probs, shots, seed.substream(idx))
            e_est = estimate_E(counts)
        rows.append(
            SweepRow(
                chi_a=float(chi_a),
                chi_b=float(chi_b),
                probabilities=probs,
                counts=counts,
                e_exact=float(grid_e[idx]),
                e_estimated=e_est,
                is_circle=_is_circle(chi_a, chi_b),
            )
        )
    return rows


def chsh_monte_carlo(
    settings: ChshSettings,
    shots_per_setting: int,
    seed: RngSeed,
    bob: PhotonState | None = None,
    m: int = 2,
) -> McEstimate:
    """Estimate S from four independent simulated counting runs.

    The standard error treats the four runs as independent multinomials:
    SE = sqrt(sum_i (1 - E_i^2) / shots).
    """
    if shots_per_setting < 2:
        raise ValueError("need at least two shots per setting")
    counts = [
        sample_counts(probs, shots_per_setting, seed.substream(idx))
        for idx, probs in enumerate(pair_probabilities(settings, bob, m))
    ]
    e_values = [estimate_E(rec) for rec in counts]
    s_est = chsh_combination(e_values)
    variance = sum((1.0 - e * e) / shots_per_setting for e in e_values)
    return McEstimate(
        s_estimate=s_est,
        standard_error=math.sqrt(variance),
        e_estimates=tuple(e_values),  # type: ignore[arg-type]
        counts=tuple(counts),  # type: ignore[arg-type]
    )
