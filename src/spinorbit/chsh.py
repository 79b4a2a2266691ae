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
pair.  A sampled block of rows draws row k from its own generator on the
(stream, first_row + k) lane, so distinct streams never share a draw and
any one row can be reproduced on its own; the generator identity is
recorded in :data:`GENERATOR_ID`.
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
    "SeedSequence(entropy=seed, spawn_key=(stream, row)); one generator per sampled row"
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

#: The four (chi_A, chi_B) pairs at which |E| = sqrt(2)/2 and S peaks at 2*sqrt(2).
CIRCLE_SETTINGS = TSIRELSON_SETTINGS.pairs()


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
        """PCG64 on spawn_key (stream, *lanes); the same stream as ``default_rng``."""
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream, *lanes)
        )
        return np.random.Generator(np.random.PCG64(ss))


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


def _sample_rows(
    probs, shots: int, seed: RngSeed, first_lane: int | None = None
) -> np.ndarray:
    """Multinomial draws of ``shots`` per row of an (n, 4) block, int64 (n, 4).

    Row k draws from ``seed.generator(first_lane + k)``, so each row can be
    reproduced on its own.  Without ``first_lane`` the block must be one
    row, drawn from ``seed.generator()``.  The block is checked once:
    entries >= -1e-12, each row summing to 1 within 1e-9, shots >= 1.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2 or p.shape[1] != 4:
        raise ValueError("expected exactly four outcome probabilities")
    if np.any(p < -1e-12):
        raise ValueError("probabilities must be non-negative")
    sums = p.sum(axis=1)
    bad = np.abs(sums - 1.0) > 1e-9
    if np.any(bad):
        raise ValueError(f"probabilities must sum to 1, got {sums[bad][0]}")
    if shots < 1:
        raise ValueError("shots must be at least 1")
    lanes = [()] if first_lane is None else [(first_lane + k,) for k in range(len(p))]
    p = np.clip(p, 0.0, None)
    p /= p.sum(axis=1, keepdims=True)
    out = np.empty(p.shape, dtype=np.int64)
    for k, (lane, row) in enumerate(zip(lanes, p, strict=True)):
        out[k] = seed.generator(*lane).multinomial(shots, row)
    return out


def sample_counts(
    probs: Sequence[float], shots: int, seed: RngSeed
) -> CountRecord:
    """Multinomial draw of ``shots`` coincidences over the four outcomes."""
    draw = _sample_rows(np.asarray(probs, dtype=float)[None], shots, seed)
    return CountRecord(*draw[0].tolist())


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


def _circle_mask(chi_a: np.ndarray, chi_b: float, tol: float = 1e-12) -> np.ndarray:
    """Which grid points lie within ``tol`` of a :data:`CIRCLE_SETTINGS` pair."""
    circle = np.array(CIRCLE_SETTINGS)
    near = (np.abs(chi_a[:, None] - circle[:, 0]) <= tol) & (
        np.abs(chi_b - circle[:, 1]) <= tol
    )
    return near.any(axis=1)


def sweep(
    chi_b: float,
    chi_a_grid: Sequence[float],
    shots: int,
    seed: RngSeed,
    bob: PhotonState | None = None,
    m: int = 2,
    first_row: int = 0,
) -> list[SweepRow]:
    """Scan chi_A at fixed chi_B: exact probabilities, counts, both E values.

    One analyzer call covers the whole grid and one block draw samples it.
    Row k draws from its own generator on the lane (stream, first_row + k),
    so a one-point sweep with ``first_row=k`` reproduces row k, whatever the
    evaluation order.  ``shots = 0`` skips sampling and leaves the count
    fields empty.
    """
    if len(chi_a_grid) == 0:
        raise ValueError("chi_A grid must not be empty")
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if first_row < 0:
        raise ValueError("first_row must be non-negative")
    if bob is None:
        bob = spin_orbit_bell_state(m=m)
    chi_a = np.asarray(chi_a_grid, dtype=float)
    grid_probs = joint_probabilities(bob, chi_a, chi_b, m=m)
    counts = e_est = [None] * len(chi_a)
    if shots > 0:
        draws = _sample_rows(grid_probs, shots, seed, first_row)
        counts = [CountRecord(*row) for row in draws.tolist()]
        e_est = (correlation(draws) / shots).tolist()
    chi_b = float(chi_b)
    columns = zip(
        chi_a.tolist(),
        grid_probs.tolist(),
        counts,
        correlation(grid_probs).tolist(),
        e_est,
        _circle_mask(chi_a, chi_b).tolist(),
    )
    return [
        SweepRow(a, chi_b, tuple(p), c, e, est, flag)
        for a, p, c, e, est, flag in columns
    ]


def chsh_monte_carlo(
    settings: ChshSettings,
    shots_per_setting: int,
    seed: RngSeed,
    bob: PhotonState | None = None,
    m: int = 2,
) -> McEstimate:
    """Estimate S from four independent simulated counting runs.

    Setting k, in :meth:`ChshSettings.pairs` order, draws from the lane
    (stream, k).  The standard error treats the four runs as independent
    multinomials: SE = sqrt(sum_i (1 - E_i^2) / shots).
    """
    if shots_per_setting < 2:
        raise ValueError("need at least two shots per setting")
    probs = pair_probabilities(settings, bob, m)
    draws = _sample_rows(probs, shots_per_setting, seed, 0)
    counts = [CountRecord(*row) for row in draws.tolist()]
    e_values = [estimate_E(rec) for rec in counts]
    s_est = chsh_combination(e_values)
    variance = sum((1.0 - e * e) / shots_per_setting for e in e_values)
    return McEstimate(
        s_estimate=s_est,
        standard_error=math.sqrt(variance),
        e_estimates=tuple(e_values),  # type: ignore[arg-type]
        counts=tuple(counts),  # type: ignore[arg-type]
    )
