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
pair.  One rule holds for every sample: row k of a sampled block draws
from its own generator on the (stream, first_row + k) lane, and a single
draw (:func:`sample_counts`) is row 0.  So distinct streams never share a
draw and any one row can be reproduced on its own; the generator identity
is recorded in :data:`GENERATOR_ID`.  The lanes' PCG64 seed words come from
one vectorised port of NumPy's SeedSequence hash (after M. O'Neill's
``seed_seq_fe``) over the whole block, which hashes the words all lanes
share once; the words, and so every count, are the ones ``SeedSequence``
itself gives.  One lane iterator per block hands each row's PCG64 its words.

A phase sweep is one :class:`SweepTable` of read-only columns, the arrays
the analyzer and the sampler produce; a :class:`SweepRow` is built only
when a row is read.
"""

from __future__ import annotations

import math
import operator
from functools import cache
from itertools import product, repeat, starmap
from typing import Iterator, Sequence

import numpy as np

from .experiment import correlation, joint_probabilities, spin_orbit_bell_state
from .qstate import PhotonState, _frozen, _integer, _real, _Record

GENERATOR_ID = (
    "numpy.random.Generator(PCG64), seeded via "
    "SeedSequence(entropy=seed, spawn_key=(stream, row)); one generator per sampled row"
)


class ChshSettings(_Record):
    """The four analyzer phases entering S."""

    __slots__ = ("chi_a", "chi_a_prime", "chi_b", "chi_b_prime")

    def __init__(self, chi_a: float, chi_a_prime: float, chi_b: float, chi_b_prime: float):
        settings = (chi_a, chi_a_prime, chi_b, chi_b_prime)
        _Record.__init__(self, *map(_real, self.__slots__, settings))

    def pairs(self) -> tuple[tuple[float, float], ...]:
        """Setting pairs in S order: (a,b), (a,b'), (a',b), (a',b')."""
        return tuple(product((self.chi_a, self.chi_a_prime), (self.chi_b, self.chi_b_prime)))


#: Settings at which the heralded state's sine-law correlations reach 2*sqrt(2).
TSIRELSON_SETTINGS = ChshSettings(math.pi / 2, -math.pi, math.pi / 4, -math.pi / 4)

#: The four (chi_A, chi_B) pairs at which |E| = sqrt(2)/2 and S peaks at 2*sqrt(2).
CIRCLE_SETTINGS = TSIRELSON_SETTINGS.pairs()


class CountRecord(_Record):
    """Coincidence counts for the four detector-port pairs, integers of at least 0."""

    __slots__ = ("n_pp", "n_pm", "n_mp", "n_mm")

    def __init__(self, n_pp: int, n_pm: int, n_mp: int, n_mm: int):
        counts = (n_pp, n_pm, n_mp, n_mm)
        _Record.__init__(self, *(_integer(name, n, low=0)
                                 for name, n in zip(self.__slots__, counts)))

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n_pp, self.n_pm, self.n_mp, self.n_mm)

    @property
    def total(self) -> int:
        return sum(self.as_tuple())


class RngSeed(_Record):
    """Seed plus stream index for reproducible, parallel-safe sampling.

    The seed is an integer from 0 to 2**64 - 1 and the stream one of at
    least 0, both stored as Python ints.  Identical (seed, stream)
    values reproduce identical draws bit for bit; distinct streams are
    statistically independent.
    """

    __slots__ = ("seed", "stream")

    def __init__(self, seed: int, stream: int = 0):
        _Record.__init__(self, _integer("seed", seed, low=0, high=2**64 - 1),
                         _integer("stream", stream, low=0))

    def generator(self, lane: int) -> np.random.Generator:
        """``default_rng(SeedSequence(seed, spawn_key=(stream, lane)))``: one lane's PCG64.

        The one-lane reference: a sampled block seeds its rows from the same
        words, computed for every row at once (see :func:`_lane_states`).
        """
        lane = _integer("lane", lane, low=0)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream, lane))
        return np.random.Generator(np.random.PCG64(ss))


class SweepRow(_Record):
    """One grid point of a phase sweep: exact probabilities plus sampled counts."""

    __slots__ = ("chi_a", "chi_b", "probabilities", "counts", "e_exact", "e_estimated",
                 "is_circle")

    def __init__(self, chi_a: float, chi_b: float,
                 probabilities: tuple[float, float, float, float], counts: CountRecord | None,
                 e_exact: float, e_estimated: float | None, is_circle: bool):
        _Record.__init__(self, chi_a, chi_b, probabilities, counts, e_exact, e_estimated,
                         is_circle)


class SweepTable(_Record):
    """A phase sweep as columns; entry k of each array belongs to grid point k.

    ``chi_a``, ``e_exact``, ``e_estimated`` and ``is_circle`` have shape
    (n,), ``probabilities`` and the int64 ``counts`` (n, 4); ``chi_b`` is the
    fixed phase.  ``counts`` and ``e_estimated`` are None for an exact sweep.
    Every array is a read-only copy, so a table compares by identity, like
    the states.  ``len(table)``, ``table[k]`` (k may be negative) and
    iteration give :class:`SweepRow` values of Python scalars, each built
    when it is read; a table does not slice.
    """

    __slots__ = ("chi_a", "chi_b", "probabilities", "counts", "e_exact", "e_estimated",
                 "is_circle")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, chi_a: np.ndarray, chi_b: float, probabilities: np.ndarray,
                 counts: np.ndarray | None, e_exact: np.ndarray,
                 e_estimated: np.ndarray | None, is_circle: np.ndarray):
        columns = {
            "chi_a": _frozen(_real("chi_a", chi_a, array=True), float),
            "probabilities": _frozen(probabilities, float),
            "counts": None if counts is None else _frozen(counts, np.int64),
            "e_exact": _frozen(e_exact, float),
            "e_estimated": None if e_estimated is None else _frozen(e_estimated, float),
            "is_circle": _frozen(is_circle, bool),
        }
        n = columns["chi_a"].size
        for name, column in columns.items():
            shape = (n, 4) if name in ("probabilities", "counts") else (n,)
            if column is not None and column.shape != shape:
                raise ValueError(f"sweep column {name} has shape {column.shape}, not {shape}")
        columns["chi_b"] = _real("chi_b", chi_b)
        _Record.__init__(self, *map(columns.get, self.__slots__))

    def __len__(self) -> int:
        return len(self.chi_a)

    def __getitem__(self, k: int) -> SweepRow:
        k = range(len(self))[operator.index(k)]  # k < 0 counts from the end; no slices
        return next(self._rows(slice(k, k + 1)))

    def __iter__(self) -> Iterator[SweepRow]:
        return self._rows(slice(None))

    def _rows(self, part: slice) -> Iterator[SweepRow]:
        """The rows of one slice of the columns, each built when it is drawn."""
        counts = repeat(None)
        if self.counts is not None:
            counts = starmap(CountRecord, self.counts[part].tolist())
        e_est = repeat(None) if self.e_estimated is None else self.e_estimated[part].tolist()
        return map(SweepRow, self.chi_a[part].tolist(), repeat(self.chi_b),
                   map(tuple, self.probabilities[part].tolist()), counts,
                   self.e_exact[part].tolist(), e_est, self.is_circle[part].tolist())


class NchvResult(_Record):
    """Extremal S over deterministic noncontextual assignments."""

    __slots__ = ("max_s", "min_s", "argmax")

    def __init__(self, max_s: float, min_s: float, argmax: dict[str, int]):
        _Record.__init__(self, max_s, min_s, argmax)


class McEstimate(_Record):
    """Monte-Carlo CHSH estimate with its standard error."""

    __slots__ = ("s_estimate", "standard_error", "e_estimates", "counts")

    def __init__(self, s_estimate: float, standard_error: float,
                 e_estimates: tuple[float, float, float, float],
                 counts: tuple[CountRecord, CountRecord, CountRecord, CountRecord]):
        _Record.__init__(self, s_estimate, standard_error, e_estimates, counts)


def chsh_combination(e_values: Sequence[float]) -> float:
    """S = E1 + E2 - E3 + E4 from correlations in :meth:`ChshSettings.pairs` order."""
    return e_values[0] + e_values[1] - e_values[2] + e_values[3]


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


# SeedSequence's hash constants (numpy.random.bit_generator, pool size 4).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list[int]:
    """``n`` as SeedSequence splits an int: little-endian 32-bit words, [0] for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_sequence_state(entropy: list) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` per column, (n, 4) uint64.

    ``entropy`` is SeedSequence's assembled entropy, at least the four pool
    words long.  Each word is an int, shared by every column, except the one
    (n,) uint32 array of the columns' own words, which comes after the first
    four.  The shared words are hashed once, as ints masked to 32 bits; the
    pool turns into arrays only where it takes in the column words.  The
    hash constants follow a fixed schedule, so they stay ints.
    """
    hash_const = _INIT_A

    def u32(value):
        return value & _MASK32 if isinstance(value, int) else value  # arrays wrap

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = u32(value * hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = u32(u32(x * _MIX_MULT_L) - u32(y * _MIX_MULT_R))
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(word) for word in entropy[:4]]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    return np.stack([state[i] | state[i + 1] << 32 for i in range(0, 8, 2)], axis=-1)


def _lane_states(seed: RngSeed, first_lane: int, n: int) -> np.ndarray:
    """PCG64 seed words of lanes first_lane .. first_lane + n - 1, (n, 4) uint64.

    Row k is ``SeedSequence(seed.seed, spawn_key=(seed.stream, first_lane + k))
    .generate_state(4, np.uint64)``.  The seed is zero-padded to four words and
    each spawn entry is split into words, as SeedSequence assembles its
    entropy.  Lanes are hashed in groups split at multiples of 2**32, so all
    lanes of a group share every word but the lowest, and their word count.
    """
    seed_words = _uint32_words(seed.seed)
    key = seed_words + [0] * (4 - len(seed_words)) + _uint32_words(seed.stream)
    groups = []
    lane, end = first_lane, first_lane + n
    while lane < end:
        high, low = lane >> 32, lane & _MASK32
        stop = min(end, (high + 1) << 32)
        low_words = np.arange(low, low + stop - lane, dtype=np.uint32)
        high_words = _uint32_words(high) if high else []
        groups.append(_seed_sequence_state([*key, low_words, *high_words]))
        lane = stop
    return np.concatenate(groups)


@cache
def _lane_seed_type() -> type:
    """An ``ISeedSequence`` over a block's (n, 4) words; each PCG64 it seeds takes a row.

    ``PCG64.__init__`` calls ``generate_state`` exactly once, so the k-th
    PCG64 built from one instance gets row k.  The tests check every sampled
    row against ``seed.generator(first_lane + k)``, so a numpy that called it
    otherwise would fail them rather than shift the rows silently.  Made on
    first use, because numpy.random is imported lazily and commands that
    never sample should not load it.
    """

    class LaneSeeds(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.rows = iter(words)

        def generate_state(self, n_words, dtype=np.uint32):
            return next(self.rows)

    return LaneSeeds


def _sample_rows(probs, shots: int, seed: RngSeed, first_lane: int) -> np.ndarray:
    """Multinomial draws of ``shots`` per row of an (n, 4) block, int64 (n, 4).

    Row k is the draw ``seed.generator(first_lane + k)`` makes, so each row
    can be reproduced on its own.  One vectorised SeedSequence hash computes
    every row's PCG64 seed words (:func:`_lane_states`), and one lane
    iterator (:func:`_lane_seed_type`) hands them to the rows' PCG64s in
    turn; no object is made per row beyond the generator and its draw.  The
    block is checked once, before any draw: entries >= -1e-12, each row
    summing to 1 within 1e-9 (so a NaN entry fails), shots an integer from 1
    to 2**63 - 1 (an int64 draw count) and ``seed`` an :class:`RngSeed`.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2 or p.shape[1] != 4:
        raise ValueError("expected exactly four outcome probabilities")
    if not np.all(p >= -1e-12):
        raise ValueError("probabilities must be non-negative")
    sums = p.sum(axis=1)
    bad = ~(np.abs(sums - 1.0) <= 1e-9)
    if np.any(bad):
        raise ValueError(f"probabilities must sum to 1, got {sums[bad][0]}")
    shots = _integer("shots", shots, low=1, high=2**63 - 1)
    if not isinstance(seed, RngSeed):
        raise ValueError(f"sampling needs an RngSeed, got {seed!r}")
    lanes = _lane_seed_type()(_lane_states(seed, first_lane, len(p)))
    p = np.clip(p, 0.0, None)
    p /= p.sum(axis=1, keepdims=True)
    pcg64, generator = np.random.PCG64, np.random.Generator
    return np.array([generator(pcg64(lanes)).multinomial(shots, row) for row in p],
                    dtype=np.int64)


def sample_counts(
    probs: Sequence[float], shots: int, seed: RngSeed
) -> CountRecord:
    """Multinomial draw of ``shots`` coincidences over the four outcomes.

    The one-row block: it draws row 0, lane (stream, 0), like sweep row 0.
    """
    draw = _sample_rows(np.asarray(probs, dtype=float)[None], shots, seed, 0)
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
    seed: RngSeed | None,
    bob: PhotonState | None = None,
    m: int = 2,
    first_row: int = 0,
) -> SweepTable:
    """Scan chi_A at fixed chi_B: exact probabilities, counts, both E values.

    One analyzer call covers the whole grid and one block draw samples it;
    the result is one :class:`SweepTable` of their columns, and no row is
    built until it is read.  Row k draws from its own generator on the lane
    (stream, first_row + k), so a one-point sweep with ``first_row=k``
    reproduces row k, whatever the evaluation order.  ``shots`` and
    ``first_row`` are non-negative integers, checked before the analyzer runs;
    ``shots = 0`` skips sampling, takes ``seed=None`` and leaves the count
    columns None.  The grid must be a non-empty one-dimensional sequence; the
    table holds a copy of it.
    """
    chi_a, chi_b = _real("chi_a_grid", chi_a_grid, array=True), _real("chi_b", chi_b)
    if np.ndim(chi_a) != 1:
        raise ValueError("chi_A grid must be one-dimensional")
    if len(chi_a) == 0:
        raise ValueError("chi_A grid must not be empty")
    shots, first_row = _integer("shots", shots, low=0), _integer("first_row", first_row, low=0)
    if bob is None:
        bob = spin_orbit_bell_state(m=m)
    grid_probs = joint_probabilities(bob, chi_a, chi_b, m=m)
    draws = e_est = None
    if shots > 0:
        draws = _sample_rows(grid_probs, shots, seed, first_row)
        e_est = correlation(draws) / shots
    return SweepTable(chi_a, chi_b, grid_probs, draws, correlation(grid_probs), e_est,
                      _circle_mask(chi_a, chi_b))


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
    shots = _integer("shots", shots_per_setting, low=2)
    probs = pair_probabilities(settings, bob, m)
    draws = _sample_rows(probs, shots, seed, 0)
    counts = [CountRecord(*row) for row in draws.tolist()]
    e_values = [estimate_E(rec) for rec in counts]
    s_est = chsh_combination(e_values)
    variance = sum((1.0 - e * e) / shots for e in e_values)
    return McEstimate(
        s_estimate=s_est,
        standard_error=math.sqrt(variance),
        e_estimates=tuple(e_values),  # type: ignore[arg-type]
        counts=tuple(counts),  # type: ignore[arg-type]
    )
