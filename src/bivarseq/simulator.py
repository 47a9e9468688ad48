"""Stream generation, sequential test execution, and Monte Carlo studies.

Randomness is counter-based and splittable: replicate ``r`` of a study seeded
with ``seed`` draws from ``Philox(key=(master(seed), r))``, so every
replicate is a pure function of (seed, r) and summaries do not depend on
chunking.  Events are sampled by inverse cdf over the fixed cell order
(p00, p10, p01, p11), one uniform per event.  Streams share their events:
the event of each (seq, cell) among the first 2**14 seqs is built on first use
and kept, about 190 bytes each (70 KB after fig121 streams, 7 MB once every
cell up to seq 9781 has been drawn, 12.5 MB at most; tracemalloc, CPython
3.11), and later events are built as drawn.  Events are frozen, so sharing
is safe.

All streams draw from one Philox generator, built on first use.  Moving it
to key (master, r) sets its state from plain ints (counter and buffer
cleared), so it draws exactly as a fresh ``Philox(key=(master, r))`` would,
for about 1 µs instead of the 14 µs a new generator costs; a lock makes
re-key plus draw atomic across threads.  Monte Carlo computes the outcomes
of a block of replicates at once from the flat positions of its x, y and
both-effects events: a row crosses a margin at its (k+1)-th event of that
margin, and S_x, S_y and N11 at the stop are each one ``searchsorted`` of
``row·n* + m`` over the block.  The boundary is
:meth:`BivariateDesign.decide`'s code hit_x + 2·hit_y on arrays.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .design import _BOUNDARIES, BivariateDesign
from .errors import SequencingError, StreamExhaustedError
from .exact_engine import LatticeCounts
from .inference import _plug_in, _wald_covers
from .params import JointBernoulliParams

__all__ = [
    "Event",
    "TestOutcome",
    "MonteCarloSummary",
    "run_test",
    "sample_stream",
    "monte_carlo",
    "replicate_outcomes",
]

# Uniforms per block of replicates: bounds the memory of one block.
_BLOCK_UNIFORMS = 1 << 16


@dataclass(frozen=True)
class Event:
    """One observed subject: strictly increasing seq, binary side effects."""

    seq: int
    x: int
    y: int

    def __post_init__(self):
        if self.x not in (0, 1) or self.y not in (0, 1):
            raise ValueError("event indicators must be 0 or 1")


@dataclass(frozen=True)
class TestOutcome:
    decision: str                # 'reject' | 'not_reject'
    m_star: int
    boundary: str                # 'x' | 'y' | 'corner' | 'none'
    counts: LatticeCounts


@lru_cache(maxsize=32)
def _master_word(seed: int) -> int:
    return int(np.random.SeedSequence(seed).generate_state(1, dtype=np.uint64)[0])


@lru_cache(maxsize=1)
def _philox():
    """The one Philox generator every stream draws from, and its uniform
    draw; built on first use, so that importing the package builds none."""
    bitgen = np.random.Philox(0)
    return bitgen, np.random.Generator(bitgen).random


# The state that re-keys the generator (see the module docstring).
_PHILOX_STATE = {"bit_generator": "Philox",
                 "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
_PHILOX_LOCK = threading.Lock()


def _draw_streams(master: int, first: int, out: np.ndarray) -> None:
    """Fill row i of ``out`` with the first uniforms of stream ``first + i``,
    i.e. of ``Philox(key=(master, first + i))``."""
    key = _PHILOX_STATE["state"]["key"]
    with _PHILOX_LOCK:
        bitgen, uniform = _philox()
        key[0] = master
        for i, row in enumerate(out, first):
            key[1] = i
            bitgen.state = _PHILOX_STATE
            uniform(out=row)


def _check_int(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int in [low, high]; a ValueError naming ``name`` for
    bools, non-integers and values out of range."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
    return int(value)


def _cell_thresholds(params: JointBernoulliParams) -> tuple[float, float, float]:
    p00, p10, p01, _ = params.cell_probs
    return p00, p00 + p10, p00 + p10 + p01


def _cells(u: np.ndarray, thresholds: tuple[float, float, float]):
    """(x, y) indicator arrays of the cells the uniforms u fall in."""
    t0, t1, t2 = thresholds
    return ((u >= t0) & (u < t1)) | (u >= t2), u >= t1


class _InternedEvents(dict):
    """Event(seq, x, y) at key 4·(seq-1) + x + 2·y, built on first lookup."""

    def __missing__(self, key: int) -> Event:
        event = self[key] = Event(key // 4 + 1, key & 1, key >> 1 & 1)
        return event


_EVENTS = _InternedEvents()
# Streams share the events of their first _INTERNED_SEQS seqs and build the
# rest as drawn; the largest design in the tests and benchmark has n* = 9781.
_INTERNED_SEQS = 1 << 14
# Streams are numbered by the second word of the Philox key.
_STREAM_MAX = 2 ** 64 - 1


def sample_stream(params: JointBernoulliParams, seed: int, max_n: int,
                  stream: int = 0) -> Iterator[Event]:
    """Yield max_n i.i.d. events; deterministic for fixed (seed, stream).

    The events are frozen; those of the first ``_INTERNED_SEQS`` seqs are
    shared with other streams.  ``seed`` and ``max_n`` are non-negative
    integers and ``stream`` one below 2**64; the arguments are checked at the
    first ``next``.
    """
    master = _master_word(_check_int("seed", seed, 0))
    stream = _check_int("stream", stream, 0, _STREAM_MAX)
    max_n = _check_int("max_n", max_n, 0)
    u = np.empty((1, max_n))
    _draw_streams(master, stream, u)
    x, y = _cells(u[0], _cell_thresholds(params))
    head = min(max_n, _INTERNED_SEQS)
    key = np.arange(0, 4 * head, 4) + x[:head] + 2 * y[:head]
    yield from map(_EVENTS.__getitem__, key.tolist())
    for i, xi, yi in zip(range(head + 1, max_n + 1),
                         x[head:].astype(np.int64).tolist(),
                         y[head:].astype(np.int64).tolist()):
        yield Event(i, xi, yi)


def run_test(design: BivariateDesign, stream: Iterable[Event]) -> TestOutcome:
    """Consume events until :meth:`BivariateDesign.decide` stops the test.

    Raises :class:`StreamExhaustedError` if the stream ends first, and
    :class:`SequencingError` for non-increasing sequence numbers.
    """
    k_x, k_y, n_star = design.k_x, design.k_y, design.n_star
    s_x = s_y = n11 = consumed = 0
    last_seq = None
    for event in stream:
        if last_seq is not None and event.seq <= last_seq:
            raise SequencingError(
                f"event seq {event.seq} not after previous seq {last_seq}")
        last_seq = event.seq
        consumed += 1
        s_x += event.x
        s_y += event.y
        n11 += event.x & event.y
        # a per-event decide() call would triple the loop's cost; call it once
        if s_x > k_x or s_y > k_y or consumed == n_star:
            decision, boundary = design.decide(s_x, s_y, consumed)
            counts = LatticeCounts(n00=consumed - s_x - s_y + n11, n10=s_x - n11,
                                   n01=s_y - n11, n11=n11)
            return TestOutcome(decision=decision, m_star=consumed,
                               boundary=boundary, counts=counts)
    raise StreamExhaustedError(consumed)


def replicate_outcomes(design: BivariateDesign, params: JointBernoulliParams,
                       reps: int, seed: int, chunk_size: int = 1024
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-replicate outcomes of ``reps`` independent runs of the test.

    Replicate ``r`` consumes the uniforms of ``sample_stream(params, seed,
    design.n_star, stream=r)``, so its row equals that stream's
    :func:`run_test` outcome.  At most ``chunk_size`` replicates are computed
    at once; the result does not depend on it.

    Returns ``(m_star, code, table)``: stopping times (int64), boundary codes
    (int8, indexing ``("none", "x", "y", "corner")``) and the reps x 4 table
    of terminal counts (n00, n10, n01, n11), int64.
    """
    reps = _check_int("reps", reps, 1)
    chunk_size = _check_int("chunk_size", chunk_size, 1)
    master = _master_word(_check_int("seed", seed, 0))
    thresholds = _cell_thresholds(params)
    k_x, k_y, n_star = design.k_x, design.k_y, design.n_star

    m_star = np.empty(reps, dtype=np.int64)
    code = np.empty(reps, dtype=np.int8)
    table = np.empty((reps, 4), dtype=np.int64)
    rows = max(1, min(chunk_size, _BLOCK_UNIFORMS // n_star, reps))
    u = np.empty((rows, n_star))
    for lo in range(0, reps, rows):
        n = min(rows, reps - lo)
        _draw_streams(master, lo, u[:n])
        x, y = _cells(u[:n], thresholds)
        row0 = np.arange(0, n * n_star, n_star)     # flat index of column 0
        # flat positions of the x, y and both-effects events, row after row
        at = [np.flatnonzero(a) for a in (x, y, x & y)]
        first = [a.searchsorted(row0) for a in at]
        m = np.full(n, n_star)
        for a, a0, k in zip(at, first, (k_x, k_y)):
            # a row's (k+1)-th event is where its count crosses k
            crossed = np.flatnonzero(np.diff(a0, append=a.size) > k)
            m[crossed] = np.minimum(m[crossed], a[a0[crossed] + k] - row0[crossed] + 1)
        sx_m, sy_m, n11_m = (a.searchsorted(row0 + m) - a0 for a, a0 in zip(at, first))
        m_star[lo:lo + n] = m
        code[lo:lo + n] = design._boundary_code(sx_m, sy_m)
        table[lo:lo + n] = np.stack(
            (m - sx_m - sy_m + n11_m, sx_m - n11_m, sy_m - n11_m, n11_m), axis=1)
    return m_star, code, table


@dataclass(frozen=True)
class MonteCarloSummary:
    reps: int
    seed: int
    power: float
    power_se: float
    asn: float
    asn_se: float
    bias_x: float
    bias_x_se: float
    bias_y: float
    bias_y_se: float
    boundary_split: dict
    coverage: float
    coverage_level: float

    def to_dict(self) -> dict:
        return asdict(self)


def monte_carlo(design: BivariateDesign, params: JointBernoulliParams,
                reps: int, seed: int, level: float = 0.95,
                chunk_size: int = 1024) -> MonteCarloSummary:
    """Monte Carlo operating characteristics over independent replicates.

    The summary reduces the arrays of :func:`replicate_outcomes` in
    replicate order, so the result is identical for any ``chunk_size``.
    Estimates and coverage use the plug-in rule of
    :func:`~bivarseq.inference.post_test_estimate`, so a replicate whose
    table is singular there does not cover.
    """
    m_star, code, table = replicate_outcomes(design, params, reps, seed,
                                             chunk_size)
    rejected = code != 0
    power = rejected.mean()
    power_se = math.sqrt(max(power * (1 - power), 0.0) / reps)
    asn = m_star.mean()
    asn_se = m_star.std(ddof=1) / math.sqrt(reps) if reps > 1 else 0.0
    plug_in = _plug_in(table[:, 1] + table[:, 3], table[:, 2] + table[:, 3],
                       table[:, 3], m_star)
    th_x, th_y = plug_in[:2]
    bias_x = th_x.mean() - params.theta_x
    bias_y = th_y.mean() - params.theta_y
    bias_x_se = th_x.std(ddof=1) / math.sqrt(reps) if reps > 1 else 0.0
    bias_y_se = th_y.std(ddof=1) / math.sqrt(reps) if reps > 1 else 0.0
    split = {name: float((code == i).mean()) for i, name in enumerate(_BOUNDARIES)}
    coverage = _wald_covers(plug_in, m_star, params.theta_x, params.theta_y,
                            level).mean()
    return MonteCarloSummary(
        reps=reps, seed=seed, power=float(power), power_se=float(power_se),
        asn=float(asn), asn_se=float(asn_se),
        bias_x=float(bias_x), bias_x_se=float(bias_x_se),
        bias_y=float(bias_y), bias_y_se=float(bias_y_se),
        boundary_split=split, coverage=float(coverage), coverage_level=level,
    )

