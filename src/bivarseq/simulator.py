"""Stream generation, sequential test execution, and Monte Carlo studies.

Randomness is counter-based and splittable: replicate ``r`` of a study seeded
with ``seed`` draws from ``Philox(key=(master(seed), r))``, so every
replicate is a pure function of (seed, r) and summaries do not depend on
chunking or worker count.  Events are sampled by inverse cdf over the fixed
cell order (p00, p10, p01, p11), one uniform per event.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .design import BivariateDesign
from .errors import SequencingError, StreamExhaustedError
from .exact_engine import LatticeCounts
from .inference import chi2_quantile_2df
from .params import JointBernoulliParams

__all__ = [
    "Event",
    "TestOutcome",
    "MonteCarloSummary",
    "run_test",
    "sample_stream",
    "monte_carlo",
]

_BOUNDARIES = ("none", "x", "y", "corner")


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

    def to_dict(self) -> dict:
        return {
            "decision": self.decision,
            "m_star": self.m_star,
            "boundary": self.boundary,
            "counts": {"n00": self.counts.n00, "n10": self.counts.n10,
                       "n01": self.counts.n01, "n11": self.counts.n11},
        }


def _master_word(seed: int) -> np.uint64:
    return np.random.SeedSequence(seed).generate_state(1, dtype=np.uint64)[0]


def _replicate_rng(master: np.uint64, replicate: int) -> np.random.Generator:
    key = np.array([master, np.uint64(replicate)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _cell_thresholds(params: JointBernoulliParams) -> tuple[float, float, float]:
    p00, p10, p01, _ = params.cell_probs
    return p00, p00 + p10, p00 + p10 + p01


def _cells(u: np.ndarray, thresholds: tuple[float, float, float]):
    """(x, y) indicator arrays of the cells the uniforms u fall in."""
    t0, t1, t2 = thresholds
    return ((u >= t0) & (u < t1)) | (u >= t2), u >= t1


def sample_stream(params: JointBernoulliParams, seed: int, max_n: int,
                  stream: int = 0) -> Iterator[Event]:
    """Yield max_n i.i.d. events; deterministic for fixed (seed, stream)."""
    u = _replicate_rng(_master_word(seed), stream).random(max_n)
    x, y = _cells(u, _cell_thresholds(params))
    for i, (xi, yi) in enumerate(zip(x.tolist(), y.tolist())):
        yield Event(seq=i + 1, x=int(xi), y=int(yi))


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


def _outcome_from_uniforms(design: BivariateDesign,
                           thresholds: tuple[float, float, float],
                           u: np.ndarray):
    """Vectorized replicate: (m_star, boundary code, n00, n10, n01, n11)."""
    x, y = _cells(u, thresholds)
    s_x = np.cumsum(x)
    s_y = np.cumsum(y)
    crossed = (s_x > design.k_x) | (s_y > design.k_y)
    idx = int(np.argmax(crossed))
    m = idx + 1 if crossed[idx] else design.n_star
    sx_m, sy_m = int(s_x[m - 1]), int(s_y[m - 1])
    code = _BOUNDARIES.index(design.decide(sx_m, sy_m, m)[1])
    n11 = int(np.count_nonzero(x[:m] & y[:m]))
    return m, code, m - sx_m - sy_m + n11, sx_m - n11, sy_m - n11, n11


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
        return {
            "reps": self.reps, "seed": self.seed,
            "power": self.power, "power_se": self.power_se,
            "asn": self.asn, "asn_se": self.asn_se,
            "bias_x": self.bias_x, "bias_x_se": self.bias_x_se,
            "bias_y": self.bias_y, "bias_y_se": self.bias_y_se,
            "boundary_split": self.boundary_split,
            "coverage": self.coverage, "coverage_level": self.coverage_level,
        }


def monte_carlo(design: BivariateDesign, params: JointBernoulliParams,
                reps: int, seed: int, level: float = 0.95,
                workers: int = 1, chunk_size: int = 1024) -> MonteCarloSummary:
    """Monte Carlo operating characteristics over independent replicates.

    Replicate outcomes land in arrays indexed by replicate number and the
    summary reduces them in that fixed order, so the result is identical for
    any ``workers``/``chunk_size`` combination.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    thresholds = _cell_thresholds(params)
    master = _master_word(seed)
    n_star = design.n_star

    m_star = np.empty(reps, dtype=np.int64)
    code = np.empty(reps, dtype=np.int8)
    table = np.empty((reps, 4), dtype=np.int64)  # n00, n10, n01, n11

    def fill(lo: int, hi: int):
        for r in range(lo, hi):
            u = _replicate_rng(master, r).random(n_star)
            m, c, n00, n10, n01, n11 = _outcome_from_uniforms(design, thresholds, u)
            m_star[r] = m
            code[r] = c
            table[r] = (n00, n10, n01, n11)

    chunks = [(lo, min(lo + chunk_size, reps)) for lo in range(0, reps, chunk_size)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda c: fill(*c), chunks))
    else:
        for lo, hi in chunks:
            fill(lo, hi)

    rejected = code != 0
    power = rejected.mean()
    power_se = math.sqrt(max(power * (1 - power), 0.0) / reps)
    asn = m_star.mean()
    asn_se = m_star.std(ddof=1) / math.sqrt(reps) if reps > 1 else 0.0
    th_x = (table[:, 1] + table[:, 3]) / m_star
    th_y = (table[:, 2] + table[:, 3]) / m_star
    bias_x = th_x.mean() - params.theta_x
    bias_y = th_y.mean() - params.theta_y
    bias_x_se = th_x.std(ddof=1) / math.sqrt(reps) if reps > 1 else 0.0
    bias_y_se = th_y.std(ddof=1) / math.sqrt(reps) if reps > 1 else 0.0
    split = {name: float((code == i).mean()) for i, name in enumerate(_BOUNDARIES)}
    coverage = _ellipse_coverage(th_x, th_y, table[:, 3] / m_star, m_star,
                                 params, level)
    return MonteCarloSummary(
        reps=reps, seed=seed, power=float(power), power_se=float(power_se),
        asn=float(asn), asn_se=float(asn_se),
        bias_x=float(bias_x), bias_x_se=float(bias_x_se),
        bias_y=float(bias_y), bias_y_se=float(bias_y_se),
        boundary_split=split, coverage=float(coverage), coverage_level=level,
    )


def _ellipse_coverage(th_x, th_y, p11_hat, m_star, params, level) -> float:
    """Fraction of replicates whose Wald ellipse covers the true margins.

    Replicates with a singular plug-in covariance count as non-covering.
    """
    c = chi2_quantile_2df(level)
    s11 = th_x * (1 - th_x)
    s22 = th_y * (1 - th_y)
    s12 = p11_hat - th_x * th_y
    det = s11 * s22 - s12 * s12
    dx = th_x - params.theta_x
    dy = th_y - params.theta_y
    with np.errstate(divide="ignore", invalid="ignore"):
        quad = m_star * (s22 * dx * dx - 2 * s12 * dx * dy + s11 * dy * dy) / det
    ok = (det > 1e-300) & np.isfinite(quad) & (quad <= c)
    return ok.mean()
