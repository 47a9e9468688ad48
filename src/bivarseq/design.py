"""Test design: per-margin maximal sample size and critical value from
(alpha_tilde, beta, theta0, theta1), and the pooled bivariate design.

Each margin is sized like the one-sided fixed-sample binomial test: find
(N, k) such that

    P_theta0(S_N > k) <= alpha_tilde      (size)
    P_theta1(S_N <= k) <= beta            (type II)

The ``approx`` method applies the closed-form normal approximation

    N = [ ((z_{1-a} sqrt(th0(1-th0)) + z_{1-b} sqrt(th1(1-th1))) / (th1-th0))^2 ]
    k = [ z_{1-a} sqrt(N th0 (1-th0)) + N th0 - 1/2 ]

with a configurable integer rounding convention; ``exact-refine`` then walks N
upward until the binomial constraints hold verbatim.  The walk carries k: as
S_{N+1} >= S_N, the size at a fixed k never decreases in N, so neither does
the smallest valid k, and each N costs about two incomplete-beta calls.  The
pooled design stops at N* = min of the margins while each margin keeps its
own critical value.

Beside the stopping rule, ``BivariateDesign.decide``, sit the 2x2 table of a
run, ``LatticeCounts``, and the stopping-time law, ``StoppingPmf``.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass, asdict

import numpy as np

from .special_functions import norm_quantile, reg_inc_beta

__all__ = [
    "MarginalDesign",
    "BivariateDesign",
    "LatticeCounts",
    "StoppingPmf",
    "design_marginal",
    "critical_value_for_n",
    "combine",
]

# Boundary names, indexed by hit_x + 2·hit_y.
_BOUNDARIES = ("none", "x", "y", "corner")


def _round(x: float, convention: str) -> int:
    if convention == "nearest":
        return int(math.floor(x + 0.5))
    if convention == "floor":
        return int(math.floor(x))
    raise ValueError(f"unknown rounding convention {convention!r}")


def binom_sf(k: int, n: int, theta: float) -> float:
    """P(Binomial(n, theta) > k)."""
    if k < 0:
        return 1.0
    if k >= n:
        return 0.0
    return reg_inc_beta(theta, k + 1, n - k)


def binom_cdf(k: int, n: int, theta: float) -> float:
    """P(Binomial(n, theta) <= k)."""
    return 1.0 - binom_sf(k, n, theta)


def _check_targets(alpha_tilde: float, beta: float, theta0: float, theta1: float) -> None:
    """A margin's input rule: alpha_tilde, beta in (0, 0.5); 0 < theta0 < theta1 < 1."""
    for name, value in (("alpha_tilde", alpha_tilde), ("beta", beta)):
        if not 0.0 < value < 0.5:
            raise ValueError(f"{name} must lie in (0, 0.5), not {value!r}")
    if not 0.0 < theta0 < theta1 < 1.0:
        raise ValueError("need 0 < theta0 < theta1 < 1")


@dataclass(frozen=True)
class MarginalDesign:
    """One margin's test specification: error targets and (N*, k*)."""

    alpha_tilde: float
    beta: float
    theta0: float
    theta1: float
    n_star: int
    k_star: int

    def __post_init__(self):
        _check_targets(self.alpha_tilde, self.beta, self.theta0, self.theta1)
        if not (self.n_star >= 1 and 0 <= self.k_star < self.n_star):
            raise ValueError("need 0 <= k_star < n_star")


@dataclass(frozen=True)
class BivariateDesign:
    """Pooled design: stop at n_star = min of margins; k_lower = min(k*)."""

    x: MarginalDesign
    y: MarginalDesign

    @property
    def n_star(self) -> int:
        return min(self.x.n_star, self.y.n_star)

    @property
    def k_lower(self) -> int:
        return min(self.x.k_star, self.y.k_star)

    @property
    def k_x(self) -> int:
        return self.x.k_star

    @property
    def k_y(self) -> int:
        return self.y.k_star

    def _boundary_code(self, s_x, s_y):
        """Index in ``_BOUNDARIES`` of the boundary that counts (s_x, s_y)
        have crossed, hit_x + 2·hit_y; for ints or integer arrays."""
        return (s_x > self.x.k_star) + 2 * (s_y > self.y.k_star)

    def decide(self, s_x: int, s_y: int, n: int) -> tuple[str, str]:
        """The stopping rule after n observations with side-effect counts
        (s_x, s_y): ``(decision, boundary)``.

        A count above its critical value rejects at boundary ``"x"`` or
        ``"y"``, or ``"corner"`` when both pass on the same observation; a
        crossing at n = n_star still rejects.  Otherwise the test curtails
        (``"not_reject"``) once n reaches n_star and continues before that,
        both with boundary ``"none"``.
        """
        boundary = _BOUNDARIES[self._boundary_code(s_x, s_y)]
        if boundary != "none":
            return "reject", boundary
        if n >= self.n_star:
            return "not_reject", "none"
        return "continue", "none"

    def to_dict(self) -> dict:
        return {
            "x": asdict(self.x),
            "y": asdict(self.y),
            "n_star": self.n_star,
            "k_lower": self.k_lower,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "BivariateDesign":
        sides = _flat_fields(doc, "design document", dict.fromkeys("xy", _MARGIN_FIELDS))
        for side in "xy":
            try:
                sides[side] = MarginalDesign(**sides[side])
            except ValueError as exc:
                raise ValueError(f"design document: field {side!r}: {exc}") from None
        design = cls(**sides)
        # the pooled fields may be absent; when given they must match the margins
        given = {"n_star": design.n_star, "k_lower": design.k_lower}
        for f, value in _flat_fields(doc, "design document", dict.fromkeys(given, int),
                                     given).items():
            if value != given[f]:
                raise ValueError(f"design document: field {f!r} is {value}, but the "
                                 f"margins give {given[f]}")
        return design


@dataclass(frozen=True)
class LatticeCounts:
    """Terminal 2x2 contingency counts of one test run."""

    n00: int
    n10: int
    n01: int
    n11: int

    def __post_init__(self):
        cells = (self.n00, self.n10, self.n01, self.n11)
        if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) and c >= 0
                   for c in cells):
            raise ValueError(f"counts must be nonnegative integers, not {cells!r}")

    @property
    def total(self) -> int:
        return self.n00 + self.n10 + self.n01 + self.n11

    @property
    def s_x(self) -> int:
        return self.n10 + self.n11

    @property
    def s_y(self) -> int:
        return self.n01 + self.n11


@dataclass(frozen=True)
class StoppingPmf:
    """Distribution of the stopping time over [k_lower+1, n_star], split by
    boundary, plus the mass of never stopping before curtailment."""

    support: np.ndarray
    mass_x: np.ndarray
    mass_y: np.ndarray
    mass_corner: np.ndarray
    continue_mass: float

    def __post_init__(self):
        n = len(self.support)
        if not (len(self.mass_x) == len(self.mass_y) == len(self.mass_corner) == n):
            raise ValueError("per-boundary mass arrays must match the support")
        for arr in (self.mass_x, self.mass_y, self.mass_corner):
            if np.any(np.asarray(arr) < -1e-12):
                raise ValueError("stopping masses must be nonnegative")

    @property
    def pmf(self) -> np.ndarray:
        """Total P(M = m) over the support."""
        return self.mass_x + self.mass_y + self.mass_corner

    @property
    def rejection_mass(self) -> float:
        return float(self.pmf.sum())

    def total_mass(self) -> float:
        return self.rejection_mass + self.continue_mass

    def moments(self, n_star: int) -> tuple[float, float]:
        """(E[min(M, n_star)], E[min(M, n_star)^2])."""
        pmf = self.pmf
        n2 = float(n_star) ** 2
        mean = n_star - ((n_star - self.support) * pmf).sum()
        second = n2 - ((n2 - self.support.astype(float) ** 2) * pmf).sum()
        return float(mean), float(second)

    def estimator_mean(self, n_star: int, theta: float, s: np.ndarray) -> float:
        """E[S(M*)/M*] of one margin, M* = min(M, n_star), from s[m] =
        E[S(m); M = m] over the support: sum_m s/m plus E[S; M > n_star]/n_star,
        which Wald's identity E[S(M*)] = theta E[M*] gives as theta E[M*] - sum s."""
        mean, _ = self.moments(n_star)
        return float((s / self.support).sum() + (theta * mean - s.sum()) / n_star)


def _table_cells(m, s_x, s_y, n11):
    """Cells (n00, n10, n01, n11) of the table of m observations with margins
    (s_x, s_y) and n11 both-effects ones; for ints or integer arrays."""
    return m - s_x - s_y + n11, s_x - n11, s_y - n11, n11


_MARGIN_FIELDS = {"alpha_tilde": float, "beta": float, "theta0": float, "theta1": float,
                  "n_star": int, "k_star": int}
# what each field kind of _flat_fields accepts, and its name in messages
_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")}


def _flat_fields(doc, what: str, kinds: dict, defaults: dict | None = None) -> dict:
    """The fields of a JSON document, checked: the one type policy of every
    document bivarseq reads.  ``kinds`` maps each field to ``int`` (a JSON
    integer), ``float`` (a finite JSON number), ``str`` or, for a nested
    object, a dict of kinds; a boolean is never a number.  An absent field
    takes its value from ``defaults``.  A ValueError names ``what`` and the
    field at fault by its dotted path."""

    def read(obj, kinds, fields, prefix):
        if not isinstance(obj, dict):
            where = f"{what}: field {prefix[:-1]!r}" if prefix else what
            raise ValueError(f"{where} must be a JSON object, not {type(obj).__name__}")
        for name, kind in kinds.items():
            path = prefix + name
            if name not in obj:
                if name not in fields:
                    raise ValueError(f"{what} lacks the field {path!r}")
            elif isinstance(kind, dict):
                fields[name] = read(obj[name], kind, {}, path + ".")
            else:
                value, (accepted, noun) = obj[name], _KINDS[kind]
                if isinstance(value, bool) or not isinstance(value, accepted) or (
                        kind is float and not abs(value) <= sys.float_info.max):
                    raise ValueError(f"{what}: field {path!r} must be {noun}, "
                                     f"not {reprlib.repr(value)}")
                fields[name] = kind(value)
        return fields

    return read(doc, kinds, dict(defaults or {}), "")


def critical_value_for_n(alpha_tilde: float, theta0: float, n: int,
                         rounding: str = "nearest") -> int:
    """Critical value for a margin observed over n subjects.

    k = [ n (z_{1-alpha} sqrt(theta0 (1-theta0) / n) + theta0) - 1/2 ].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    z = norm_quantile(1.0 - alpha_tilde)
    raw = z * math.sqrt(n * theta0 * (1.0 - theta0)) + n * theta0 - 0.5
    return _round(raw, rounding)


# Steps of the exact-refine walk: the approximation's N falls short of the
# exact N by about 6000 near N = 1e8, so larger designs end in a ValueError.
_REFINE_STEPS = 10_000


def design_marginal(alpha_tilde: float, beta: float, theta0: float, theta1: float,
                    method: str = "approx", rounding: str = "nearest") -> MarginalDesign:
    """Size one margin.

    ``method="approx"`` uses the closed normal-approximation formulas;
    ``method="exact-refine"`` starts from the approximation minus 5 and walks
    N upward to the smallest sample size at which some critical value meets
    both binomial constraints exactly, for at most ``_REFINE_STEPS`` steps.
    """
    _check_targets(alpha_tilde, beta, theta0, theta1)
    if method not in ("approx", "exact-refine"):
        raise ValueError(f"unknown method {method!r}")

    za = norm_quantile(1.0 - alpha_tilde)
    zb = norm_quantile(1.0 - beta)
    s0 = math.sqrt(theta0 * (1.0 - theta0))
    s1 = math.sqrt(theta1 * (1.0 - theta1))
    n_raw = ((za * s0 + zb * s1) / (theta1 - theta0)) ** 2
    n = max(_round(n_raw, rounding), 1)
    k = critical_value_for_n(alpha_tilde, theta0, n, rounding)
    k = min(max(k, 0), n - 1)
    if method == "approx":
        return MarginalDesign(alpha_tilde, beta, theta0, theta1, n, k)

    # At a fixed k the size P_theta0(S_N > k) never decreases in N, so the
    # smallest valid k never decreases along the walk: carry it, step it up.
    start = max(n - 5, 1)
    k = min(k, start - 1)
    while k > 0 and binom_sf(k - 1, start, theta0) <= alpha_tilde:
        k -= 1
    for n_try in range(start, start + _REFINE_STEPS):
        size = binom_sf(k, n_try, theta0)
        while size > alpha_tilde and k < n_try - 1:
            k += 1
            size = binom_sf(k, n_try, theta0)
        if size <= alpha_tilde and binom_cdf(k, n_try, theta1) <= beta:
            return MarginalDesign(alpha_tilde, beta, theta0, theta1, n_try, k)
    raise ValueError(f"exact-refine found no (N, k) meeting both binomial constraints "
                     f"in {_REFINE_STEPS} sample sizes from N = {start}")


def combine(x: MarginalDesign, y: MarginalDesign) -> BivariateDesign:
    """Pool two margins: curtail at min(N*), keep each margin's own k*."""
    return BivariateDesign(x=x, y=y)

