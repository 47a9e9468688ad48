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
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass, asdict

from .special_functions import norm_quantile, reg_inc_beta
from .params import JointBernoulliParams

__all__ = [
    "MarginalDesign",
    "BivariateDesign",
    "design_marginal",
    "critical_value_for_n",
    "combine",
    "attained_errors",
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
        if not 0 < self.theta0 < self.theta1 < 1:
            raise ValueError("need 0 < theta0 < theta1 < 1")
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
            # the range design_marginal enforces
            for f in ("alpha_tilde", "beta"):
                if not 0.0 < sides[side][f] < 0.5:
                    raise ValueError(f"design document: field '{side}.{f}' must be "
                                     f"a number in (0, 0.5), not {sides[side][f]!r}")
            try:
                sides[side] = MarginalDesign(**sides[side])
            except ValueError as exc:
                raise ValueError(f"design document: field {side!r}: {exc}") from None
        return cls(**sides)


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
    if not (0.0 < alpha_tilde < 0.5 and 0.0 < beta < 0.5):
        raise ValueError("alpha_tilde and beta must lie in (0, 0.5)")
    if not 0.0 < theta0 < theta1 < 1.0:
        raise ValueError("need 0 < theta0 < theta1 < 1")
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


def attained_errors(design: BivariateDesign, null_params: JointBernoulliParams,
                    alt_params: JointBernoulliParams,
                    method: str = "asymptotic") -> tuple[float, float]:
    """Retrospective (type I, type II) error probabilities of a pooled design.

    The default evaluates the rejection probability with the continuity-
    corrected bivariate normal approximation of the terminal counts, which is
    how reported retrospective rates are conventionally computed for designs
    this size; ``method="exact"`` uses the exact multinomial sum instead.
    """
    if method == "exact":
        from .exact_engine import power_exact
        return (power_exact(design, null_params),
                1.0 - power_exact(design, alt_params))
    if method == "asymptotic":
        from .asymptotic_engine import power_asymptotic
        return (power_asymptotic(design, null_params, form="curtailed-normal"),
                1.0 - power_asymptotic(design, alt_params, form="curtailed-normal"))
    raise ValueError(f"unknown method {method!r}")
