"""Parameter space for a pair of correlated binary side effects.

A subject either shows side effect X, side effect Y, both, or neither, so a
single observation is a draw from a four-cell multinomial.  The marginal
probabilities (theta_x, theta_y) and the correlation rho determine the cell
probabilities

    p11 = rho * sqrt(theta_x (1-theta_x) theta_y (1-theta_y)) + theta_x theta_y
    p10 = theta_x - p11,   p01 = theta_y - p11,   p00 = 1 - theta_x - theta_y + p11

and the requirement that every cell probability is nonnegative restricts rho
to a feasible interval that depends on the two odds Omega = theta/(1-theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleCorrelationError

__all__ = ["JointBernoulliParams", "make_params", "rho_from_p11", "condition_a_bounds"]

# Slack absorbing float round-off so that parameters sitting exactly on a
# feasibility boundary (cell probability 0) are accepted.
_FEAS_TOL = 1e-12


def condition_a_bounds(theta_x: float, theta_y: float) -> tuple[float, float]:
    """Feasible closed interval [lo, hi] for the correlation given the margins
    (the Frechet bounds on p11).

    ``lo`` is -min(sqrt(Omega_x Omega_y), 1/sqrt(Omega_x Omega_y)): the first
    keeps p11 >= 0 and binds when theta_x + theta_y < 1, the second keeps
    p00 >= 0 and binds when theta_x + theta_y > 1.  ``hi`` is
    min(sqrt(Omega_x/Omega_y), sqrt(Omega_y/Omega_x)) (keeps p10, p01 >= 0).
    An end of size 1 (hi = 1 when theta_x = theta_y, lo = -1 when
    theta_x + theta_y = 1) is refused by :func:`make_params`, which needs
    |rho| < 1.
    """
    ox = theta_x / (1.0 - theta_x)
    oy = theta_y / (1.0 - theta_y)
    odds = math.sqrt(ox * oy)
    lo = -odds if odds <= 1.0 else -1.0 / odds
    hi = min(math.sqrt(ox / oy), math.sqrt(oy / ox))
    return lo, hi


@dataclass(frozen=True)
class JointBernoulliParams:
    """Marginal probabilities, correlation, and induced cell probabilities."""

    theta_x: float
    theta_y: float
    rho: float
    p00: float
    p10: float
    p01: float
    p11: float

    @property
    def cell_probs(self) -> tuple[float, float, float, float]:
        """Cells in the fixed order (p00, p10, p01, p11)."""
        return (self.p00, self.p10, self.p01, self.p11)

    def swapped(self) -> "JointBernoulliParams":
        """The same joint law with the roles of X and Y exchanged."""
        return JointBernoulliParams(
            theta_x=self.theta_y, theta_y=self.theta_x, rho=self.rho,
            p00=self.p00, p10=self.p01, p01=self.p10, p11=self.p11,
        )


def make_params(theta_x: float, theta_y: float, rho: float) -> JointBernoulliParams:
    """Build a :class:`JointBernoulliParams`, rejecting infeasible correlations.

    Raises :class:`InfeasibleCorrelationError` naming the violated restriction:
    ``p11``, ``p10`` or ``p01`` for the three correlation bounds, ``p00`` for
    margins so large that the no-effect cell would go negative.
    """
    if not (0.0 < theta_x < 1.0 and 0.0 < theta_y < 1.0):
        raise ValueError("marginal probabilities must lie strictly in (0, 1)")
    if math.isnan(rho):
        raise ValueError("correlation rho is not a number")
    if not abs(rho) < 1.0:
        raise ValueError("correlation must satisfy |rho| < 1")

    ox = theta_x / (1.0 - theta_x)
    oy = theta_y / (1.0 - theta_y)
    lo = -math.sqrt(ox * oy)
    if rho < lo - _FEAS_TOL:
        raise InfeasibleCorrelationError(
            f"rho={rho:.6g} < -sqrt(Omega_x*Omega_y)={lo:.6g}: "
            f"joint-cell probability p11 would be negative",
            restriction="p11",
        )
    if rho > math.sqrt(ox / oy) + _FEAS_TOL:
        raise InfeasibleCorrelationError(
            f"rho={rho:.6g} > sqrt(Omega_x/Omega_y)={math.sqrt(ox / oy):.6g}: "
            f"X-only cell probability p10 would be negative",
            restriction="p10",
        )
    if rho > math.sqrt(oy / ox) + _FEAS_TOL:
        raise InfeasibleCorrelationError(
            f"rho={rho:.6g} > sqrt(Omega_y/Omega_x)={math.sqrt(oy / ox):.6g}: "
            f"Y-only cell probability p01 would be negative",
            restriction="p01",
        )

    p11 = rho * math.sqrt(theta_x * (1.0 - theta_x) * theta_y * (1.0 - theta_y)) \
        + theta_x * theta_y
    p10 = theta_x - p11
    p01 = theta_y - p11
    p00 = 1.0 - theta_x - theta_y + p11
    # The three correlation bounds do not cover p00 >= 0, which binds when
    # theta_x + theta_y > 1; reject that case explicitly so every cell is a
    # probability.
    if p00 < -_FEAS_TOL:
        raise InfeasibleCorrelationError(
            f"rho={rho:.6g} gives p00={p00:.6g} < 0 at margins "
            f"({theta_x:.6g}, {theta_y:.6g})",
            restriction="p00",
        )
    clamp = lambda v: min(max(v, 0.0), 1.0)
    return JointBernoulliParams(
        theta_x=theta_x, theta_y=theta_y, rho=rho,
        p00=clamp(p00), p10=clamp(p10), p01=clamp(p01), p11=clamp(p11),
    )


def rho_from_p11(theta_x: float, theta_y: float, p11: float) -> float:
    """Correlation implied by the joint-both-effects probability p11.

    rho = (p11 - theta_x theta_y) / sqrt(theta_x(1-theta_x) theta_y(1-theta_y)).
    Round-trips with :func:`make_params` on the feasible region.
    """
    if not (0.0 < theta_x < 1.0 and 0.0 < theta_y < 1.0):
        raise ValueError("marginal probabilities must lie strictly in (0, 1)")
    lo = max(0.0, theta_x + theta_y - 1.0)
    hi = min(theta_x, theta_y)
    if p11 < lo - _FEAS_TOL or p11 > hi + _FEAS_TOL:
        raise ValueError(
            f"p11={p11:.6g} incompatible with margins: must lie in "
            f"[{lo:.6g}, {hi:.6g}]"
        )
    return (p11 - theta_x * theta_y) / math.sqrt(
        theta_x * (1.0 - theta_x) * theta_y * (1.0 - theta_y)
    )
