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

# Slack in rho absorbing float round-off, so that a correlation sitting
# exactly on a feasible end (a cell probability 0) is accepted.
_FEAS_TOL = 1e-12


def condition_a_bounds(theta_x: float, theta_y: float) -> tuple[float, float]:
    """Feasible closed interval [lo, hi] for the correlation given the margins
    (the Frechet bounds on p11): :func:`make_params` and :func:`rho_from_p11`
    refuse a rho more than 1e-12 outside it.

    ``lo`` is -sqrt(Omega_x Omega_y) (p11 >= 0) when theta_x + theta_y <= 1,
    else -1/sqrt(Omega_x Omega_y) (p00 >= 0); ``hi`` is the smaller of
    sqrt(Omega_x/Omega_y) (p10 >= 0) and sqrt(Omega_y/Omega_x) (p01 >= 0).  An
    end of size 1 (hi = 1 when theta_x = theta_y, lo = -1 when theta_x + theta_y
    = 1) is refused by :func:`make_params`, which needs |rho| < 1.
    """
    ox = theta_x / (1.0 - theta_x)
    oy = theta_y / (1.0 - theta_y)
    odds = math.sqrt(ox * oy)
    lo = -odds if odds <= 1.0 else -1.0 / odds
    hi = min(math.sqrt(ox / oy), math.sqrt(oy / ox))
    return lo, hi


def _check_feasible(theta_x: float, theta_y: float, rho: float) -> None:
    """Refuse margins outside (0, 1) and a rho more than ``_FEAS_TOL`` outside
    :func:`condition_a_bounds`, naming the cell that would go negative."""
    if not (0.0 < theta_x < 1.0 and 0.0 < theta_y < 1.0):
        raise ValueError("marginal probabilities must lie strictly in (0, 1)")
    lo, hi = condition_a_bounds(theta_x, theta_y)
    if rho < lo - _FEAS_TOL:
        cell = "p11" if theta_x + theta_y <= 1.0 else "p00"
    elif rho > hi + _FEAS_TOL:
        cell = "p10" if theta_x <= theta_y else "p01"
    else:
        return
    raise InfeasibleCorrelationError(
        f"rho={rho:.6g} lies outside the feasible interval [{lo:.6g}, {hi:.6g}] of "
        f"margins ({theta_x:.6g}, {theta_y:.6g}): cell {cell} would be negative",
        restriction=cell)


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

    Raises :class:`InfeasibleCorrelationError` for a rho more than 1e-12 outside
    :func:`condition_a_bounds`, naming the cell that would go negative.
    """
    if math.isnan(rho):
        raise ValueError("correlation rho is not a number")
    if not abs(rho) < 1.0:
        raise ValueError("correlation must satisfy |rho| < 1")
    _check_feasible(theta_x, theta_y, rho)
    p11 = rho * math.sqrt(theta_x * (1.0 - theta_x) * theta_y * (1.0 - theta_y)) \
        + theta_x * theta_y
    p10 = theta_x - p11
    p01 = theta_y - p11
    p00 = 1.0 - theta_x - theta_y + p11
    clamp = lambda v: min(max(v, 0.0), 1.0)
    return JointBernoulliParams(
        theta_x=theta_x, theta_y=theta_y, rho=rho,
        p00=clamp(p00), p10=clamp(p10), p01=clamp(p01), p11=clamp(p11),
    )


def rho_from_p11(theta_x: float, theta_y: float, p11: float) -> float:
    """Correlation implied by the joint-both-effects probability p11.

    rho = (p11 - theta_x theta_y) / sqrt(theta_x(1-theta_x) theta_y(1-theta_y)).
    Round-trips with :func:`make_params`, and refuses the same correlations.
    """
    rho = (p11 - theta_x * theta_y) / math.sqrt(
        theta_x * (1.0 - theta_x) * theta_y * (1.0 - theta_y))
    _check_feasible(theta_x, theta_y, rho)
    return rho
