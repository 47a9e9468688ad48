"""Post-detection estimation and confidence statements.

Upon termination at M* observations, the sample proportions
theta_hat = (S^x/M*, S^y/M*) are asymptotically jointly normal around the
true margins with covariance

    Sigma = [[tx(1-tx), p11 - tx ty], [p11 - tx ty, ty(1-ty)]] / M*,

so a chi-square(2) Wald ellipse with plug-in Sigma_hat gives a joint
confidence region, projections of that ellipse give simultaneous intervals,
and the delta method gives the relative risk gamma = tx/ty its own normal
interval with variance gamma((gamma+1)/ty - 2 p11/ty^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .design import LatticeCounts
from .params import rho_from_p11
from .special_functions import norm_quantile

__all__ = [
    "PostTestEstimate",
    "ConfidenceRegion",
    "RelativeRiskEstimate",
    "chi2_quantile_2df",
    "post_test_estimate",
    "confidence_region",
    "ellipse_points",
    "relative_risk",
    "inverse_relative_risk",
]

_SINGULAR_DET = 1e-14


def _check_level(level: float) -> None:
    """The one rule for a confidence level: it lies in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")


def chi2_quantile_2df(level: float) -> float:
    """chi-square quantile with 2 degrees of freedom: -2 log(1 - level)."""
    _check_level(level)
    return -2.0 * math.log1p(-level)


@dataclass(frozen=True)
class PostTestEstimate:
    """Point estimates and plug-in covariance after a terminated run."""

    theta_hat_x: float
    theta_hat_y: float
    p11_hat: float
    rho_hat: float
    m_star: int
    sigma_hat: np.ndarray
    singular: bool

    def to_dict(self) -> dict:
        """The fields as JSON values; an undefined rho_hat (a margin
        estimate of 0 or 1) is None, as JSON has no NaN."""
        return {
            "theta_hat_x": self.theta_hat_x,
            "theta_hat_y": self.theta_hat_y,
            "p11_hat": self.p11_hat,
            "rho_hat": None if math.isnan(self.rho_hat) else self.rho_hat,
            "m_star": self.m_star,
            "sigma_hat": [list(row) for row in self.sigma_hat.tolist()],
            "singular": self.singular,
        }


@dataclass(frozen=True)
class ConfidenceRegion:
    """Wald ellipse plus simultaneous and Bonferroni intervals."""

    level: float
    center: np.ndarray
    half_lengths: tuple[float, float]   # (major, minor)
    orientation: np.ndarray             # unit eigenvector of the major axis
    simultaneous: tuple[tuple[float, float], tuple[float, float]]
    bonferroni: tuple[tuple[float, float], tuple[float, float]]

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "center": list(self.center),
            "half_lengths": list(self.half_lengths),
            "orientation": list(self.orientation),
            "simultaneous": {"theta_x": list(self.simultaneous[0]),
                             "theta_y": list(self.simultaneous[1])},
            "bonferroni": {"theta_x": list(self.bonferroni[0]),
                           "theta_y": list(self.bonferroni[1])},
        }


@dataclass(frozen=True)
class RelativeRiskEstimate:
    gamma_hat: float
    variance: float
    ci: tuple[float, float]
    level: float

    def to_dict(self) -> dict:
        return {"gamma_hat": self.gamma_hat, "variance": self.variance,
                "ci": list(self.ci), "level": self.level}


def _plug_in(s_x, s_y, n11, m):
    """theta_hat_x, theta_hat_y, p11_hat, Sigma_hat and the singular flag of
    terminal tables with margin counts s_x, s_y, both-effects count n11 and
    size m.

    Ints give one table: floats, a 2x2 Sigma_hat and a bool.  Equal-length
    arrays give a block: arrays and an (n, 2, 2) stack.  A table is singular
    when a margin estimate is 0 or 1 or det Sigma_hat <= 1e-14.
    """
    thx = s_x / m
    thy = s_y / m
    p11 = n11 / m
    s12 = p11 - thx * thy
    # Sigma_hat is symmetric, so .T only moves a block's axis to the front
    sigma = np.array([[thx * (1.0 - thx), s12], [s12, thy * (1.0 - thy)]]).T
    degenerate = (thx == 0.0) | (thx == 1.0) | (thy == 0.0) | (thy == 1.0)
    singular = degenerate | (np.linalg.det(sigma) <= _SINGULAR_DET)
    return thx, thy, p11, sigma, singular


def _wald_covers(plug_in, m, theta_x, theta_y, c):
    """Whether each table's Wald region holds (theta_x, theta_y):
    M*(theta_hat-theta)' Sigma_hat^-1 (theta_hat-theta) <= c, the region's
    chi-square(2) quantile, for the :func:`_plug_in` values of the tables.
    A singular table's region is the point theta_hat, which does not hold theta.
    """
    thx, thy, _, sigma, singular = plug_in
    s11, s12, s22 = sigma[..., 0, 0], sigma[..., 0, 1], sigma[..., 1, 1]
    dx = thx - theta_x
    dy = thy - theta_y
    with np.errstate(divide="ignore", invalid="ignore"):
        quad = m * (s22 * dx * dx - 2 * s12 * dx * dy + s11 * dy * dy) / (
            s11 * s22 - s12 * s12)
    return ~singular & (quad <= c)


def post_test_estimate(counts: LatticeCounts) -> PostTestEstimate:
    """Sample-proportion estimates from the terminal contingency table,
    whose total is the stopping time M*."""
    m_star = counts.total
    if m_star < 1:
        raise ValueError("the table is empty: all four counts are 0")
    thx, thy, p11, sigma, singular = _plug_in(counts.s_x, counts.s_y, counts.n11,
                                              m_star)
    inside = 0.0 < thx < 1.0 and 0.0 < thy < 1.0
    rho = rho_from_p11(thx, thy, p11) if inside else float("nan")
    return PostTestEstimate(
        theta_hat_x=thx, theta_hat_y=thy, p11_hat=p11, rho_hat=rho,
        m_star=m_star, sigma_hat=sigma, singular=bool(singular),
    )


def confidence_region(est: PostTestEstimate, level: float = 0.95) -> ConfidenceRegion:
    """Joint Wald region {theta : M*(theta_hat-theta)' Sigma^-1 (theta_hat-theta) <= c}.

    c is the chi-square(2) quantile; ellipse half-lengths are
    sqrt(c * lambda_i / M*) along the eigenvectors of Sigma_hat.  Simultaneous
    intervals are the coordinate projections of the ellipse,
    theta_hat_i +- sqrt(c * Sigma_ii / M*); Bonferroni intervals use the
    z_{1-(1-level)/4} normal quantile instead.  A singular Sigma_hat yields a
    degenerate (point-interval) region rather than an error.
    """
    c = chi2_quantile_2df(level)
    center = np.array([est.theta_hat_x, est.theta_hat_y])
    if est.singular:
        point = ((est.theta_hat_x, est.theta_hat_x),
                 (est.theta_hat_y, est.theta_hat_y))
        return ConfidenceRegion(level=level, center=center,
                                half_lengths=(0.0, 0.0),
                                orientation=np.array([1.0, 0.0]),
                                simultaneous=point, bonferroni=point)
    eigvals, eigvecs = np.linalg.eigh(est.sigma_hat)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    half = tuple(math.sqrt(c * lam / est.m_star) for lam in eigvals)
    sim = tuple(
        (center[i] - math.sqrt(c * est.sigma_hat[i, i] / est.m_star),
         center[i] + math.sqrt(c * est.sigma_hat[i, i] / est.m_star))
        for i in (0, 1)
    )
    z = norm_quantile(1.0 - (1.0 - level) / 4.0)
    bon = tuple(
        (center[i] - z * math.sqrt(est.sigma_hat[i, i] / est.m_star),
         center[i] + z * math.sqrt(est.sigma_hat[i, i] / est.m_star))
        for i in (0, 1)
    )
    return ConfidenceRegion(level=level, center=center, half_lengths=half,
                            orientation=eigvecs[:, 0], simultaneous=sim,
                            bonferroni=bon)


def ellipse_points(est: PostTestEstimate, level: float = 0.95,
                   n_points: int = 200) -> np.ndarray:
    """(n_points, 2) array tracing the confidence-ellipse boundary."""
    region = confidence_region(est, level)
    t = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    major, minor = region.half_lengths
    u = region.orientation
    v = np.array([-u[1], u[0]])
    return (region.center[None, :]
            + np.outer(major * np.cos(t), u) + np.outer(minor * np.sin(t), v))


def relative_risk(est: PostTestEstimate, level: float = 0.95) -> RelativeRiskEstimate:
    """Estimated relative risk theta_x/theta_y with its delta-method interval."""
    _check_level(level)
    if est.theta_hat_y <= 0.0:
        raise ZeroDivisionError("relative risk undefined: theta_hat_y = 0")
    gamma = est.theta_hat_x / est.theta_hat_y
    thy = est.theta_hat_y
    var = gamma * ((gamma + 1.0) / thy - 2.0 * est.p11_hat / (thy * thy))
    z = norm_quantile((1.0 + level) / 2.0)
    hw = z * math.sqrt(max(var, 0.0) / est.m_star)
    return RelativeRiskEstimate(gamma_hat=gamma, variance=var,
                                ci=(gamma - hw, gamma + hw), level=level)


def inverse_relative_risk(est: PostTestEstimate, level: float = 0.95) -> RelativeRiskEstimate:
    """Estimated inverse relative risk theta_y/theta_x: the relative risk of
    the same estimate with the margins exchanged."""
    if est.theta_hat_x <= 0.0:
        raise ZeroDivisionError("inverse relative risk undefined: theta_hat_x = 0")
    swapped = replace(est, theta_hat_x=est.theta_hat_y, theta_hat_y=est.theta_hat_x,
                      sigma_hat=est.sigma_hat[::-1, ::-1])
    return relative_risk(swapped, level)
