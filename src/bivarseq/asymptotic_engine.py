"""Bivariate-normal approximations of the test's operating characteristics.

Two normal laws drive everything here.  The terminal counts
(S^x_{n*}, S^y_{n*}) are approximately normal with the multinomial mean and
covariance, which yields the continuity-corrected rejection probability.  At
a boundary crossing, the pair (count on the other margin, stopping time) is
approximately normal with the overshoot-free first-passage parameters

    X boundary:  mean ((ty/tx)(k+1), (k+1)/tx),
                 cov  (k+1)/tx^2 * [[ty(tx+ty-2 p11), ty-p11], [ty-p11, 1-tx]]

(and symmetrically for the Y boundary), valid when
eta^2 = tx ty (tx + ty - 2 p11) > 0.  Summing the per-m slab probabilities of
the two crossing laws approximates the stopping-time pmf; the corner mass is
dropped, being asymptotically negligible.  Ratio integrands (k+1)/M and S/M
are evaluated on the integer stopping-time grid, with the count coordinate
integrated in closed form inside each slab.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import BivariateDesign
from .errors import DegenerateCovarianceError
from .exact_engine import StoppingPmf
from .params import JointBernoulliParams
from .special_functions import (
    BivariateNormalParams,
    bvn_cdf,
    bvn_rect,
    norm_cdf,
    norm_pdf,
)

__all__ = [
    "GutLaw",
    "gut_params",
    "terminal_count_law",
    "stopping_pmf_asymptotic",
    "power_asymptotic",
    "boundary_hit_probs",
    "estimator_expectation_asymptotic",
]


@dataclass(frozen=True)
class GutLaw:
    """First-passage normal law at one boundary: (other-margin count, M)."""

    which_boundary: str
    mean: np.ndarray
    cov: np.ndarray

    @property
    def normal(self) -> BivariateNormalParams:
        return BivariateNormalParams(mean=self.mean, cov=self.cov)


def gut_params(params: JointBernoulliParams, k: int, which: str) -> GutLaw:
    """First-passage law for the boundary at critical value k.

    ``which`` selects the crossing margin ('x' or 'y'); the law's first
    coordinate is the count on the *other* margin at the crossing, the second
    the crossing time itself.  The Y law is the X law of the swapped margins.
    """
    if which not in ("x", "y"):
        raise ValueError("which must be 'x' or 'y'")
    if which == "y":
        params = params.swapped()
    tx, ty, p11 = params.theta_x, params.theta_y, params.p11
    # tx + ty - 2 p11 = 0 only at the perfect-overlap corner tx = ty = p11;
    # values below 1e-9 are float shadows of that corner and equally unusable
    if tx + ty - 2.0 * p11 <= 1e-9:
        raise DegenerateCovarianceError(
            f"degenerate first-passage law: tx + ty - 2 p11 = "
            f"{tx + ty - 2 * p11:.3g} must be positive"
        )
    mean = np.array([ty / tx * (k + 1), (k + 1) / tx])
    cov = (k + 1) / tx ** 2 * np.array(
        [[ty * (tx + ty - 2 * p11), ty - p11], [ty - p11, 1 - tx]])
    return GutLaw(which_boundary=which, mean=mean, cov=cov)


def terminal_count_law(n_star: int, params: JointBernoulliParams) -> BivariateNormalParams:
    """Normal approximation of (S^x, S^y) after n_star observations."""
    tx, ty = params.theta_x, params.theta_y
    off = n_star * (params.p11 - tx * ty)
    return BivariateNormalParams(
        mean=np.array([n_star * tx, n_star * ty]),
        cov=np.array([[n_star * tx * (1 - tx), off], [off, n_star * ty * (1 - ty)]]),
    )


def _standardized(law: BivariateNormalParams):
    s = law.sigmas
    return law.mean, s, law.corr


def _slab_probs(law: BivariateNormalParams, u_hi: float, w_edges: np.ndarray) -> np.ndarray:
    """P(U <= u_hi, W in (w_edges[i], w_edges[i+1]]) for consecutive edges."""
    mean, s, r = _standardized(law)
    a = (u_hi - mean[0]) / s[0]
    b = (w_edges - mean[1]) / s[1]
    cdf = bvn_cdf(a, b, r)
    return np.diff(cdf)


def _ez_lower(a, b, r):
    """E[Z 1(Z <= a, W <= b)] for standard bivariate normal (Z, W)."""
    s = np.sqrt(1.0 - r * r)
    return -norm_pdf(a) * norm_cdf((b - r * a) / s) \
        - r * norm_pdf(b) * norm_cdf((a - r * b) / s)


def _slab_first_moment(law: BivariateNormalParams, u_hi: float,
                       w_edges: np.ndarray) -> np.ndarray:
    """E[U ; U <= u_hi, W in slab] for the consecutive w slabs."""
    mean, s, r = _standardized(law)
    a = (u_hi - mean[0]) / s[0]
    b = (w_edges - mean[1]) / s[1]
    p = np.diff(bvn_cdf(a, b, r))
    ez = np.diff(_ez_lower(a, b, r))
    return mean[0] * p + s[0] * ez


def stopping_pmf_asymptotic(design: BivariateDesign,
                            params: JointBernoulliParams) -> StoppingPmf:
    """Per-m slab masses of the two first-passage laws; no corner term.

    ``continue_mass`` carries the continuity-corrected non-rejection
    probability of the terminal-count law, so the total may differ from 1 by
    the approximation error.
    """
    n_star, k_x, k_y = design.n_star, design.k_x, design.k_y
    support = np.arange(design.k_lower + 1, n_star + 1)
    edges = np.concatenate([[support[0] - 0.5], support + 0.5])
    law_x = gut_params(params, k_x, "x").normal
    law_y = gut_params(params, k_y, "y").normal
    mass_x = np.maximum(_slab_probs(law_x, k_y + 0.5, edges), 0.0)
    mass_y = np.maximum(_slab_probs(law_y, k_x + 0.5, edges), 0.0)
    cont = bvn_rect(terminal_count_law(n_star, params),
                    (-np.inf, -np.inf), (k_x + 0.5, k_y + 0.5))
    return StoppingPmf(
        support=support, mass_x=mass_x, mass_y=mass_y,
        mass_corner=np.zeros(len(support)), continue_mass=float(cont),
    )


def power_asymptotic(design: BivariateDesign, params: JointBernoulliParams,
                     form: str = "curtailed-normal") -> float:
    """Approximate rejection probability.

    ``curtailed-normal`` complements the terminal-count rectangle up to
    (k_x+0.5, k_y+0.5); ``gut`` sums the two first-passage integrals up to
    n_star+0.5.
    """
    if form == "curtailed-normal":
        cont = bvn_rect(terminal_count_law(design.n_star, params),
                        (-np.inf, -np.inf), (design.k_x + 0.5, design.k_y + 0.5))
        return float(min(max(1.0 - cont, 0.0), 1.0))
    if form == "gut":
        hit_x, hit_y = boundary_hit_probs(design, params)
        return float(min(hit_x + hit_y, 1.0))
    raise ValueError(f"unknown power form {form!r}")


def boundary_hit_probs(design: BivariateDesign,
                       params: JointBernoulliParams) -> tuple[float, float]:
    """Approximate (P(X boundary first), P(Y boundary first)) by n_star."""
    law_x = gut_params(params, design.k_x, "x").normal
    law_y = gut_params(params, design.k_y, "y").normal
    hi = design.n_star + 0.5
    p_x = bvn_rect(law_x, (-np.inf, -np.inf), (design.k_y + 0.5, hi))
    p_y = bvn_rect(law_y, (-np.inf, -np.inf), (design.k_x + 0.5, hi))
    return float(p_x), float(p_y)


def estimator_expectation_asymptotic(design: BivariateDesign,
                                     params: JointBernoulliParams,
                                     margin: str) -> float:
    """Approximate E[theta_hat] for one margin.

    Curtailed term: first moment of the margin's terminal count over the
    non-rejection rectangle, divided by n_star.  Stopped terms: over the
    stopping-time grid, (k+1)/m weighted slab probabilities for the margin's
    own boundary, and slab-conditional count means divided by m for the other
    boundary.  Margin Y is margin X of the swapped margins.
    """
    if margin not in ("x", "y"):
        raise ValueError("margin must be 'x' or 'y'")
    n_star, k_own, k_other = design.n_star, design.k_x, design.k_y
    if margin == "y":
        params, k_own, k_other = params.swapped(), k_other, k_own
    support = np.arange(design.k_lower + 1, n_star + 1).astype(float)
    edges = np.concatenate([[support[0] - 0.5], support + 0.5])
    own_law = gut_params(params, k_own, "x").normal
    other_law = gut_params(params, k_other, "y").normal

    # curtailed: E[count ; count <= own cap, other count <= other cap] / n*
    mean, s, r = _standardized(terminal_count_law(n_star, params))
    a = (k_own + 0.5 - mean[0]) / s[0]
    b = (k_other + 0.5 - mean[1]) / s[1]
    curt = (mean[0] * bvn_cdf(a, b, r) + s[0] * _ez_lower(a, b, r)) / n_star

    own = ((k_own + 1) / support * _slab_probs(own_law, k_other + 0.5, edges)).sum()
    other = (_slab_first_moment(other_law, k_own + 0.5, edges) / support).sum()
    return float(curt + own + other)
