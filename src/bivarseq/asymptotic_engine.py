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
integrated in closed form inside each slab.  The engine keeps these normal
integrals for the last (design, params) point, which the pmf and both
estimators read.  The power forms build no such law but share its parts:
the curtailed-normal power reads the same terminal-count rectangle, and the
gut power and the hit probabilities the same two first-passage laws, each
kept for the last point.  A point whose normal laws are singular in float64
(|rho| one ulp below 1, or a law correlation that rounds to +-1) raises
:class:`DegenerateCovarianceError` naming (theta_x, theta_y, rho).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .design import BivariateDesign, StoppingPmf
from .errors import DegenerateCovarianceError
from .params import JointBernoulliParams
from .special_functions import BivariateNormalParams, bvn_cdf, norm_cdf, norm_pdf

__all__ = [
    "gut_params",
    "terminal_count_law",
    "stopping_pmf_asymptotic",
    "power_asymptotic",
    "boundary_hit_probs",
    "estimator_expectation_asymptotic",
]

# the gap below 1.0: at 1 - |rho| <= this, 1 - rho^2 is one rounding error
_RHO_ULP = np.finfo(float).epsneg


def gut_params(params: JointBernoulliParams, k: int, which: str) -> BivariateNormalParams:
    """First-passage law for the boundary at critical value k.

    ``which`` selects the crossing margin ('x' or 'y'); the law's first
    coordinate is the count on the *other* margin at the crossing, the second
    the crossing time itself.  The Y law is the X law of the swapped margins.
    """
    if which not in ("x", "y"):
        raise ValueError("which must be 'x' or 'y'")
    oriented = params.swapped() if which == "y" else params
    tx, ty, p11 = oriented.theta_x, oriented.theta_y, oriented.p11
    # tx + ty - 2 p11 = 0 only at the perfect-overlap corner tx = ty = p11;
    # values below 1e-9 are float shadows of that corner and equally unusable
    if tx + ty - 2.0 * p11 <= 1e-9:
        raise _degenerate(params, f"degenerate first-passage law: tx + ty - 2 p11 = "
                                  f"{tx + ty - 2 * p11:.3g} must be positive")
    mean = np.array([ty / tx * (k + 1), (k + 1) / tx])
    cov = (k + 1) / tx ** 2 * np.array(
        [[ty * (tx + ty - 2 * p11), ty - p11], [ty - p11, 1 - tx]])
    return _normal_law(params, mean, cov)


def terminal_count_law(n_star: int, params: JointBernoulliParams) -> BivariateNormalParams:
    """Normal approximation of (S^x, S^y) after n_star observations."""
    tx, ty = params.theta_x, params.theta_y
    off = n_star * (params.p11 - tx * ty)
    return _normal_law(
        params, mean=np.array([n_star * tx, n_star * ty]),
        cov=np.array([[n_star * tx * (1 - tx), off], [off, n_star * ty * (1 - ty)]]),
    )


def _degenerate(params: JointBernoulliParams, why: str) -> DegenerateCovarianceError:
    return DegenerateCovarianceError(
        f"no usable normal law at (theta_x, theta_y, rho) = ({params.theta_x:.17g}, "
        f"{params.theta_y:.17g}, {params.rho:.17g}): {why}")


def _normal_law(params: JointBernoulliParams, mean, cov) -> BivariateNormalParams:
    """N(mean, cov) at the point ``params``, refused where it is singular in
    float64: |rho| one ulp below 1, the closest :func:`make_params` allows,
    or a correlation that rounds to +-1, which bvn_cdf cannot take."""
    if 1.0 - abs(params.rho) <= _RHO_ULP:
        raise _degenerate(params, "|rho| is within one ulp of 1")
    try:
        law = BivariateNormalParams(mean=mean, cov=cov)
    except DegenerateCovarianceError as exc:
        raise _degenerate(params, str(exc)) from None
    if not abs(law.corr) < 1.0:
        raise _degenerate(params, f"its correlation rounds to {law.corr:.17g}")
    return law


def _lower_orthant(law: BivariateNormalParams, u: float, w):
    """(P(U <= u, W <= w), E[U; U <= u, W <= w]) under the normal law of
    (U, W).  For an array of w edges, the two quantities of each slab
    W in (w[i], w[i+1]]."""
    mean, s, r = law.mean, law.sigmas, law.corr
    a = (u - mean[0]) / s[0]
    b = (w - mean[1]) / s[1]
    p = bvn_cdf(a, b, r)
    # E[Z; Z <= a, W <= b] for the standardized pair
    q = np.sqrt(1.0 - r * r)
    ez = -norm_pdf(a) * norm_cdf((b - r * a) / q) - r * norm_pdf(b) * norm_cdf((a - r * b) / q)
    if np.ndim(w):
        p, ez = np.diff(p), np.diff(ez)
    return p, mean[0] * p + s[0] * ez


@lru_cache(maxsize=2)
def _rectangle(n_star: int, k_a: int, k_b: int, params: JointBernoulliParams):
    """(P(no rejection), E[S_a; no rejection]) under the terminal-count law,
    over the rectangle up to (k_a + 0.5, k_b + 0.5).  The two entries hold
    margin X and margin Y, which is margin X of the swapped params."""
    return _lower_orthant(terminal_count_law(n_star, params), k_a + 0.5, k_b + 0.5)


@lru_cache(maxsize=1)
def _passage_laws(k_x: int, k_y: int, params: JointBernoulliParams):
    """The first-passage laws of the X and the Y boundary."""
    return gut_params(params, k_x, "x"), gut_params(params, k_y, "y")


@lru_cache(maxsize=1)
def _law(n_star: int, k_x: int, k_y: int, params: JointBernoulliParams):
    """(support, slabs, curtailed) at one point.  ``slabs`` holds, for the X
    and then the Y boundary, the per-m slab probabilities of the crossing
    law and the slab first moments of the other margin's count;
    ``curtailed`` holds, for margin X and then Y, P(no rejection) and
    E[S; no rejection].  Callers share the read-only support."""
    support = np.arange(min(k_x, k_y) + 1, n_star + 1)
    support.flags.writeable = False
    edges = np.concatenate([[support[0] - 0.5], support + 0.5])
    law_x, law_y = _passage_laws(k_x, k_y, params)
    slabs = (_lower_orthant(law_x, k_y + 0.5, edges), _lower_orthant(law_y, k_x + 0.5, edges))
    # margin Y on the swapped law: bvn_cdf(h, k) and bvn_cdf(k, h) may differ in the last bit
    curtailed = (_rectangle(n_star, k_x, k_y, params),
                 _rectangle(n_star, k_y, k_x, params.swapped()))
    return support, slabs, curtailed


def stopping_pmf_asymptotic(design: BivariateDesign,
                            params: JointBernoulliParams) -> StoppingPmf:
    """Per-m slab masses of the two first-passage laws; no corner term.

    ``continue_mass`` carries the continuity-corrected non-rejection
    probability of the terminal-count law, so the total may differ from 1 by
    the approximation error.
    """
    support, ((p_x, _), (p_y, _)), ((cont, _), _) = _law(
        design.n_star, design.k_x, design.k_y, params)
    return StoppingPmf(
        support=support, mass_x=np.maximum(p_x, 0.0), mass_y=np.maximum(p_y, 0.0),
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
        cont, _ = _rectangle(design.n_star, design.k_x, design.k_y, params)
        return float(min(max(1.0 - cont, 0.0), 1.0))
    if form == "gut":
        hit_x, hit_y = boundary_hit_probs(design, params)
        return float(min(hit_x + hit_y, 1.0))
    raise ValueError(f"unknown power form {form!r}")


def boundary_hit_probs(design: BivariateDesign,
                       params: JointBernoulliParams) -> tuple[float, float]:
    """Approximate (P(X boundary first), P(Y boundary first)) by n_star."""
    law_x, law_y = _passage_laws(design.k_x, design.k_y, params)
    hi = design.n_star + 0.5
    p_x, _ = _lower_orthant(law_x, design.k_y + 0.5, hi)
    p_y, _ = _lower_orthant(law_y, design.k_x + 0.5, hi)
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
    support, slabs, curtailed = _law(design.n_star, design.k_x, design.k_y, params)
    side = "xy".index(margin)
    (own, _), (_, other) = slabs[side], slabs[1 - side]
    k_own = (design.k_x, design.k_y)[side]
    curt = curtailed[side][1] / design.n_star
    return float(curt + ((k_own + 1) / support * own).sum() + (other / support).sum())
