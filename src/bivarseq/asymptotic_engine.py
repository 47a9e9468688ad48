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
dropped, being asymptotically negligible.  The estimator expectations are
those of the exact engine, ``StoppingPmf.estimator_mean``, over this pmf:
the ratio integrands (k+1)/M and S/M on the integer stopping-time grid, with
the count coordinate integrated in closed form inside each slab, and the
curtailed term by Wald's identity.  The engine keeps the pmf and both
estimators for the last (design, params) point.  The power forms build no
such law but share its parts: the curtailed-normal power reads the same
terminal-count rectangle, and the gut power and the hit probabilities the
same two first-passage laws, each kept for the last point; a point makes
five ``bvn_cdf`` calls.  A point whose normal laws are singular in float64
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


@lru_cache(maxsize=1)
def _rectangle(n_star: int, k_x: int, k_y: int, params: JointBernoulliParams) -> float:
    """P(no rejection) under the terminal-count law: its mass up to
    (k_x + 0.5, k_y + 0.5)."""
    law = terminal_count_law(n_star, params)
    a, b = (np.array([k_x, k_y]) + 0.5 - law.mean) / law.sigmas
    return float(bvn_cdf(a, b, law.corr))


@lru_cache(maxsize=1)
def _passage_laws(k_x: int, k_y: int, params: JointBernoulliParams):
    """The first-passage laws of the X and the Y boundary."""
    return gut_params(params, k_x, "x"), gut_params(params, k_y, "y")


@lru_cache(maxsize=1)
def _law(n_star: int, k_x: int, k_y: int, params: JointBernoulliParams):
    """(StoppingPmf, E[theta_hat_x], E[theta_hat_y]) at one point.  The pmf
    holds the per-m slab masses of the two crossing laws, clipped at 0, and
    the rectangle's P(no rejection); on a boundary a margin's count is k + 1,
    on the other one the slab first moment of the crossing law.  Callers
    share the read-only arrays."""
    support = np.arange(min(k_x, k_y) + 1, n_star + 1)
    edges = np.concatenate([[support[0] - 0.5], support + 0.5])
    law_x, law_y = _passage_laws(k_x, k_y, params)
    (p_x, sy_at_x), (p_y, sx_at_y) = (_lower_orthant(law_x, k_y + 0.5, edges),
                                      _lower_orthant(law_y, k_x + 0.5, edges))
    mass_x, mass_y, corner = np.maximum(p_x, 0.0), np.maximum(p_y, 0.0), np.zeros(len(support))
    for arr in (support, mass_x, mass_y, corner):
        arr.flags.writeable = False
    pmf = StoppingPmf(support=support, mass_x=mass_x, mass_y=mass_y, mass_corner=corner,
                      continue_mass=_rectangle(n_star, k_x, k_y, params))
    return (pmf, pmf.estimator_mean(n_star, params.theta_x, (k_x + 1) * mass_x + sx_at_y),
            pmf.estimator_mean(n_star, params.theta_y, (k_y + 1) * mass_y + sy_at_x))


def stopping_pmf_asymptotic(design: BivariateDesign,
                            params: JointBernoulliParams) -> StoppingPmf:
    """Per-m slab masses of the two first-passage laws; no corner term.

    ``continue_mass`` carries the continuity-corrected non-rejection
    probability of the terminal-count law, so the total may differ from 1 by
    the approximation error.
    """
    return _law(design.n_star, design.k_x, design.k_y, params)[0]


def power_asymptotic(design: BivariateDesign, params: JointBernoulliParams,
                     form: str = "curtailed-normal") -> float:
    """Approximate rejection probability.

    ``curtailed-normal`` complements the terminal-count rectangle up to
    (k_x+0.5, k_y+0.5); ``gut`` sums the two first-passage integrals up to
    n_star+0.5.
    """
    if form == "curtailed-normal":
        cont = _rectangle(design.n_star, design.k_x, design.k_y, params)
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
    """Approximate E[theta_hat] for one margin, by the formula of the exact
    engine (``StoppingPmf.estimator_mean``) over the asymptotic pmf: over the
    stopping-time grid, (k+1)/m weighted slab masses of the margin's own
    boundary and slab-conditional count means divided by m of the other
    boundary; the curtailed term by Wald's identity, with E[min(M, n_star)]
    from the slab masses.
    """
    if margin not in ("x", "y"):
        raise ValueError("margin must be 'x' or 'y'")
    return _law(design.n_star, design.k_x, design.k_y, params)[1 if margin == "x" else 2]
