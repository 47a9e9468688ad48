"""Numerical primitives: regularized incomplete beta, univariate and
bivariate normal cdf/pdf/quantile, and rectangle probabilities for a general
2-d normal law.

Scalar special functions delegate to :mod:`scipy.special`, which meets the
accuracy requirements of every caller in this package.  The bivariate normal
cdf is computed here directly with a fixed-order Gauss-Legendre reduction of
the single-integral representation over the correlation parameter (the
classical Drezner-Wesolowsky / Genz scheme), so that it is deterministic and
vectorizes over the grid arguments the engines feed it.

This module is the package's only importer of scipy, and it imports
:mod:`scipy.special` on first use: that import takes about half of a fresh
process's start.  The monitor, Monte Carlo and the whole exact engine (power,
stopping law, moments, ASN bounds and estimators) call none of its
functions; design sizing, post-detection analysis and the asymptotic engine
do.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCovarianceError

__all__ = [
    "BivariateNormalParams",
    "reg_inc_beta",
    "norm_cdf",
    "norm_pdf",
    "norm_quantile",
    "bvn_cdf",
    "bvn_rect",
]

# 20-point Gauss-Legendre rule on [-1, 1]; fixed order keeps results
# bit-reproducible across calls and platforms.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)

_SQRT_2PI = np.sqrt(2.0 * np.pi)
# Beyond |z| ~ 39 the normal cdf saturates in float64; clipping there makes
# +/- inf arguments well defined without special cases.
_Z_CAP = 39.0


@functools.cache
def _sp():
    """:mod:`scipy.special`, imported by the first call."""
    from scipy import special
    return special


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta function I_x(a, b).

    I_x(a, b) = int_0^x u^(a-1) (1-u)^(b-1) du / B(a, b), for 0 <= x <= 1
    and a, b > 0.  Related to binomial tails by
    P(Binomial(n, p) >= k) = I_p(k, n - k + 1).
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any((x < 0.0) | (x > 1.0)):
        raise ValueError("reg_inc_beta requires 0 <= x <= 1")
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ValueError("reg_inc_beta requires a > 0 and b > 0")
    out = _sp().betainc(a, b, x)
    return float(out) if out.ndim == 0 else out


def norm_cdf(z):
    """Standard normal cdf."""
    out = _sp().ndtr(np.asarray(z, dtype=float))
    return float(out) if out.ndim == 0 else out


def norm_pdf(z):
    """Standard normal density."""
    z = np.asarray(z, dtype=float)
    out = np.exp(-0.5 * z * z) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


def norm_quantile(p):
    """Inverse of :func:`norm_cdf` on (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("norm_quantile requires 0 < p < 1")
    out = _sp().ndtri(p)
    return float(out) if out.ndim == 0 else out


def bvn_cdf(h, k, rho):
    """P(U <= h, W <= k) for a standard bivariate normal with correlation rho.

    ``h`` and ``k`` may be scalars or broadcastable arrays (+-inf allowed);
    ``rho`` must be a scalar with |rho| < 1.  Absolute error is below 1e-13
    over the full correlation range.
    """
    rho = float(rho)
    if not abs(rho) < 1.0:
        raise ValueError("bvn_cdf requires |rho| < 1")
    h = np.clip(np.asarray(h, dtype=float), -_Z_CAP, _Z_CAP)
    k = np.clip(np.asarray(k, dtype=float), -_Z_CAP, _Z_CAP)
    h, k = np.broadcast_arrays(h, k)
    scalar = h.ndim == 0
    h = np.atleast_1d(h).astype(float)
    k = np.atleast_1d(k).astype(float)

    if rho == 0.0:
        out = _sp().ndtr(h) * _sp().ndtr(k)
    elif abs(rho) < 0.925:
        out = _bvn_small_rho(h, k, rho)
    else:
        out = _bvn_large_rho(h, k, rho)
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out.reshape(np.broadcast_shapes(h.shape, k.shape))


def _bvn_small_rho(h, k, rho):
    # Phi2(h,k;r) = Phi(h)Phi(k) + (1/2pi) * int_0^asin(r) exp((hk sin t - hs)/cos^2 t) dt
    hk = h * k
    hs = 0.5 * (h * h + k * k)
    asr = np.arcsin(rho)
    theta = 0.5 * asr * (_GL_NODES + 1.0)  # nodes mapped onto [0, asr]
    sn = np.sin(theta)
    expo = (np.outer(hk, sn) - hs[:, None]) / (1.0 - sn * sn)[None, :]
    acc = np.exp(expo) @ _GL_WEIGHTS
    return _sp().ndtr(h) * _sp().ndtr(k) + acc * (0.5 * asr) / (2.0 * np.pi)


def _bvn_large_rho(h, k, rho):
    # Genz's expansion about |rho| -> 1 plus a Gauss-Legendre correction
    # integral; keeps full accuracy where the sin-substitution degrades.
    hh = -h
    kk = -k if rho > 0 else k
    hk = hh * kk
    a2 = (1.0 - rho) * (1.0 + rho)
    a = np.sqrt(a2)
    bs = (hh - kk) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr0 = -(bs / a2 + hk) / 2.0
    bvn = a * np.exp(asr0) * (1.0 - c * (bs - a2) * (1.0 - d * bs / 5.0) / 3.0
                              + c * d * a2 * a2 / 5.0)
    safe = hk > -160.0
    hk_s = np.where(safe, hk, 0.0)
    b = np.sqrt(bs)
    bvn = bvn - np.where(
        safe,
        np.exp(-hk_s / 2.0) * _SQRT_2PI * _sp().ndtr(-b / a) * b
        * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
        0.0,
    )
    # correction integral over s in (0, a], xs = s^2
    s_nodes = 0.5 * a * (_GL_NODES + 1.0)
    xs = s_nodes * s_nodes
    rs = np.sqrt(1.0 - xs)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t1 = np.exp(-bs[:, None] / (2.0 * xs)[None, :]
                    - hk[:, None] / (1.0 + rs)[None, :]) / rs[None, :]
        t2 = np.exp(-(bs[:, None] / xs[None, :] + hk[:, None]) / 2.0) \
            * (1.0 + np.outer(c, xs) * (1.0 + np.outer(d, xs)))
        integrand = np.where(np.isfinite(t1), t1, 0.0) - np.where(np.isfinite(t2), t2, 0.0)
    bvn = bvn + (0.5 * a) * (integrand @ _GL_WEIGHTS)
    bvn = -bvn / (2.0 * np.pi)
    if rho > 0:
        return bvn + _sp().ndtr(-np.maximum(hh, kk))
    return -bvn + np.maximum(0.0, _sp().ndtr(-hh) - _sp().ndtr(-kk))


@dataclass(frozen=True)
class BivariateNormalParams:
    """Mean vector and covariance matrix of a 2-d normal law.

    The covariance must be symmetric with positive diagonal and nonnegative
    determinant; rectangle probabilities additionally require positive
    definiteness.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(2)
        cov = np.asarray(self.cov, dtype=float).reshape(2, 2)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10):
            raise DegenerateCovarianceError("covariance must be symmetric")
        if cov[0, 0] <= 0.0 or cov[1, 1] <= 0.0:
            raise DegenerateCovarianceError("covariance diagonal must be positive")
        if np.linalg.det(cov) < -1e-12:
            raise DegenerateCovarianceError("covariance must be positive semidefinite")

    @property
    def sigmas(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))

    @property
    def corr(self) -> float:
        s = self.sigmas
        return float(self.cov[0, 1] / (s[0] * s[1]))


def bvn_rect(params: BivariateNormalParams, lo, hi):
    """Probability of the axis-aligned rectangle [lo, hi] under ``params``.

    ``lo``/``hi`` are length-2 sequences; -inf entries in ``lo`` (and +inf in
    ``hi``) are allowed.  Entries may also be equal-length arrays, in which
    case a vector of rectangle probabilities is returned.
    """
    lo0, lo1 = np.asarray(lo[0], dtype=float), np.asarray(lo[1], dtype=float)
    hi0, hi1 = np.asarray(hi[0], dtype=float), np.asarray(hi[1], dtype=float)
    if np.any(lo0 > hi0) or np.any(lo1 > hi1):
        raise ValueError("bvn_rect requires lo <= hi componentwise")
    det = float(np.linalg.det(params.cov))
    if det <= 0.0:
        raise DegenerateCovarianceError(
            "rectangle probabilities require a positive definite covariance"
        )
    s = params.sigmas
    r = params.corr
    a0 = (lo0 - params.mean[0]) / s[0]
    a1 = (lo1 - params.mean[1]) / s[1]
    b0 = (hi0 - params.mean[0]) / s[0]
    b1 = (hi1 - params.mean[1]) / s[1]
    p = (bvn_cdf(b0, b1, r) - bvn_cdf(a0, b1, r)
         - bvn_cdf(b0, a1, r) + bvn_cdf(a0, a1, r))
    return p if np.ndim(p) else float(np.clip(p, 0.0, 1.0))
