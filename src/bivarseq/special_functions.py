"""Numerical primitives: regularized incomplete beta, univariate and
bivariate normal cdf/pdf/quantile, and rectangle probabilities for a general
2-d normal law.

The normal quantile is a port of the Cephes ``ndtri`` (S. L. Moshier,
*Methods and Programs for Mathematical Functions*, 1989), the routine behind
:func:`scipy.special.ndtri`, and returns the same doubles.  The incomplete
beta and the normal cdf delegate to :mod:`scipy.special`, which meets the
accuracy requirements of every caller in this package.  The bivariate normal
cdf is computed here directly with a fixed-order Gauss-Legendre reduction of
the single-integral representation over the correlation parameter (the
classical Drezner-Wesolowsky / Genz scheme), so that it is deterministic and
vectorizes over the grid arguments the engines feed it.

This module is the package's only importer of scipy, and it imports
:mod:`scipy.special` on first use: that import takes about half of a fresh
process's start.  The monitor, Monte Carlo, the whole exact engine, design
sizing and post-detection analysis call no scipy function; the exact
refinement of a design (``reg_inc_beta``) and the asymptotic engine
(``norm_cdf``, ``bvn_cdf``) do.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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

_SQRT_2PI = np.sqrt(2.0 * np.pi)
# Beyond |z| ~ 39 the normal cdf saturates in float64; clipping there makes
# +/- inf arguments well defined without special cases.
_Z_CAP = 39.0


@functools.cache
def _sp():
    """:mod:`scipy.special`, imported by the first call."""
    from scipy import special
    return special


@functools.cache
def _gauss_legendre():
    """(nodes, weights) of the 20-point Gauss-Legendre rule on [-1, 1], built
    by the first call, which imports :mod:`numpy.polynomial`.  The fixed order
    keeps results bit-reproducible across calls and platforms."""
    return np.polynomial.legendre.leggauss(20)


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta function I_x(a, b).

    I_x(a, b) = int_0^x u^(a-1) (1-u)^(b-1) du / B(a, b), for 0 <= x <= 1
    and a, b > 0.  Related to binomial tails by
    P(Binomial(n, p) >= k) = I_p(k, n - k + 1).
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(~((0.0 <= x) & (x <= 1.0))):
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
    """Inverse of :func:`norm_cdf` on (0, 1): Cephes ``ndtri``, bit for bit."""
    p = np.asarray(p, dtype=float)
    if np.any(~((0.0 < p) & (p < 1.0))):
        raise ValueError("norm_quantile requires 0 < p < 1")
    if p.ndim == 0:
        return _ndtri(float(p))
    return np.fromiter(map(_ndtri, p.flat), float, p.size).reshape(p.shape)


# Moshier's Cephes ndtri (the routine behind scipy.special.ndtri), with its
# coefficient tables and evaluation order, so that every result is the same
# double.  It runs on math.log and math.sqrt per element: numpy's SIMD log
# differs from libm's in the last bit on a few arguments.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# The Q tables start with Cephes' implied leading 1 (its p1evl): 1.0 * x + c
# is x + c exactly.
# R(y^2) for |y - 0.5| <= 3/8
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# z = sqrt(-2 log y) in [2, 8): y between exp(-2) and exp(-32)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# z in [8, 64): y between exp(-32) and exp(-2048)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """Horner's rule, highest power first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y):
    """Cephes ``ndtri`` at one y in (0, 1)."""
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return x if upper else -x


def bvn_cdf(h, k, rho):
    """P(U <= h, W <= k) for a standard bivariate normal with correlation rho.

    ``h`` and ``k`` may be scalars or broadcastable arrays (+-inf allowed);
    ``rho`` must be a scalar with |rho| < 1.  Absolute error is below 1e-13
    over the full correlation range.
    """
    rho = float(rho)
    if not abs(rho) < 1.0:
        raise ValueError("bvn_cdf requires |rho| < 1")
    h, k = np.broadcast_arrays(np.asarray(h, dtype=float), np.asarray(k, dtype=float))
    shape = h.shape
    h = np.minimum(np.maximum(h.reshape(-1), -_Z_CAP), _Z_CAP)
    k = np.minimum(np.maximum(k.reshape(-1), -_Z_CAP), _Z_CAP)

    if abs(rho) < 0.925:
        out = _bvn_small_rho(h, k, rho)
    else:
        out = _bvn_large_rho(h, k, rho)
    out = np.minimum(np.maximum(out, 0.0), 1.0)
    return out.reshape(shape) if shape else float(out[0])


def _bvn_small_rho(h, k, rho):
    # Phi2(h,k;r) = Phi(h)Phi(k) + (1/2pi) * int_0^asin(r) exp((hk sin t - hs)/cos^2 t) dt;
    # at r = 0 the integral adds acc * 0.0, so the result is Phi(h)Phi(k) to the bit
    hk = h * k
    hs = 0.5 * (h * h + k * k)
    nodes, weights = _gauss_legendre()
    asr = np.arcsin(rho)
    theta = 0.5 * asr * (nodes + 1.0)  # nodes mapped onto [0, asr]
    sn = np.sin(theta)
    expo = (np.outer(hk, sn) - hs[:, None]) / (1.0 - sn * sn)[None, :]
    acc = np.exp(expo) @ weights
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
    nodes, weights = _gauss_legendre()
    s_nodes = 0.5 * a * (nodes + 1.0)
    xs = s_nodes * s_nodes
    rs = np.sqrt(1.0 - xs)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t1 = np.exp(-bs[:, None] / (2.0 * xs)[None, :]
                    - hk[:, None] / (1.0 + rs)[None, :]) / rs[None, :]
        t2 = np.exp(-(bs[:, None] / xs[None, :] + hk[:, None]) / 2.0) \
            * (1.0 + np.outer(c, xs) * (1.0 + np.outer(d, xs)))
        integrand = np.where(np.isfinite(t1), t1, 0.0) - np.where(np.isfinite(t2), t2, 0.0)
    bvn = bvn + (0.5 * a) * (integrand @ weights)
    bvn = -bvn / (2.0 * np.pi)
    if rho > 0:
        return bvn + _sp().ndtr(-np.maximum(hh, kk))
    return -bvn + np.maximum(0.0, _sp().ndtr(-hh) - _sp().ndtr(-kk))


@dataclass(frozen=True)
class BivariateNormalParams:
    """Mean vector and covariance matrix of a 2-d normal law.

    The entries must be finite, and the covariance symmetric with positive
    diagonal, nonnegative determinant and a correlation in [-1, 1];
    rectangle probabilities additionally require positive definiteness.
    ``mean`` and ``cov`` are read-only copies, so ``sigmas`` and ``corr``,
    computed once, stay true.
    """

    mean: np.ndarray
    cov: np.ndarray
    sigmas: np.ndarray = field(init=False, repr=False, compare=False)
    corr: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(2)
        cov = np.array(self.cov, dtype=float).reshape(2, 2)
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        (c00, c01), (c10, c11) = cov.tolist()
        if not all(map(math.isfinite, (*mean.tolist(), c00, c01, c10, c11))):
            raise DegenerateCovarianceError("mean and covariance entries must be finite")
        if abs(c01 - c10) > 1e-10:
            raise DegenerateCovarianceError("covariance must be symmetric")
        if c00 <= 0.0 or c11 <= 0.0:
            raise DegenerateCovarianceError("covariance diagonal must be positive")
        if c00 * c11 - c01 * c10 < -1e-12:
            raise DegenerateCovarianceError("covariance must be positive semidefinite")
        s0, s1 = math.sqrt(c00), math.sqrt(c11)
        corr = c01 / (s0 * s1)
        # the determinant check is absolute, so near-singular matrices can
        # still round to a correlation past +-1
        if abs(corr) > 1.0:
            raise DegenerateCovarianceError(
                f"covariance must be positive semidefinite: its correlation {corr:.17g} "
                "is outside [-1, 1]")
        sigmas = np.array([s0, s1])
        sigmas.flags.writeable = False
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "corr", corr)


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
