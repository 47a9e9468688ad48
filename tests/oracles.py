"""Independent oracles the tests check the engines against.

Everything here deliberately avoids the code paths under test: exhaustive
path enumeration, a forward recursion over the alive lattice for the
estimator expectations, a direct sum over the alive triangle with scipy's
log-gamma and binomial cdf, a boundary pass stepped one trial at a time,
direct binomial summation via scipy.stats, the ASN bounds from regularized
incomplete beta tails, and adaptive quadrature of the normal density.
"""

from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import bdtr, gammaln, xlogy
from scipy.stats import binom

from bivarseq import BivariateDesign
from bivarseq.exact_engine import _binom_pmf
from bivarseq.special_functions import reg_inc_beta


@dataclass
class EnumeratedLaw:
    """Everything the 4^n path enumeration knows about one (design, params)."""

    support: np.ndarray
    mass_x: np.ndarray
    mass_y: np.ndarray
    mass_corner: np.ndarray
    continue_mass: float
    power: float
    asn: float
    second_moment: float
    variance: float
    est_x: float
    est_y: float


def enumerate_paths(design: BivariateDesign, cell_probs) -> EnumeratedLaw:
    """Walk every 4^n_star cell sequence, weighting by its probability.

    Statistics of the stopped test are path-measurable, so summing full-path
    probabilities by outcome gives the exact law.
    """
    n, k_x, k_y = design.n_star, design.k_x, design.k_y
    p = np.asarray(cell_probs, dtype=float)  # order: p00, p10, p01, p11
    n_paths = 4 ** n
    codes = (np.arange(n_paths)[:, None] // 4 ** np.arange(n)[None, :]) % 4
    x = (codes == 1) | (codes == 3)
    y = (codes == 2) | (codes == 3)
    weight = p[codes].prod(axis=1)
    s_x = np.cumsum(x, axis=1)
    s_y = np.cumsum(y, axis=1)
    crossed = (s_x > k_x) | (s_y > k_y)
    any_crossed = crossed.any(axis=1)
    first = np.where(any_crossed, crossed.argmax(axis=1), n - 1)
    m_star = np.where(any_crossed, first + 1, n)

    rows = np.arange(n_paths)
    hit_x = any_crossed & (s_x[rows, first] > k_x)
    hit_y = any_crossed & (s_y[rows, first] > k_y)
    corner = hit_x & hit_y

    support = np.arange(design.k_lower + 1, n + 1)
    mass_x = np.zeros(len(support))
    mass_y = np.zeros(len(support))
    mass_c = np.zeros(len(support))
    for idx, m in enumerate(support):
        at_m = any_crossed & (m_star == m)
        mass_x[idx] = weight[at_m & hit_x & ~corner].sum()
        mass_y[idx] = weight[at_m & hit_y & ~corner].sum()
        mass_c[idx] = weight[at_m & corner].sum()
    cont = weight[~any_crossed].sum()
    power = weight[any_crossed].sum()
    asn = (weight * m_star).sum()
    second = (weight * m_star.astype(float) ** 2).sum()
    th_x = s_x[rows, m_star - 1] / m_star
    th_y = s_y[rows, m_star - 1] / m_star
    return EnumeratedLaw(
        support=support, mass_x=mass_x, mass_y=mass_y, mass_corner=mass_c,
        continue_mass=float(cont), power=float(power), asn=float(asn),
        second_moment=float(second), variance=float(second - asn ** 2),
        est_x=float((weight * th_x).sum()), est_y=float((weight * th_y).sum()),
    )


def estimator_dp(design: BivariateDesign, cell_probs) -> tuple[float, float]:
    """(E[theta_hat_x], E[theta_hat_y]) by forward recursion over the alive
    lattice: each step adds the mass absorbed past either critical value times
    its counts over m, and the mass still alive at n_star adds its counts over
    n_star.  Shares no code with the exact engine's boundary passes.
    """
    n_star, k_x, k_y = design.n_star, design.k_x, design.k_y
    p00, p10, p01, p11 = cell_probs
    a = np.arange(k_x + 2)[:, None]
    b = np.arange(k_y + 2)[None, :]
    alive = np.zeros((k_x + 1, k_y + 1))
    alive[0, 0] = 1.0
    est_x = est_y = 0.0
    for m in range(1, n_star + 1):
        new = np.zeros((k_x + 2, k_y + 2))
        new[:-1, :-1] += p00 * alive
        new[1:, :-1] += p10 * alive
        new[:-1, 1:] += p01 * alive
        new[1:, 1:] += p11 * alive
        absorbed = new.copy()
        absorbed[:-1, :-1] = 0.0
        est_x += float((absorbed * a).sum()) / m
        est_y += float((absorbed * b).sum()) / m
        alive = new[:-1, :-1]
    est_x += float((alive * a[:-1]).sum()) / n_star
    est_y += float((alive * b[:, :-1]).sum()) / n_star
    return est_x, est_y


def alive_mass_triangle(design: BivariateDesign, cell_probs) -> float:
    """P(S_x(n_star) <= k_x, S_y(n_star) <= k_y) summed directly over the
    triangle of S_x = a and both-effects counts z <= a: the multinomial mass
    from log-gamma differences times the binomial cdf (scipy's ``bdtr``) of
    the Y-only count among the other n_star - a.  No recurrence; the
    log-gamma differences lose accuracy as n_star grows (8.8e-13 off the
    lattice DP at n_star = 1154).
    """
    n, k_x, k_y = design.n_star, design.k_x, design.k_y
    p00, p10, p01, p11 = cell_probs
    a, z = np.tril_indices(min(k_x, n) + 1, m=min(k_x, k_y) + 1)
    h = np.exp(gammaln(n + 1.0) - gammaln(z + 1.0) - gammaln(a - z + 1.0)
               - gammaln(n - a + 1.0) + xlogy(z, p11) + xlogy(a - z, p10)
               + xlogy(n - a, p00 + p01))
    return float((h * bdtr(np.minimum(k_y - z, n - a), n - a, p01 / (p00 + p01))).sum())


def boundary_pass_stepped(n_star: int, k_hit: int, k_other: int, params) -> np.ndarray:
    """``exact_engine._boundary_pass`` by one Bernoulli step per nu: the pmf
    of W ~ Bin(nu - k_hit, q), cut at k_other, advanced one trial at a time
    from the point mass at 0, each row times the (k_other + 1) x 3 matrix V.
    Shares only the binomial kernel with the engine, whose pass seeds its
    blocks from the kernel and steps V instead of the rows.
    """
    p00, p10, p01, p11 = params.cell_probs
    theta, rest = p10 + p11, p00 + p01
    z = np.arange(k_other + 1)
    g = _binom_pmf(z, k_hit, p11 / theta)
    cg = np.cumsum(g)
    V = np.stack([cg, g, np.cumsum(z * g) + (k_other - z) * cg])[:, ::-1].T
    nu = np.arange(k_hit, n_star)
    f = (z == 0).astype(float)
    row = np.empty((len(nu), 3))
    for i in range(len(nu)):
        row[i] = f @ V
        f[1:] = p00 / rest * f[1:] + p01 / rest * f[:-1]
        f[0] *= p00 / rest
    a, d, b = _binom_pmf(k_hit, nu, theta) * row.T
    out = np.zeros((3, n_star))
    out[:, k_hit:] = (p10 * a + p11 * (a - d), p11 * d,
                      p10 * b + p11 * (b - k_other * d + a - d))
    return out


def independent_margins_pmf(design: BivariateDesign, theta_x: float, theta_y: float):
    """Stopping law for rho = 0 from two independent single-margin walks.

    P(M_side >= m) = P(Binomial(m-1, theta) <= k) via scipy.stats.binom, so
    this route never touches the package's special functions.
    """
    n, k_x, k_y = design.n_star, design.k_x, design.k_y
    m = np.arange(1, n + 2)
    surv_x = binom.cdf(k_x, m - 1, theta_x)   # surv_x[m-1] = P(M_x >= m)
    surv_y = binom.cdf(k_y, m - 1, theta_y)
    pmf_x = surv_x[:-1] - surv_x[1:]          # pmf_x[m-1] = P(M_x = m)
    pmf_y = surv_y[:-1] - surv_y[1:]
    support = np.arange(design.k_lower + 1, n + 1)
    out_x = np.zeros(len(support))
    out_y = np.zeros(len(support))
    out_c = np.zeros(len(support))
    for idx, mm in enumerate(support):
        px, py = pmf_x[mm - 1], pmf_y[mm - 1]
        out_x[idx] = px * surv_y[mm]          # X crosses at mm, Y after
        out_y[idx] = py * surv_x[mm]
        out_c[idx] = px * py
    cont = float(surv_x[n] * surv_y[n])
    return support, out_x, out_y, out_c, cont


def binom_upper_tail(n: int, k: int, theta: float) -> float:
    """P(Binomial(n, theta) >= k+1) by direct pmf summation."""
    total = 0.0
    for j in range(k + 1, n + 1):
        total += binom.pmf(j, n, theta)
    return total


def bvn_quadrature(h: float, k: float, rho: float) -> float:
    """P(U <= h, W <= k) by adaptive 2-d quadrature of the density."""
    det = 1.0 - rho * rho

    def density(w, u):
        return np.exp(-(u * u - 2 * rho * u * w + w * w) / (2 * det)) \
            / (2 * np.pi * np.sqrt(det))

    value, _ = integrate.dblquad(density, -9.0, h, -9.0, k,
                                 epsabs=1e-12, epsrel=1e-12)
    return value


def tail_sum_asn(pmf_support, pmf_values, continue_mass) -> float:
    """ASN as the tail-probability series sum_{m=1}^{n*} P(M >= m).

    P(M >= m) is 1 for m <= support[0] (nothing can stop earlier) and
    continue_mass + sum of the pmf from m on afterwards.
    """
    surv = continue_mass + pmf_values[::-1].cumsum()[::-1]
    return float(pmf_support[0] - 1 + surv.sum())


def _marginal_curtailed_asn(n_star: int, k: int, theta: float) -> float:
    """E[min(M_single, n_star)] for one margin's single-boundary walk."""
    return (n_star * reg_inc_beta(1.0 - theta, n_star - k, k + 1)
            + (k + 1) / theta * reg_inc_beta(theta, k + 2, n_star - k))


def _independence_asn(design: BivariateDesign, params) -> float:
    """Sum over m of P(M_x >= m) P(M_y >= m), via the tail-product formulas."""
    n_star, k_x, k_y = design.n_star, design.k_x, design.k_y
    tx, ty = params.theta_x, params.theta_y
    if k_x >= k_y:
        lead, k_in, k_out, t_in, t_out = (
            _marginal_curtailed_asn(n_star, k_x, tx), k_y, k_x, ty, tx)
    else:
        lead, k_in, k_out, t_in, t_out = (
            _marginal_curtailed_asn(n_star, k_y, ty), k_x, k_y, tx, ty)
    i = np.arange(k_in + 1, n_star)
    f = reg_inc_beta(t_in, k_in + 1, i - k_in)
    g = reg_inc_beta(1.0 - t_out, np.maximum(i - k_out, 1), k_out + 1)
    split = k_out - k_in
    # Python's sum over lists keeps the left-to-right order of a scalar loop
    mid = sum(f[:split].tolist())
    tail = sum((f[split:] * g[split:]).tolist())
    return lead - mid - tail


def asn_bounds_betainc(design: BivariateDesign, params) -> tuple[float, float]:
    """``exact_engine.asn_bounds`` from closed forms in the regularized
    incomplete beta function: U = n_star P(Bin(n_star, theta) <= k) +
    (k + 1)/theta P(Bin(n_star + 1, theta) >= k + 2), and L1 as U of the margin
    with the larger k* minus the tail-product sum.  Shares nothing with the
    engine; needs k* < n_star on both margins.
    """
    u1 = _marginal_curtailed_asn(design.n_star, design.k_x, params.theta_x)
    u2 = _marginal_curtailed_asn(design.n_star, design.k_y, params.theta_y)
    l1 = _independence_asn(design, params)
    if params.rho > 0:
        return l1, min(u1, u2)
    if params.rho < 0:
        return float(design.k_lower + 1), l1
    return l1, l1
