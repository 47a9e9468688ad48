"""Exact finite-sample operating characteristics of the curtailed bivariate
sequential test.

The stopping time M is the first n at which either cumulative side-effect
count S_x(n), S_y(n) exceeds its critical value; the test curtails at n_star.
Neither count ever decreases, so {M > n} = {S_x(n) <= k_x, S_y(n) <= k_y}:
the states still alive at n carry their unabsorbed bivariate-binomial mass.
The final observation crosses the X boundary, the Y boundary or both at once
(the corner), so P(M = m) needs only the boundary row of that law at
nu = m - 1.  Given S_x(nu) = k_x, the both-effects count among those k_x is
Bin(k_x, r) with r = p11/(p10+p11), and the Y-only count among the other
nu - k_x is W ~ Bin(nu - k_x, q) with q = p01/(p00+p01), independently:

    A_x(c) = P(S_x(nu) = k_x, S_y(nu) <= c)
           = Bin(nu, theta_x)(k_x) * sum_z Bin(k_x, r)(z) P(W <= c - z),
    P(M = m, X only)  = p10 A_x(k_y) + p11 A_x(k_y - 1),
    P(M = m, corner)  = p11 [A_x(k_y) - A_x(k_y - 1)],

and the Y boundary is the same computation with the margins swapped.  One
pass advances the pmf of W, truncated at k_y, a step at a time, so the whole
law costs O(n_star k).  The same pass gives E[S_y(M); M = m].  P(M > n_star)
is one sum over (S_x, both-effects count) with binomial cdfs of W, so the
power needs no per-m pass; Wald's identity E[S_x(min(M, n_star))] =
theta_x E[min(M, n_star)] gives the curtailed E[S_x; M > n_star] of the
estimator expectations.  The engine keeps the law of the last (design,
params) point, which the pmf, the moments and both estimators read.

A forward dynamic program over the alive lattice is an independent route to
the same distribution, kept as the test suite's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .design import BivariateDesign
from .params import JointBernoulliParams
from .special_functions import _sp, reg_inc_beta

__all__ = [
    "LatticeCounts",
    "StoppingPmf",
    "non_rejection_prob",
    "power_exact",
    "stopping_pmf_exact",
    "lattice_forward_dp",
    "corner_mass_exact",
    "asn_exact",
    "asn_bounds",
    "second_moment_exact",
    "variance_cv",
    "estimator_expectation_exact",
]


@dataclass(frozen=True)
class LatticeCounts:
    """Terminal 2x2 contingency counts of one test run."""

    n00: int
    n10: int
    n01: int
    n11: int

    def __post_init__(self):
        if min(self.n00, self.n10, self.n01, self.n11) < 0:
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.n00 + self.n10 + self.n01 + self.n11

    @property
    def s_x(self) -> int:
        return self.n10 + self.n11

    @property
    def s_y(self) -> int:
        return self.n01 + self.n11


@dataclass(frozen=True)
class StoppingPmf:
    """Distribution of the stopping time over [k_lower+1, n_star], split by
    boundary, plus the mass of never stopping before curtailment."""

    support: np.ndarray
    mass_x: np.ndarray
    mass_y: np.ndarray
    mass_corner: np.ndarray
    continue_mass: float

    def __post_init__(self):
        n = len(self.support)
        if not (len(self.mass_x) == len(self.mass_y) == len(self.mass_corner) == n):
            raise ValueError("per-boundary mass arrays must match the support")
        for arr in (self.mass_x, self.mass_y, self.mass_corner):
            if np.any(np.asarray(arr) < -1e-12):
                raise ValueError("stopping masses must be nonnegative")

    @property
    def pmf(self) -> np.ndarray:
        """Total P(M = m) over the support."""
        return self.mass_x + self.mass_y + self.mass_corner

    @property
    def rejection_mass(self) -> float:
        return float(self.pmf.sum())

    def total_mass(self) -> float:
        return self.rejection_mass + self.continue_mass

    def moments(self, n_star: int) -> tuple[float, float]:
        """(E[min(M, n_star)], E[min(M, n_star)^2])."""
        pmf = self.pmf
        n2 = float(n_star) ** 2
        mean = n_star - ((n_star - self.support) * pmf).sum()
        second = n2 - ((n2 - self.support.astype(float) ** 2) * pmf).sum()
        return float(mean), float(second)


def _boundary_pass(n_star: int, k_hit: int, k_other: int,
                   params: JointBernoulliParams) -> np.ndarray:
    """Stopping masses across the boundary of the margin in the X places of
    ``params``, with critical value k_hit; the other margin has k_other.

    Row 0 is P(M = m, this boundary only), row 1 P(M = m, corner) and row 2
    E[S_other(m); M = m, this boundary only], at column m - 1 for m = 1..n_star.
    """
    p00, p10, p01, p11 = params.cell_probs
    theta, rest = p10 + p11, p00 + p01
    gammaln, xlogy = _sp().gammaln, _sp().xlogy
    # law of the both-effects count Z ~ Bin(k_hit, p11/theta) given S_hit = k_hit
    z = np.arange(k_other + 1)
    zc = np.minimum(z, k_hit)
    g = np.where(z <= k_hit, np.exp(
        gammaln(k_hit + 1.0) - gammaln(zc + 1.0) - gammaln(k_hit - zc + 1.0)
        + xlogy(zc, p11 / theta) + xlogy(k_hit - zc, p10 / theta)), 0.0)
    cg = np.cumsum(g)
    # For the pmf f and cdf F of the other-only count W, V @ f is
    # sum_z g(z) (F(k_other - z), f(k_other - z), E[z + W; W <= k_other - z])
    V = np.ascontiguousarray(np.stack([cg, g, np.cumsum(z * g) + (k_other - z) * cg])[:, ::-1])
    nu = np.arange(k_hit, n_star)
    pref = np.exp(gammaln(nu + 1.0) - gammaln(k_hit + 1.0) - gammaln(nu - k_hit + 1.0)
                  + xlogy(k_hit, theta) + xlogy(nu - k_hit, rest))
    stay, step = p00 / rest, p01 / rest
    f = np.zeros(k_other + 1)   # Bin(nu - k_hit, step) pmf, truncated at k_other
    f[0] = 1.0
    row = np.empty((len(nu), 3))
    for i in range(len(nu)):
        row[i] = V @ f
        f[1:] = stay * f[1:] + step * f[:-1]
        f[0] *= stay
    # P(S_hit = k_hit, S_other <= k_other), the same with S_other = k_other,
    # and E[S_other; S_hit = k_hit, S_other <= k_other], at nu
    a, d, b = pref * row.T
    out = np.zeros((3, n_star))
    out[:, k_hit:] = (p10 * a + p11 * (a - d), p11 * d,
                      p10 * b + p11 * (b - k_other * d + a - d))
    return out


@lru_cache(maxsize=1)
def _law(n_star: int, k_x: int, k_y: int, params: JointBernoulliParams):
    """(StoppingPmf, E[min(M, n_star)], E[min(M, n_star)^2], E[theta_hat_x],
    E[theta_hat_y]) at one point.  Callers share the read-only arrays."""
    low = min(k_x, k_y)
    x_only, corner, sy_at_x = _boundary_pass(n_star, k_x, k_y, params)[:, low:]
    y_only, _, sx_at_y = _boundary_pass(n_star, k_y, k_x, params.swapped())[:, low:]
    support = np.arange(low + 1, n_star + 1)
    for arr in (support, x_only, y_only, corner):
        arr.flags.writeable = False
    pmf = StoppingPmf(support=support, mass_x=x_only, mass_y=y_only, mass_corner=corner,
                      continue_mass=min(_alive_at(n_star, k_x, k_y, params), 1.0))
    mean, second = pmf.moments(n_star)
    _, p10, p01, p11 = params.cell_probs
    # sum_m E[S; M = m] / m, plus E[S; M > n_star] / n_star by Wald's identity
    est = [float((s / support).sum() + (theta * mean - s.sum()) / n_star)
           for theta, s in ((p10 + p11, (k_x + 1) * (x_only + corner) + sx_at_y),
                            (p01 + p11, (k_y + 1) * (y_only + corner) + sy_at_x))]
    return (pmf, mean, second, *est)


def _alive_at(n: int, k_x: int, k_y: int, params: JointBernoulliParams) -> float:
    """P(S_x(n) <= k_x, S_y(n) <= k_y).

    Sums, over S_x = a and the both-effects count z <= a, the multinomial
    mass times the binomial cdf of the Y-only count among the n - a others.
    """
    p00, p10, p01, p11 = params.cell_probs
    bdtr, gammaln, xlogy = _sp().bdtr, _sp().gammaln, _sp().xlogy
    a, z = np.tril_indices(min(k_x, n) + 1, m=min(k_x, k_y) + 1)
    h = np.exp(gammaln(n + 1.0) - gammaln(z + 1.0) - gammaln(a - z + 1.0)
               - gammaln(n - a + 1.0) + xlogy(z, p11) + xlogy(a - z, p10)
               + xlogy(n - a, p00 + p01))
    return float((h * bdtr(np.minimum(k_y - z, n - a), n - a, p01 / (p00 + p01))).sum())


def non_rejection_prob(design: BivariateDesign, params: JointBernoulliParams) -> float:
    """P(both terminal counts stay at or below their critical values)."""
    return min(_alive_at(design.n_star, design.k_x, design.k_y, params), 1.0)


def power_exact(design: BivariateDesign, params: JointBernoulliParams) -> float:
    """Rejection probability 1 - P(M > n_star)."""
    return min(max(1.0 - non_rejection_prob(design, params), 0.0), 1.0)


def stopping_pmf_exact(design: BivariateDesign, params: JointBernoulliParams) -> StoppingPmf:
    """Full stopping-time distribution (read-only arrays) from the boundary law."""
    return _law(design.n_star, design.k_x, design.k_y, params)[0]


def lattice_forward_dp(design: BivariateDesign, params: JointBernoulliParams) -> StoppingPmf:
    """Stopping-time distribution by forward recursion over alive states.

    One dense (k_x+1) x (k_y+1) layer of state probabilities is advanced a
    step at a time; mass stepping past either critical value is absorbed and
    recorded per boundary.  Independent of the closed-form route.
    """
    n_star, k_x, k_y = design.n_star, design.k_x, design.k_y
    p00, p10, p01, p11 = params.cell_probs
    alive = np.zeros((k_x + 1, k_y + 1))
    alive[0, 0] = 1.0
    support = np.arange(design.k_lower + 1, n_star + 1)
    mass_x = np.zeros(len(support))
    mass_y = np.zeros(len(support))
    mass_c = np.zeros(len(support))
    for n in range(1, n_star + 1):
        idx = n - (design.k_lower + 1)
        if idx >= 0:
            mass_x[idx] = p10 * alive[k_x, :].sum() + p11 * alive[k_x, :k_y].sum()
            mass_y[idx] = p01 * alive[:, k_y].sum() + p11 * alive[:k_x, k_y].sum()
            mass_c[idx] = p11 * alive[k_x, k_y]
        new = p00 * alive
        new[1:, :] += p10 * alive[:-1, :]
        new[:, 1:] += p01 * alive[:, :-1]
        new[1:, 1:] += p11 * alive[:-1, :-1]
        alive = new
    return StoppingPmf(
        support=support, mass_x=mass_x, mass_y=mass_y, mass_corner=mass_c,
        continue_mass=float(alive.sum()),
    )


def corner_mass_exact(design: BivariateDesign, params: JointBernoulliParams) -> float:
    """Total probability of stopping exactly at the corner, summed over m.

    Runs only the X-boundary pass, half the work of the full law.
    """
    return float(_boundary_pass(design.n_star, design.k_x, design.k_y, params)[1].sum())


def asn_exact(design: BivariateDesign, params: JointBernoulliParams) -> float:
    """Expected terminal sample size E[min(M, n_star)]."""
    return _law(design.n_star, design.k_x, design.k_y, params)[1]


def _marginal_curtailed_asn(n_star: int, k: int, theta: float) -> float:
    """E[min(M_single, n_star)] for one margin's single-boundary walk."""
    return (n_star * reg_inc_beta(1.0 - theta, n_star - k, k + 1)
            + (k + 1) / theta * reg_inc_beta(theta, k + 2, n_star - k))


def _independence_asn(design: BivariateDesign, params: JointBernoulliParams) -> float:
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


def asn_bounds(design: BivariateDesign, params: JointBernoulliParams) -> tuple[float, float]:
    """(lower, upper) bounds on the ASN from the association sign of rho.

    Positively correlated margins give L1 <= ASN <= min(U1, U2) where U are
    the per-margin curtailed expectations and L1 the independence product
    sum; negative correlation flips L1 into an upper bound with the trivial
    k_lower + 1 floor below; independence collapses both to L1.
    """
    u1 = _marginal_curtailed_asn(design.n_star, design.k_x, params.theta_x)
    u2 = _marginal_curtailed_asn(design.n_star, design.k_y, params.theta_y)
    l1 = _independence_asn(design, params)
    if params.rho > 0:
        return l1, min(u1, u2)
    if params.rho < 0:
        return float(design.k_lower + 1), l1
    return l1, l1


def second_moment_exact(design: BivariateDesign, params: JointBernoulliParams) -> float:
    """E[min(M, n_star)^2]."""
    return _law(design.n_star, design.k_x, design.k_y, params)[2]


def variance_cv(design: BivariateDesign, params: JointBernoulliParams) -> tuple[float, float]:
    """(variance, coefficient of variation) of the terminal sample size."""
    _, mean, second, _, _ = _law(design.n_star, design.k_x, design.k_y, params)
    var = second - mean * mean
    if var < -1e-9:
        raise ArithmeticError(f"negative variance {var}: inconsistent moments")
    var = max(var, 0.0)
    return float(var), float(np.sqrt(var) / mean)


def estimator_expectation_exact(design: BivariateDesign, params: JointBernoulliParams,
                                margin: str) -> float:
    """Exact E[theta_hat] for one margin: the sum over m of E[S(M); M = m] / m
    plus the curtailed part E[S(n_star); M > n_star] / n_star."""
    if margin not in ("x", "y"):
        raise ValueError("margin must be 'x' or 'y'")
    return _law(design.n_star, design.k_x, design.k_y, params)[3 if margin == "x" else 4]
