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

and the Y boundary is the same computation with the margins swapped.  The
same pass gives E[S_y(M); M = m], from which ``StoppingPmf.estimator_mean``,
shared with the asymptotic engine, takes the estimator expectations.

Every binomial mass comes from one kernel, ``_binom_pmf``: Loader's saddle
point, whose relative error stays near 1e-14 up to n = 38483, where
differences of log-gamma values lose up to 1e-10.  It takes an array of p,
and each element takes the same steps whatever shares the call, so the
engine gathers the masses of several laws into one call: at small n_star a
call costs about as much as its fixed overhead.  Everything else is one
Bernoulli recurrence, ``_bernoulli_rows``: pmfs cut at a critical value,
one or several side by side in a row, advanced one trial at a time.  Each step is a
convex combination, so it keeps relative accuracy.  Rows are written a
bounded block at a time:

- a boundary pass takes, at every nu, the pmf of W cut at k_y times V, the
  (k_y + 1) x 3 sums over z: about sqrt(n_star) pmfs from the kernel, each
  times V stepped up to about sqrt(n_star) trials, give all rows in O(n_star k);
  the seeds of both passes come from one kernel call;
- P(M > n_star) = sum_a Bin(n_star, theta_x)(a) sum_z Bin(a, r)(z)
  P(W_a <= k_y - z), with W_a ~ Bin(n_star - a, q), needs the rows of
  Bin(a, r) going up in a and the rows of W_a going up in n_star - a, in
  O(k_x k_y).  The power needs nothing else.

The engine keeps the law and both estimators of the last (design, params)
point, which the pmf, the moments and the estimators read, and the last
P(M > n_star), which the power and the law share.  The ASN bounds read one
survival vector per margin, both from one kernel call.  The engine needs no
scipy at all.  Its law is a ``StoppingPmf`` of ``design``, the type both
engines return.

A forward dynamic program over the alive lattice is an independent route to
the same distribution, kept as the test suite's oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import isqrt

import numpy as np

from .design import BivariateDesign, StoppingPmf
from .params import JointBernoulliParams

__all__ = [
    "non_rejection_prob",
    "power_exact",
    "stopping_pmf_exact",
    "lattice_forward_dp",
    "asn_exact",
    "asn_bounds",
    "variance_cv",
    "estimator_expectation_exact",
]


# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n) for n = 0..15 (0 at n = 0);
# above 15 the five-term Stirling series is within 1.1e-16 of it
_STIRLERR_SMALL = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])
# 1/(2j+1) for j = 8..1: Horner coefficients of sum_j v^(2j) / (2j+1)
_ATANH_TAIL = 1.0 / (2.0 * np.arange(8, 0, -1) + 1.0)
# bytes of one block of recurrence rows and of a boundary pass's seeded pmfs;
# larger blocks save little time and add to peak RSS
_BLOCK_BYTES = 1 << 18
# stirlerr(n) for n = 0..len - 1, grown to twice the largest n asked for
_stirlerr_table = _STIRLERR_SMALL


def _stirlerr(top: int) -> np.ndarray:
    """The Stirling-error table, long enough to index with any n <= top."""
    global _stirlerr_table
    if len(_stirlerr_table) <= top:
        n = np.arange(16, 2 * top + 1, dtype=float)
        nn = n * n
        series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n
        _stirlerr_table = np.concatenate([_STIRLERR_SMALL, series])
    return _stirlerr_table


def _bd0(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Loader's deviance x log(x/m) + m - x at m = x - d, without cancellation:
    the atanh series in v = d/(x+m) where |v| < 0.1, log1p beyond.  Besides
    the result it holds one work array: v is formed again for the last step
    instead of being kept through the series."""
    def ratio(out):
        np.subtract(x, d, out=out)
        out += x
        return np.divide(d, out, out=out)
    w = ratio(np.empty(d.shape))
    t = np.abs(w)
    far = t >= 0.1
    w *= w
    np.multiply(w, _ATANH_TAIL[0], out=t)
    t += _ATANH_TAIL[1]
    for c in _ATANH_TAIL[2:]:
        t *= w
        t += c
    t *= w
    t *= np.multiply(x, 2.0, out=w)
    t += d
    t *= ratio(w)
    if far.any():
        m = np.subtract(x, d, out=w)
        np.log1p(np.divide(d, m, out=m), out=m)
        m *= x
        m -= d
        np.copyto(t, m, where=far)
    return t


def _binom_pmf(k, n, p) -> np.ndarray:
    """Bin(n, p)(k) for integer arrays k, n (broadcast together) and
    probabilities p in [0, 1], one or an array that broadcasts against them,
    by Loader's saddle point (C. Loader, "Fast and Accurate Computation of
    Binomial Probabilities", 2000):

        Bin(n, p)(k) = exp(stirlerr(n) - stirlerr(k) - stirlerr(n - k)
                           - bd0(k, n p) - bd0(n - k, n (1 - p))) sqrt(n / (2 pi k (n - k))),

    relative error a few 1e-14 at n = 38483.  k = 0 is exp(n log1p(-p)),
    k = n is p^n, and k > n gives 0.  Each element takes the same steps
    whatever shares the call, so one call with an array p gives the bits of
    one call per law.
    """
    # k > n is 0 below; its negative n - k indexes the table from the end
    st = _stirlerr(int(np.maximum(n, k).max(initial=0)))
    out = st[n] - st[k]
    out -= st[np.subtract(n, k)]
    p = np.asarray(p) if np.shape(p) == out.shape else np.full(out.shape, p)
    # k and n - k, then d and -d, side by side for one pass of _bd0
    x, dev = np.empty((2,) + out.shape), np.empty((2,) + out.shape)
    np.copyto(x[0], k)
    k, j, d = x[0], np.subtract(n, k, out=x[1]), dev[0]
    # d = k - E[k] = E[n - k] - (n - k), from the smaller mean, whose
    # rounding is the smaller; 1 - p is exact for p > 1/2
    np.subtract(k, np.multiply(n, p, out=d), out=d)
    high = p > 0.5
    if high.any():
        d[high] = (k[high] + j[high]) * (1.0 - p[high]) - j[high]     # n = k + (n - k)
    np.negative(d, out=dev[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        # the deviances overwrite d and -d, in chunks whose _bd0 work
        # arrays stay within _BLOCK_BYTES
        xs, ds, chunk = x.reshape(-1), dev.reshape(-1), max(1, _BLOCK_BYTES // 32)
        for a in range(0, xs.size, chunk):
            ds[a:a + chunk] = _bd0(xs[a:a + chunk], ds[a:a + chunk])
        out -= dev[0]
        out -= dev[1]
        np.exp(out, out=out)
        root = np.multiply(k, 2.0 * np.pi, out=dev[0])
        root *= j
        out *= np.sqrt(np.divide(n, root, out=root), out=root)
        at = k == 0                                   # n = j at k = 0
        out[at] = np.exp(j[at] * np.log1p(-p[at]))
        at = j == 0                                   # n = k at j = 0
        out[at] = np.power(p[at], k[at])
    np.copyto(out, 0.0, where=j < 0)
    return out


def _binom_pmfs(*args) -> list[np.ndarray]:
    """Several kernel evaluations in one kernel call: each argument is a
    (k, n, p) triple, and each result has that triple's broadcast shape."""
    grids = [np.broadcast(k, n) for k, n, _ in args]
    ends = list(accumulate(grid.size for grid in grids))
    parts = list(zip(grids, [0, *ends], ends))
    k, n = np.empty((2, ends[-1]), dtype=np.int32)      # n_star < 2**31
    for (kk, nn, _), (grid, a, b) in zip(args, parts):
        np.copyto(k[a:b].reshape(grid.shape), kk)
        np.copyto(n[a:b].reshape(grid.shape), nn)
    flat = _binom_pmf(k, n, np.repeat([p for _, _, p in args], [grid.size for grid in grids]))
    return [flat[a:b].reshape(grid.shape) for grid, a, b in parts]


def _side_by_side(length: int, *laws: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """(stay, step) vectors of a row that holds one law of ``length`` entries
    for each (stay, step) pair, one after the other.  step is 0 at the end of
    each law, so that no mass passes into the next one."""
    stay, step = (np.repeat(probs, length) for probs in zip(*laws))
    step[length - 1::length] = 0.0
    return stay, step


def _bernoulli_rows(rows: np.ndarray, stay: np.ndarray, step: np.ndarray) -> None:
    """Fill rows[1:] from rows[0] in place: rows[i + 1] is the law of the
    count of rows[i] plus one Bernoulli trial, taken with probability step
    and missed with probability stay, elementwise along the row and cut to
    its length (see ``_side_by_side``).  Each step is a convex combination."""
    spill = np.empty(rows.shape[1] - 1)
    head = step[:-1]
    for prev, row, prev_head, row_tail in zip(rows[:-1], rows[1:], rows[:-1, :-1], rows[1:, 1:]):
        np.multiply(prev, stay, out=row)
        np.multiply(prev_head, head, out=spill)
        row_tail += spill


def _row_blocks(first: np.ndarray, count: int, stay: np.ndarray, step: np.ndarray):
    """Yield (start, block): rows start.. of the first ``count`` rows of the
    Bernoulli recurrence from row ``first``, a block of at most _BLOCK_BYTES
    at a time, in one buffer that the next block overwrites."""
    size = max(1, _BLOCK_BYTES // (8 * first.size))
    rows = np.empty((min(count, size) + 1, first.size))
    rows[0] = first
    for start in range(0, count, size):
        block = rows[:min(size, count - start) + 1]
        _bernoulli_rows(block, stay, step)
        yield start, block[:-1]
        rows[0] = block[-1]       # the next block starts from the row after


def _start_stride(count: int, k_other: int) -> int:
    """Rows between the kernel-seeded starts of a boundary pass over ``count``
    rows: about sqrt(count) starts, fewer where they would outgrow
    _BLOCK_BYTES."""
    blocks = min(isqrt(count - 1) + 1, max(1, _BLOCK_BYTES // (8 * (k_other + 1))))
    return -(-count // blocks)


def _pass_seeds(n_star: int, k_hit: int, k_other: int, params: JointBernoulliParams):
    """The kernel arguments (k, n, p) of the three seeds of ``_boundary_pass``:
    g, starts and margin.  A pass without rows has empty seeds."""
    p00, p10, p01, p11 = params.cell_probs
    theta, rest = p10 + p11, p00 + p01
    count = n_star - k_hit
    if count <= 0:
        return ((np.arange(0), 0, 0.0),) * 3
    z = np.arange(k_other + 1)
    return ((z, k_hit, p11 / theta),
            (k_other - z, np.arange(0, count, _start_stride(count, k_other))[:, None], p01 / rest),
            (k_hit, np.arange(k_hit, n_star), theta))


def _boundary_pass(n_star: int, k_hit: int, k_other: int, params: JointBernoulliParams,
                   g: np.ndarray, starts: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """Stopping masses across the boundary of the margin in the X places of
    ``params``, with critical value k_hit; the other margin has k_other.

    The seeds come from the kernel (``_pass_seeds``): g is the law of the
    both-effects count Z ~ Bin(k_hit, p11/theta) given S_hit = k_hit, starts
    the pmfs f_N of the other-only count W ~ Bin(N, p01/rest) at the start N
    of each block of rows, both cut at k_other, and margin the row
    Bin(nu, theta)(k_hit) at nu = k_hit..n_star - 1.

    Row 0 is P(M = m, this boundary only), row 1 P(M = m, corner) and row 2
    E[S_other(m); M = m, this boundary only], at column m - 1 for m = 1..n_star.
    """
    p00, p10, p01, p11 = params.cell_probs
    rest = p00 + p01
    out = np.zeros((3, n_star))
    count = n_star - k_hit          # rows nu = k_hit..n_star - 1, N = nu - k_hit
    if count <= 0:
        return out
    z = np.arange(k_other + 1)
    cg = np.cumsum(g)
    # For the cdf F_N of W, sum_j f_N(k_other - j) V[:, j] = sum_z g(z)
    # (F_N(k_other - z), f_N(k_other - z), E[z + W; W <= k_other - z]), and
    # f_{N + s} against V is f_N against V stepped s trials along j
    V = np.stack([cg, g, np.cumsum(z * g) + (k_other - z) * cg])
    size = _start_stride(count, k_other)
    row = np.empty((len(starts), 3 * size))
    steps = _side_by_side(k_other + 1, *[(p00 / rest, p01 / rest)] * 3)
    for s, v_s in _row_blocks(V.ravel(), size, *steps):
        np.matmul(starts, v_s.reshape(-1, k_other + 1).T, out=row[:, 3 * s:3 * (s + len(v_s))])
    # P(S_hit = k_hit, S_other <= k_other), the same with S_other = k_other,
    # and E[S_other; S_hit = k_hit, S_other <= k_other], at nu
    a, d, b = margin * row.reshape(-1, 3)[:count].T
    out[:, k_hit:] = (p10 * a + p11 * (a - d), p11 * d,
                      p10 * b + p11 * (b - k_other * d + a - d))
    return out


@lru_cache(maxsize=1)
def _law(n_star: int, k_x: int, k_y: int, params: JointBernoulliParams):
    """(StoppingPmf, E[theta_hat_x], E[theta_hat_y]) at one point, from one
    kernel call for the seeds of both boundary passes.  Callers share the
    read-only arrays."""
    low = min(k_x, k_y)
    passes = ((n_star, k_x, k_y, params), (n_star, k_y, k_x, params.swapped()))
    seeds = _binom_pmfs(*_pass_seeds(*passes[0]), *_pass_seeds(*passes[1]))
    x_only, corner, sy_at_x = _boundary_pass(*passes[0], *seeds[:3])[:, low:]
    y_only, _, sx_at_y = _boundary_pass(*passes[1], *seeds[3:])[:, low:]
    support = np.arange(low + 1, n_star + 1)
    for arr in (support, x_only, y_only, corner):
        arr.flags.writeable = False
    pmf = StoppingPmf(support=support, mass_x=x_only, mass_y=y_only, mass_corner=corner,
                      continue_mass=_alive_mass(n_star, k_x, k_y, params))
    _, p10, p01, p11 = params.cell_probs
    return (pmf, pmf.estimator_mean(n_star, p10 + p11, (k_x + 1) * (x_only + corner) + sx_at_y),
            pmf.estimator_mean(n_star, p01 + p11, (k_y + 1) * (y_only + corner) + sy_at_x))


@lru_cache(maxsize=1)
def _alive_mass(n: int, k_x: int, k_y: int, params: JointBernoulliParams) -> float:
    """P(S_x(n) <= k_x, S_y(n) <= k_y), at most 1.

    With S_x = a, the both-effects count is Z ~ Bin(a, r), r = p11/theta_x,
    and the Y-only count among the other n - a is W ~ Bin(n - a, q),
    q = p01/(p00 + p01), so the mass is
    sum_a Bin(n, theta_x)(a) sum_z Bin(a, r)(z) P(W <= k_y - z).  Both laws
    are rows of Bernoulli recurrences cut at k_y: Bin(a, r) rows go up in a,
    W rows go up in n - a, so a block of a values, taken from the top down,
    restarts the Z rows from the kernel and continues the W rows.
    """
    p00, p10, p01, p11 = params.cell_probs
    theta, rest = p10 + p11, p00 + p01
    top = min(k_x, n)
    w = np.arange(k_y + 1)
    mass, w_first = _binom_pmfs((np.arange(top + 1), n, theta), (w, n - top, p01 / rest))
    z_steps = _side_by_side(k_y + 1, (p10 / theta, p11 / theta))
    total = 0.0
    # W rows for a = top, top - 1, ..., 0; the block's Z rows for a = lo..hi
    for start, w_law in _row_blocks(w_first, top + 1,
                                    *_side_by_side(k_y + 1, (p00 / rest, p01 / rest))):
        hi = top - start
        lo = hi - len(w_law) + 1
        z_law = np.empty_like(w_law)
        z_law[0] = _binom_pmf(w, lo, p11 / theta) if lo else w == 0   # Bin(0, r): a point mass
        _bernoulli_rows(z_law, *z_steps)
        w_cdf = np.cumsum(w_law[::-1], axis=1)          # a = lo..hi
        total += mass[lo:hi + 1] @ np.einsum("az,az->a", z_law, w_cdf[:, ::-1])
    return min(float(total), 1.0)


def non_rejection_prob(design: BivariateDesign, params: JointBernoulliParams) -> float:
    """P(both terminal counts stay at or below their critical values), that
    is P(M > n_star).

    A sum of nonnegative products of kernel masses and recurrence rows, so
    its relative error stays near the kernel's even when the mass is small.
    Against the lattice DP it is within 1e-13 of its value at n_star <=
    2522, also at masses of 2e-5 and 3e-7, where 1 - (sum of the pmf) is
    off by 2e-9 and 5e-8 of the mass.
    """
    return _alive_mass(design.n_star, design.k_x, design.k_y, params)


def power_exact(design: BivariateDesign, params: JointBernoulliParams) -> float:
    """Rejection probability 1 - P(M > n_star).

    Its absolute error is that of ``non_rejection_prob`` plus one rounding:
    below 1e-13 times P(M > n_star) beside 1e-16.  It does not compute the
    stopping law.
    """
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


def asn_exact(design: BivariateDesign, params: JointBernoulliParams) -> float:
    """Expected terminal sample size E[min(M, n_star)]."""
    return _law(design.n_star, design.k_x, design.k_y, params)[0].moments(design.n_star)[0]


def _survival(n_star: int, k: int, stops: np.ndarray) -> np.ndarray:
    """P(M >= m), m = 1..n_star, for one margin's walk alone, from its stopping
    masses theta Bin(m - 1, theta)(k), m = k + 1..n_star - 1.  The subtraction
    can leave a few -1e-16 where the survival has run out; they are clipped."""
    s = np.ones(n_star)
    s[k + 1:] -= np.cumsum(stops)
    return np.maximum(s, 0.0, out=s)


def asn_bounds(design: BivariateDesign, params: JointBernoulliParams) -> tuple[float, float]:
    """(lower, upper) bounds on the ASN from the association sign of rho.

    With the survival vectors s_x, s_y of the two margins' walks alone, U =
    sum_m s(m) is a margin's curtailed E[min(M, n_star)] and L1 =
    sum_m s_x(m) s_y(m) the ASN if the margins were independent.  Positively
    correlated margins give L1 <= ASN <= min(U1, U2); negative correlation
    flips L1 into an upper bound with the trivial k_lower + 1 floor below;
    independence collapses both to L1.  A margin whose k* reaches n_star
    never stops alone: its survival is all ones.  Both margins' stopping
    masses come from one kernel call.
    """
    n_star = design.n_star
    margins = ((design.k_x, params.theta_x), (design.k_y, params.theta_y))
    pmfs = _binom_pmfs(*((k, np.arange(k, n_star - 1), theta) for k, theta in margins))
    s_x, s_y = (_survival(n_star, k, theta * pmf) for (k, theta), pmf in zip(margins, pmfs))
    l1 = float((s_x * s_y).sum())
    if params.rho > 0:
        return l1, float(min(s_x.sum(), s_y.sum()))
    if params.rho < 0:
        return float(design.k_lower + 1), l1
    return l1, l1


def variance_cv(design: BivariateDesign, params: JointBernoulliParams) -> tuple[float, float]:
    """(variance, coefficient of variation) of the terminal sample size."""
    pmf = _law(design.n_star, design.k_x, design.k_y, params)[0]
    mean, second = pmf.moments(design.n_star)
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
    return _law(design.n_star, design.k_x, design.k_y, params)[1 if margin == "x" else 2]
