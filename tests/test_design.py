import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bivarseq import (
    BivariateDesign,
    MarginalDesign,
    combine,
    condition_a_bounds,
    critical_value_for_n,
    design_marginal,
    make_params,
    power_asymptotic,
    power_exact,
)
from bivarseq.design import binom_cdf, binom_sf
from conftest import make_design


# exact-refine (N*, k*) at theta1 = theta0 (1 + delta) for delta = 0.2, 0.5 and
# 1, keyed by (alpha_tilde, beta, theta0)
_EXACT_REFINE_PINS = {
    (0.01, 0.05, 0.01): ((42599, 474), (7647, 97), (2258, 34)),
    (0.01, 0.05, 0.05): ((8142, 453), (1450, 92), (425, 32)),
    (0.01, 0.05, 0.1): ((3846, 428), (685, 87), (198, 30)),
    (0.01, 0.05, 0.3): ((970, 324), (162, 62), (44, 20)),
    (0.01, 0.1, 0.01): ((35043, 394), (6247, 81), (1800, 28)),
    (0.01, 0.1, 0.05): ((6706, 377), (1202, 78), (346, 27)),
    (0.01, 0.1, 0.1): ((3157, 355), (555, 72), (160, 25)),
    (0.01, 0.1, 0.3): ((797, 269), (133, 52), (36, 17)),
    (0.01, 0.2, 0.01): ((26881, 307), (4775, 64), (1398, 23)),
    (0.01, 0.2, 0.05): ((5149, 294), (910, 61), (267, 22)),
    (0.01, 0.2, 0.1): ((2434, 278), (425, 57), (122, 20)),
    (0.01, 0.2, 0.3): ((619, 212), (104, 42), (26, 13)),
    (0.025, 0.05, 0.01): ((35237, 389), (6343, 79), (1857, 27)),
    (0.025, 0.05, 0.05): ((6739, 372), (1204, 75), (356, 26)),
    (0.025, 0.05, 0.1): ((3170, 350), (562, 70), (164, 24)),
    (0.025, 0.05, 0.3): ((806, 267), (136, 51), (36, 16)),
    (0.025, 0.1, 0.01): ((28410, 317), (5101, 65), (1519, 23)),
    (0.025, 0.1, 0.05): ((5431, 303), (973, 62), (279, 21)),
    (0.025, 0.1, 0.1): ((2554, 285), (455, 58), (132, 20)),
    (0.025, 0.1, 0.3): ((645, 216), (112, 43), (30, 14)),
    (0.025, 0.2, 0.01): ((21071, 239), (3790, 50), (1125, 18)),
    (0.025, 0.2, 0.05): ((4038, 229), (713, 47), (213, 17)),
    (0.025, 0.2, 0.1): ((1904, 216), (341, 45), (94, 15)),
    (0.025, 0.2, 0.3): ((482, 164), (83, 33), (23, 11)),
    (0.05, 0.05, 0.01): ((29411, 322), (5320, 65), (1567, 22)),
    (0.05, 0.05, 0.05): ((5626, 308), (1014, 62), (298, 21)),
    (0.05, 0.05, 0.1): ((2657, 291), (474, 58), (135, 19)),
    (0.05, 0.05, 0.3): ((669, 220), (114, 42), (28, 12)),
    (0.05, 0.1, 0.01): ((23222, 257), (4163, 52), (1235, 18)),
    (0.05, 0.1, 0.05): ((4445, 246), (800, 50), (233, 17)),
    (0.05, 0.1, 0.1): ((2096, 232), (368, 46), (109, 16)),
    (0.05, 0.1, 0.3): ((530, 176), (93, 35), (25, 11)),
    (0.05, 0.2, 0.01): ((16699, 188), (3011, 39), (905, 14)),
    (0.05, 0.2, 0.05): ((3198, 180), (572, 37), (169, 13)),
    (0.05, 0.2, 0.1): ((1510, 170), (270, 35), (78, 12)),
    (0.05, 0.2, 0.3): ((379, 128), (67, 26), (17, 8)),
}


class TestDesignMarginal:
    @pytest.mark.parametrize("args, expected", [
        ((0.025, 0.10, 0.1, 0.20), (121, 18)),
        ((0.025, 0.09, 0.1, 0.16), (324, 42)),
        ((0.025, 0.09, 0.1, 0.17), (243, 33)),
    ])
    def test_reference_designs_nearest(self, args, expected):
        d = design_marginal(*args)
        assert (d.n_star, d.k_star) == expected

    @pytest.mark.parametrize("args, expected", [
        ((0.025, 0.10, 0.1, 0.20), (121, 18)),
        ((0.025, 0.09, 0.1, 0.16), (324, 42)),
        ((0.025, 0.09, 0.1, 0.17), (243, 33)),
    ])
    def test_reference_designs_floor_within_one(self, args, expected):
        d = design_marginal(*args, rounding="floor")
        assert abs(d.n_star - expected[0]) <= 1
        assert abs(d.k_star - expected[1]) <= 1

    def test_exact_refine_satisfies_binomial_constraints(self):
        for args in [(0.025, 0.1, 0.1, 0.2), (0.025, 0.09, 0.1, 0.16),
                     (0.05, 0.2, 0.3, 0.45)]:
            d = design_marginal(*args, method="exact-refine")
            a, b, t0, t1 = args
            assert binom_sf(d.k_star, d.n_star, t0) <= a + 1e-12
            assert binom_cdf(d.k_star, d.n_star, t1) <= b + 1e-12
            # minimality: no critical value works at n_star - 1
            n_prev = d.n_star - 1
            feasible_prev = any(
                binom_sf(k, n_prev, t0) <= a and binom_cdf(k, n_prev, t1) <= b
                for k in range(0, n_prev)
            )
            assert not feasible_prev

    @pytest.mark.parametrize("rounding", ["nearest", "floor"])
    def test_exact_refine_pinned_designs(self, rounding):
        """(N*, k*) of the 108 margins of _EXACT_REFINE_PINS; the exact pair
        does not depend on where the walk starts, so both roundings agree."""
        for (a, b, t0), expected in _EXACT_REFINE_PINS.items():
            for delta, pin in zip((0.2, 0.5, 1), expected):
                d = design_marginal(a, b, t0, t0 * (1 + delta),
                                    method="exact-refine", rounding=rounding)
                assert (d.n_star, d.k_star) == pin, (a, b, t0, delta)

    @pytest.mark.parametrize("rounding", ["nearest", "floor"])
    @pytest.mark.parametrize("args, expected, scan", [
        # the approximation's k is too small at the first N: k steps up
        ((0.025, 0.2, 0.1, 0.2), (94, 15), "up"),
        # a smaller k than the approximation's is valid: k scans down
        ((0.01, 0.1, 0.8, 0.95), (62, 56), "down"),
        ((0.001, 0.49, 0.7, 0.95), (27, 25), "down"),
        # at N = 1 no k meets the size, although k = 0 meets the type II error
        ((0.05, 0.3, 0.2, 0.98), (2, 1), "none"),
    ])
    def test_exact_refine_scans_from_the_approximation(self, args, expected,
                                                        scan, rounding):
        a, b, t0, t1 = args
        approx = design_marginal(*args, rounding=rounding)
        start = max(approx.n_star - 5, 1)
        k = min(approx.k_star, start - 1)
        if scan == "down":
            assert binom_sf(k - 1, start, t0) <= a and expected[1] < k
        else:
            assert binom_sf(k, start, t0) > a
        if scan == "none":
            assert k == start - 1 and binom_cdf(k, start, t1) <= b
        d = design_marginal(*args, method="exact-refine", rounding=rounding)
        assert (d.n_star, d.k_star) == expected
        # the smallest (N, k) of all, by brute force from N = 1
        smallest = next((n, k) for n in range(1, d.n_star + 1) for k in range(n)
                        if binom_sf(k, n, t0) <= a and binom_cdf(k, n, t1) <= b)
        assert smallest == expected

    def test_domain(self):
        with pytest.raises(ValueError):
            design_marginal(0.6, 0.1, 0.1, 0.2)
        with pytest.raises(ValueError):
            design_marginal(0.025, 0.1, 0.2, 0.1)
        with pytest.raises(ValueError):
            design_marginal(0.025, 0.1, 0.1, 0.2, method="magic")


class TestCriticalValue:
    @pytest.mark.parametrize("alpha, theta0, n, expected", [
        (0.025, 0.40, 117, 57),
        (0.025, 0.31, 117, 46),
        (0.025, 0.10, 324, 42),
    ])
    def test_reference_values(self, alpha, theta0, n, expected):
        assert critical_value_for_n(alpha, theta0, n) == expected

    def test_monotone_in_n_and_theta(self):
        ks_n = [critical_value_for_n(0.025, 0.2, n) for n in range(10, 400, 7)]
        assert all(b >= a for a, b in zip(ks_n, ks_n[1:]))
        ks_t = [critical_value_for_n(0.025, t, 200)
                for t in np.linspace(0.05, 0.6, 30)]
        assert all(b >= a for a, b in zip(ks_t, ks_t[1:]))


class TestCombine:
    def test_reference_pooling(self):
        d = combine(MarginalDesign(0.025, 0.1, 0.05, 0.1, 263, 19),
                    MarginalDesign(0.025, 0.1, 0.1, 0.2, 121, 18))
        assert (d.n_star, d.k_lower) == (121, 18)
        assert (d.k_x, d.k_y) == (19, 18)

    def test_identical_margins(self):
        m = MarginalDesign(0.025, 0.09, 0.1, 0.16, 324, 42)
        d = combine(m, m)
        assert (d.n_star, d.k_lower, d.k_x, d.k_y) == (324, 42, 42, 42)

    def test_round_trip_dict(self):
        d = combine(MarginalDesign(0.025, 0.1, 0.05, 0.1, 263, 19),
                    MarginalDesign(0.025, 0.1, 0.1, 0.2, 121, 18))
        assert BivariateDesign.from_dict(d.to_dict()) == d
        # the pooled fields follow from the margins, so a document may omit them
        doc = d.to_dict()
        del doc["n_star"], doc["k_lower"]
        assert BivariateDesign.from_dict(doc) == d

    def test_margin_rule_at_construction(self):
        # one rule for a margin's targets: a margin that design_marginal would
        # refuse cannot be built, so none reaches combine and then fails to reload
        with pytest.raises(ValueError, match=r"alpha_tilde must lie in \(0, 0\.5\), not 0\.9"):
            MarginalDesign(0.9, 0.7, 0.1, 0.2, 100, 10)
        with pytest.raises(ValueError, match=r"beta must lie in \(0, 0\.5\), not 0\.5"):
            MarginalDesign(0.025, 0.5, 0.1, 0.2, 100, 10)
        with pytest.raises(ValueError, match=r"need 0 < theta0 < theta1 < 1"):
            MarginalDesign(0.025, 0.1, 0.2, 0.2, 100, 10)


def _targets():
    """(alpha_tilde, beta, theta0, theta1) with theta1 - theta0 >= 0.05, which
    keeps exact-refine's N below about 4000."""
    return st.tuples(st.floats(1e-3, 0.499), st.floats(1e-3, 0.499), st.floats(1e-3, 0.9),
                     st.floats(0.0, 1.0)).map(
        lambda t: (t[0], t[1], t[2], t[2] + 0.05 + t[3] * (0.999 - 0.05 - t[2])))


@pytest.mark.parametrize("method", ["approx", "exact-refine"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(tx=_targets(), ty=_targets())
def test_every_designed_margin_reloads(method, tx, ty):
    d = combine(design_marginal(*tx, method=method), design_marginal(*ty, method=method))
    assert BivariateDesign.from_dict(d.to_dict()) == d


class TestDecide:
    @pytest.mark.parametrize("s_x, s_y, n, expected", [
        (3, 5, 8, ("continue", "none")),       # both counts at (k_x, k_y)
        (0, 0, 1, ("continue", "none")),
        (4, 5, 8, ("reject", "x")),
        (3, 6, 8, ("reject", "y")),
        (4, 6, 8, ("reject", "corner")),
        (3, 5, 10, ("not_reject", "none")),    # curtailed at n = n_star
        (4, 0, 10, ("reject", "x")),           # a crossing at n_star rejects
        (0, 6, 10, ("reject", "y")),
        (4, 6, 10, ("reject", "corner")),
    ])
    def test_rule(self, s_x, s_y, n, expected):
        assert make_design(10, 3, 5).decide(s_x, s_y, n) == expected


class TestAttainedErrors:
    """Retrospective (type I, type II) error rates of pooled designs from the
    continuity-corrected bivariate normal rejection probability at theta0
    and theta1."""

    @pytest.mark.parametrize("n, k, t0, t1, rho, expected", [
        (324, 42, 0.10, 0.16, 0.4521, (0.0561, 0.0208)),
        (117, 57, 0.40, 0.55, 0.4521, (0.0402, 0.0302)),
        (243, 33, 0.10, 0.17, 0.2529, (0.0472, 0.0167)),
        (117, 46, 0.31, 0.45, 0.2529, (0.0394, 0.0288)),
    ])
    def test_reference_scenarios(self, n, k, t0, t1, rho, expected):
        m = MarginalDesign(0.025, 0.1, t0, t1, n, k)
        design = combine(m, m)
        null = make_params(t0, t0, rho)
        alt = make_params(t1, t1, rho)
        t1e = power_asymptotic(design, null, form="curtailed-normal")
        t2e = 1.0 - power_asymptotic(design, alt, form="curtailed-normal")
        assert t1e == pytest.approx(expected[0], abs=5e-4)
        assert t2e == pytest.approx(expected[1], abs=5e-4)


def test_error_guarantee_over_correlation_grid():
    """Pooled exact-refine design keeps type I <= 2*alpha_tilde and
    type II <= beta for every feasible correlation."""
    alpha_tilde, beta = 0.025, 0.1
    x = design_marginal(alpha_tilde, beta, 0.10, 0.25, method="exact-refine")
    y = design_marginal(alpha_tilde, beta, 0.15, 0.30, method="exact-refine")
    design = combine(x, y)
    lo0, hi0 = condition_a_bounds(0.10, 0.15)
    lo1, hi1 = condition_a_bounds(0.25, 0.30)
    for frac in (0.02, 0.3, 0.6, 0.98):
        rho0 = lo0 + frac * (hi0 - lo0)
        rho1 = lo1 + frac * (hi1 - lo1)
        null = make_params(0.10, 0.15, max(min(rho0, 0.99), -0.99))
        alt = make_params(0.25, 0.30, max(min(rho1, 0.99), -0.99))
        assert power_exact(design, null) <= 2 * alpha_tilde + 1e-9
        assert 1.0 - power_exact(design, alt) <= beta + 1e-9
