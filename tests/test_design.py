import numpy as np
import pytest

from bivarseq import (
    MarginalDesign,
    attained_errors,
    combine,
    condition_a_bounds,
    critical_value_for_n,
    design_marginal,
    make_params,
    power_exact,
)
from bivarseq.design import binom_cdf, binom_sf
from conftest import make_design


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
        from bivarseq import BivariateDesign

        d = combine(MarginalDesign(0.025, 0.1, 0.05, 0.1, 263, 19),
                    MarginalDesign(0.025, 0.1, 0.1, 0.2, 121, 18))
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
        t1e, t2e = attained_errors(design, null, alt)
        assert t1e == pytest.approx(expected[0], abs=5e-4)
        assert t2e == pytest.approx(expected[1], abs=5e-4)

    def test_exact_method_matches_power(self):
        m = MarginalDesign(0.025, 0.1, 0.1, 0.2, 121, 18)
        design = combine(m, m)
        null = make_params(0.1, 0.1, 0.1)
        alt = make_params(0.2, 0.2, 0.1)
        t1e, t2e = attained_errors(design, null, alt, method="exact")
        assert t1e == pytest.approx(power_exact(design, null), abs=1e-14)
        assert t2e == pytest.approx(1.0 - power_exact(design, alt), abs=1e-14)


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
