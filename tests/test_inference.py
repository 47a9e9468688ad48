import math

import numpy as np
import pytest

from bivarseq import (
    LatticeCounts,
    confidence_region,
    ellipse_points,
    inverse_relative_risk,
    make_params,
    monte_carlo,
    post_test_estimate,
    relative_risk,
)
from bivarseq.inference import chi2_quantile_2df
from conftest import make_design

# the two worked 117-subject tables used throughout
TABLE_A = LatticeCounts(n00=63, n10=18, n01=11, n11=25)
TABLE_B = LatticeCounts(n00=78, n10=26, n01=5, n11=8)


@pytest.fixture(scope="module")
def est_a():
    return post_test_estimate(TABLE_A)


@pytest.fixture(scope="module")
def est_b():
    return post_test_estimate(TABLE_B)


class TestPointEstimates:
    def test_table_a(self, est_a):
        assert est_a.theta_hat_x == pytest.approx(0.3675, abs=5e-5)
        assert est_a.theta_hat_y == pytest.approx(0.3077, abs=5e-5)
        assert est_a.p11_hat == pytest.approx(0.2137, abs=5e-5)
        assert est_a.rho_hat == pytest.approx(0.4521, abs=5e-5)
        assert not est_a.singular

    def test_table_b(self, est_b):
        assert est_b.theta_hat_x == pytest.approx(0.2906, abs=5e-5)
        assert est_b.theta_hat_y == pytest.approx(0.1111, abs=5e-5)
        assert est_b.p11_hat == pytest.approx(0.0684, abs=5e-5)
        assert est_b.rho_hat == pytest.approx(0.2529, abs=5e-5)

    def test_sigma_plug_in(self, est_a):
        thx, thy, p11 = est_a.theta_hat_x, est_a.theta_hat_y, est_a.p11_hat
        np.testing.assert_allclose(
            est_a.sigma_hat,
            [[thx * (1 - thx), p11 - thx * thy],
             [p11 - thx * thy, thy * (1 - thy)]], atol=1e-15)

    def test_all_zero_events_flagged(self):
        est = post_test_estimate(LatticeCounts(50, 0, 0, 0))
        assert est.theta_hat_x == est.theta_hat_y == est.p11_hat == 0.0
        assert est.singular
        assert math.isnan(est.rho_hat)

    def test_count_total_checked(self):
        # M* is the table's total, so an empty table has no estimate
        with pytest.raises(ValueError, match="the table is empty"):
            post_test_estimate(LatticeCounts(0, 0, 0, 0))

    @pytest.mark.parametrize("cells", [(0.5, 0, 0, 0), (1.5, 2, 0, 0), (3, 1, 0, 2.0),
                                       (True, 0, 0, 0), ("1", 0, 0, 0), (4, -1, 0, 0)])
    def test_counts_are_nonnegative_integers(self, cells):
        # a fraction of a count made "the table is empty" out of (0.5, 0, 0, 0),
        # and estimates from a table that no run can produce out of (1.5, 2, 0, 0)
        with pytest.raises(ValueError, match="counts must be nonnegative integers"):
            LatticeCounts(*cells)

    def test_numpy_integer_counts_accepted(self):
        counts = LatticeCounts(*np.array([63, 18, 11, 25]))
        assert post_test_estimate(counts).to_dict() == post_test_estimate(TABLE_A).to_dict()


class TestConfidenceRegion:
    def test_table_a_geometry(self, est_a):
        region = confidence_region(est_a, 0.95)
        assert region.half_lengths[0] == pytest.approx(0.1288, abs=5e-4)
        assert region.half_lengths[1] == pytest.approx(0.0790, abs=5e-4)
        assert region.simultaneous[0] == pytest.approx((0.2584, 0.4766), abs=5e-4)
        assert region.simultaneous[1] == pytest.approx((0.2032, 0.4121), abs=5e-4)

    def test_table_b_geometry(self, est_b):
        region = confidence_region(est_b, 0.95)
        assert region.half_lengths[0] == pytest.approx(0.1055, abs=5e-4)
        assert region.half_lengths[1] == pytest.approx(0.0670, abs=5e-4)
        assert region.simultaneous[0] == pytest.approx((0.1879, 0.3933), abs=5e-4)
        assert region.simultaneous[1] == pytest.approx((0.0400, 0.1822), abs=5e-4)

    def test_bonferroni_regression_lock(self, est_a, est_b):
        # z_{1-(1-level)/4} construction, frozen at first computation
        ra = confidence_region(est_a, 0.95)
        assert ra.bonferroni[0] == pytest.approx((0.267615, 0.467427), abs=1e-6)
        assert ra.bonferroni[1] == pytest.approx((0.212053, 0.403331), abs=1e-6)
        rb = confidence_region(est_b, 0.95)
        assert rb.bonferroni[0] == pytest.approx((0.196513, 0.384683), abs=1e-6)
        assert rb.bonferroni[1] == pytest.approx((0.045989, 0.176233), abs=1e-6)

    def test_isotropic_case_is_a_circle(self):
        # p11 = theta^2 makes the plug-in covariance a multiple of identity
        est = post_test_estimate(LatticeCounts(49, 21, 21, 9))
        assert est.rho_hat == pytest.approx(0.0, abs=1e-14)
        region = confidence_region(est, 0.95)
        assert region.half_lengths[0] == pytest.approx(region.half_lengths[1],
                                                       abs=1e-12)

    def test_projection_matches_boundary_extremes(self, est_a):
        region = confidence_region(est_a, 0.95)
        pts = ellipse_points(est_a, 0.95, n_points=20000)
        assert pts[:, 0].min() == pytest.approx(region.simultaneous[0][0], abs=1e-6)
        assert pts[:, 0].max() == pytest.approx(region.simultaneous[0][1], abs=1e-6)
        assert pts[:, 1].min() == pytest.approx(region.simultaneous[1][0], abs=1e-6)
        assert pts[:, 1].max() == pytest.approx(region.simultaneous[1][1], abs=1e-6)

    def test_singular_gives_point_region(self):
        est = post_test_estimate(LatticeCounts(50, 0, 0, 0))
        region = confidence_region(est, 0.95)
        assert region.half_lengths == (0.0, 0.0)
        assert region.simultaneous[0] == (0.0, 0.0)

    def test_chi2_quantile(self):
        assert chi2_quantile_2df(0.95) == pytest.approx(5.9915, abs=1e-4)

    def test_level_domain(self, est_a):
        with pytest.raises(ValueError):
            confidence_region(est_a, 1.0)


@pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5, math.nan])
@pytest.mark.parametrize("call", ["confidence_region", "relative_risk",
                                  "inverse_relative_risk", "monte_carlo"])
def test_level_rule(est_a, call, level):
    """One rule for a confidence level; relative_risk gave a point at level 0
    and an upside-down interval at level -0.5."""
    fn = {"confidence_region": lambda: confidence_region(est_a, level),
          "relative_risk": lambda: relative_risk(est_a, level),
          "inverse_relative_risk": lambda: inverse_relative_risk(est_a, level),
          "monte_carlo": lambda: monte_carlo(make_design(10, 2, 2),
                                             make_params(0.1, 0.2, 0.1), 5, 1, level=level)}
    with pytest.raises(ValueError, match=r"^level must lie in \(0, 1\)$"):
        fn[call]()


class TestRelativeRisk:
    def test_table_a(self, est_a):
        rr = relative_risk(est_a, 0.95)
        assert rr.gamma_hat == pytest.approx(1.1944, abs=5e-5)
        assert rr.ci == pytest.approx((0.8740, 1.5149), abs=5e-4)
        assert rr.ci[0] < 1.0 < rr.ci[1]

    def test_table_b(self, est_b):
        rr = relative_risk(est_b, 0.95)
        assert rr.gamma_hat == pytest.approx(2.6154, abs=5e-5)
        assert rr.ci == pytest.approx((1.2578, 3.9730), abs=5e-4)
        assert rr.ci[0] > 1.0

    def test_symmetric_margins(self):
        est = post_test_estimate(LatticeCounts(49, 21, 21, 9))
        rr = relative_risk(est, 0.95)
        assert rr.gamma_hat == 1.0
        assert rr.ci[0] + rr.ci[1] == pytest.approx(2.0, abs=1e-12)
        gamma, thy, p11 = 1.0, est.theta_hat_y, est.p11_hat
        assert rr.variance == pytest.approx(
            gamma * ((gamma + 1) / thy - 2 * p11 / thy ** 2), abs=1e-12)

    def test_inverse_construction(self, est_a, est_b):
        for est in (est_a, est_b):
            inv = inverse_relative_risk(est, 0.95)
            rr = relative_risk(est, 0.95)
            assert inv.gamma_hat == pytest.approx(1.0 / rr.gamma_hat, abs=1e-12)
            # swapping the margins exchanges the two constructions exactly
            swapped = post_test_estimate(
                LatticeCounts(n00=TABLE_A.n00, n10=TABLE_A.n01,
                              n01=TABLE_A.n10, n11=TABLE_A.n11)) \
                if est is est_a else post_test_estimate(
                LatticeCounts(n00=TABLE_B.n00, n10=TABLE_B.n01,
                              n01=TABLE_B.n10, n11=TABLE_B.n11))
            rr_swapped = relative_risk(swapped, 0.95)
            assert rr_swapped.gamma_hat == pytest.approx(inv.gamma_hat, abs=1e-12)
            assert rr_swapped.ci == pytest.approx(inv.ci, abs=1e-12)
            # the includes-1 decision agrees between parameterizations
            assert (rr.ci[0] < 1.0 < rr.ci[1]) == (inv.ci[0] < 1.0 < inv.ci[1])

    def test_zero_denominator(self):
        est = post_test_estimate(LatticeCounts(40, 10, 0, 0))
        with pytest.raises(ZeroDivisionError):
            relative_risk(est, 0.95)
        inv = inverse_relative_risk(est, 0.95)   # theta_hat_x > 0 is fine
        assert inv.gamma_hat == 0.0


@pytest.mark.slow
def test_ellipse_coverage_in_local_regime():
    """95% region covers the true margins with frequency 0.95 +- 0.01 at the
    tight-alternative design."""
    from bivarseq import make_params, monte_carlo
    from test_asymptotic_engine import delta_design

    design = delta_design(0.1)
    params = make_params(0.055, 0.11, 0.1)
    summary = monte_carlo(design, params, reps=10_000, seed=5, level=0.95)
    assert summary.coverage == pytest.approx(0.95, abs=0.01)
