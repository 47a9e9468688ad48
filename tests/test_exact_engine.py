import hashlib
import subprocess
import sys
from math import isqrt

import mpmath
import numpy as np
import pytest

from bivarseq import (
    BivariateDesign,
    MarginalDesign,
    asn_bounds,
    asn_exact,
    condition_a_bounds,
    estimator_expectation_exact,
    lattice_forward_dp,
    make_params,
    non_rejection_prob,
    power_exact,
    stopping_pmf_exact,
    variance_cv,
)
from bivarseq import exact_engine
from conftest import TINY_DESIGNS, make_design
from oracles import (alive_mass_triangle, asn_bounds_betainc, boundary_pass_stepped,
                     enumerate_paths, estimator_dp, independent_margins_pmf, tail_sum_asn)

# parameter points that are feasible for every tiny design below
TINY_PARAMS = [(0.3, 0.4, 0.2), (0.25, 0.2, -0.05), (0.5, 0.3, 0.1)]


class TestAgainstEnumeration:
    @pytest.mark.parametrize("geom", TINY_DESIGNS)
    @pytest.mark.parametrize("point", TINY_PARAMS)
    def test_pmf_by_boundary(self, geom, point):
        design = make_design(*geom)
        params = make_params(*point)
        law = enumerate_paths(design, params.cell_probs)
        pmf = stopping_pmf_exact(design, params)
        np.testing.assert_allclose(pmf.mass_x, law.mass_x, atol=1e-12)
        np.testing.assert_allclose(pmf.mass_y, law.mass_y, atol=1e-12)
        np.testing.assert_allclose(pmf.mass_corner, law.mass_corner, atol=1e-12)
        assert pmf.continue_mass == pytest.approx(law.continue_mass, abs=1e-12)

    @pytest.mark.parametrize("geom", TINY_DESIGNS[:1])
    def test_moments_and_estimators(self, geom):
        design = make_design(*geom)
        for point in TINY_PARAMS:
            params = make_params(*point)
            law = enumerate_paths(design, params.cell_probs)
            assert power_exact(design, params) == pytest.approx(law.power, abs=1e-12)
            assert asn_exact(design, params) == pytest.approx(law.asn, abs=1e-12)
            assert stopping_pmf_exact(design, params).moments(design.n_star)[1] == \
                pytest.approx(law.second_moment, abs=1e-12)
            var, _ = variance_cv(design, params)
            assert var == pytest.approx(law.variance, abs=1e-10)
            assert estimator_expectation_exact(design, params, "x") == \
                pytest.approx(law.est_x, abs=1e-12)
            assert estimator_expectation_exact(design, params, "y") == \
                pytest.approx(law.est_y, abs=1e-12)


class TestReferencePoints:
    def test_power_values(self, fig_design):
        null = make_params(0.05, 0.1, 0.1)
        alt = make_params(0.1, 0.2, 0.1)
        assert power_exact(fig_design, null) == pytest.approx(0.0321, abs=5e-4)
        assert power_exact(fig_design, alt) == pytest.approx(0.9065, abs=5e-4)
        assert non_rejection_prob(fig_design, null) == pytest.approx(
            1.0 - 0.0321, abs=5e-4)

    def test_power_vanishes_at_tiny_margins(self, fig_design):
        assert power_exact(fig_design, make_params(1e-4, 1e-4, 0.0)) < 1e-12

    def test_unreachable_boundary(self):
        design = make_design(6, 5, 5)
        assert non_rejection_prob(design, make_params(0.01, 0.01, 0.0)) == \
            pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("point, expected", [
        ((0.05, 0.10, 0.1), 120.6653),
        ((0.25, 0.25, 0.1), 69.7126),
        ((0.10, 0.10, -0.1), 120.5035),
    ])
    def test_asn_values(self, fig_design, point, expected):
        assert asn_exact(fig_design, make_params(*point)) == \
            pytest.approx(expected, abs=5e-4)

    def test_asn_bounds_values(self, fig_design):
        lower, upper = asn_bounds(fig_design, make_params(0.25, 0.25, 0.1))
        assert lower == pytest.approx(69.2791, abs=5e-4)
        assert upper == pytest.approx(75.9630, abs=5e-4)
        _, upper_neg = asn_bounds(fig_design, make_params(0.25, 0.25, -0.1))
        assert upper_neg == pytest.approx(69.2791, abs=5e-4)

    def test_variance_cv_values(self, fig_design):
        var, cv = variance_cv(fig_design, make_params(0.05, 0.1, 0.1))
        assert var == pytest.approx(6.1438, abs=5e-4)
        assert cv == pytest.approx(0.0205, abs=5e-4)
        var, cv = variance_cv(fig_design, make_params(0.25, 0.25, 0.1))
        assert var == pytest.approx(139.2098, abs=5e-3)
        assert cv == pytest.approx(0.1692, abs=5e-4)


class TestDpOracle:
    @pytest.mark.parametrize("geom, point", [
        ((121, 19, 18), (0.1, 0.2, 0.1)),
        ((121, 19, 18), (0.05, 0.1, 0.1)),
        ((200, 30, 25), (0.12, 0.11, -0.05)),
        ((150, 20, 40), (0.15, 0.3, 0.35)),
        ((310, 43, 40), (0.06, 0.12, 0.1)),
        ((310, 43, 40), (0.12, 0.12, 0.5)),
        # feasibility boundaries: p10 = 0, p01 = 0, p11 = 0
        ((310, 43, 40), (0.05, 0.45, condition_a_bounds(0.05, 0.45)[1])),
        ((121, 19, 18), (0.05, 0.45, condition_a_bounds(0.05, 0.45)[1])),
        ((121, 19, 18), (0.2, 0.1, condition_a_bounds(0.2, 0.1)[1])),
        ((200, 30, 25), (0.1, 0.2, condition_a_bounds(0.1, 0.2)[0])),
        # the delta = 0.5, 0.3 and 0.2 designs, with the same three boundaries
        ((437, 59, 55), (0.075, 0.15, 0.1)),
        ((1154, 143, 135), (0.065, 0.13, 0.1)),
        ((1154, 143, 135), (0.05, 0.10, -0.05)),
        ((2522, 298, 281), (0.06, 0.12, 0.1)),
        ((437, 59, 55), (0.075, 0.15, condition_a_bounds(0.075, 0.15)[1])),
        ((437, 59, 55), (0.15, 0.075, condition_a_bounds(0.15, 0.075)[1])),
        ((1154, 143, 135), (0.065, 0.13, condition_a_bounds(0.065, 0.13)[0])),
    ])
    def test_matches_closed_form(self, geom, point):
        design = make_design(*geom)
        params = make_params(*point)
        closed = stopping_pmf_exact(design, params)
        dp = lattice_forward_dp(design, params)
        np.testing.assert_allclose(dp.mass_x, closed.mass_x, atol=1e-13)
        np.testing.assert_allclose(dp.mass_y, closed.mass_y, atol=1e-13)
        np.testing.assert_allclose(dp.mass_corner, closed.mass_corner, atol=1e-13)
        assert dp.continue_mass == pytest.approx(closed.continue_mass, abs=1e-13)
        assert power_exact(design, params) == pytest.approx(1.0 - dp.continue_mass, abs=1e-13)

    @pytest.mark.parametrize("geom, point", [
        ((121, 19, 18), (0.1, 0.2, 0.1)),
        ((121, 19, 18), (0.12, 0.11, -0.05)),
        ((310, 43, 40), (0.06, 0.12, 0.1)),
        ((310, 43, 40), (0.06, 0.12, -0.05)),
        ((1154, 143, 135), (0.065, 0.13, 0.1)),
        ((1154, 143, 135), (0.05, 0.10, -0.05)),
    ])
    def test_estimator_expectations(self, geom, point):
        design = make_design(*geom)
        params = make_params(*point)
        dp_x, dp_y = estimator_dp(design, params.cell_probs)
        assert abs(estimator_expectation_exact(design, params, "x") - dp_x) <= 2e-14
        assert abs(estimator_expectation_exact(design, params, "y") - dp_y) <= 2e-14

    @pytest.mark.parametrize("x, y", [
        ((10, 2), (50, 12)), ((50, 12), (10, 2)), ((10, 2), (50, 10)), ((10, 9), (12, 11)),
    ])
    def test_critical_value_beyond_pooled_n_star(self, x, y):
        """Margins sized for different n*: one margin's k* reaches the pooled
        n*, so its boundary carries no mass and its pass has no rows."""
        design = BivariateDesign(MarginalDesign(0.025, 0.1, 0.1, 0.3, *x),
                                 MarginalDesign(0.025, 0.1, 0.1, 0.3, *y))
        params = make_params(0.2, 0.25, 0.3)
        closed = stopping_pmf_exact(design, params)
        dp = lattice_forward_dp(design, params)
        np.testing.assert_allclose(dp.mass_x, closed.mass_x, atol=1e-13)
        np.testing.assert_allclose(dp.mass_y, closed.mass_y, atol=1e-13)
        np.testing.assert_allclose(dp.mass_corner, closed.mass_corner, atol=1e-13)
        assert dp.continue_mass == pytest.approx(closed.continue_mass, abs=1e-13)
        assert power_exact(design, params) == pytest.approx(1.0 - dp.continue_mass, abs=1e-13)
        assert asn_exact(design, params) == pytest.approx(dp.moments(design.n_star)[0], abs=1e-12)
        dp_x, dp_y = estimator_dp(design, params.cell_probs)
        assert abs(estimator_expectation_exact(design, params, "x") - dp_x) <= 2e-14
        assert abs(estimator_expectation_exact(design, params, "y") - dp_y) <= 2e-14

    def test_rejection_mass_reference(self, fig_design):
        dp = lattice_forward_dp(fig_design, make_params(0.1, 0.2, 0.1))
        assert dp.rejection_mass == pytest.approx(0.9065, abs=5e-4)

    def test_boundary_overlap_params_stay_normalized(self):
        design = make_design(40, 8, 6)
        # p11 at its maximum for these margins
        from bivarseq import condition_a_bounds
        hi = condition_a_bounds(0.2, 0.3)[1]
        params = make_params(0.2, 0.3, hi)
        dp = lattice_forward_dp(design, params)
        assert dp.total_mass() == pytest.approx(1.0, abs=1e-10)


class TestOneLaw:
    def test_one_law_per_point(self, monkeypatch):
        """Every law-reading output at one point shares one pair of boundary
        passes, and the shared arrays cannot be written."""
        passes = []
        boundary_pass = exact_engine._boundary_pass
        monkeypatch.setattr(exact_engine, "_boundary_pass",
                            lambda *args: passes.append(args) or boundary_pass(*args))
        exact_engine._law.cache_clear()
        design = make_design(121, 19, 18)

        def report(params):
            pmf = stopping_pmf_exact(design, params)
            return ([arr.copy() for arr in (pmf.support, pmf.mass_x, pmf.mass_y,
                                            pmf.mass_corner)],
                    pmf.continue_mass, asn_exact(design, params),
                    pmf.moments(design.n_star)[1], variance_cv(design, params),
                    estimator_expectation_exact(design, params, "x"),
                    estimator_expectation_exact(design, params, "y"))

        first_point, second_point = make_params(0.1, 0.2, 0.1), make_params(0.12, 0.11, -0.05)
        before = report(first_point)
        assert len(passes) == 2
        report(second_point)
        assert len(passes) == 4
        pmf = stopping_pmf_exact(design, first_point)
        for arr in (pmf.support, pmf.mass_x, pmf.mass_y, pmf.mass_corner):
            with pytest.raises(ValueError):
                arr[0] = 1
        after = report(first_point)
        for old, new in zip(before[0], after[0]):
            np.testing.assert_array_equal(old, new)
        assert before[1:] == after[1:]


def seeded_pass(*args):
    """One boundary pass, seeded by the kernel as the stopping law seeds it."""
    return exact_engine._boundary_pass(
        *args, *exact_engine._binom_pmfs(*exact_engine._pass_seeds(*args)))


class TestBoundaryPass:
    """The pass seeds blocks of rows from the kernel and steps V; the
    geometry of those blocks must not show in the masses."""

    @pytest.mark.parametrize("geom, point, block_bytes", [
        # with k_x = 4 a pass has L = n* - 4 rows, in ceil(sqrt(L)) blocks
        ((5, 4, 3), (0.3, 0.4, 0.2), None),             # L = 1
        ((29, 4, 3), (0.3, 0.4, 0.2), None),            # L = 25 = 5 * 5
        ((35, 4, 3), (0.3, 0.4, 0.2), None),            # L = 6 * 5 + 1
        ((33, 4, 3), (0.3, 0.4, 0.2), None),            # L = 5 * 6 - 1
        ((35, 4, 0), (0.1, 0.02, 0.05), None),          # k_other = 0
        ((35, 4, 3), (0.3, 0.4, condition_a_bounds(0.3, 0.4)[0]), None),      # p11 = 0
        ((35, 4, 3), (0.05, 0.45, condition_a_bounds(0.05, 0.45)[1]), None),  # p10 = 0
        ((35, 4, 3), (0.2, 0.1, condition_a_bounds(0.2, 0.1)[1]), None),      # p01 = 0
        # starts and V chunks over a small byte budget: fewer, longer blocks,
        # each filled by several chunks of V_s
        ((104, 10, 8), (0.1, 0.12, 0.3), 8 * 3 * 9 * 2),
        ((1154, 143, 135), (0.065, 0.13, 0.1), 8 * 3 * 136 * 5),
    ])
    def test_matches_stepped_pass_and_dp(self, monkeypatch, geom, point, block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(exact_engine, "_BLOCK_BYTES", block_bytes)
        design = make_design(*geom)
        params = make_params(*point)
        dp = lattice_forward_dp(design, params)
        n, k_x, k_y, low = design.n_star, design.k_x, design.k_y, design.k_lower
        for args, only in (((n, k_x, k_y, params), dp.mass_x),
                           ((n, k_y, k_x, params.swapped()), dp.mass_y)):
            got, want = seeded_pass(*args), boundary_pass_stepped(*args)
            big = want > 1e-280
            np.testing.assert_allclose(got[big], want[big], rtol=1e-13, atol=0)
            assert np.all(got[~big] <= 1e-280)
            np.testing.assert_allclose(got[0, low:], only, atol=1e-13)
            np.testing.assert_allclose(got[1, low:], dp.mass_corner, atol=1e-13)

    def test_empty_pass(self):
        """k* at or past the pooled n*: no rows, no mass, in both routes."""
        params = make_params(0.2, 0.25, 0.3)
        for k_hit in (10, 12):
            got = seeded_pass(10, k_hit, 2, params)
            np.testing.assert_array_equal(got, np.zeros((3, 10)))
            np.testing.assert_array_equal(got, boundary_pass_stepped(10, k_hit, 2, params))

    def test_steps_about_sqrt_of_the_rows(self, monkeypatch):
        """A pass over L = 1011 rows takes about sqrt(L) Bernoulli steps, not
        one per row."""
        steps = []
        bernoulli_rows = exact_engine._bernoulli_rows
        monkeypatch.setattr(exact_engine, "_bernoulli_rows",
                            lambda rows, *args: steps.append(len(rows) - 1)
                            or bernoulli_rows(rows, *args))
        seeded_pass(1154, 143, 135, make_params(0.065, 0.13, 0.1))
        assert 0 < sum(steps) <= 2 * (isqrt(1154 - 143) + 1)


class TestBinomialKernel:
    """The one binomial kernel against 40-digit mpmath values."""

    @staticmethod
    def _exact(k, n, p):
        with mpmath.workdps(40):
            p = mpmath.mpf(p)
            return mpmath.binomial(n, k) * p ** k * (1 - p) ** (n - k)

    def _check(self, k, n, p):
        got = exact_engine._binom_pmf(k, n, p)
        for kk, nn, value in zip(*np.broadcast_arrays(k, n, p)[:2], got):
            exact = self._exact(int(kk), int(nn), p)
            if exact > 1e-300:
                assert abs(value - exact) <= 1e-13 * exact, (kk, nn, p, value, exact)
            else:
                assert value <= 1e-300, (kk, nn, p, value, exact)

    @pytest.mark.parametrize("n, p", [
        (20, 0.3), (121, 0.1), (437, 0.9), (1154, 0.065), (2522, 0.12),
        (9781, 0.11), (38483, 0.105), (38483, 0.0525), (5000, 0.999)])
    def test_within_six_sd_and_at_the_ends(self, n, p):
        sd = np.sqrt(n * p * (1 - p))
        k = np.round(np.linspace(n * p - 6 * sd, n * p + 6 * sd, 61))
        k = np.unique(np.concatenate([np.clip(k, 0, n), [0, n]]).astype(int))
        self._check(k, n, p)
        # the same masses with n varying and k fixed, as a boundary pass asks
        self._check(k[len(k) // 2], n + np.arange(-5, 6), p)

    @pytest.mark.parametrize("p", [0.01, 0.3, 0.5, 0.77])
    def test_stirling_table_range(self, p):
        """Every n <= 15 reads the tabulated Stirling errors."""
        n, k = np.tril_indices(16)
        self._check(k, n, p)

    @pytest.mark.parametrize("k, n, p", [
        (143, np.arange(100, 1154), 0.065),
        (135 - np.arange(136), np.arange(0, 1011, 32)[:, None], 0.07),
        (np.arange(7), 5, 0.0), (np.arange(7), 5, 1.0), (0, np.arange(3), 1.0),
        (np.arange(25), np.arange(25), 0.6), (0, np.arange(40), 0.3)])
    def test_ends_bit_identical_to_the_whole_grid_form(self, k, n, p):
        """k = 0 and k = n are evaluated only where they apply, with the
        values the expressions give over the whole grid."""
        got = exact_engine._binom_pmf(k, n, p)
        k, n = np.broadcast_arrays(k, n)
        want = got.copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            np.copyto(want, np.exp(n * np.log1p(-p)), where=k == 0)
            np.copyto(want, np.power(p, n), where=n - k <= 0)
        np.copyto(want, 0.0, where=n - k < 0)
        np.testing.assert_array_equal(got, want)

    def test_array_p_gives_the_bits_of_one_call_per_law(self):
        """One call over several laws, with p an array, returns for each
        element the bits of that element's law evaluated alone; the merged
        calls of the engine rest on this."""
        rng = np.random.default_rng(7)
        size = 400
        k, n = rng.integers(0, 300, size), rng.integers(0, 300, size)
        k[:40] = 0
        k[40:80] = n[40:80]
        p = rng.choice([0.0, 1.0, 0.5, 1e-9, 1 - 1e-9, 0.07, 0.93, *rng.uniform(size=8)], size)
        got = exact_engine._binom_pmf(k, n, p)
        for i in range(size):
            alone = exact_engine._binom_pmf(k[i:i + 1], n[i], float(p[i]))
            assert got[i].tobytes() == alone.tobytes(), (k[i], n[i], p[i])
        # and the gathered form returns each law in its own broadcast shape
        z = np.arange(9)
        laws = [(z, 40, 0.3), (8 - z, np.arange(0, 30, 7)[:, None], 0.8),
                (5, np.arange(5, 60), 0.1)]
        for part, (kk, nn, pp) in zip(exact_engine._binom_pmfs(*laws), laws):
            alone = exact_engine._binom_pmf(kk, nn, pp)
            assert part.shape == alone.shape
            assert part.tobytes() == alone.tobytes()

    def test_degenerate_probabilities(self):
        k = np.arange(7)
        np.testing.assert_array_equal(exact_engine._binom_pmf(k, 5, 0.0), [1, 0, 0, 0, 0, 0, 0])
        np.testing.assert_array_equal(exact_engine._binom_pmf(k, 5, 1.0), [0, 0, 0, 0, 0, 1, 0])
        np.testing.assert_array_equal(exact_engine._binom_pmf(k, 0, 0.3), [1, 0, 0, 0, 0, 0, 0])
        np.testing.assert_array_equal(exact_engine._binom_pmf(0, np.arange(3), 1.0), [1, 0, 0])


class TestAliveMass:
    @pytest.mark.parametrize("point", [(0.05, 0.10, 0.1), (0.055, 0.11, 0.1)])
    def test_matches_triangle_at_large_n(self, point):
        """n* = 9781: the lattice DP is out of reach, the triangle is not.
        Its log-gamma masses are up to 3.6e-11 off at this n, which bounds
        the agreement."""
        design = make_design(9781, 1096, 1036)
        params = make_params(*point)
        triangle = alive_mass_triangle(design, params.cell_probs)
        assert abs(non_rejection_prob(design, params) - triangle) <= 4e-11 * triangle

    @pytest.mark.parametrize("geom, point", [
        ((1154, 143, 135), (0.08, 0.16, 0.1)),
        ((437, 59, 55), (0.11, 0.22, 0.1)),
    ])
    def test_relative_accuracy_at_small_mass(self, geom, point):
        """P(M > n*) of 2e-5 and 3e-7, where 1 - sum(pmf) keeps only a few
        digits, still agrees with the DP to 1e-13 of itself."""
        design = make_design(*geom)
        params = make_params(*point)
        dp = lattice_forward_dp(design, params).continue_mass
        assert dp < 1e-4
        assert abs(non_rejection_prob(design, params) - dp) <= 1e-13 * dp

    def test_power_and_law_share_one_alive_mass(self):
        design = make_design(1154, 143, 135)
        params = make_params(0.065, 0.13, 0.1)
        exact_engine._law.cache_clear()
        exact_engine._alive_mass.cache_clear()
        power = power_exact(design, params)
        pmf = stopping_pmf_exact(design, params)
        info = exact_engine._alive_mass.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert power == 1.0 - pmf.continue_mass


class TestIndependenceOracle:
    @pytest.mark.parametrize("geom, thetas", [
        ((60, 10, 8), (0.2, 0.15)),
        ((121, 19, 18), (0.1, 0.2)),
    ])
    def test_rho_zero_factorizes(self, geom, thetas):
        design = make_design(*geom)
        params = make_params(thetas[0], thetas[1], 0.0)
        pmf = stopping_pmf_exact(design, params)
        support, ox, oy, oc, cont = independent_margins_pmf(design, *thetas)
        np.testing.assert_array_equal(support, pmf.support)
        np.testing.assert_allclose(pmf.mass_x, ox, atol=1e-10)
        np.testing.assert_allclose(pmf.mass_y, oy, atol=1e-10)
        np.testing.assert_allclose(pmf.mass_corner, oc, atol=1e-10)
        assert pmf.continue_mass == pytest.approx(cont, abs=1e-10)


class TestStructure:
    def test_normalization_over_feasible_grid(self):
        design = make_design(50, 9, 7)
        from bivarseq import condition_a_bounds
        for tx in (0.05, 0.2, 0.45):
            for ty in (0.1, 0.3):
                lo, hi = condition_a_bounds(tx, ty)
                for frac in (0.05, 0.5, 0.95):
                    rho = max(min(lo + frac * (hi - lo), 0.99), -0.99)
                    pmf = stopping_pmf_exact(design, make_params(tx, ty, rho))
                    assert pmf.total_mass() == pytest.approx(1.0, abs=1e-10)

    def test_support_starts_after_k_lower(self, fig_design):
        pmf = stopping_pmf_exact(fig_design, make_params(0.1, 0.2, 0.1))
        assert pmf.support[0] == fig_design.k_lower + 1
        assert pmf.support[-1] == fig_design.n_star

    def test_corner_support_condition(self):
        design = make_design(30, 5, 4)
        pmf = stopping_pmf_exact(design, make_params(0.3, 0.35, 0.3))
        earliest = design.k_x + design.k_y + 2 - (design.k_lower + 1)
        nz = pmf.support[pmf.mass_corner > 0]
        assert nz.min() >= earliest

    def test_power_monotone_in_each_margin(self):
        design = make_design(60, 12, 10)
        for ty in (0.15, 0.25):
            values = [power_exact(design, make_params(tx, ty, 0.1))
                      for tx in np.linspace(0.05, 0.45, 9)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        for tx in (0.1, 0.3):
            values = [power_exact(design, make_params(tx, ty, 0.1))
                      for ty in np.linspace(0.05, 0.45, 9)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_truncated_moment_identities(self):
        """Tail-sum forms of the first two truncated moments agree with the
        direct pmf forms on a DP-computed law."""
        design = make_design(80, 14, 11)
        params = make_params(0.18, 0.22, 0.25)
        pmf = lattice_forward_dp(design, params)
        n, support, p = design.n_star, pmf.support, pmf.pmf
        cont = pmf.continue_mass
        surv = cont + p[::-1].cumsum()[::-1]   # P(M >= m) on the support
        full_surv = np.concatenate([np.ones(support[0] - 1), surv])
        # E[M 1(M <= n)] two ways
        direct1 = float((support * p).sum())
        tails1 = float(full_surv.sum() - n * cont)
        assert direct1 == pytest.approx(tails1, abs=1e-10)
        # E[M^2 1(M <= n)] two ways
        direct2 = float((support.astype(float) ** 2 * p).sum())
        m_all = np.arange(1, n + 1)
        tails2 = float((2 * (m_all - 0.5) * full_surv).sum() - n * n * cont)
        assert direct2 == pytest.approx(tails2, abs=1e-10)

    def test_asn_equals_tail_series(self, fig_design):
        params = make_params(0.1, 0.2, 0.1)
        pmf = stopping_pmf_exact(fig_design, params)
        series = tail_sum_asn(pmf.support, pmf.pmf, pmf.continue_mass)
        assert asn_exact(fig_design, params) == pytest.approx(series, abs=1e-9)


class TestBounds:
    def test_ordering_by_rho_sign(self):
        design = make_design(60, 12, 10)
        for tx, ty in [(0.15, 0.2), (0.3, 0.25)]:
            from bivarseq import condition_a_bounds
            lo, hi = condition_a_bounds(tx, ty)
            for rho in (0.6 * lo, 0.0, 0.6 * hi):
                params = make_params(tx, ty, rho)
                lower, upper = asn_bounds(design, params)
                asn = asn_exact(design, params)
                assert lower <= asn + 1e-6
                assert asn <= upper + 1e-6
                assert design.k_lower + 1 <= asn <= design.n_star

    def test_independence_collapses_bounds(self):
        design = make_design(60, 12, 10)
        params = make_params(0.2, 0.25, 0.0)
        lower, upper = asn_bounds(design, params)
        assert lower == upper
        assert asn_exact(design, params) == pytest.approx(lower, abs=1e-6)

    # fig121, the criterion-10a design, delta_design(0.3) and delta_design(0.1)
    # (n* = 121, 310, 1154, 9781), each with k_x > k_y, k_x < k_y and k_x = k_y
    _SIZES = [(121, 19, 18), (310, 43, 40), (1154, 143, 135), (9781, 1096, 1036)]
    _GEOMS = [g for n, a, b in _SIZES for g in ((n, a, b), (n, b, a), (n, a, a))]

    @pytest.mark.parametrize("geom", _GEOMS)
    def test_match_betainc_oracle(self, geom):
        design = make_design(*geom)
        for tx, ty in [(0.05, 0.1), (0.12, 0.12), (0.45, 0.4)]:
            lo, hi = condition_a_bounds(tx, ty)
            for rho in (0.5 * lo, 0.0, 0.5 * hi):
                params = make_params(tx, ty, rho)
                for got, want in zip(asn_bounds(design, params),
                                     asn_bounds_betainc(design, params)):
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("geom", _GEOMS)
    def test_independence_bound_is_the_asn(self, geom):
        design = make_design(*geom)
        for tx, ty in [(0.05, 0.1), (0.45, 0.4)]:
            params = make_params(tx, ty, 0.0)
            lower, upper = asn_bounds(design, params)
            assert lower == upper
            assert lower == pytest.approx(asn_exact(design, params), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("geom", TINY_DESIGNS)
    def test_independence_bound_matches_enumeration(self, geom):
        design = make_design(*geom)
        for tx, ty, _ in TINY_PARAMS:
            params = make_params(tx, ty, 0.0)
            law = enumerate_paths(design, params.cell_probs)
            assert abs(asn_bounds(design, params)[0] - law.asn) <= 1e-14

    def test_critical_value_beyond_pooled_n_star(self):
        """A margin sized for a larger n* whose k* reaches the pooled n*
        never stops alone: its survival is all ones, and the bounds hold."""
        design = BivariateDesign(MarginalDesign(0.025, 0.1, 0.05, 0.1, 500, 300),
                                 MarginalDesign(0.025, 0.1, 0.1, 0.2, 200, 30))
        for rho in (-0.05, 0.0, 0.1):
            params = make_params(0.1, 0.2, rho)
            lower, upper = asn_bounds(design, params)
            assert lower - 1e-9 <= asn_exact(design, params) <= upper + 1e-9


class TestEstimator:
    def test_vanishes_with_margins(self, fig_design):
        params = make_params(1e-4, 1e-4, 0.0)
        assert estimator_expectation_exact(fig_design, params, "x") < 1e-3
        assert estimator_expectation_exact(fig_design, params, "y") < 1e-3

    def test_margin_argument_validated(self, fig_design):
        with pytest.raises(ValueError):
            estimator_expectation_exact(fig_design, make_params(0.1, 0.2, 0.1), "z")


def test_import_leaves_scipy_stats_unloaded():
    """scipy.stats costs most of a second to import; the package needs only
    scipy.special."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bivarseq; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


# float.hex of every exact output, and a SHA-256 of the three per-boundary
# mass arrays, under the default block budget (None) and a 1024-byte one, at
# a null point, an alternative and a rho = 0.5 point where the corner carries
# mass.  The small budget splits the alive rows, the start grids and the V
# chunks into many blocks, so it pins the block geometry too.
_ENGINE_PINS = {
    ('fig121', (0.05, 0.1, 0.1), None): (
        '1b800fe8439d082ffe7bfbda5e930a06c82cecf4f7ab29248cdfd946afb41fd9',
        '0x1.ef96a7fb4fce2p-1', '0x1.0695804b031e0p-5', '0x1.e2a94f364be5ap+6',
        '0x1.89349378cc800p+2', '0x1.508e4b7b5f5e1p-6', '0x1.e2a94efa87f2bp+6',
        '0x1.e2a9532c17bb0p+6', '0x1.99beb74c13740p-5', '0x1.9a98ce44aa05fp-4',
    ),
    ('fig121', (0.1, 0.2, -0.05), None): (
        '33f5aa0cdab964888376185c85782d3a8887f1d74385446ee177a034109c40c9',
        '0x1.7a8796005b25dp-4', '0x1.d0af0d3ff49b4p-1', '0x1.77492212824cbp+6',
        '0x1.2614dc7eb0660p+8', '0x1.76560fa341474p-3', '0x1.3000000000000p+4',
        '0x1.77501078f50fdp+6', '0x1.98807f7a71c2ap-4', '0x1.aa18240d6f9a3p-3',
    ),
    ('fig121', (0.12, 0.12, 0.5), None): (
        'a6d092cfa0dce4d9d1989df83c14c821e2d4f6b3a5f657626ff89d5d9f20bc87',
        '0x1.a21fcf9b8841ap-1', '0x1.7780c191def98p-3', '0x1.daa177042238fp+6',
        '0x1.6731676b8f900p+5', '0x1.ce9b9d746d3fep-5', '0x1.d99956e8d0a3dp+6',
        '0x1.dd37de0a1bcaep+6', '0x1.ef6acdbf8711ap-4', '0x1.f0478682ed926p-4',
    ),
    ('criterion10a', (0.05, 0.1, 0.1), None): (
        'dc69bc80007e751581cf29549b3e69e8aa42ea7c4ef841a2dd9900cf8d37511e',
        '0x1.eb7de25eff530p-1', '0x1.4821da100ad00p-5', '0x1.353fb1837e69cp+8',
        '0x1.88d6e4b110000p+4', '0x1.0684aa4502ab2p-6', '0x1.353fb1837c2d2p+8',
        '0x1.353fb18392d4bp+8', '0x1.99abb54bb3cd0p-5', '0x1.9a163aa3eccd2p-4',
    ),
    ('criterion10a', (0.1, 0.2, -0.05), None): (
        '329a8fba0726200554f4cf419f113e16a4b10113fdd5ae863f857bb0e7def9e6',
        '0x1.6614c1343dbaep-11', '0x1.ffa67acfb2f09p-1', '0x1.99fb4843d689ap+7',
        '0x1.990222c43c2c0p+9', '0x1.1dbe6465bbae6p-3', '0x1.4800000000000p+5',
        '0x1.99fb88084f7b9p+7', '0x1.98fe5d8ea6b8ep-4', '0x1.a1b46b02c76a7p-3',
    ),
    ('criterion10a', (0.12, 0.12, 0.5), None): (
        'c348ff2d06c764c5358f5fc4eae768ca0770e97538123ea3b780db087db6b38f',
        '0x1.56106fa5b519cp-1', '0x1.53df20b495cc8p-2', '0x1.2d163082e86b7p+8',
        '0x1.3467fb0a5ec00p+8', '0x1.ddd0af239e11bp-5', '0x1.2c1ff0c1f1347p+8',
        '0x1.2e9449c365d4bp+8', '0x1.ee178d57f85ecp-4', '0x1.ef1f6be5c2c55p-4',
    ),
    ('delta03', (0.05, 0.1, 0.1), None): (
        '39d7b1f8090efd444d69c25086e6a5edfb87517759248fc6155edbf8a8b79686',
        '0x1.f283b4ada3d80p-1', '0x1.af896a4b85000p-6', '0x1.204304acc21d7p+10',
        '0x1.eb456274d8000p+5', '0x1.bd65efa01660bp-8', '0x1.204304acc21d8p+10',
        '0x1.204304acc21d8p+10', '0x1.999cc208d9208p-5', '0x1.99af55a0d5796p-4',
    ),
    ('delta03', (0.1, 0.2, -0.05), None): (
        '6c2837c04caae6a5642aba0d75ede3a94c3595e9ea5547beea9744ba3c22db5d',
        '0x1.7fec0eeffcb12p-45', '0x1.ffffffffffe80p-1', '0x1.53ffffffff113p+9',
        '0x1.53ffffff8dc00p+11', '0x1.3a261ba6a3b7fp-4', '0x1.1000000000000p+7',
        '0x1.53ffffffffb48p+9', '0x1.996b2296c4040p-4', '0x1.9c0521bf6a431p-3',
    ),
    ('delta03', (0.12, 0.12, 0.5), None): (
        '28b6bd698629fa3f76697506d743c3cccf1752708141baf984af01b0f196d81d',
        '0x1.5b0478f6ebfb2p-2', '0x1.527dc3848a027p-1', '0x1.133247851460dp+10',
        '0x1.b730045eb5600p+11', '0x1.b91ed70358ef0p-5', '0x1.11d51691c6c22p+10',
        '0x1.148a33d82311cp+10', '0x1.ecd7bb7833c84p-4', '0x1.ed806ab8932eep-4',
    ),
    ('fig121', (0.05, 0.1, 0.1), 1024): (
        '60402c054884a62bc213afb2531b39e4368ba37547ea33adede702a8c8585f43',
        '0x1.ef96a7fb4fce2p-1', '0x1.0695804b031e0p-5', '0x1.e2a94f364be5ap+6',
        '0x1.89349378cc800p+2', '0x1.508e4b7b5f5e1p-6', '0x1.e2a94efa87f2bp+6',
        '0x1.e2a9532c17bb0p+6', '0x1.99beb74c13740p-5', '0x1.9a98ce44aa05fp-4',
    ),
    ('fig121', (0.1, 0.2, -0.05), 1024): (
        'de575ae1039698722a491b1642af1527f534e4b41eca18bba92114d81dc70983',
        '0x1.7a8796005b260p-4', '0x1.d0af0d3ff49b4p-1', '0x1.77492212824cap+6',
        '0x1.2614dc7eb0660p+8', '0x1.76560fa341475p-3', '0x1.3000000000000p+4',
        '0x1.77501078f50fdp+6', '0x1.98807f7a71c28p-4', '0x1.aa18240d6f9a4p-3',
    ),
    ('fig121', (0.12, 0.12, 0.5), 1024): (
        'e59749792141998b87b75b732dd1e176121cb964a4b26c468e780cbf1dfd0330',
        '0x1.a21fcf9b8841fp-1', '0x1.7780c191def84p-3', '0x1.daa177042238fp+6',
        '0x1.6731676b8f900p+5', '0x1.ce9b9d746d3fep-5', '0x1.d99956e8d0a3dp+6',
        '0x1.dd37de0a1bcaep+6', '0x1.ef6acdbf8711ap-4', '0x1.f0478682ed926p-4',
    ),
    ('criterion10a', (0.05, 0.1, 0.1), 1024): (
        '92f72f4cfb0785c88d9676c57cf2a621aa2674d6e1142a6b586eb790bdd93f58',
        '0x1.eb7de25eff530p-1', '0x1.4821da100ad00p-5', '0x1.353fb1837e69cp+8',
        '0x1.88d6e4b110000p+4', '0x1.0684aa4502ab2p-6', '0x1.353fb1837c2d2p+8',
        '0x1.353fb18392d4bp+8', '0x1.99abb54bb3cd0p-5', '0x1.9a163aa3eccd2p-4',
    ),
    ('criterion10a', (0.1, 0.2, -0.05), 1024): (
        '6f8ed57baa480a8636f8f846918ca13cfa9326cd76da196c50106dc72312ee02',
        '0x1.6614c1343dbacp-11', '0x1.ffa67acfb2f09p-1', '0x1.99fb4843d6890p+7',
        '0x1.990222c43c200p+9', '0x1.1dbe6465bbaabp-3', '0x1.4800000000000p+5',
        '0x1.99fb88084f7b9p+7', '0x1.98fe5d8ea6b90p-4', '0x1.a1b46b02c76a6p-3',
    ),
    ('criterion10a', (0.12, 0.12, 0.5), 1024): (
        '4677039dfb8a1a55285f53a1d324393373bb9a4c4f2169c121a0621747e31ba1',
        '0x1.56106fa5b51a9p-1', '0x1.53df20b495caep-2', '0x1.2d163082e86b6p+8',
        '0x1.3467fb0a5ec00p+8', '0x1.ddd0af239e11cp-5', '0x1.2c1ff0c1f1347p+8',
        '0x1.2e9449c365d4bp+8', '0x1.ee178d57f85eap-4', '0x1.ef1f6be5c2c55p-4',
    ),
    ('delta03', (0.05, 0.1, 0.1), 1024): (
        '04f6a4bae745e04e2b6c6a32c575f2c0e20fa980fe48081e87245e666123aae1',
        '0x1.f283b4ada3d7ep-1', '0x1.af896a4b85040p-6', '0x1.204304acc21d7p+10',
        '0x1.eb456274d8000p+5', '0x1.bd65efa01660bp-8', '0x1.204304acc21d8p+10',
        '0x1.204304acc21d8p+10', '0x1.999cc208d9209p-5', '0x1.99af55a0d5796p-4',
    ),
    ('delta03', (0.1, 0.2, -0.05), 1024): (
        '9b82f32dea460b629df4d7ae58ba5159b205a47539be49480f356daf62b7cd83',
        '0x1.7fec0eeffcb0cp-45', '0x1.ffffffffffe80p-1', '0x1.53ffffffff10cp+9',
        '0x1.53ffffff8d700p+11', '0x1.3a261ba6a3937p-4', '0x1.1000000000000p+7',
        '0x1.53ffffffffb48p+9', '0x1.996b2296c40abp-4', '0x1.9c0521bf6a431p-3',
    ),
    ('delta03', (0.12, 0.12, 0.5), 1024): (
        'd9b3a154daf232e93af82e69fa9896ab5b516a88b79603887157c5d6e30fabb7',
        '0x1.5b0478f6ebfdfp-2', '0x1.527dc3848a010p-1', '0x1.1332478514602p+10',
        '0x1.b730045eb5600p+11', '0x1.b91ed70358f02p-5', '0x1.11d51691c6c22p+10',
        '0x1.148a33d82311cp+10', '0x1.ecd7bb7833c88p-4', '0x1.ed806ab8932efp-4',
    ),
}
_ENGINE_DESIGNS = {"fig121": (121, 19, 18), "criterion10a": (310, 43, 40),
                   "delta03": (1154, 143, 135)}


def _clear_engine_memos():
    exact_engine._law.cache_clear()
    exact_engine._alive_mass.cache_clear()


@pytest.fixture
def fresh_memos():
    """Memos cleared before and after, so that no law computed under a
    patched _BLOCK_BYTES outlives the patch."""
    _clear_engine_memos()
    yield
    _clear_engine_memos()


def _engine_outputs(design, params):
    pmf = stopping_pmf_exact(design, params)
    digest = hashlib.sha256()
    for arr in (pmf.mass_x, pmf.mass_y, pmf.mass_corner):
        digest.update(arr.tobytes())
    return (digest.hexdigest(), *(float(v).hex() for v in (
        pmf.continue_mass, power_exact(design, params), asn_exact(design, params),
        *variance_cv(design, params), *asn_bounds(design, params),
        estimator_expectation_exact(design, params, "x"),
        estimator_expectation_exact(design, params, "y"))))


@pytest.mark.parametrize("name, point, block_bytes", sorted(_ENGINE_PINS, key=repr))
def test_engine_outputs_pinned(monkeypatch, fresh_memos, name, point, block_bytes):
    """Every exact output is bit-identical to the pinned value."""
    if block_bytes is not None:
        monkeypatch.setattr(exact_engine, "_BLOCK_BYTES", block_bytes)
    design = make_design(*_ENGINE_DESIGNS[name])
    assert _engine_outputs(design, make_params(*point)) == _ENGINE_PINS[name, point, block_bytes]


def test_surface_point_kernel_calls(monkeypatch, fresh_memos):
    """The exact part of one power-and-bias surface point (power, both
    estimator expectations, the ASN bounds) makes at most five kernel calls,
    one of them for the whole stopping law."""
    callers = []
    kernel = exact_engine._binom_pmf
    owners = ("_law", "_alive_mass", "asn_bounds")

    def counted(*args):
        frame = sys._getframe(1)
        while frame.f_code.co_name not in owners:
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return kernel(*args)

    monkeypatch.setattr(exact_engine, "_binom_pmf", counted)
    design, params = make_design(310, 43, 40), make_params(0.08, 0.16, 0.2)
    power_exact(design, params)
    estimator_expectation_exact(design, params, "x")
    estimator_expectation_exact(design, params, "y")
    asn_bounds(design, params)
    assert len(callers) <= 5
    assert callers.count("_law") == 1
