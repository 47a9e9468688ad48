import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bivarseq import (
    BivariateNormalParams,
    DegenerateCovarianceError,
    bvn_cdf,
    bvn_rect,
    norm_cdf,
    norm_pdf,
    norm_quantile,
    reg_inc_beta,
)
from oracles import binom_upper_tail, bvn_quadrature


def _neighbours(c, steps):
    """c and the ``steps`` doubles on each side of it."""
    out = [c]
    for toward in (0.0, 1.0):
        x = c
        for _ in range(steps):
            x = math.nextafter(x, toward)
            out.append(x)
    return out


class TestRegIncBeta:
    def test_uniform_cdf(self):
        for x in (0.0, 0.2, 0.77, 1.0):
            assert reg_inc_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-14)

    def test_symmetry_at_half(self):
        assert reg_inc_beta(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-14)

    def test_binomial_tail_example(self):
        # P(Binomial(10, 0.3) >= 4) = I_0.3(4, 7)
        assert reg_inc_beta(0.3, 4, 7) == pytest.approx(
            binom_upper_tail(10, 3, 0.3), abs=1e-12)

    @pytest.mark.parametrize("theta", [0.05, 0.1, 0.3, 0.5])
    def test_binomial_tail_grid(self, theta):
        for n in range(1, 31):
            for k in range(0, n):
                assert reg_inc_beta(theta, k + 1, n - k) == pytest.approx(
                    binom_upper_tail(n, k, theta), abs=1e-10)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(x=st.floats(1e-6, 1.0 - 1e-6), a=st.floats(0.05, 50.0),
           b=st.floats(0.05, 50.0))
    def test_reflection_identity(self, x, a, b):
        # x bounded away from 0 and 1 so that 1-x is exactly representable
        assert reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) == \
            pytest.approx(1.0, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_inc_beta(-0.1, 1, 1)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0.0, 1)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 1, -1)
        for x in (math.nan, [0.2, math.nan]):
            with pytest.raises(ValueError):
                reg_inc_beta(x, 2, 3)


class TestNormal:
    def test_cdf_center(self):
        assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_quantile_against_bisection(self):
        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if norm_cdf(mid) < 0.975:
                lo = mid
            else:
                hi = mid
        by_bisection = 0.5 * (lo + hi)
        assert by_bisection == pytest.approx(1.959964, abs=1e-6)
        assert norm_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert norm_quantile(0.975) == pytest.approx(by_bisection, abs=1e-10)

    def test_inverse_pair_fixed(self):
        assert norm_quantile(norm_cdf(1.3)) == pytest.approx(1.3, abs=1e-10)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(z=st.floats(-5.0, 5.0))
    def test_inverse_pair(self, z):
        # beyond |z| ~ 5 the upper-tail mass falls under float resolution
        # near 1, capping the achievable round-trip accuracy
        assert norm_quantile(norm_cdf(z)) == pytest.approx(z, abs=1e-10)

    def test_quantile_domain(self):
        for p in (0.0, 1.0, -0.2, 1.3, math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError):
                norm_quantile(p)

    def test_quantile_bit_identical_to_scipy_ndtri(self):
        from scipy.special import ndtri
        rng = np.random.default_rng(20261019)
        # the branch tests at exp(-2) and 1 - exp(-2), and the switch of
        # rational approximation at sqrt(-2 log p) = 8, p = exp(-32)
        cuts = (math.exp(-2.0), 1.0 - 0.13533528323661269189, math.exp(-32.0))
        branch = [x for c in cuts for x in _neighbours(c, 4)]
        branch += [x for c in cuts for x in rng.uniform(0.99 * c, 1.01 * c, 2_000)]
        alpha_tilde, beta, level = 0.025, 0.1, 0.95
        cli = [0.5, 1.0 - alpha_tilde, 1.0 - beta, (1.0 + level) / 2.0,
               1.0 - (1.0 - level) / 4.0]
        p = np.concatenate([
            rng.random(100_000),
            10.0 ** rng.uniform(-300.0, 0.0, 20_000),
            [5e-324, 1e-310, 2.2250738585072014e-308],
            1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 20_000),
            branch, cli])
        p = p[(0.0 < p) & (p < 1.0)]
        assert p.size > 145_000
        got, want = norm_quantile(p), ndtri(p)
        mismatch = np.flatnonzero(got != want)
        assert mismatch.size == 0, (p[mismatch[:5]], got[mismatch[:5]], want[mismatch[:5]])
        for q in cli:
            assert norm_quantile(q) == ndtri(q)

    def test_quantile_shapes(self):
        p = np.array([[0.1, 0.5, 0.9], [0.025, 0.975, 1e-20]])
        out = norm_quantile(p)
        assert out.shape == p.shape and out.dtype == float
        assert out.tolist() == [[norm_quantile(v) for v in row] for row in p.tolist()]
        assert norm_quantile(np.full((0, 2), 0.5)).shape == (0, 2)
        assert type(norm_quantile(0.975)) is float
        assert type(norm_quantile(np.float64(0.975))) is float
        assert norm_quantile(0.5) == 0.0

    def test_pdf_matches_cdf_slope(self):
        h = 1e-6
        for z in (-1.7, 0.0, 0.9):
            slope = (norm_cdf(z + h) - norm_cdf(z - h)) / (2 * h)
            assert norm_pdf(z) == pytest.approx(slope, rel=1e-8)


class TestBvnCdf:
    @pytest.mark.parametrize("rho", [-0.9, -0.5, -0.1, 0.0, 0.3, 0.7, 0.95])
    def test_sheppard_identity(self, rho):
        expected = 0.25 + math.asin(rho) / (2 * math.pi)
        assert bvn_cdf(0.0, 0.0, rho) == pytest.approx(expected, abs=1e-12)

    def test_independence_factorizes(self):
        for h, k in [(-1.0, 0.5), (0.3, 2.0), (-2.5, -0.7)]:
            assert bvn_cdf(h, k, 0.0) == pytest.approx(
                norm_cdf(h) * norm_cdf(k), abs=1e-14)

    def test_independence_bit_identical_to_product(self):
        """At rho = 0 the integral term of the small-rho route adds exactly
        0.0, so no separate branch is needed for the product form."""
        from scipy.special import ndtr
        special = [np.inf, -np.inf, 0.0, -0.0, 39.0, -39.0, 50.0, -50.0, 1e-300, -1e-300]
        h, k = np.random.default_rng(20261019).normal(0.0, 3.0, (2, 200_000))
        h = np.concatenate([h, np.repeat(special, len(special))])
        k = np.concatenate([k, np.tile(special, len(special))])
        for rho in (0.0, -0.0):
            for lo in range(0, h.size, 25_000):   # bounds the (points x nodes) temporaries
                hh, kk = h[lo:lo + 25_000], k[lo:lo + 25_000]
                np.testing.assert_array_equal(
                    bvn_cdf(hh, kk, rho), np.clip(ndtr(hh) * ndtr(kk), 0.0, 1.0), strict=True)
        for a, b in zip(special, special[::-1]):
            assert bvn_cdf(a, b, 0.0) == float(np.clip(ndtr(a) * ndtr(b), 0.0, 1.0))

    def test_quadrature_oracle(self):
        frozen = 0.317126928286165  # from bvn_quadrature below
        assert bvn_quadrature(0.5, -0.3, 0.4) == pytest.approx(frozen, abs=1e-10)
        assert bvn_cdf(0.5, -0.3, 0.4) == pytest.approx(frozen, abs=1e-10)

    def test_monotone_in_each_argument(self):
        grid = np.linspace(-3.0, 3.0, 25)
        for rho in (-0.6, 0.2, 0.85):
            along_h = bvn_cdf(grid, -0.4, rho)
            along_k = bvn_cdf(0.7, grid, rho)
            assert np.all(np.diff(along_h) >= -1e-14)
            assert np.all(np.diff(along_k) >= -1e-14)

    def test_negative_orthant_against_quadrature(self):
        for h, k, rho in [(-0.5, -1.0, 0.3), (-1.5, -0.2, -0.45), (-1.0, -1.0, 0.8)]:
            assert bvn_cdf(h, k, rho) == pytest.approx(
                bvn_quadrature(h, k, rho), abs=1e-8)

    def test_infinite_arguments(self):
        assert bvn_cdf(np.inf, 0.3, 0.5) == pytest.approx(norm_cdf(0.3), abs=1e-13)
        assert bvn_cdf(0.3, np.inf, 0.5) == pytest.approx(norm_cdf(0.3), abs=1e-13)
        assert bvn_cdf(-np.inf, 0.3, 0.5) == 0.0

    def test_frechet_limits_high_correlation(self):
        # r -> 1 approaches Phi(min); r -> -1 approaches max(0, Phi(h)+Phi(k)-1)
        assert bvn_cdf(0.4, -0.2, 0.9999) == pytest.approx(
            norm_cdf(-0.2), abs=1e-3)
        assert bvn_cdf(0.4, -0.2, -0.9999) == pytest.approx(
            max(0.0, norm_cdf(0.4) + norm_cdf(-0.2) - 1.0), abs=1e-3)

    @pytest.mark.parametrize("rho", [0.3, -0.95])
    def test_broadcast_shapes(self, rho):
        """Arguments broadcast as numpy does, in any number of dimensions,
        and each entry equals the scalar call."""
        h = np.array([[0.1, -0.5, 1.0], [0.3, 0.2, -1.0]])
        k = np.array([0.2, np.inf, -0.3])
        out = bvn_cdf(h, k, rho)
        assert out.shape == (2, 3)
        for idx in np.ndindex(out.shape):
            assert out[idx] == bvn_cdf(h[idx], k[idx[1]], rho)
        assert bvn_cdf(np.array([0.5]), 0.1, rho).shape == (1,)
        assert isinstance(bvn_cdf(np.float64(0.5), np.array(0.1), rho), float)

    def test_domain(self):
        for rho in (1.0, -1.0, 1.2):
            with pytest.raises(ValueError):
                bvn_cdf(0.0, 0.0, rho)


class TestBvnRect:
    def _params(self, mean=(0.5, -1.0), cov=((2.0, 0.6), (0.6, 1.5))):
        return BivariateNormalParams(mean=np.array(mean), cov=np.array(cov))

    def test_full_plane(self):
        p = bvn_rect(self._params(), (-np.inf, -np.inf), (np.inf, np.inf))
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_partition_sums_to_box(self):
        params = self._params()
        lo, hi = (-8.0, -8.0), (8.0, 8.0)
        cut0, cut1 = 0.3, -0.5
        pieces = (
            bvn_rect(params, lo, (cut0, cut1))
            + bvn_rect(params, (cut0, lo[1]), (hi[0], cut1))
            + bvn_rect(params, (lo[0], cut1), (cut0, hi[1]))
            + bvn_rect(params, (cut0, cut1), hi)
        )
        assert pieces == pytest.approx(bvn_rect(params, lo, hi), abs=1e-9)

    def test_reduces_to_standard_cdf(self):
        params = BivariateNormalParams(
            mean=np.zeros(2), cov=np.array([[1.0, 0.1], [0.1, 1.0]]))
        assert bvn_rect(params, (-np.inf, -np.inf), (0.0, 0.0)) == \
            pytest.approx(bvn_cdf(0.0, 0.0, 0.1), abs=1e-14)

    def test_rejects_degenerate_covariance(self):
        params = BivariateNormalParams(
            mean=np.zeros(2), cov=np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(DegenerateCovarianceError):
            bvn_rect(params, (0.0, 0.0), (1.0, 1.0))

    def test_rejects_bad_matrices(self):
        with pytest.raises(DegenerateCovarianceError):
            BivariateNormalParams(mean=np.zeros(2),
                                  cov=np.array([[1.0, 0.5], [0.2, 1.0]]))
        with pytest.raises(DegenerateCovarianceError):
            BivariateNormalParams(mean=np.zeros(2),
                                  cov=np.array([[-1.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("cov", [
        ((1.0, 1.0 + 1e-13), (1.0 + 1e-13, 1.0)),
        # exactly singular, but the correlation rounds to 1 + 2.2e-16
        ((3e8, np.sqrt(2.1e17)), (np.sqrt(2.1e17), 7e8)),
    ])
    def test_rejects_correlation_beyond_one(self, cov):
        """The determinant check is absolute, so it lets these through; the
        correlation check does not."""
        cov = np.array(cov)
        assert cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2 >= -1e-12
        with pytest.raises(DegenerateCovarianceError, match="outside"):
            BivariateNormalParams(mean=np.zeros(2), cov=cov)
        with pytest.raises(DegenerateCovarianceError, match="outside"):
            BivariateNormalParams(mean=np.zeros(2), cov=cov * [[1, -1], [-1, 1]])

    def test_correlation_of_one_is_kept(self):
        """A correlation of exactly +-1 constructs; the callers refuse it."""
        for sign in (1.0, -1.0):
            params = BivariateNormalParams(mean=np.zeros(2),
                                           cov=np.array([[1.0, sign], [sign, 1.0]]))
            assert params.corr == sign

    @pytest.mark.parametrize("mean, cov", [
        ((0.0, 0.0), ((np.inf, 0.0), (0.0, 1.0))),
        ((0.0, 0.0), ((1.0, np.inf), (np.inf, 1.0))),
        ((0.0, 0.0), ((1.0, np.nan), (np.nan, 1.0))),
        ((0.0, 0.0), ((1.0, 0.0), (0.0, -np.inf))),
        ((np.nan, 0.0), ((1.0, 0.0), (0.0, 1.0))),
        ((0.0, -np.inf), ((1.0, 0.0), (0.0, 1.0))),
    ])
    def test_rejects_non_finite_entries(self, mean, cov):
        with pytest.raises(DegenerateCovarianceError, match="must be finite"):
            BivariateNormalParams(mean=np.array(mean), cov=np.array(cov))

    def test_arrays_read_only(self):
        """The cached sigmas and corr cannot go stale: the law holds
        read-only copies, and writing the caller's arrays leaves it as it was."""
        mean, cov = np.array([0.5, -1.0]), np.array([[2.0, 0.6], [0.6, 1.5]])
        params = BivariateNormalParams(mean=mean, cov=cov)
        for arr in (params.mean, params.cov, params.sigmas):
            with pytest.raises(ValueError):
                arr[0] = 9.0
        mean[0], cov[0, 1] = 9.0, 0.0
        np.testing.assert_array_equal(params.mean, [0.5, -1.0])
        np.testing.assert_array_equal(params.sigmas, np.sqrt([2.0, 1.5]))
        assert params.corr == 0.6 / (np.sqrt(2.0) * np.sqrt(1.5))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            bvn_rect(self._params(), (1.0, 0.0), (0.0, 1.0))
