import hashlib

import numpy as np
import pytest

from bivarseq import (
    BivariateNormalParams,
    DegenerateCovarianceError,
    boundary_hit_probs,
    condition_a_bounds,
    design_marginal,
    combine,
    estimator_expectation_asymptotic,
    estimator_expectation_exact,
    gut_params,
    lattice_forward_dp,
    make_params,
    norm_cdf,
    power_asymptotic,
    power_exact,
    replicate_outcomes,
    stopping_pmf_asymptotic,
    stopping_pmf_exact,
    terminal_count_law,
)
from bivarseq import asymptotic_engine
from conftest import make_design


def delta_design(delta, theta_x0=0.05, theta_y0=0.1, alpha_tilde=0.025, beta=0.1):
    """Pooled design for local alternatives theta1 = theta0 (1 + delta)."""
    x = design_marginal(alpha_tilde, beta, theta_x0, theta_x0 * (1 + delta))
    y = design_marginal(alpha_tilde, beta, theta_y0, theta_y0 * (1 + delta))
    return combine(x, y)


class TestGutLaw:
    def test_mean_formula(self):
        params = make_params(0.1, 0.2, 0.0)
        law = gut_params(params, 18, "x")
        assert isinstance(law, BivariateNormalParams)
        np.testing.assert_allclose(law.mean, [38.0, 190.0], atol=1e-12)

    def test_cov_entries(self):
        params = make_params(0.17, 0.23, 0.2)
        k = 25
        law = gut_params(params, k, "x")
        tx, ty, p11 = params.theta_x, params.theta_y, params.p11
        assert law.cov[1, 1] == pytest.approx((1 - tx) * (k + 1) / tx ** 2, rel=1e-12)
        assert law.cov[0, 0] == pytest.approx(
            ty * (tx + ty - 2 * p11) * (k + 1) / tx ** 2, rel=1e-12)
        assert law.cov[0, 1] == pytest.approx((ty - p11) * (k + 1) / tx ** 2, rel=1e-12)
        sym = gut_params(params.swapped(), k, "x")
        other = gut_params(params, k, "y")
        np.testing.assert_allclose(sym.mean, other.mean, atol=1e-12)
        np.testing.assert_allclose(sym.cov, other.cov, atol=1e-12)

    def test_degenerate_overlap_rejected(self):
        # rho at its maximum with equal margins makes p11 = theta
        hi = condition_a_bounds(0.3, 0.3)[1]
        params = make_params(0.3, 0.3, hi - 1e-13)
        with pytest.raises(DegenerateCovarianceError):
            gut_params(params, 10, "x")

    @pytest.mark.slow
    def test_against_simulated_crossings(self):
        """Empirical mean/cov of (other-margin count, crossing time) at the X
        boundary match the law within 2% over 2e5 uncurtailed crossings."""
        params = make_params(0.1, 0.2, 0.1)
        k = 18
        law = gut_params(params, k, "x")
        rng = np.random.default_rng(2024)
        p00, p10, p01, p11 = params.cell_probs
        t0, t1, t2 = p00, p00 + p10, p00 + p10 + p01
        reps = 200_000
        out = np.empty((reps, 2))
        block = 700
        for r in range(reps):
            u = rng.random(block)
            x = ((u >= t0) & (u < t1)) | (u >= t2)
            while x.sum() < k + 1:   # extend the rare short block
                u2 = rng.random(block)
                u = np.concatenate([u, u2])
                x = ((u >= t0) & (u < t1)) | (u >= t2)
            y = u >= t1
            m = int(np.argmax(np.cumsum(x) == k + 1)) + 1
            out[r] = (y[:m].sum(), m)
        emp_mean = out.mean(axis=0)
        emp_cov = np.cov(out.T)
        np.testing.assert_allclose(emp_mean, law.mean, rtol=0.02)
        np.testing.assert_allclose(emp_cov, law.cov, rtol=0.02)


class TestSingularRho:
    """|rho| one ulp below 1 is accepted by make_params, but the normal laws
    there are singular in float64."""

    CALLS = {
        "terminal_count_law": lambda d, p: terminal_count_law(d.n_star, p),
        "gut_params_x": lambda d, p: gut_params(p, d.k_x, "x"),
        "gut_params_y": lambda d, p: gut_params(p, d.k_y, "y"),
        "power_curtailed": lambda d, p: power_asymptotic(d, p),
        "power_gut": lambda d, p: power_asymptotic(d, p, form="gut"),
        "pmf": stopping_pmf_asymptotic,
        "hits": boundary_hit_probs,
        "estimator_x": lambda d, p: estimator_expectation_asymptotic(d, p, "x"),
        "estimator_y": lambda d, p: estimator_expectation_asymptotic(d, p, "y"),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("point", [(0.5, 0.5, 1 - 1.1e-16), (0.5, 0.5, -(1 - 1.1e-16)),
                                       (0.3, 0.7, -(1 - 1.1e-16))])
    def test_raises_naming_the_point(self, fig_design, call, point):
        params = make_params(*point)
        asymptotic_engine._law.cache_clear()
        named = "at (theta_x, theta_y, rho) = ({:.17g}, {:.17g}, {:.17g})".format(*point)
        with pytest.raises(DegenerateCovarianceError) as err:
            self.CALLS[call](fig_design, params)
        assert named in str(err.value)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_answers_just_off_the_singularity(self, fig_design, call):
        asymptotic_engine._law.cache_clear()
        self.CALLS[call](fig_design, make_params(0.5, 0.5, -(1 - 1e-12)))


class TestOneLaw:
    def test_one_law_per_point(self, monkeypatch):
        """The pmf and both estimators at one point evaluate each boundary's
        stopping-time grid once, and the shared arrays cannot be written."""
        grids = []
        cdf = asymptotic_engine.bvn_cdf

        def counting_cdf(h, k, rho):
            if np.ndim(h) or np.ndim(k):
                grids.append(rho)
            return cdf(h, k, rho)

        monkeypatch.setattr(asymptotic_engine, "bvn_cdf", counting_cdf)
        asymptotic_engine._law.cache_clear()
        design = make_design(121, 19, 18)

        def report(params):
            pmf = stopping_pmf_asymptotic(design, params)
            return ([arr.copy() for arr in (pmf.support, pmf.mass_x, pmf.mass_y,
                                            pmf.mass_corner)],
                    pmf.continue_mass,
                    estimator_expectation_asymptotic(design, params, "x"),
                    estimator_expectation_asymptotic(design, params, "y"))

        first_point, second_point = make_params(0.1, 0.2, 0.1), make_params(0.12, 0.11, -0.05)
        before = report(first_point)
        assert len(grids) == 2
        report(second_point)
        assert len(grids) == 4
        pmf = stopping_pmf_asymptotic(design, first_point)
        for arr in (pmf.support, pmf.mass_x, pmf.mass_y, pmf.mass_corner):
            with pytest.raises(ValueError):
                arr[0] = 1
        after = report(first_point)
        for old, new in zip(before[0], after[0]):
            np.testing.assert_array_equal(old, new)
        assert before[1:] == after[1:]

    def test_power_and_hits_build_no_law(self, fig_design):
        asymptotic_engine._law.cache_clear()
        params = make_params(0.1, 0.2, 0.1)
        power_asymptotic(fig_design, params)
        power_asymptotic(fig_design, params, form="gut")
        boundary_hit_probs(fig_design, params)
        assert asymptotic_engine._law.cache_info().misses == 0

    def test_surface_point_evaluates_each_law_once(self, monkeypatch):
        """The asymptotic calls of one surface-scan point build each
        first-passage law once and the terminal-count law once, and
        integrate each normal law once: 2 gut_params, 1 terminal_count_law
        and 5 bvn_cdf calls."""
        calls = {"gut_params": 0, "terminal_count_law": 0, "bvn_cdf": 0}
        for name in calls:
            def counting(*args, _f=getattr(asymptotic_engine, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(asymptotic_engine, name, counting)
        _clear_memos()
        design, params = make_design(310, 43, 40), make_params(0.08, 0.15, 0.2)
        stopping_pmf_asymptotic(design, params)
        power_asymptotic(design, params)
        power_asymptotic(design, params, form="gut")
        estimator_expectation_asymptotic(design, params, "x")
        estimator_expectation_asymptotic(design, params, "y")
        assert calls == {"gut_params": 2, "terminal_count_law": 1, "bvn_cdf": 5}


def _clear_memos():
    for value in vars(asymptotic_engine).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def _asymptotic_outputs(design, params):
    """Every asymptotic output at one point, in the order a surface-scan
    point asks for them: the pmf arrays as one SHA-256 of their bytes, then
    continue_mass, both power forms, both hit probabilities and both
    estimators as float.hex."""
    pmf = stopping_pmf_asymptotic(design, params)
    digest = hashlib.sha256(b"".join(arr.tobytes() for arr in (
        pmf.support, pmf.mass_x, pmf.mass_y, pmf.mass_corner))).hexdigest()
    return (digest, pmf.continue_mass.hex(),
            power_asymptotic(design, params).hex(),
            power_asymptotic(design, params, form="gut").hex(),
            *(v.hex() for v in boundary_hit_probs(design, params)),
            estimator_expectation_asymptotic(design, params, "x").hex(),
            estimator_expectation_asymptotic(design, params, "y").hex())


# Outputs of the asymptotic engine before its memos were shared (eb3e1e0);
# the two estimators since they take the curtailed term from Wald's identity.
# The points cover rho = 0, rho < 0, an X law of correlation 0.94 and a Y law
# of 0.95 (the large-rho branch of bvn_cdf), and a terminal law at rho 0.95.
_PINNED = {
    ("fig121", (0.05, 0.1, 0.0)): (
        "e33ca1d9ca641f254519a2cf08df0fc049b4f20511560da8cb970f714bae2893",
        "0x1.f29269d9b9479p-1",
        "0x1.adb2c4c8d70e0p-6", "0x1.95192059810f1p-5",
        "0x1.4fe24bbbd4795p-11", "0x1.8fd9972a91bd3p-5",
        "0x1.99d5df66a19eap-5", "0x1.9cfcfd1ce4575p-4",
    ),
    ("fig121", (0.1, 0.2, 0.1)): (
        "b828c2f1641f602110f4efe520c643047bc3c5a8a0fefba92f7ee6e04946ac1b",
        "0x1.8cabdefe3dc1fp-4",
        "0x1.ce6a84203847cp-1", "0x1.d79975ad118bfp-1",
        "0x1.1b266e6d9bae2p-7", "0x1.d32cdbf35b1d3p-1",
        "0x1.9da6c432099f9p-4", "0x1.acadd566fd4bcp-3",
    ),
    ("fig121", (0.08, 0.15, -0.05)): (
        "4e4688275f3e4fa7539edfe7e73f870a674d22822a3236c84dbe97bfd3ecb739",
        "0x1.1205b2398db7bp-1",
        "0x1.dbf49b8ce490ap-2", "0x1.b7c207eacc019p-2",
        "0x1.8896d91feeef1p-8", "0x1.b19fac864c45dp-2",
        "0x1.479ee4ce9afffp-4", "0x1.3cec87e6c4939p-3",
    ),
    ("fig121", (0.05, 0.3, 0.1)): (
        "3df80907962937782e5589bf3fb9d06b04b6e5601e11bdb42cb4c07bc28e01e5",
        "0x1.b1d5ed0a23d0ep-13",
        "0x1.ffe4e2a12f5dcp-1", "0x1.0000000000000p+0",
        "0x1.309ffca182205p-14", "0x1.ffffe34b2e454p-1",
        "0x1.9e8ef3ae92a20p-5", "0x1.400059d1cb2f6p-2",
    ),
    ("fig121", (0.3, 0.05, -0.1)): (
        "27fedfcfd409d7acdc7113b28ed23b2caf81f32fe25f8c9cff6dc004709aad2f",
        "0x1.c2cb4424dd8a3p-12",
        "0x1.ffc7a6977b645p-1", "0x1.0000000000000p+0",
        "0x1.ffff476378641p-1", "0x1.376a5f5799fa4p-12",
        "0x1.3f4b7a6645f25p-2", "0x1.953a9e1fde81ep-5",
    ),
    ("fig121", (0.2, 0.2, 0.95)): (
        "edabe8b9294bab571cec7f7e3586851faa5249f33d1c4b88a289e3fd59eb6226",
        "0x1.6c3955122f9d7p-4",
        "0x1.d278d55dba0c5p-1", "0x1.6f44f047b23ddp-1",
        "0x1.b8433209b40bap-4", "0x1.383c8a067bbc6p-1",
        "0x1.a80bd929c675cp-3", "0x1.a9ad3125d014cp-3",
    ),
    ("criterion10a", (0.05, 0.1, 0.0)): (
        "c3e3eeb54dfcd44b0891c84edd26a1fbeaf821667e1db2a07243f19472e9cbba",
        "0x1.ed8b792aa3b5ap-1",
        "0x1.27486d55c4a60p-5", "0x1.9f79bc2ae407cp-5",
        "0x1.42996a50565b5p-18", "0x1.9f6fa75f91851p-5",
        "0x1.9999b79e35355p-5", "0x1.9a8d56c2d3b49p-4",
    ),
    ("criterion10a", (0.1, 0.2, 0.1)): (
        "d240c05c4222564b2b356f4f8ded85ee3b500ceb3b27c824e455eec6cbf95093",
        "0x1.282cd4ca4338ap-10",
        "0x1.ff6be9959ade6p-1", "0x1.0000000000000p+0",
        "0x1.d76445f136ca7p-12", "0x1.fff0c9d1522f1p-1",
        "0x1.9ae91f079fb78p-4", "0x1.a21b390bd5710p-3",
    ),
    ("criterion10a", (0.08, 0.15, -0.05)): (
        "14788a78f4b1e0e51b5b193ee36c5667635558259341db71985249599b34df91",
        "0x1.5c08d6dda9903p-3",
        "0x1.a8fdca48959bfp-1", "0x1.a7f983cc1d2aep-1",
        "0x1.29304c385c209p-11", "0x1.a7af37b90f13dp-1",
        "0x1.473da6583bf1ap-4", "0x1.393e16df5062bp-3",
    ),
    ("criterion10a", (0.05, 0.3, 0.1)): (
        "d6624a2aa23fa718c75e7897cedf5fbeb2d0a49ad2abbb104fc601de2d30d350",
        "0x1.519603e50fd15p-35",
        "0x1.ffffffffab9a8p-1", "0x1.0000000000000p+0",
        "0x1.50345270070f1p-27", "0x1.0000000000000p+0",
        "0x1.9bb5ae3615bcep-5", "0x1.38bdc0b5d99fap-2",
    ),
    ("criterion10a", (0.3, 0.05, -0.1)): (
        "d09243c27965e19bca9428318ad952ba2d0682480739ff43cef98472d2c74b97",
        "0x1.d429720cf83d1p-32",
        "0x1.fffffffc57ad2p-1", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x1.8736b02097826p-22",
        "0x1.3857c2a0282fap-2", "0x1.97a5459be3d1bp-5",
    ),
    ("criterion10a", (0.2, 0.2, 0.95)): (
        "f96443ef9fc37aca115717a72ffff7083f836372324c1e8b551eb2f8b9719a33",
        "0x1.127f7c770f497p-10",
        "0x1.ff76c041c4786p-1", "0x1.e4fa9792d321dp-1",
        "0x1.fcaa02176dc0ep-6", "0x1.d515478217b3dp-1",
        "0x1.a119496b61ad8p-3", "0x1.a1f54e304e754p-3",
    ),
}
_GOLDEN_DESIGNS = {"fig121": (121, 19, 18), "criterion10a": (310, 43, 40)}


@pytest.mark.parametrize("name, point", sorted(_PINNED))
def test_outputs_pinned(name, point):
    """Every asymptotic output is bit-identical to the pinned value, whether
    the memos start empty, hold this point, or hold another point."""
    design, params = make_design(*_GOLDEN_DESIGNS[name]), make_params(*point)
    _clear_memos()
    assert _asymptotic_outputs(design, params) == _PINNED[name, point]
    assert _asymptotic_outputs(design, params) == _PINNED[name, point]
    _asymptotic_outputs(make_design(20, 3, 4), make_params(0.3, 0.2, 0.4))
    assert _asymptotic_outputs(design, params) == _PINNED[name, point]


class TestStoppingPmf:
    def test_masses_are_probabilities(self, fig_design):
        pmf = stopping_pmf_asymptotic(fig_design, make_params(0.1, 0.2, 0.1))
        assert np.all(pmf.pmf >= 0.0)
        assert np.all(pmf.pmf <= 1.0)
        assert np.all(pmf.mass_corner == 0.0)

    def test_total_mass_near_one(self, fig_design):
        pmf = stopping_pmf_asymptotic(fig_design, make_params(0.1, 0.2, 0.1))
        assert pmf.total_mass() == pytest.approx(1.0, abs=0.02)

    def test_tv_against_exact(self, fig_design):
        """At this design the margins sit far from the local-asymptotic
        regime; the distance is locked at its computed level."""
        params = make_params(0.1, 0.2, 0.1)
        approx = stopping_pmf_asymptotic(fig_design, params)
        exact = stopping_pmf_exact(fig_design, params)
        tv = 0.5 * (np.abs(approx.pmf - exact.pmf).sum()
                    + abs(approx.continue_mass - exact.continue_mass))
        assert tv <= 0.055

    def test_tv_shrinks_with_tighter_alternatives(self):
        tvs = []
        for delta in (0.5, 0.3):
            design = delta_design(delta)
            params = make_params(0.05 * (1 + delta), 0.1 * (1 + delta), 0.1)
            approx = stopping_pmf_asymptotic(design, params)
            exact = lattice_forward_dp(design, params)
            tvs.append(0.5 * (np.abs(approx.pmf - exact.pmf).sum()
                              + abs(approx.continue_mass - exact.continue_mass)))
        assert tvs[1] < tvs[0]


class TestPower:
    def test_reference_points(self, fig_design):
        alt = make_params(0.1, 0.2, 0.1)
        null = make_params(0.05, 0.1, 0.1)
        assert power_asymptotic(fig_design, alt) == pytest.approx(0.9065, abs=0.02)
        assert power_asymptotic(fig_design, null) == pytest.approx(0.0321, abs=0.01)
        assert power_asymptotic(fig_design, alt, form="gut") == \
            pytest.approx(power_exact(fig_design, alt), abs=0.02)

    def test_independence_factorizes(self, fig_design):
        params = make_params(0.1, 0.2, 0.0)
        n = fig_design.n_star
        zx = (fig_design.k_x + 0.5 - n * 0.1) / np.sqrt(n * 0.1 * 0.9)
        zy = (fig_design.k_y + 0.5 - n * 0.2) / np.sqrt(n * 0.2 * 0.8)
        assert power_asymptotic(fig_design, params) == pytest.approx(
            1.0 - norm_cdf(zx) * norm_cdf(zy), abs=1e-12)

    def test_unknown_form(self, fig_design):
        with pytest.raises(ValueError):
            power_asymptotic(fig_design, make_params(0.1, 0.2, 0.1), form="other")


class TestBoundaryHits:
    def test_dominant_margin(self, fig_design):
        params = make_params(0.02, 0.3, 0.1)
        _, hit_y = boundary_hit_probs(fig_design, params)
        assert hit_y > 0.99
        dp = lattice_forward_dp(fig_design, params)
        assert dp.mass_y.sum() > 0.99

    def test_symmetric_configuration(self):
        design = make_design(100, 15, 15)
        params = make_params(0.2, 0.2, 0.3)
        hit_x, hit_y = boundary_hit_probs(design, params)
        assert hit_x == pytest.approx(hit_y, abs=1e-9)

    def test_against_dp_split(self, fig_design):
        params = make_params(0.1, 0.2, 0.1)
        hit_x, hit_y = boundary_hit_probs(fig_design, params)
        dp = lattice_forward_dp(fig_design, params)
        assert hit_x == pytest.approx(dp.mass_x.sum(), abs=0.03)
        assert hit_y == pytest.approx(dp.mass_y.sum(), abs=0.03)


class TestEstimator:
    def test_tracks_exact_at_reference_design(self, fig_design):
        params = make_params(0.1, 0.2, 0.1)
        for margin in ("x", "y"):
            approx = estimator_expectation_asymptotic(fig_design, params, margin)
            exact = estimator_expectation_exact(fig_design, params, margin)
            assert approx == pytest.approx(exact, abs=0.01)

    def test_bias_tracks_exact_bias(self):
        """On the delta designs, at theta0, midway and theta1 of both
        margins, E[theta_hat] - theta agrees in sign with the exact bias,
        and their ratio lies within a factor 1.35 of 1 from n* = 2522 and
        within a factor 2 at n* = 437."""
        for delta, n_star, within in ((0.5, 437, 2.0), (0.2, 2522, 1.35), (0.1, 9781, 1.35)):
            design = delta_design(delta)
            assert design.n_star == n_star
            for frac in (0.0, 0.5, 1.0):
                params = make_params(0.05 * (1 + frac * delta), 0.1 * (1 + frac * delta), 0.1)
                for margin, theta in (("x", params.theta_x), ("y", params.theta_y)):
                    ratio = ((estimator_expectation_asymptotic(design, params, margin) - theta)
                             / (estimator_expectation_exact(design, params, margin) - theta))
                    assert 1 / within <= ratio <= within, (n_star, frac, margin, ratio)

    def test_vanishes_with_margin(self, fig_design):
        params = make_params(1e-3, 0.2, 0.0)
        assert estimator_expectation_asymptotic(fig_design, params, "x") < 0.01

    @pytest.mark.slow
    def test_tracks_simulation_in_local_regime(self):
        """Tight alternatives (5% above null): the approximation must track
        the simulated mean within a few parts in 1e4."""
        from bivarseq import monte_carlo

        design = delta_design(0.05)
        params = make_params(0.0525, 0.105, 0.1)
        approx = estimator_expectation_asymptotic(design, params, "x")
        mc = monte_carlo(design, params, reps=3000, seed=11)
        simulated = params.theta_x + mc.bias_x
        assert approx == pytest.approx(simulated, abs=3 * mc.bias_x_se + 3e-4)

    def test_margin_argument_validated(self, fig_design):
        with pytest.raises(ValueError):
            estimator_expectation_asymptotic(
                fig_design, make_params(0.1, 0.2, 0.1), "q")


@pytest.mark.slow
def test_estimates_concentrate_as_alternatives_tighten():
    """P(|theta_hat_x - theta_x| > 0.02) at the alternative falls as the
    design's alternatives tighten toward the null."""
    exceed = []
    for delta in (0.5, 0.3, 0.2, 0.1):
        design = delta_design(delta)
        tx = 0.05 * (1 + delta)
        params = make_params(tx, 0.1 * (1 + delta), 0.1)
        reps = 1500
        m, _, table = replicate_outcomes(design, params, reps, 99)
        count = np.count_nonzero(np.abs((table[:, 1] + table[:, 3]) / m - tx) > 0.02)
        exceed.append(count / reps)
    for a, b in zip(exceed, exceed[1:]):
        assert b <= a + 0.01
    assert exceed[-1] < exceed[0]
