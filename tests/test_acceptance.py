"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Every tolerance is fixed here, not calibrated elsewhere.  The
reference numbers are the published values these routines are expected to
reproduce; tolerances are as agreed per criterion.  Criterion 10b is the
exception: its published peak biases are not reproducible for the designs it
builds, so its reference is the exact bias of those same designs.
"""

import math
import time

import numpy as np
import pytest

import bivarseq as bq
from bivarseq import cli_monitor
from conftest import TINY_DESIGNS, make_design
from oracles import enumerate_paths
from test_asymptotic_engine import delta_design

pytestmark = pytest.mark.acceptance


def _report(name, detail):
    print(f"{name}: PASS  ({detail})")


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_design_reproduction():
    """(alpha_tilde, beta, theta0, theta1) -> (N*, k*) reference designs,
    +-1 under either rounding convention."""
    cases = [
        ((0.025, 0.10, 0.1, 0.20), (121, 18)),
        ((0.025, 0.09, 0.1, 0.16), (324, 42)),
        ((0.025, 0.09, 0.1, 0.17), (243, 33)),
    ]
    for args, (n_ref, k_ref) in cases:
        for rounding in ("nearest", "floor"):
            d = bq.design_marginal(*args, rounding=rounding)
            assert abs(d.n_star - n_ref) <= 1, (args, rounding, d)
            assert abs(d.k_star - k_ref) <= 1, (args, rounding, d)
    assert bq.critical_value_for_n(0.025, 0.40, 117) == 57
    assert bq.critical_value_for_n(0.025, 0.31, 117) == 46
    nearest = [bq.design_marginal(*args) for args, _ in cases]
    assert [(d.n_star, d.k_star) for d in nearest] == [e for _, e in cases]
    _report("criterion 1", "three designs, two critical values")


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_power_reproduction(fig_design):
    start = time.perf_counter()
    p0 = bq.power_exact(fig_design, bq.make_params(0.05, 0.1, 0.1))
    p1 = bq.power_exact(fig_design, bq.make_params(0.10, 0.2, 0.1))
    elapsed = time.perf_counter() - start
    assert p0 == pytest.approx(0.0321, abs=5e-4)
    assert p1 == pytest.approx(0.9065, abs=5e-4)
    assert elapsed < 1.0
    _report("criterion 2", f"0.0321/0.9065 in {elapsed * 1e3:.0f} ms")


# ---------------------------------------------------------------- criterion 3

# columns of the reference ASN table: (theta_x, theta_y)
_ASN_POINTS = [(0.05, 0.10), (0.10, 0.10), (0.05, 0.20), (0.10, 0.20),
               (0.05, 0.25), (0.25, 0.10), (0.25, 0.25)]
_ASN_TABLE = {
    0.1: {
        "upper": [120.6654, 120.6654, 93.8602, 93.8602, 75.9630, 79.9251, 75.9630],
        "exact": [120.6653, 120.5080, 93.8602, 93.8397, 75.9630, 79.9165, 69.7126],
        "lower": [120.6653, 120.5052, 93.8602, 93.8282, 75.9630, 79.9095, 69.2791],
    },
    -0.1: {
        "upper": [None, 120.5052, 93.8602, 93.8282, 75.9630, 79.9095, 69.2791],
        "exact": [None, 120.5035, 93.8602, 93.8140, 75.9630, 79.8995, 68.8663],
    },
}


def test_criterion_03_asn_table(fig_design):
    checked = 0
    for rho, rows in _ASN_TABLE.items():
        for (tx, ty), *refs in zip(_ASN_POINTS, *rows.values()):
            by_row = dict(zip(rows.keys(), refs))
            if by_row["exact"] is None:
                with pytest.raises(bq.InfeasibleCorrelationError):
                    bq.make_params(tx, ty, rho)
                continue
            params = bq.make_params(tx, ty, rho)
            lower, upper = bq.asn_bounds(fig_design, params)
            assert bq.asn_exact(fig_design, params) == \
                pytest.approx(by_row["exact"], abs=5e-4), (tx, ty, rho)
            assert upper == pytest.approx(by_row["upper"], abs=5e-4), (tx, ty, rho)
            if "lower" in by_row:
                assert lower == pytest.approx(by_row["lower"], abs=5e-4), (tx, ty, rho)
            checked += 1
    _report("criterion 3", f"{checked} table cells + infeasible cell")


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_variance_cv(fig_design):
    table = {
        (0.05, 0.10): (6.1438, 0.0205),
        (0.10, 0.10): (8.7733, 0.0246),
        (0.10, 0.20): (294.6476, 0.1829),
        (0.25, 0.25): (139.2098, 0.1692),
        (0.40, 0.40): (43.5088, 0.1496),
    }
    for (tx, ty), (var_ref, cv_ref) in table.items():
        var, cv = bq.variance_cv(fig_design, bq.make_params(tx, ty, 0.1))
        assert var == pytest.approx(var_ref, abs=5e-3), (tx, ty)
        assert cv == pytest.approx(cv_ref, abs=5e-4), (tx, ty)
    _report("criterion 4", "five variance/CV cells")


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_oracle_equivalence():
    grid = [(tx, ty, rho)
            for tx in (0.2, 0.3, 0.5)
            for ty in (0.2, 0.3, 0.4)
            for rho in (-0.1, 0.0, 0.3)]
    small_checked = 0
    for geom in TINY_DESIGNS:
        design = make_design(*geom)
        for point in grid:
            try:
                params = bq.make_params(*point)
            except bq.InfeasibleCorrelationError:
                continue
            law = enumerate_paths(design, params.cell_probs)
            pmf = bq.stopping_pmf_exact(design, params)
            np.testing.assert_allclose(pmf.pmf, law.mass_x + law.mass_y
                                       + law.mass_corner, atol=1e-12)
            assert bq.power_exact(design, params) == \
                pytest.approx(law.power, abs=1e-12)
            assert bq.asn_exact(design, params) == pytest.approx(law.asn, abs=1e-12)
            var, _ = bq.variance_cv(design, params)
            assert var == pytest.approx(law.variance, abs=1e-10)
            assert bq.estimator_expectation_exact(design, params, "x") == \
                pytest.approx(law.est_x, abs=1e-12)
            assert bq.estimator_expectation_exact(design, params, "y") == \
                pytest.approx(law.est_y, abs=1e-12)
            small_checked += 1

    medium_checked = 0
    for geom, point in [((121, 19, 18), (0.10, 0.20, 0.10)),
                        ((160, 25, 20), (0.14, 0.12, -0.08)),
                        ((200, 30, 25), (0.12, 0.11, 0.25))]:
        design = make_design(*geom)
        params = bq.make_params(*point)
        closed = bq.stopping_pmf_exact(design, params)
        dp = bq.lattice_forward_dp(design, params)
        np.testing.assert_allclose(dp.mass_x, closed.mass_x, atol=1e-10)
        np.testing.assert_allclose(dp.mass_y, closed.mass_y, atol=1e-10)
        np.testing.assert_allclose(dp.mass_corner, closed.mass_corner, atol=1e-10)
        assert dp.continue_mass == pytest.approx(closed.continue_mass, abs=1e-10)
        medium_checked += 1
    _report("criterion 5",
            f"{small_checked} enumerated points, {medium_checked} DP designs")


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_inference_reproduction():
    est_a = bq.post_test_estimate(bq.LatticeCounts(63, 18, 11, 25))
    est_b = bq.post_test_estimate(bq.LatticeCounts(78, 26, 5, 8))
    for est, refs in ((est_a, (0.3675, 0.3077, 0.2137, 0.4521)),
                      (est_b, (0.2906, 0.1111, 0.0684, 0.2529))):
        assert est.theta_hat_x == pytest.approx(refs[0], abs=5e-5)
        assert est.theta_hat_y == pytest.approx(refs[1], abs=5e-5)
        assert est.p11_hat == pytest.approx(refs[2], abs=5e-5)
        assert est.rho_hat == pytest.approx(refs[3], abs=5e-5)
    reg_a = bq.confidence_region(est_a, 0.95)
    reg_b = bq.confidence_region(est_b, 0.95)
    assert reg_a.half_lengths == pytest.approx((0.1288, 0.0790), abs=5e-4)
    assert reg_b.half_lengths == pytest.approx((0.1055, 0.0670), abs=5e-4)
    assert reg_a.simultaneous[0] == pytest.approx((0.2584, 0.4766), abs=5e-4)
    assert reg_a.simultaneous[1] == pytest.approx((0.2032, 0.4121), abs=5e-4)
    assert reg_b.simultaneous[0] == pytest.approx((0.1879, 0.3933), abs=5e-4)
    assert reg_b.simultaneous[1] == pytest.approx((0.0400, 0.1822), abs=5e-4)
    assert bq.relative_risk(est_a, 0.95).ci == pytest.approx((0.8740, 1.5149),
                                                             abs=5e-4)
    assert bq.relative_risk(est_b, 0.95).ci == pytest.approx((1.2578, 3.9730),
                                                             abs=5e-4)
    # regression locks for the z_{1-(1-level)/4} interval construction
    assert reg_a.bonferroni[0] == pytest.approx((0.267615, 0.467427), abs=1e-6)
    assert reg_b.bonferroni[1] == pytest.approx((0.045989, 0.176233), abs=1e-6)
    _report("criterion 6", "estimates, ellipses, intervals, relative risks")


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_retrospective_error_rates():
    scenarios = [
        (324, 42, 0.10, 0.16, 0.4521, (0.0561, 0.0208)),
        (117, 57, 0.40, 0.55, 0.4521, (0.0402, 0.0302)),
        (243, 33, 0.10, 0.17, 0.2529, (0.0472, 0.0167)),
        (117, 46, 0.31, 0.45, 0.2529, (0.0394, 0.0288)),
    ]
    for n, k, t0, t1, rho, (e1, e2) in scenarios:
        m = bq.MarginalDesign(0.025, 0.1, t0, t1, n, k)
        design = bq.combine(m, m)
        type1 = bq.power_asymptotic(design, bq.make_params(t0, t0, rho),
                                    form="curtailed-normal")
        type2 = 1.0 - bq.power_asymptotic(design, bq.make_params(t1, t1, rho),
                                          form="curtailed-normal")
        assert type1 == pytest.approx(e1, abs=5e-4), (n, k)
        assert type2 == pytest.approx(e2, abs=5e-4), (n, k)
    _report("criterion 7", "four (type I, type II) pairs")


# ---------------------------------------------------------------- criterion 8

def _tv(approx_pmf, exact_pmf):
    return 0.5 * (np.abs(approx_pmf.pmf - exact_pmf.pmf).sum()
                  + abs(approx_pmf.continue_mass - exact_pmf.continue_mass))


@pytest.mark.slow
def test_criterion_08_asymptotics():
    # (a) pmf approximation error falls as the alternatives tighten
    tvs = {}
    for delta in (0.5, 0.3, 0.2):
        design = delta_design(delta)
        params = bq.make_params(0.05 * (1 + delta), 0.1 * (1 + delta), 0.1)
        exact = bq.lattice_forward_dp(design, params)
        approx = bq.stopping_pmf_asymptotic(design, params)
        tvs[delta] = _tv(approx, exact)
    assert tvs[0.2] <= 0.05
    assert tvs[0.5] > tvs[0.3] > tvs[0.2]

    # corner mass: cross-check the closed form against the DP at delta=0.2,
    # then bound it at delta=0.1 where only the closed form is tractable
    design_02 = delta_design(0.2)
    params_02 = bq.make_params(0.06, 0.12, 0.1)
    dp_corner = bq.lattice_forward_dp(design_02, params_02).mass_corner.sum()
    assert bq.stopping_pmf_exact(design_02, params_02).mass_corner.sum() == \
        pytest.approx(dp_corner, abs=1e-10)
    design_01 = delta_design(0.1)
    params_01 = bq.make_params(0.055, 0.11, 0.1)
    corner_01 = bq.stopping_pmf_exact(design_01, params_01).mass_corner.sum()
    assert corner_01 <= 1e-3

    # (b) standardized post-test estimates: covariance within 3% of the
    # limit matrix, margins normal within KS distance 0.02, 1e5 replicates
    reps = 100_000
    tx, ty = params_01.theta_x, params_01.theta_y
    m, _, table = bq.replicate_outcomes(design_01, params_01, reps, 424242)
    root = np.sqrt(m)
    u_stats = np.column_stack((root * ((table[:, 1] + table[:, 3]) / m - tx),
                               root * ((table[:, 2] + table[:, 3]) / m - ty)))
    sigma = np.array([
        [tx * (1 - tx), params_01.p11 - tx * ty],
        [params_01.p11 - tx * ty, ty * (1 - ty)],
    ])
    scale = np.sqrt(np.outer(np.diag(sigma), np.diag(sigma)))
    emp_cov = np.cov(u_stats.T)
    assert np.all(np.abs(emp_cov - sigma) <= 0.03 * scale)
    assert np.all(np.abs(u_stats.mean(axis=0)) <= 0.03 * np.sqrt(np.diag(sigma)))
    from bivarseq import norm_cdf

    for col in (0, 1):
        z = np.sort(u_stats[:, col] / math.sqrt(sigma[col, col]))
        ecdf_hi = np.arange(1, reps + 1) / reps
        ecdf_lo = np.arange(0, reps) / reps
        cdf = norm_cdf(z)
        ks = max(np.abs(ecdf_hi - cdf).max(), np.abs(ecdf_lo - cdf).max())
        assert ks <= 0.02, f"margin {col}: KS={ks:.4f}"
    _report("criterion 8",
            f"TV {tvs[0.5]:.4f}>{tvs[0.3]:.4f}>{tvs[0.2]:.4f}, "
            f"corner {corner_01:.1e}, cov/KS at 1e5 reps")


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_property_suites(fig_design):
    # feasibility round-trip
    for tx in (0.05, 0.2, 0.45):
        for ty in (0.1, 0.3):
            lo, hi = bq.condition_a_bounds(tx, ty)
            for frac in (0.1, 0.5, 0.9):
                rho = max(min(lo + frac * (hi - lo), 0.99), -0.99)
                p = bq.make_params(tx, ty, rho)
                assert bq.rho_from_p11(tx, ty, p.p11) == pytest.approx(rho,
                                                                       abs=1e-12)
    # stopping-law normalization
    design = make_design(60, 12, 10)
    for point in [(0.1, 0.2, 0.1), (0.3, 0.25, -0.15), (0.2, 0.2, 0.45)]:
        pmf = bq.stopping_pmf_exact(design, bq.make_params(*point))
        assert pmf.total_mass() == pytest.approx(1.0, abs=1e-10)
    # rejection probability monotone in each margin
    values = [bq.power_exact(design, bq.make_params(tx, 0.15, 0.1))
              for tx in np.linspace(0.05, 0.4, 8)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    # truncated-moment identities on a DP law
    dp = bq.lattice_forward_dp(design, bq.make_params(0.18, 0.22, 0.25))
    surv = dp.continue_mass + dp.pmf[::-1].cumsum()[::-1]
    full_surv = np.concatenate([np.ones(dp.support[0] - 1), surv])
    n = design.n_star
    assert float((dp.support * dp.pmf).sum()) == pytest.approx(
        full_surv.sum() - n * dp.continue_mass, abs=1e-10)
    assert float((dp.support.astype(float) ** 2 * dp.pmf).sum()) == pytest.approx(
        (2 * (np.arange(1, n + 1) - 0.5) * full_surv).sum()
        - n * n * dp.continue_mass, abs=1e-10)
    # bound ordering by correlation sign
    for rho in (-0.15, 0.0, 0.3):
        params = bq.make_params(0.2, 0.25, rho)
        lower, upper = bq.asn_bounds(design, params)
        asn = bq.asn_exact(design, params)
        assert lower - 1e-6 <= asn <= upper + 1e-6
    # monitor replay equals one-shot execution
    params = bq.make_params(0.1, 0.2, 0.1)
    events = list(bq.sample_stream(params, 3, fig_design.n_star, stream=2))
    outcome = bq.run_test(fig_design, iter(events))
    state = cli_monitor.MonitorState.fresh(fig_design)
    for ev in events:
        if ev.seq % 13 == 0:
            state = cli_monitor.state_load(cli_monitor.state_save(state))
        state, _ = cli_monitor.monitor_step(state, ev)
        if state.status != "open":
            break
    assert state.last_seq == outcome.m_star
    assert state.counts == outcome.counts
    # Monte Carlo summaries independent of chunking
    base = bq.monte_carlo(fig_design, params, reps=1500, seed=6)
    par = bq.monte_carlo(fig_design, params, reps=1500, seed=6, chunk_size=97)
    assert base.to_dict() == par.to_dict()
    _report("criterion 9", "round-trip, normalization, monotonicity, "
                           "identities, ordering, replay, determinism")


# --------------------------------------------------------------- criterion 10

def test_criterion_10a_exact_bias_scan():
    """Peak relative bias of the X-margin estimate on the documented scan:
    design margins (0.05 -> 0.08) x (0.1 -> 0.16) under floor rounding,
    theta_x in 0.16..0.26 step 0.01 with theta_y held at 0.1, rho = 0.1."""
    x = bq.design_marginal(0.025, 0.1, 0.05, 0.08, rounding="floor")
    y = bq.design_marginal(0.025, 0.1, 0.10, 0.16, rounding="floor")
    design = bq.combine(x, y)
    peak = 0.0
    for tx in np.arange(0.16, 0.2601, 0.01):
        e = bq.estimator_expectation_exact(design, bq.make_params(tx, 0.1, 0.1), "x")
        peak = max(peak, abs(e - tx) / tx * 100.0)
    assert peak == pytest.approx(1.8528, abs=0.5)
    _report("criterion 10a", f"peak exact relative bias {peak:.4f}%")


# Signed exact relative bias of the X estimate, 100 (E[theta_hat_x] / theta_x - 1) %,
# for each criterion 10b row at the theta_x values of _BIAS_GRID_10B; from
# _exact_bias_rows_10b(), which takes about 1.5 s on a 2-vCPU machine:
#   PYTHONPATH=src:tests python -c "import test_acceptance as t; print(t._exact_bias_rows_10b())"
_BIAS_GRID_10B = np.arange(0.10, 0.2601, 0.04)
_EXACT_BIAS_10B = {
    (0.05, 0.10): (0.0014371819101882677, 0.2881312106075324, 0.27483485551129605,
                   0.2613580581945193, 0.2478885165277816),
    (0.05, 0.05): (0.30181025259007344, 0.288318917386819, 0.27483485550725606,
                   0.26135805817512825, 0.2478885165167648),
    (0.10, 0.05): (0.00981918833807549, 0.3057413019272116, 0.2914404802731153,
                   0.27714490253189705, 0.26285748827476346),
}
# Published peak |bias_x| / theta_x (%) per row; not reproducible for these designs.
_PUBLISHED_PEAKS_10B = {(0.05, 0.10): 2.5015, (0.05, 0.05): 2.5868, (0.10, 0.05): 2.4608}


def _exact_relative_bias_10b(design, tx, ty0):
    params = bq.make_params(float(tx), ty0, 0.1)
    e = bq.estimator_expectation_exact(design, params, "x")
    return float((e - params.theta_x) / params.theta_x * 100.0)


def _exact_bias_rows_10b():
    return {row: tuple(_exact_relative_bias_10b(delta_design(0.2, *row), tx, row[1])
                       for tx in _BIAS_GRID_10B)
            for row in _EXACT_BIAS_10B}


@pytest.mark.slow
def test_criterion_10b_monte_carlo_bias_rows():
    """Monte Carlo bias of the post-detection X estimate on the three
    tightened designs theta1 = 1.2 theta0 (n* = 2522, 5351, 2522; k_x/k_y =
    298/281, 298/298, 281/298), theta_x in 0.10..0.26 step 0.04 with theta_y
    held at theta_y0, rho = 0.1, 10 000 replicates, seed 1234.

    The reference is the exact bias of the same designs from
    estimator_expectation_exact, which criterion 5 checks against path
    enumeration and the lattice DP.  The 15 values are pinned in
    _EXACT_BIAS_10B (recomputing them takes about 1.5 s); three are
    recomputed here.  Each Monte Carlo bias must lie within 4 of its
    standard errors of the exact bias, a family-wise bound over 15
    correlated points (the largest |z| with this seed is 2.49), and so must
    each row's peak |bias_x| / theta_x.  An estimator without curtailment
    bias sits 5-6 standard errors off at the peaks.

    Exact peaks: 0.288%, 0.302%, 0.306%; Monte Carlo peaks with this seed:
    0.207%, 0.265%, 0.235%.  The published peaks (2.5015%, 2.5868%, 2.4608%)
    are not reproducible for these designs.  The exact peak falls roughly as
    1/k: the criterion 10a scan with margins 0.05 -> 0.05 (1 + delta) and
    0.1 -> 0.1 (1 + delta) peaks at 3.857%, 2.829%, 1.850% for delta = 1.0,
    0.8, 0.6 (k_x = 19, 27, 43), so 2.5% would need k of about 30, not 300.
    The published values are printed beside the computed peaks.
    """
    for row, i in (((0.05, 0.10), 0), ((0.05, 0.10), 1), ((0.10, 0.05), 0)):
        live = _exact_relative_bias_10b(delta_design(0.2, *row), _BIAS_GRID_10B[i], row[1])
        assert abs(live - _EXACT_BIAS_10B[row][i]) <= 1e-10, (row, i, live)
    peaks = []
    for (tx0, ty0), exact_row in _EXACT_BIAS_10B.items():
        design = delta_design(0.2, tx0, ty0)
        mc_peak = mc_peak_se = 0.0
        for tx, exact_rel in zip(_BIAS_GRID_10B, exact_row):
            params = bq.make_params(float(tx), ty0, 0.1)
            summary = bq.monte_carlo(design, params, reps=10_000, seed=1234)
            exact_bias = exact_rel / 100.0 * params.theta_x
            assert abs(summary.bias_x - exact_bias) <= 4.0 * summary.bias_x_se, \
                f"row {(tx0, ty0)}, theta_x {tx:.2f}: MC bias {summary.bias_x:.3e} " \
                f"+- {summary.bias_x_se:.1e} vs exact {exact_bias:.3e}"
            rel = abs(summary.bias_x) / params.theta_x * 100.0
            if rel > mc_peak:
                mc_peak, mc_peak_se = rel, summary.bias_x_se / params.theta_x * 100.0
        exact_peak = max(abs(b) for b in exact_row)
        assert abs(mc_peak - exact_peak) <= 4.0 * mc_peak_se, \
            f"row {(tx0, ty0)}: MC peak {mc_peak:.3f}% vs exact {exact_peak:.3f}%"
        peaks.append(f"{(tx0, ty0)} exact {exact_peak:.3f}% MC {mc_peak:.3f}% "
                     f"(published {_PUBLISHED_PEAKS_10B[tx0, ty0]}%)")
    _report("criterion 10b", "; ".join(peaks))
