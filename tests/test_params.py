import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from bivarseq import (
    InfeasibleCorrelationError,
    condition_a_bounds,
    make_params,
    rho_from_p11,
)


def test_small_margins_reject_negative_rho():
    # the feasible interval at (0.05, 0.1) stops well short of -0.1
    with pytest.raises(InfeasibleCorrelationError) as err:
        make_params(0.05, 0.1, -0.1)
    assert err.value.restriction == "p11"


def test_independence_p11():
    p = make_params(0.3, 0.4, 0.0)
    assert p.p11 == pytest.approx(0.12, abs=1e-15)
    assert p.p00 == pytest.approx(0.42, abs=1e-15)


def test_example_rho_recovery():
    # proportions from the two 117-subject tables, at full precision
    assert rho_from_p11(43 / 117, 36 / 117, 25 / 117) == \
        pytest.approx(0.4521, abs=5e-5)
    assert rho_from_p11(34 / 117, 13 / 117, 8 / 117) == \
        pytest.approx(0.2529, abs=5e-5)
    assert rho_from_p11(0.3, 0.4, 0.12) == pytest.approx(0.0, abs=1e-15)


def test_each_restriction_identified():
    with pytest.raises(InfeasibleCorrelationError) as err:
        make_params(0.1, 0.4, 0.9)       # X-only cell drained first
    assert err.value.restriction == "p10"
    with pytest.raises(InfeasibleCorrelationError) as err:
        make_params(0.4, 0.1, 0.9)
    assert err.value.restriction == "p01"
    with pytest.raises(InfeasibleCorrelationError) as err:
        make_params(0.9, 0.9, -0.5)      # both margins large: p00 goes negative
    assert err.value.restriction == "p00"


def test_boundary_correlations_accepted():
    lo, hi = condition_a_bounds(0.2, 0.4)
    at_hi = make_params(0.2, 0.4, hi)
    assert min(at_hi.cell_probs) == 0.0
    assert at_hi.p10 == 0.0
    at_lo = make_params(0.2, 0.4, lo)
    assert at_lo.p11 == 0.0


def test_domain_validation():
    with pytest.raises(ValueError):
        make_params(0.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        make_params(0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        make_params(0.5, 0.5, 1.0)
    with pytest.raises(ValueError, match="rho is not a number"):
        make_params(0.1, 0.2, math.nan)
    with pytest.raises(ValueError):
        rho_from_p11(0.3, 0.4, 0.35)     # p11 > min margin


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    theta_x=st.floats(0.02, 0.98),
    theta_y=st.floats(0.02, 0.98),
    frac=st.floats(0.0, 1.0),
)
def test_round_trip_and_cell_identities(theta_x, theta_y, frac):
    lo, hi = condition_a_bounds(theta_x, theta_y)
    lo = max(lo, -0.999)
    hi = min(hi, 0.999)
    rho = lo + frac * (hi - lo)
    p = make_params(theta_x, theta_y, rho)
    assert sum(p.cell_probs) == pytest.approx(1.0, abs=1e-12)
    assert p.p11 + p.p10 == pytest.approx(theta_x, abs=1e-15)
    assert p.p11 + p.p01 == pytest.approx(theta_y, abs=1e-15)
    assert rho_from_p11(theta_x, theta_y, p.p11) == pytest.approx(rho, abs=1e-12)


def test_swapped_exchanges_roles():
    p = make_params(0.2, 0.35, 0.15)
    q = p.swapped()
    assert (q.theta_x, q.theta_y) == (p.theta_y, p.theta_x)
    assert q.p10 == p.p01 and q.p01 == p.p10
    assert q.p11 == p.p11 and q.p00 == p.p00


def test_bounds_are_the_feasible_ends():
    """On a 99 x 99 grid of margins, theta_x + theta_y > 1 included, both
    ends of condition_a_bounds lie in [-1, 1], each end below 1 in size is
    accepted with a cell at 0, and 1e-6 beyond either end is refused."""
    grid = [i / 100 for i in range(1, 100)]
    for theta_x in grid:
        for theta_y in grid:
            lo, hi = condition_a_bounds(theta_x, theta_y)
            assert -1.0 <= lo < 0.0 < hi <= 1.0
            for end, beyond in ((lo, lo - 1e-6), (hi, hi + 1e-6)):
                if abs(end) < 1.0:
                    assert min(make_params(theta_x, theta_y, end).cell_probs) <= 1e-12
                with pytest.raises(ValueError):
                    make_params(theta_x, theta_y, beyond)


def _raw_cells(theta_x, theta_y, rho):
    """The unclamped cells (p00, p10, p01, p11), by make_params' expressions."""
    p11 = rho * math.sqrt(theta_x * (1.0 - theta_x) * theta_y * (1.0 - theta_y)) \
        + theta_x * theta_y
    return 1.0 - theta_x - theta_y + p11, theta_x - p11, theta_y - p11, p11


_UNIT = st.floats(1e-3, 1.0 - 1e-3)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    # any pair (theta_x + theta_y > 1 in half of them), equal margins, and
    # margins summing to 1
    margins=st.one_of(st.tuples(_UNIT, _UNIT), _UNIT.map(lambda t: (t, t)),
                      _UNIT.map(lambda t: (t, 1.0 - t))),
    upper=st.booleans(),
    shift=st.sampled_from([0.0, 5e-13, -5e-13, 2e-12, -2e-12, 1e-3, -1e-3]),
)
def test_feasibility_rule_at_both_ends(margins, upper, shift):
    """make_params accepts rho exactly on [lo - 1e-12, hi + 1e-12] of
    condition_a_bounds; a refusal names the cell that goes negative past that
    end, and an accepted rho keeps make_params' cells bit for bit and comes
    back from rho_from_p11.  Margins stay 1e-3 inside (0, 1), where
    rho_from_p11's cancellation costs less than 1e-12."""
    theta_x, theta_y = margins
    lo, hi = condition_a_bounds(theta_x, theta_y)
    rho = (hi if upper else lo) + shift
    assume(abs(rho) < 1.0)
    raw = dict(zip(("p00", "p10", "p01", "p11"), _raw_cells(theta_x, theta_y, rho)))
    try:
        params = make_params(theta_x, theta_y, rho)
    except InfeasibleCorrelationError as err:
        assert not lo - 1e-12 <= rho <= hi + 1e-12
        cell = err.restriction
        if rho < lo:
            assert cell == ("p11" if theta_x + theta_y <= 1.0 else "p00")
        else:
            assert cell == ("p10" if theta_x <= theta_y else "p01")
        assert f"cell {cell} would be negative" in str(err)
        if abs(shift) == 1e-3:
            assert raw[cell] < 0.0
        return
    assert lo - 1e-12 <= rho <= hi + 1e-12
    assert params.cell_probs == tuple(min(max(raw[c], 0.0), 1.0)
                                      for c in ("p00", "p10", "p01", "p11"))
    assert min(raw.values()) > -1e-12
    assert rho_from_p11(theta_x, theta_y, params.p11) == pytest.approx(rho, abs=1e-12)
