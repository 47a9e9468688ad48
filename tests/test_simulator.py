import dataclasses
import hashlib
import itertools
import sys
import threading

import numpy as np
import pytest

from bivarseq import simulator
from bivarseq import (
    BivariateDesign,
    Event,
    LatticeCounts,
    MarginalDesign,
    SequencingError,
    StreamExhaustedError,
    condition_a_bounds,
    make_params,
    monte_carlo,
    post_test_estimate,
    power_exact,
    replicate_outcomes,
    run_test,
    sample_stream,
    stopping_pmf_exact,
)
from bivarseq.inference import chi2_quantile_2df
from conftest import make_design


def constant_stream(x, y, n):
    return (Event(seq=i + 1, x=x, y=y) for i in range(n))


def in_threads(fn):
    """[fn(0), ..., fn(3)], each computed in its own thread, the 4 started
    together under a short switch interval so that they interleave often."""
    start = threading.Barrier(4)
    got = [None] * 4

    def worker(i):
        start.wait()
        got[i] = fn(i)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return got


class TestRunTest:
    def test_all_both_hits_smaller_boundary_first(self, fig_design):
        outcome = run_test(fig_design, constant_stream(1, 1, 121))
        assert outcome.decision == "reject"
        assert outcome.m_star == fig_design.k_y + 1 == 19
        assert outcome.boundary == "y"
        assert outcome.counts.n11 == 19

    def test_all_quiet_curtails(self, fig_design):
        outcome = run_test(fig_design, constant_stream(0, 0, 121))
        assert outcome.decision == "not_reject"
        assert outcome.m_star == 121
        assert outcome.boundary == "none"

    def test_replayed_117_subject_table_does_not_reject(self):
        """The 117-subject data with margins 43 and 36 stays below k = 57."""
        design = make_design(117, 57, 57)
        cells = [(1, 1)] * 25 + [(1, 0)] * 18 + [(0, 1)] * 11 + [(0, 0)] * 63
        stream = (Event(seq=i + 1, x=x, y=y) for i, (x, y) in enumerate(cells))
        outcome = run_test(design, stream)
        assert outcome.decision == "not_reject"
        assert outcome.m_star == 117
        assert (outcome.counts.s_x, outcome.counts.s_y) == (43, 36)

    def test_corner_stop(self):
        design = make_design(6, 2, 2)
        outcome = run_test(design, constant_stream(1, 1, 6))
        assert outcome.boundary == "corner"
        assert outcome.m_star == 3

    def test_corner_requires_both_at_threshold(self):
        design = make_design(10, 2, 4)
        cells = [(1, 1), (1, 1), (1, 1)]
        stream = (Event(seq=i + 1, x=x, y=y) for i, (x, y) in enumerate(cells))
        outcome = run_test(design, stream)
        assert outcome.boundary == "x"     # y is still below its threshold

    def test_exhausted_stream(self, fig_design):
        with pytest.raises(StreamExhaustedError) as err:
            run_test(fig_design, constant_stream(0, 0, 40))
        assert err.value.consumed == 40

    def test_out_of_order_stream(self, fig_design):
        events = [Event(seq=1, x=0, y=0), Event(seq=1, x=0, y=0)]
        with pytest.raises(SequencingError):
            run_test(fig_design, iter(events))

    def test_counts_reflect_consumed_prefix(self, fig_design):
        cells = [(0, 1), (1, 1), (0, 0)] * 50
        stream = (Event(seq=i + 1, x=x, y=y) for i, (x, y) in enumerate(cells))
        outcome = run_test(fig_design, stream)
        assert outcome.counts.total == outcome.m_star
        assert outcome.counts.s_y == fig_design.k_y + 1

    def test_enumerated_paths_match_exact_pmf(self):
        """Over all 4^n equally likely paths (uniform cells), outcome
        frequencies equal the exact stopping law without error."""
        design = make_design(6, 1, 2)
        params = make_params(0.5, 0.5, 0.0)    # all four cells 1/4
        pmf = stopping_pmf_exact(design, params)
        weight = 0.25 ** design.n_star
        acc = {(m, b): 0.0 for m in pmf.support for b in ("x", "y", "corner")}
        cont = 0.0
        for cells in itertools.product(range(4), repeat=design.n_star):
            stream = (Event(seq=i + 1, x=int(c in (1, 3)), y=int(c in (2, 3)))
                      for i, c in enumerate(cells))
            outcome = run_test(design, stream)
            if outcome.decision == "reject":
                acc[(outcome.m_star, outcome.boundary)] += weight
            else:
                cont += weight
        for idx, m in enumerate(pmf.support):
            assert acc[(m, "x")] == pytest.approx(pmf.mass_x[idx], abs=1e-15)
            assert acc[(m, "y")] == pytest.approx(pmf.mass_y[idx], abs=1e-15)
            assert acc[(m, "corner")] == pytest.approx(pmf.mass_corner[idx],
                                                       abs=1e-15)
        assert cont == pytest.approx(pmf.continue_mass, abs=1e-15)


class TestSampleStream:
    def test_deterministic_for_seed(self):
        params = make_params(0.2, 0.3, 0.2)
        a = list(sample_stream(params, 42, 500))
        b = list(sample_stream(params, 42, 500))
        assert a == b
        c = list(sample_stream(params, 43, 500))
        assert a != c

    def test_alternating_seeds_keep_their_master_words(self):
        """Streams that alternate two seeds reuse both seeds' master words
        (at most 2 derivations in 20 calls) and draw each seed's own events."""
        params = make_params(0.2, 0.3, 0.2)
        alone = {seed: list(sample_stream(params, seed, 121)) for seed in (42, 43)}
        simulator._master_word.cache_clear()
        for i in range(20):
            seed = (42, 43)[i % 2]
            assert list(sample_stream(params, seed, 121)) == alone[seed]
        assert simulator._master_word.cache_info().misses <= 2

    def test_first_cells_pinned(self):
        """The first 40 cells at seed 5, as drawn one uniform per event."""
        expected = [
            (0, 0), (0, 0), (0, 0), (0, 0), (0, 1), (0, 1), (0, 0), (0, 0),
            (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0),
            (1, 0), (1, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0),
            (0, 1), (1, 1), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0),
            (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0),
        ]
        events = sample_stream(make_params(0.15, 0.3, 0.25), 5, 40)
        assert [(ev.x, ev.y) for ev in events] == expected

    @pytest.mark.parametrize("seed, stream, cells", [
        (5, 1, "0312203221003103000032320010120033030001"),
        (5, 2 ** 32 + 3, "1323310011022302113020321323331001310001"),
        (5, 2 ** 64 - 1, "1232021133311213230012220110332103021021"),
        (2 ** 40 + 7, 1, "1000102323112212022012132323223133102213"),
        (2 ** 40 + 7, 2 ** 32 + 3, "2011203322330231130003303303232211023213"),
        (2 ** 40 + 7, 2 ** 64 - 1, "2031022010020011203302303230001012333323"),
    ])
    def test_first_cells_pinned_beyond_stream_zero(self, seed, stream, cells):
        """The first 40 cells x + 2y of streams past 0, past 2**32 (the key's
        high half) and the last one, with all four cells equally likely."""
        events = sample_stream(make_params(0.5, 0.5, 0.0), seed, 40, stream=stream)
        assert "".join(str(ev.x + 2 * ev.y) for ev in events) == cells

    @pytest.mark.parametrize("name, value", [
        ("stream", 1.5), ("stream", -1), ("stream", 2 ** 64), ("stream", True),
        ("seed", 1.0), ("seed", -1), ("seed", False),
        ("max_n", -1), ("max_n", 2.0),
    ])
    def test_arguments_checked_at_first_next(self, name, value):
        args = {"seed": 1, "max_n": 10, "stream": 0, name: value}
        events = sample_stream(make_params(0.2, 0.3, 0.2), **args)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            next(events)

    def test_numpy_integer_arguments_accepted(self):
        params = make_params(0.2, 0.3, 0.2)
        assert list(sample_stream(params, np.int64(4), np.int32(30),
                                  stream=np.uint64(2 ** 64 - 1))) == \
            list(sample_stream(params, 4, 30, stream=2 ** 64 - 1))
        assert list(sample_stream(params, 4, 0)) == []

    def test_threads_draw_the_serial_streams(self):
        """Streams drawn from 4 threads at once equal the serial draws: the
        shared generator is re-keyed and drawn under one lock."""
        params = make_params(0.2, 0.3, 0.2)

        def draw(seed):
            return [[(ev.x, ev.y) for ev in sample_stream(params, seed, 121, stream=r)]
                    for r in range(200)]

        assert in_threads(draw) == [draw(seed) for seed in range(4)]

    def test_streams_differ_by_index(self):
        params = make_params(0.2, 0.3, 0.2)
        a = list(sample_stream(params, 42, 200, stream=0))
        b = list(sample_stream(params, 42, 200, stream=1))
        assert a != b

    def test_cell_frequencies(self):
        params = make_params(0.15, 0.3, 0.25)
        n = 200_000
        counts = {"00": 0, "10": 0, "01": 0, "11": 0}
        for ev in sample_stream(params, 7, n):
            counts[f"{ev.x}{ev.y}"] += 1
        for key, p in zip(("00", "10", "01", "11"), params.cell_probs):
            se = (p * (1 - p) / n) ** 0.5
            assert counts[key] / n == pytest.approx(p, abs=3 * se + 1e-12)

    @pytest.mark.parametrize("interned", [simulator._INTERNED_SEQS, 100])
    def test_events_equal_fresh_events_from_same_uniforms(self, monkeypatch,
                                                          interned):
        """Stream r of seed s draws from Philox(key=(master(s), r)); its events
        equal fresh Events of those uniforms' cells, those of the first
        _INTERNED_SEQS seqs are shared between streams, and all stay frozen."""
        monkeypatch.setattr(simulator, "_INTERNED_SEQS", interned)
        monkeypatch.setattr(simulator, "_EVENTS", simulator._InternedEvents())
        params = make_params(0.15, 0.3, 0.25)
        seed, n = 5, 300
        shared = min(n, interned)
        master = np.random.SeedSequence(seed).generate_state(1, dtype=np.uint64)[0]
        p00, p10, p01, _ = params.cell_probs
        for stream in (0, 3):
            u = np.random.Generator(np.random.Philox(
                key=np.array([master, stream], dtype=np.uint64))).random(n)
            cells = np.searchsorted([p00, p00 + p10, p00 + p10 + p01], u, side="right")
            fresh = [Event(i + 1, int(c in (1, 3)), int(c in (2, 3)))
                     for i, c in enumerate(cells.tolist())]
            events = list(sample_stream(params, seed, n, stream=stream))
            assert events == fresh
            assert all(type(ev.x) is int and type(ev.y) is int for ev in events)
        again = list(sample_stream(params, seed, n, stream=3))
        assert all(a is b for a, b in zip(again[:shared], events))
        assert not any(a is b for a, b in zip(again[shared:], events[shared:]))
        assert max(simulator._EVENTS) < 4 * shared
        with pytest.raises(dataclasses.FrozenInstanceError):
            events[0].x = 1 - events[0].x
        assert list(sample_stream(params, seed, n, stream=3)) == fresh

    def test_zero_probability_cell_never_emitted(self):
        hi = condition_a_bounds(0.2, 0.4)[1]
        params = make_params(0.2, 0.4, hi)     # X-only cell has probability 0
        assert params.p10 == 0.0
        for ev in sample_stream(params, 3, 5000):
            assert not (ev.x == 1 and ev.y == 0)


class TestMonteCarlo:
    def test_matches_run_test_replicates(self, fig_design):
        """The vectorized engine consumes the same uniforms as sample_stream,
        so per-replicate outcomes agree exactly."""
        params = make_params(0.1, 0.2, 0.1)
        reps, seed = 64, 31
        summary = monte_carlo(fig_design, params, reps=reps, seed=seed)
        m_sum = 0
        rejected = 0
        th_x_sum = 0.0
        boundaries = {"none": 0, "x": 0, "y": 0, "corner": 0}
        for r in range(reps):
            events = sample_stream(params, seed, fig_design.n_star, stream=r)
            outcome = run_test(fig_design, events)
            m_sum += outcome.m_star
            rejected += outcome.decision == "reject"
            th_x_sum += outcome.counts.s_x / outcome.m_star
            boundaries[outcome.boundary] += 1
        assert summary.asn == pytest.approx(m_sum / reps, abs=1e-12)
        assert summary.power == pytest.approx(rejected / reps, abs=1e-12)
        assert summary.bias_x == pytest.approx(th_x_sum / reps - params.theta_x,
                                               abs=1e-12)
        assert summary.boundary_split == pytest.approx(
            {name: n / reps for name, n in boundaries.items()}, abs=1e-12)

    def test_converges_to_exact_power(self, fig_design):
        params = make_params(0.1, 0.2, 0.1)
        exact = power_exact(fig_design, params)
        for reps in (1000, 10_000, 100_000):
            summary = monte_carlo(fig_design, params, reps=reps, seed=17)
            se = max(summary.power_se, 1e-6)
            assert abs(summary.power - exact) <= 4 * se

    def test_reference_power_and_asn(self, fig_design):
        from bivarseq import asn_exact

        params = make_params(0.1, 0.2, 0.1)
        summary = monte_carlo(fig_design, params, reps=30_000, seed=23)
        assert abs(summary.power - 0.9065) <= 3 * summary.power_se
        assert abs(summary.asn - asn_exact(fig_design, params)) <= 3 * summary.asn_se

    def test_deterministic_across_parallelism(self, fig_design):
        params = make_params(0.1, 0.2, 0.1)
        base = monte_carlo(fig_design, params, reps=2000, seed=13)
        for chunk in (137, 1024, 7):
            again = monte_carlo(fig_design, params, reps=2000, seed=13,
                                chunk_size=chunk)
            assert again.to_dict() == base.to_dict()

    def test_boundary_split_sums_to_one(self, fig_design):
        params = make_params(0.1, 0.2, 0.1)
        summary = monte_carlo(fig_design, params, reps=4000, seed=3)
        assert sum(summary.boundary_split.values()) == pytest.approx(1.0, abs=1e-12)
        assert summary.boundary_split["none"] == pytest.approx(
            1.0 - summary.power, abs=1e-12)

    def test_coverage_uses_the_post_test_singularity_rule(self, fig_design):
        """A replicate covers theta iff its post_test_estimate is not singular
        and its Wald form is <= c.  At rho = 0.9 many tables have
        n10 = n01 = 0: det Sigma_hat is 0 exactly, and in floats it is
        rounding noise that the form must not be divided by."""
        params = make_params(0.1, 0.1, 0.9)
        reps, seed = 20_000, 3
        summary = monte_carlo(fig_design, params, reps=reps, seed=seed)
        m_star, _, table = replicate_outcomes(fig_design, params, reps, seed)
        theta = np.array([params.theta_x, params.theta_y])
        quad = np.full(reps, np.inf)        # singular tables never cover
        for r in range(reps):
            est = post_test_estimate(LatticeCounts(*map(int, table[r])), int(m_star[r]))
            if not est.singular:
                d = np.array([est.theta_hat_x, est.theta_hat_y]) - theta
                quad[r] = m_star[r] * d @ np.linalg.solve(est.sigma_hat, d)
        assert np.isinf(quad).sum() > 1000
        c = chi2_quantile_2df(summary.coverage_level)
        covered = round(summary.coverage * reps)
        assert np.count_nonzero(quad <= c - 1e-9) <= covered
        assert covered <= np.count_nonzero(quad <= c + 1e-9)

    def test_corner_only_from_double_threshold(self):
        """Corner stops happen iff both margins sat at their critical values
        before a final both-effects event."""
        design = make_design(25, 3, 3)
        params = make_params(0.35, 0.35, 0.5)
        seed, reps = 19, 3000
        summary = monte_carlo(design, params, reps=reps, seed=seed)
        assert summary.boundary_split["corner"] > 0
        for r in range(300):
            events = list(sample_stream(params, seed, design.n_star, stream=r))
            outcome = run_test(design, iter(events))
            if outcome.boundary == "corner":
                prior = events[: outcome.m_star - 1]
                s_x = sum(e.x for e in prior)
                s_y = sum(e.y for e in prior)
                last = events[outcome.m_star - 1]
                assert (s_x, s_y) == (design.k_x, design.k_y)
                assert (last.x, last.y) == (1, 1)

    def test_reps_validated(self, fig_design):
        with pytest.raises(ValueError):
            monte_carlo(fig_design, make_params(0.1, 0.2, 0.1), reps=0, seed=1)

    @pytest.mark.parametrize("chunk", [0, -3])
    @pytest.mark.parametrize("fn", [monte_carlo, replicate_outcomes])
    def test_chunk_size_validated(self, fig_design, fn, chunk):
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            fn(fig_design, make_params(0.1, 0.2, 0.1), 10, 1, chunk_size=chunk)


class TestReplicateOutcomes:
    @pytest.mark.parametrize("which, point, reps, seed", [
        # 700 and 2700 replicates are not multiples of the largest blocks
        # (541 rows at n* = 121, 2621 at n* = 25)
        ("fig", (0.1, 0.2, 0.1), 700, 31),
        ("corner", (0.35, 0.35, 0.5), 2700, 19),
        # the counts pass 2**15 before the stop, where sums narrower than
        # int32 would wrap; n* = 40 000 leaves one row per block
        ("wide", (0.9, 0.95, 0.1), 3, 11),
    ])
    def test_rows_equal_run_test(self, fig_design, which, point, reps, seed):
        """Row r is the run_test outcome of sample_stream(..., stream=r), at
        every chunking."""
        design = {"fig": fig_design, "corner": make_design(25, 3, 3),
                  "wide": make_design(40_000, 36_050, 38_050)}[which]
        expected = self.assert_rows_equal_run_test(design, make_params(*point),
                                                   reps, seed)
        if which == "corner":
            # both margins pass their critical value 3 on the same event
            corner = [row for row in expected[:300] if row[1] == 3]
            assert corner
            assert all(c10 + c11 == c01 + c11 == 4 for *_, c10, c01, c11 in corner)
        if which == "wide":
            assert design.n_star >= 2 ** 15
            assert simulator._BLOCK_UNIFORMS // design.n_star == 1
            assert min(c01 + c11 for *_, c01, c11 in expected) >= 2 ** 15

    @staticmethod
    def assert_rows_equal_run_test(design, params, reps, seed):
        """Check replicate_outcomes at chunk sizes 1, 37 and 1024 against
        run_test over each replicate's stream; return the run_test rows
        (m*, code, n00, n10, n01, n11)."""
        names = ("none", "x", "y", "corner")
        expected = []
        for r in range(reps):
            o = run_test(design, sample_stream(params, seed, design.n_star, stream=r))
            c = o.counts
            expected.append((o.m_star, names.index(o.boundary),
                             c.n00, c.n10, c.n01, c.n11))
        for chunk in (1, 37, 1024):
            m_star, code, table = replicate_outcomes(design, params, reps, seed,
                                                     chunk_size=chunk)
            assert (m_star.dtype, code.dtype, table.dtype) == (
                np.int64, np.int8, np.int64)
            assert table.shape == (reps, 4)
            got = [(m, b, *row) for m, b, row in
                   zip(m_star.tolist(), code.tolist(), table.tolist())]
            assert got == expected
        return expected

    def test_margin_whose_k_reaches_n_star_never_crosses(self):
        """k_x = 150 >= n* = 60: the x count cannot pass k_x, even on a
        stream of all-x events."""
        design = BivariateDesign(x=MarginalDesign(0.025, 0.1, 0.1, 0.3, 200, 150),
                                 y=MarginalDesign(0.025, 0.1, 0.1, 0.3, 60, 20))
        assert design.k_x >= design.n_star
        rows = self.assert_rows_equal_run_test(design, make_params(0.95, 0.3, 0.0),
                                               300, 4)
        assert {code for _, code, *_ in rows} == {0, 2}
        assert all(c10 + c11 <= design.n_star for _, _, _, c10, _, c11 in rows)

    def test_zero_cell_probability_and_blocks_without_x_events(self):
        """p10 = 0, so x events are both-effects events, and at theta_x = 0.02
        many one-row blocks hold no x event at all."""
        hi = condition_a_bounds(0.02, 0.5)[1]
        params = make_params(0.02, 0.5, hi)
        assert params.p10 == 0.0
        design = make_design(30, 1, 14)
        reps, seed = 400, 8
        rows = self.assert_rows_equal_run_test(design, params, reps, seed)
        assert all(c10 == 0 for _, _, _, c10, _, _ in rows)
        no_x = [r for r in range(reps)
                if not any(ev.x for ev in sample_stream(params, seed, 30, stream=r))]
        assert len(no_x) > 100

    def test_stop_in_the_last_column(self):
        """A crossing at n* itself rejects there."""
        design = make_design(25, 4, 20)
        rows = self.assert_rows_equal_run_test(design, make_params(0.12, 0.3, 0.1),
                                               800, 2)
        assert any(m == 25 and code == 1 for m, code, *_ in rows)
        assert any(m == 25 and code == 0 for m, code, *_ in rows)

    @pytest.mark.parametrize("which, point, reps, seed, digest", [
        ("fig", (0.1, 0.2, 0.1), 3000, 31,
         "664a663e5032b0736f2f692f63d0db75a4cc3d071691489cbad8cd0f234048c9"),
        ("n1154", (0.065, 0.13, 0.1), 400, 7,
         "9b125ecbcb23d12c7c25a5c1dc52a3ab3c573ac7c286e44c8ee0a6fc50cfb1f5"),
    ])
    def test_outcome_arrays_pinned(self, fig_design, which, point, reps, seed,
                                   digest):
        """SHA-256 over each array's dtype string and bytes, in the order
        (m_star, code, table)."""
        design = {"fig": fig_design, "n1154": make_design(1154, 143, 135)}[which]
        h = hashlib.sha256()
        for a in replicate_outcomes(design, make_params(*point), reps, seed):
            h.update(a.dtype.str.encode())
            h.update(a.tobytes())
        assert h.hexdigest() == digest

    def test_threads_compute_the_serial_outcomes(self, fig_design):
        params = make_params(0.1, 0.2, 0.1)

        def outcomes(seed):
            return replicate_outcomes(fig_design, params, 1500, seed, chunk_size=50)

        for got, serial in zip(in_threads(outcomes), map(outcomes, range(4))):
            assert all(np.array_equal(a, b) for a, b in zip(got, serial))

    @pytest.mark.parametrize("fn", [monte_carlo, replicate_outcomes])
    @pytest.mark.parametrize("name, value", [
        ("seed", 1.5), ("seed", -1), ("seed", True), ("reps", 2.0),
        ("chunk_size", 8.0),
    ])
    def test_arguments_named(self, fig_design, fn, name, value):
        args = {"reps": 10, "seed": 1, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            fn(fig_design, make_params(0.1, 0.2, 0.1), **args)

    @pytest.mark.parametrize("n_before_end", [1, 0])
    def test_boundary_code_agrees_with_decide(self, n_before_end):
        """The code hit_x + 2 hit_y that replicate_outcomes computes on arrays
        names the boundary decide() names, for all four (hit_x, hit_y),
        before and at n*."""
        design = make_design(30, 4, 6)
        n = design.n_star - n_before_end
        s_x = np.array([4, 5, 4, 5])          # hit_x: no, yes, no, yes
        s_y = np.array([6, 6, 7, 7])          # hit_y: no, no, yes, yes
        code = design._boundary_code(s_x, s_y)
        names = [simulator._BOUNDARIES[c] for c in code.tolist()]
        assert names == [design.decide(a, b, n)[1] for a, b in zip(s_x.tolist(), s_y.tolist())]
        assert names == ["none", "x", "y", "corner"]
