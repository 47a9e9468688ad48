import copy
import itertools
from collections import deque
from dataclasses import astuple

import numpy as np
import pytest

from bivarseq import (
    Event,
    MonitorStateError,
    SequencingError,
    make_params,
    run_test,
    sample_stream,
)
from bivarseq.cli_monitor import MonitorState, _write_state, monitor_step, state_load, state_save
from bivarseq.inference import post_test_estimate
from bivarseq.design import LatticeCounts
from conftest import make_design


def feed(state, events, save_load_at=()):
    records = []
    for ev in events:
        if ev.seq in save_load_at:
            state = state_load(state_save(state))
        state, record = monitor_step(state, ev)
        records.append(record)
        if state.status != "open":
            break
    return state, records


class TestStepSemantics:
    def test_boundary_crossing_from_threshold(self):
        design = make_design(50, 3, 10)
        state = MonitorState.fresh(design)
        events = [Event(seq=i + 1, x=1, y=0) for i in range(3)]
        state, _ = feed(state, events)
        assert state.status == "open" and state.counts.s_x == 3
        state, record = monitor_step(state, Event(seq=4, x=1, y=0))
        assert state.status == "rejected_x"
        assert record["decision"] == "reject"
        assert record["m_star"] == 4
        assert record["estimate"]["theta_hat_x"] == 1.0

    def test_curtailment(self):
        design = make_design(5, 3, 3)
        state = MonitorState.fresh(design)
        state, records = feed(state, [Event(seq=i + 1, x=0, y=0) for i in range(5)])
        assert state.status == "exhausted"
        assert records[-1]["decision"] == "not_reject"
        assert records[-1]["m_star"] == 5

    def test_corner(self):
        design = make_design(9, 1, 1)
        state = MonitorState.fresh(design)
        state, _ = feed(state, [Event(seq=1, x=1, y=1), Event(seq=2, x=1, y=1)])
        assert state.status == "rejected_corner"

    def test_replay_of_117_subject_table(self):
        design = make_design(117, 57, 57)
        cells = [(1, 1)] * 25 + [(1, 0)] * 18 + [(0, 1)] * 11 + [(0, 0)] * 63
        events = [Event(seq=i + 1, x=x, y=y) for i, (x, y) in enumerate(cells)]
        state, records = feed(MonitorState.fresh(design), events,
                              save_load_at=(30, 80))
        assert state.status == "exhausted"
        expected = post_test_estimate(
            LatticeCounts(n00=63, n10=18, n01=11, n11=25)).to_dict()
        assert records[-1]["estimate"] == expected

    def test_rejects_out_of_order(self):
        state = MonitorState.fresh(make_design(10, 2, 2))
        state, _ = monitor_step(state, Event(seq=1, x=0, y=0))
        with pytest.raises(SequencingError):
            monitor_step(state, Event(seq=3, x=0, y=0))
        with pytest.raises(SequencingError):
            monitor_step(state, Event(seq=1, x=0, y=0))

    def test_rejects_events_after_closure(self):
        design = make_design(9, 1, 1)
        state = MonitorState.fresh(design)
        state, _ = feed(state, [Event(seq=1, x=1, y=0), Event(seq=2, x=1, y=0)])
        assert state.status == "rejected_x"
        with pytest.raises(MonitorStateError):
            monitor_step(state, Event(seq=3, x=0, y=0))


class TestReplayEquivalence:
    @pytest.mark.parametrize("stream_idx", range(6))
    def test_matches_run_test_with_interleaved_save_load(self, fig_design,
                                                         stream_idx):
        params = make_params(0.1, 0.2, 0.1)
        events = list(sample_stream(params, 81, fig_design.n_star,
                                    stream=stream_idx))
        outcome = run_test(fig_design, iter(events))
        state, records = feed(MonitorState.fresh(fig_design), events,
                              save_load_at=(5, 17, 50, 90))
        assert state.last_seq == outcome.m_star
        assert state.counts == outcome.counts
        closed = {"x": "rejected_x", "y": "rejected_y",
                  "corner": "rejected_corner", "none": "exhausted"}
        assert state.status == closed[outcome.boundary]
        assert len(records) == outcome.m_star

    def test_records_deterministic(self, fig_design):
        params = make_params(0.1, 0.2, 0.1)
        events = list(sample_stream(params, 82, fig_design.n_star, stream=0))
        _, first = feed(MonitorState.fresh(fig_design), events)
        _, second = feed(MonitorState.fresh(fig_design), events)
        assert first == second


class TestSaveLoad:
    def test_fresh_round_trip(self, fig_design):
        state = MonitorState.fresh(fig_design)
        assert state_load(state_save(state)) == state

    def test_mid_stream_round_trip(self, fig_design):
        params = make_params(0.1, 0.2, 0.1)
        state = MonitorState.fresh(fig_design)
        state, _ = feed(state, list(sample_stream(params, 9, 40)))
        assert state_load(state_save(state)) == state

    def test_tampered_counts_rejected(self, fig_design):
        doc = state_save(MonitorState.fresh(fig_design))
        bad = copy.deepcopy(doc)
        bad["counts"]["n10"] = fig_design.k_x + 5   # s_x beyond any reachable state
        bad["last_seq"] = bad["counts"]["n10"]
        with pytest.raises(MonitorStateError):
            state_load(bad)

    def test_inconsistent_total_rejected(self, fig_design):
        doc = state_save(MonitorState.fresh(fig_design))
        bad = copy.deepcopy(doc)
        bad["counts"]["n00"] = 3                    # last_seq still 0
        with pytest.raises(MonitorStateError):
            state_load(bad)

    def test_version_mismatch_rejected(self, fig_design):
        doc = state_save(MonitorState.fresh(fig_design))
        doc["version"] = 99
        with pytest.raises(MonitorStateError):
            state_load(doc)

    def test_design_hash_mismatch_rejected(self, fig_design):
        doc = state_save(MonitorState.fresh(fig_design))
        doc["design"]["x"]["k_star"] = 5
        with pytest.raises(MonitorStateError):
            state_load(doc)

    @pytest.mark.parametrize("counts, last_seq, status", [
        ({"n00": 0, "n10": 3, "n01": 0, "n11": 0}, 3, "open"),        # crossed x
        ({"n00": 0, "n10": 0, "n01": 0, "n11": 3}, 3, "rejected_x"),  # corner
        ({"n00": 10, "n10": 0, "n01": 0, "n11": 0}, 10, "open"),      # at n_star
    ])
    def test_status_inconsistent_with_counts_rejected(self, counts, last_seq,
                                                      status):
        doc = state_save(MonitorState.fresh(make_design(10, 2, 2)))
        doc.update(counts=counts, last_seq=last_seq, status=status)
        with pytest.raises(MonitorStateError, match="inconsistent"):
            state_load(doc)

    # each document also breaks every check after the one it is refused by,
    # so the cases pin the order of the checks as well as their messages
    @pytest.mark.parametrize("counts, last_seq, message", [
        ({"n00": 0, "n10": 11, "n01": 0, "n11": 0}, 0, "does not match last_seq"),
        ({"n00": 0, "n10": 11, "n01": 0, "n11": 0}, 11, "can reach"),
        ({"n00": 11, "n10": 0, "n01": 0, "n11": 0}, 11, "can reach"),
        ({"n00": 0, "n10": 3, "n01": 0, "n11": 0}, 3, "inconsistent"),
        # a corner without a both-effects event: the test stops at its first crossing
        ({"n00": 0, "n10": 3, "n01": 3, "n11": 0}, 6, "can reach"),
    ])
    def test_refusals_in_order(self, counts, last_seq, message):
        doc = state_save(MonitorState.fresh(make_design(10, 2, 2)))
        doc.update(counts=counts, last_seq=last_seq, status="open")
        with pytest.raises(MonitorStateError, match=message):
            state_load(doc)

    @pytest.mark.parametrize("geometry", [(10, 2, 2), (10, 2, 4), (12, 3, 1), (6, 5, 0)])
    def test_loads_exactly_the_reachable_tables(self, geometry):
        """A breadth-first search over ``monitor_step`` from the fresh state
        finds every table a run can stand at; ``state_load`` accepts those
        and no other table of total up to n* + 2."""
        design = make_design(*geometry)
        fresh = MonitorState.fresh(design)
        reachable, queue = {astuple(fresh.counts)}, deque([fresh])
        while queue:
            state = queue.popleft()
            if state.status != "open":
                continue
            for x, y in itertools.product((0, 1), repeat=2):
                after, _ = monitor_step(state, Event(state.last_seq + 1, x, y))
                if astuple(after.counts) not in reachable:
                    reachable.add(astuple(after.counts))
                    queue.append(after)
        top = design.n_star + 2
        accepted = set()
        for cells in itertools.product(range(top + 1), repeat=4):
            if sum(cells) <= top:
                try:
                    state_load(state_save(MonitorState(design, LatticeCounts(*cells))))
                except MonitorStateError:
                    continue
                accepted.add(cells)
        assert accepted == reachable

    def test_written_state_golden(self, fig_design, tmp_path):
        cells = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0), (0, 1), (0, 0)]
        state, _ = feed(MonitorState.fresh(fig_design),
                        [Event(seq=i + 1, x=x, y=y) for i, (x, y) in enumerate(cells)])
        path = tmp_path / "state.json"
        _write_state(str(path), state)
        assert path.read_text() == _GOLDEN_STATE

    @pytest.mark.parametrize("alpha_tilde", ["abc", None, True, 0.7])
    def test_design_error_targets_checked(self, alpha_tilde):
        doc = state_save(MonitorState.fresh(make_design(10, 2, 2)))
        doc["design"]["x"]["alpha_tilde"] = alpha_tilde
        with pytest.raises(MonitorStateError, match=r"field 'x(\.|': )alpha_tilde"):
            state_load(doc)

    @pytest.mark.parametrize("side, field, value", [("x", "theta0", 0.5), ("y", "k_star", 10)])
    def test_design_margin_error_names_side(self, side, field, value):
        doc = state_save(MonitorState.fresh(make_design(10, 2, 2)))
        doc["design"][side][field] = value
        with pytest.raises(MonitorStateError, match=f"design document: field '{side}': need"):
            state_load(doc)

    def test_corrupt_document_rejected(self):
        with pytest.raises(MonitorStateError):
            state_load({"version": 1})

    @pytest.mark.parametrize("edits", [
        {"last_seq": 0.9},
        {"last_seq": True, "counts.n00": True},
        {"version": True},
        {"version": 1.0},
        {"counts.n10": 0.5, "counts.n01": 0.5, "last_seq": 1},
    ])
    def test_field_types_checked(self, edits):
        # each of these loaded before, as a count or seq of the wrong type
        doc = state_save(MonitorState.fresh(make_design(10, 2, 2)))
        with pytest.raises(MonitorStateError, match="must be an integer"):
            state_load(_edited(doc, edits))

    @pytest.mark.parametrize("field", ["last_seq", "counts.n00", "design.x.n_star",
                                       "design.x.alpha_tilde", "design.x.theta1"])
    def test_huge_integer_rejected(self, field):
        doc = state_save(MonitorState.fresh(make_design(10, 2, 2)))
        with pytest.raises(MonitorStateError):
            state_load(_edited(doc, {field: 10 ** 400}))


# the state file of fig121 after seven events, byte for byte
_GOLDEN_STATE = """{
  "version": 1,
  "design": {
    "x": {
      "alpha_tilde": 0.025,
      "beta": 0.1,
      "theta0": 0.05,
      "theta1": 0.1,
      "n_star": 263,
      "k_star": 19
    },
    "y": {
      "alpha_tilde": 0.025,
      "beta": 0.1,
      "theta0": 0.1,
      "theta1": 0.2,
      "n_star": 121,
      "k_star": 18
    },
    "n_star": 121,
    "k_lower": 18
  },
  "design_hash": "263b444b85bc1680fa6f5e0051b93270484f7690281a073120c30f46d2036e60",
  "counts": {
    "n00": 3,
    "n10": 1,
    "n01": 2,
    "n11": 1
  },
  "last_seq": 7,
  "status": "open"
}"""


def _edited(doc: dict, edits: dict) -> dict:
    """A copy of ``doc`` with each dotted field path set to its value."""
    doc = copy.deepcopy(doc)
    for path, value in edits.items():
        *parents, leaf = path.split(".")
        target = doc
        for key in parents:
            target = target[key]
        target[leaf] = value
    return doc
