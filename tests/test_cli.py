import argparse
import ast
import contextlib
import csv
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bivarseq import (
    BivariateDesign,
    LatticeCounts,
    asn_bounds,
    asn_exact,
    confidence_region,
    make_params,
    post_test_estimate,
    power_asymptotic,
    power_exact,
    stopping_pmf_asymptotic,
    stopping_pmf_exact,
)
from bivarseq import exact_engine
from bivarseq.cli_monitor import MonitorState, _cmd_monitor, main, state_load, state_save
from bivarseq.errors import MonitorStateError, SequencingError
from conftest import make_design


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="module")
def design_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "design.json"
    code, payload = run_cli("design", "--alpha", "0.05", "--beta", "0.1",
                            "--theta-x0", "0.05", "--theta-x1", "0.1",
                            "--theta-y0", "0.1", "--theta-y1", "0.2")
    assert code == 0
    path.write_text(payload)
    return str(path)


@pytest.fixture(scope="module")
def design(design_file):
    return BivariateDesign.from_dict(json.loads(Path(design_file).read_text()))


class TestDesignCommand:
    def test_pooled_geometry(self, design_file):
        doc = json.loads(Path(design_file).read_text())
        assert doc["n_star"] == 121
        assert doc["y"]["k_star"] == 18
        assert abs(doc["x"]["k_star"] - 19) <= 1
        assert doc["x"]["alpha_tilde"] == pytest.approx(0.025)

    def test_floor_rounding_flag(self):
        code, payload = run_cli("design", "--alpha", "0.05", "--beta", "0.1",
                                "--theta-x0", "0.05", "--theta-x1", "0.1",
                                "--theta-y0", "0.1", "--theta-y1", "0.2",
                                "--rounding", "floor")
        assert code == 0
        assert json.loads(payload)["x"]["k_star"] == 19

    def test_exact_refine_flag(self):
        code, payload = run_cli("design", "--alpha", "0.05", "--beta", "0.2",
                                "--theta-x0", "0.1", "--theta-x1", "0.25",
                                "--theta-y0", "0.1", "--theta-y1", "0.25",
                                "--exact-refine")
        assert code == 0
        doc = json.loads(payload)
        from bivarseq.design import binom_cdf, binom_sf

        x = doc["x"]
        assert binom_sf(x["k_star"], x["n_star"], 0.1) <= 0.025
        assert binom_cdf(x["k_star"], x["n_star"], 0.25) <= 0.2


class TestEvaluationCommands:
    def test_power_exact(self, design_file):
        code, payload = run_cli("power", "--design", design_file,
                                "--theta-x", "0.1", "--theta-y", "0.2",
                                "--rho", "0.1", "--method", "exact")
        assert code == 0
        doc = json.loads(payload)
        from bivarseq import BivariateDesign

        design = BivariateDesign.from_dict(json.loads(Path(design_file).read_text()))
        assert doc["power"] == pytest.approx(
            power_exact(design, make_params(0.1, 0.2, 0.1)), abs=1e-12)

    def test_asn_with_bounds(self, design_file):
        code, payload = run_cli("asn", "--design", design_file,
                                "--theta-x", "0.25", "--theta-y", "0.25",
                                "--rho", "0.1", "--method", "exact")
        assert code == 0
        doc = json.loads(payload)
        assert doc["lower"] <= doc["asn"] <= doc["upper"]

    @pytest.mark.parametrize("method", ["exact", "asymptotic"])
    def test_asn_critical_value_beyond_pooled_n_star(self, tmp_path, method):
        # x is sized for n* = 500 with k* = 300, above the pooled n* = 200
        path = tmp_path / "design.json"
        path.write_text(json.dumps({
            "x": {"alpha_tilde": 0.025, "beta": 0.1, "theta0": 0.05, "theta1": 0.1,
                  "n_star": 500, "k_star": 300},
            "y": {"alpha_tilde": 0.025, "beta": 0.1, "theta0": 0.1, "theta1": 0.2,
                  "n_star": 200, "k_star": 30}}))
        code, payload = run_cli("asn", "--design", str(path), "--theta-x", "0.1",
                                "--theta-y", "0.2", "--rho", "0.1", "--method", method)
        assert code == 0
        doc = json.loads(payload)
        assert doc["lower"] <= doc["upper"] <= 200

    def test_params_file_alternative(self, design_file, tmp_path):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps({"theta_x": 0.1, "theta_y": 0.2, "rho": 0.1}))
        code_a, by_file = run_cli("power", "--design", design_file,
                                  "--params", str(pfile), "--method", "exact")
        code_b, by_flags = run_cli("power", "--design", design_file,
                                   "--theta-x", "0.1", "--theta-y", "0.2",
                                   "--rho", "0.1", "--method", "exact")
        assert code_a == code_b == 0
        assert json.loads(by_file) == json.loads(by_flags)

    def test_missing_margins_is_domain_error(self, design_file):
        code, _ = run_cli("power", "--design", design_file)
        assert code == 2

    def test_pmf_csv_layout(self, design_file):
        code, payload = run_cli("--output", "csv", "pmf", "--design", design_file,
                                "--theta-x", "0.1", "--theta-y", "0.2",
                                "--rho", "0.1", "--method", "exact")
        assert code == 0
        rows = list(csv.reader(io.StringIO(payload)))
        assert rows[0] == ["m", "p_hit_x", "p_hit_y", "p_corner"]
        from bivarseq import BivariateDesign

        design = BivariateDesign.from_dict(json.loads(Path(design_file).read_text()))
        pmf = stopping_pmf_exact(design, make_params(0.1, 0.2, 0.1))
        assert len(rows) - 1 == len(pmf.support)
        assert float(rows[1][1]) == pytest.approx(pmf.mass_x[0], abs=1e-15)

    def test_export_grid(self, design_file):
        code, payload = run_cli("--output", "csv", "export-grid",
                                "--design", design_file, "--rho", "0.1",
                                "--theta-x-min", "0.02", "--theta-x-max", "0.3",
                                "--theta-y-min", "0.02", "--theta-y-max", "0.3",
                                "--steps", "4", "--method", "exact")
        assert code == 0
        rows = list(csv.reader(io.StringIO(payload)))
        assert rows[0] == ["theta_x", "theta_y", "power"]
        assert len(rows) > 4
        powers = [float(r[2]) for r in rows[1:]]
        assert all(0.0 <= p <= 1.0 for p in powers)

    _MARGINS = ("--theta-x", "0.1", "--theta-y", "0.2", "--rho", "0.1")

    @staticmethod
    def _assert_dp_refused(capsys, *argv):
        """``argv`` with ``--method dp`` exits 2 with argparse's usage message."""
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            run_cli(*argv, "--method", "dp")
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'dp'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("method, form", [("asymptotic", "curtailed-normal"),
                                              ("gut", "gut")])
    def test_power_asymptotic_methods(self, design_file, design, capsys,
                                      method, form):
        argv = ("power", "--design", design_file, *self._MARGINS)
        code, payload = run_cli(*argv, "--method", method)
        assert code == 0
        assert json.loads(payload) == {
            "power": power_asymptotic(design, make_params(0.1, 0.2, 0.1), form=form),
            "method": method}
        self._assert_dp_refused(capsys, *argv)

    def test_asn_asymptotic(self, design_file, design, capsys):
        argv = ("asn", "--design", design_file, *self._MARGINS)
        code, payload = run_cli(*argv, "--method", "asymptotic")
        assert code == 0
        params = make_params(0.1, 0.2, 0.1)
        asn, _ = stopping_pmf_asymptotic(design, params).moments(design.n_star)
        lower, upper = asn_bounds(design, params)
        assert json.loads(payload) == {"asn": asn, "method": "asymptotic",
                                       "lower": lower, "upper": upper}
        self._assert_dp_refused(capsys, *argv)

    def test_pmf_asymptotic(self, design_file, design, capsys):
        argv = ("pmf", "--design", design_file, *self._MARGINS)
        code, payload = run_cli(*argv, "--method", "asymptotic")
        assert code == 0
        pmf = stopping_pmf_asymptotic(design, make_params(0.1, 0.2, 0.1))
        doc = json.loads(payload)
        assert doc["rows"] == [[int(m), float(px), float(py), float(pc)]
                               for m, px, py, pc in zip(pmf.support, pmf.mass_x,
                                                        pmf.mass_y, pmf.mass_corner)]
        assert doc["continue_mass"] == pmf.continue_mass
        self._assert_dp_refused(capsys, *argv)

    def test_export_grid_asymptotic(self, design_file, design, capsys):
        argv = ("export-grid", "--design", design_file, "--rho", "0.1",
                "--theta-x-min", "0.05", "--theta-x-max", "0.2",
                "--theta-y-min", "0.1", "--theta-y-max", "0.25", "--steps", "3")
        code, payload = run_cli(*argv, "--method", "asymptotic")
        assert code == 0
        grid = [(float(tx), float(ty)) for tx in np.linspace(0.05, 0.2, 3)
                for ty in np.linspace(0.1, 0.25, 3)]
        assert json.loads(payload)["rows"] == [
            [tx, ty, power_asymptotic(design, make_params(tx, ty, 0.1))]
            for tx, ty in grid]
        self._assert_dp_refused(capsys, *argv)

    def test_simulate(self, design_file, tmp_path):
        streams = tmp_path / "streams"
        code, payload = run_cli("simulate", "--design", design_file,
                                "--theta-x", "0.1", "--theta-y", "0.2",
                                "--rho", "0.1", "--reps", "300", "--seed", "5",
                                "--emit-streams", str(streams),
                                "--max-stream-files", "3")
        assert code == 0
        doc = json.loads(payload)
        assert 0.8 < doc["power"] <= 1.0
        files = sorted(streams.iterdir())
        assert len(files) == 3
        first = [json.loads(line) for line in files[0].read_text().splitlines()]
        assert first[0].keys() == {"seq", "x", "y"}

    def test_analyze_matches_library(self):
        code, payload = run_cli("analyze", "--counts", "63", "18", "11", "25")
        assert code == 0
        doc = json.loads(payload)
        est = post_test_estimate(LatticeCounts(63, 18, 11, 25))
        region = confidence_region(est, 0.95)
        assert doc["estimate"]["rho_hat"] == pytest.approx(est.rho_hat, abs=1e-12)
        assert doc["region"]["half_lengths"][0] == pytest.approx(
            region.half_lengths[0], abs=1e-12)
        assert doc["relative_risk"]["ci"][0] == pytest.approx(0.8740, abs=5e-4)

    @pytest.mark.parametrize("counts", [("50", "5", "0", "0"), ("0", "0", "0", "5"),
                                        ("50", "0", "0", "0"), ("3", "0", "4", "0")])
    def test_analyze_singular_table_is_json(self, counts, tmp_path):
        """A margin estimate of 0 or 1 leaves rho_hat undefined: JSON has
        null there (JSON has no NaN) and csv an empty field."""
        code, payload = run_cli("analyze", "--counts", *counts)
        assert code == 0
        doc = json.loads(payload, parse_constant=_refuse_constant)
        assert doc["estimate"]["rho_hat"] is None and doc["estimate"]["singular"]
        table = tmp_path / "table.json"
        table.write_text(json.dumps(dict(zip(("n00", "n10", "n01", "n11"), map(int, counts)))))
        code, payload = run_cli("--output", "csv", "analyze", "--table", str(table))
        assert code == 0
        assert ["estimate.rho_hat", ""] in list(csv.reader(io.StringIO(payload)))

    def test_analyze_ellipse_points(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, payload = run_cli("analyze", "--counts", "63", "18", "11", "25",
                                "--emit-ellipse-points", "100",
                                "--ellipse-file", "pts.csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO((tmp_path / "pts.csv").read_text())))
        assert rows[0] == ["theta_x", "theta_y"]
        assert len(rows) == 101


class TestMonitorCommand:
    def test_monitor_resumes_across_invocations(self, design_file, tmp_path):
        state = tmp_path / "state.json"
        events_a = tmp_path / "a.jsonl"
        events_b = tmp_path / "b.jsonl"
        events_a.write_text("".join(
            json.dumps({"seq": i + 1, "x": 1, "y": 1}) + "\n" for i in range(10)))
        events_b.write_text("".join(
            json.dumps({"seq": i + 11, "x": 1, "y": 1}) + "\n" for i in range(20)))
        code, out_a = run_cli("monitor", "--design", design_file,
                              "--state", str(state), "--input", str(events_a))
        assert code == 0
        records = [json.loads(line) for line in out_a.splitlines()]
        assert records[-1]["decision"] == "continue"
        assert records[-1]["s_y"] == 10
        code, out_b = run_cli("monitor", "--design", design_file,
                              "--state", str(state), "--input", str(events_b))
        assert code == 0
        records = [json.loads(line) for line in out_b.splitlines()]
        assert records[-1]["decision"] == "reject"
        assert records[-1]["status"] == "rejected_y"
        assert records[-1]["m_star"] == 19
        saved = json.loads(state.read_text())
        assert saved["status"] == "rejected_y"

    @pytest.mark.parametrize("cell, status", [((1, 1), "rejected_y"), ((0, 0), "exhausted")])
    def test_monitor_singular_estimate_is_json(self, tmp_path, cell, status):
        """The closing record's estimate has rho_hat null when a margin
        estimate is 0 or 1."""
        design, events = tmp_path / "design.json", tmp_path / "ev.jsonl"
        design.write_text(json.dumps(make_design(4, 2, 1).to_dict()))
        events.write_text("".join(json.dumps({"seq": i + 1, "x": cell[0], "y": cell[1]}) + "\n"
                                  for i in range(4)))
        code, out = run_cli("monitor", "--design", str(design),
                            "--state", str(tmp_path / "state.json"), "--input", str(events))
        assert code == 0
        last = [json.loads(line, parse_constant=_refuse_constant) for line in out.splitlines()][-1]
        assert last["status"] == status
        assert last["estimate"]["rho_hat"] is None

    def test_monitor_saves_state_of_failing_batch(self, design_file, tmp_path):
        state = tmp_path / "state.json"
        batch = tmp_path / "batch.jsonl"
        batch.write_text("".join(json.dumps({"seq": s, "x": 0, "y": 0}) + "\n"
                                 for s in (1, 2, 2)))
        code, out = run_cli("monitor", "--design", design_file,
                            "--state", str(state), "--input", str(batch))
        assert code == 2
        assert [json.loads(line)["seq"] for line in out.splitlines()] == [1, 2]
        assert json.loads(state.read_text())["last_seq"] == 2
        batch.write_text(json.dumps({"seq": 3, "x": 1, "y": 0}) + "\n")
        code, out = run_cli("monitor", "--design", design_file,
                            "--state", str(state), "--input", str(batch))
        assert code == 0
        record = json.loads(out)
        assert (record["seq"], record["s_x"], record["decision"]) == (3, 1, "continue")

    def test_monitor_rejects_wrong_design(self, design_file, tmp_path):
        state = tmp_path / "state.json"
        events = tmp_path / "ev.jsonl"
        events.write_text(json.dumps({"seq": 1, "x": 0, "y": 0}) + "\n")
        assert run_cli("monitor", "--design", design_file, "--state", str(state),
                       "--input", str(events))[0] == 0
        other = tmp_path / "other.json"
        other.write_text(json.dumps(make_design(50, 5, 5).to_dict()))
        code, _ = run_cli("monitor", "--design", str(other),
                          "--state", str(state), "--input", str(events))
        assert code == 2


class TestExitCodes:
    def test_infeasible_parameters(self, design_file):
        code, _ = run_cli("power", "--design", design_file,
                          "--theta-x", "0.05", "--theta-y", "0.1",
                          "--rho", "-0.1", "--method", "exact")
        assert code == 2

    def test_design_missing_keys(self, tmp_path, capsys):
        bad = tmp_path / "bad_design.json"
        bad.write_text(json.dumps({"x": {}}))
        code, _ = run_cli("power", "--design", str(bad),
                          "--theta-x", "0.1", "--theta-y", "0.2")
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("field, value, fragment", [
        ("n_star", 5, "'n_star' is 5, but the margins give 121"),
        ("k_lower", 999, "'k_lower' is 999, but the margins give 18"),
        ("n_star", True, "'n_star' must be an integer, not True"),
    ])
    def test_design_pooled_fields_match_margins(self, design_file, tmp_path, capsys,
                                                field, value, fragment):
        doc = json.loads(Path(design_file).read_text())
        doc[field] = value
        bad = tmp_path / "design.json"
        bad.write_text(json.dumps(doc))
        code, out = run_cli("power", "--design", str(bad),
                            "--theta-x", "0.1", "--theta-y", "0.2")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: design document: field {fragment}\n"

    @pytest.mark.parametrize("side, field, value, fragment", [
        ("x", "theta0", 0.5, "need 0 < theta0 < theta1 < 1"),
        ("y", "k_star", 500, "need 0 <= k_star < n_star"),
    ])
    def test_design_margin_names_side(self, design_file, tmp_path, capsys,
                                      side, field, value, fragment):
        doc = json.loads(Path(design_file).read_text())
        doc[side][field] = value
        bad = tmp_path / "design.json"
        bad.write_text(json.dumps(doc))
        code, out = run_cli("power", "--design", str(bad),
                            "--theta-x", "0.1", "--theta-y", "0.2")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == \
            f"error: design document: field '{side}': {fragment}\n"

    _SIMULATE = ("simulate", "--design", "DESIGN", "--theta-x", "0.1", "--theta-y", "0.2",
                 "--reps", "20")

    @pytest.mark.parametrize("argv, message", [
        ((*_SIMULATE, "--seed", "-1"), "--seed must be >= 0, got -1"),
        ((*_SIMULATE[:-1], "0", "--seed", "1"), "--reps must be >= 1, got 0"),
        ((*_SIMULATE, "--seed", "1", "--emit-streams", "streams", "--max-stream-files", "-1"),
         "--max-stream-files must be >= 0, got -1"),
        (("export-grid", "--design", "DESIGN", "--theta-x-min", "0.1", "--theta-x-max", "0.3",
          "--theta-y-min", "0.1", "--theta-y-max", "0.3", "--steps", "-3"),
         "--steps must be >= 0, got -3"),
        (("analyze", "--counts", "63", "18", "11", "25", "--emit-ellipse-points", "-5",
          "--ellipse-file", "ellipse.csv"), "--emit-ellipse-points must be >= 0, got -5"),
        (("power", "--design", "DESIGN", "--theta-x", "0.1", "--theta-y", "0.2",
          "--rho", "nan"), "correlation rho is not a number"),
        ((*_SIMULATE[:-2], "--rho", "nan", "--reps", "20", "--seed", "1"),
         "correlation rho is not a number"),
        (("export-grid", "--design", "DESIGN", "--rho", "nan", "--theta-x-min", "0.1",
          "--theta-x-max", "0.3", "--theta-y-min", "0.1", "--theta-y-max", "0.3"),
         "correlation rho is not a number"),
        (("analyze", "--counts", "0", "0", "0", "0"), "the table is empty: all four counts are 0"),
    ], ids=["seed", "reps", "max-stream-files", "steps", "emit-ellipse-points", "power-rho-nan",
            "simulate-rho-nan", "export-grid-rho-nan", "analyze-empty-table"])
    def test_negative_integer_flag_named(self, design_file, tmp_path, monkeypatch, capsys,
                                         argv, message):
        """A seed or count out of range, a correlation that is not a number or an
        empty table exits 2 with a line that names it, and writes no file."""
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(*(design_file if a == "DESIGN" else a for a in argv))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_exact_refine_walk_is_bounded(self, capsys):
        # the walk would take about 590 000 steps to reach N near 9.5e11
        start = time.perf_counter()
        code, out = run_cli("design", "--alpha", "0.05", "--beta", "0.1",
                            "--theta-x0", "0.1", "--theta-x1", "0.100001",
                            "--theta-y0", "0.1", "--theta-y1", "0.2", "--exact-refine")
        assert (code, out) == (2, "")
        assert time.perf_counter() - start < 5.0
        assert "sample sizes from N = " in capsys.readouterr().err

    def test_memory_error_exits_2(self, design_file, monkeypatch):
        # a design with n* near 1e12 asks the engines for terabytes; the
        # engine is faked so that nothing is allocated for real
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 7.94 TiB")
        monkeypatch.setattr(exact_engine, "power_exact", out_of_memory)
        assert _main_exit("power", "--design", design_file, "--theta-x", "0.1",
                          "--theta-y", "0.2") == (2, "", "error: Unable to allocate 7.94 TiB\n")

    def test_monitor_event_indicator_names_line(self, design_file, tmp_path, capsys):
        state = tmp_path / "state.json"
        events = tmp_path / "ev.jsonl"
        events.write_text(json.dumps({"seq": 1, "x": 2, "y": 0}) + "\n")
        code, out = run_cli("monitor", "--design", design_file,
                            "--state", str(state), "--input", str(events))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == \
            "error: event line 1: event indicators must be 0 or 1\n"
        assert json.loads(state.read_text())["last_seq"] == 0

    def test_monitor_step_errors_name_line(self, design_file, tmp_path, capsys):
        state = tmp_path / "state.json"
        events = tmp_path / "ev.jsonl"
        events.write_text("".join(json.dumps({"seq": s, "x": 0, "y": 0}) + "\n"
                                  for s in (1, 3)))
        code, out = run_cli("monitor", "--design", design_file,
                            "--state", str(state), "--input", str(events))
        assert code == 2
        assert [json.loads(line)["seq"] for line in out.splitlines()] == [1]
        assert capsys.readouterr().err == "error: event line 2: expected seq 2, got 3\n"
        assert json.loads(state.read_text())["last_seq"] == 1
        # the error keeps its type; a closed monitor names the line too
        args = argparse.Namespace(design=design_file, state=str(state), input=str(events))
        with pytest.raises(SequencingError, match=r"^event line 1: expected seq 2, got 1$"):
            _cmd_monitor(args, io.StringIO())
        events.write_text("".join(json.dumps({"seq": s, "x": 1, "y": 1}) + "\n"
                                  for s in range(2, 40)))
        assert run_cli("monitor", "--design", design_file, "--state", str(state),
                       "--input", str(events))[0] == 0
        with pytest.raises(MonitorStateError, match=r"^event line 1: monitor is closed"):
            _cmd_monitor(args, io.StringIO())

    def test_monitor_event_missing_keys(self, design_file, tmp_path, capsys):
        events = tmp_path / "ev.jsonl"
        events.write_text(json.dumps({"seq": 1}) + "\n")
        code, _ = run_cli("monitor", "--design", design_file,
                          "--state", str(tmp_path / "state.json"),
                          "--input", str(events))
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_monitor_malformed_json_line(self, design_file, tmp_path, capsys):
        state = tmp_path / "state.json"
        events = tmp_path / "ev.jsonl"
        events.write_text(json.dumps({"seq": 1, "x": 0, "y": 1}) + "\nnot json\n")
        code, out = run_cli("monitor", "--design", design_file,
                            "--state", str(state), "--input", str(events))
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert len(out.splitlines()) == 1
        assert json.loads(state.read_text())["last_seq"] == 1

    @pytest.mark.parametrize("doc, fragment", [
        ({"theta_x": 0.1, "rho": 0.1}, "lacks the field 'theta_y'"),
        ([0.1, 0.2, 0.1], "must be a JSON object"),
    ])
    def test_params_document(self, design_file, tmp_path, capsys, doc, fragment):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(doc))
        code, _ = run_cli("power", "--design", design_file, "--params", str(pfile))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: params file") and fragment in err

    @pytest.mark.parametrize("doc, fragment", [
        ({"n00": 63, "n10": 18, "n11": 25}, "lacks the field 'n01'"),
        ([63, 18, 11, 25], "must be a JSON object"),
        ({"n00": 5.5, "n10": 18, "n01": 11, "n11": 25}, "'n00' must be an integer"),
    ])
    def test_table_document(self, tmp_path, capsys, doc, fragment):
        table = tmp_path / "table.json"
        table.write_text(json.dumps(doc))
        code, out = run_cli("analyze", "--table", str(table))
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: table file") and fragment in err

    @pytest.mark.parametrize("event, fragment", [
        ({"seq": 1.7, "x": 0, "y": 0}, "'seq' must be an integer"),
        ({"seq": 1, "x": True, "y": 0}, "'x' must be an integer"),
    ])
    def test_monitor_event_field_types(self, design_file, tmp_path, capsys,
                                       event, fragment):
        events = tmp_path / "ev.jsonl"
        events.write_text(json.dumps(event) + "\n")
        code, out = run_cli("monitor", "--design", design_file,
                            "--state", str(tmp_path / "state.json"),
                            "--input", str(events))
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: event") and fragment in err

    @pytest.mark.parametrize("command", ["power", "asn", "pmf"])
    def test_design_integer_fields(self, design_file, tmp_path, capsys, command):
        doc = json.loads(Path(design_file).read_text())
        doc["x"]["n_star"] = float(doc["x"]["n_star"])
        bad = tmp_path / "design.json"
        bad.write_text(json.dumps(doc))
        code, _ = run_cli(command, "--design", str(bad),
                          "--theta-x", "0.1", "--theta-y", "0.2")
        assert code == 2
        assert "'x.n_star' must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("side, field, value", [
        ("x", "alpha_tilde", "abc"), ("y", "beta", None),
        ("x", "beta", True), ("y", "alpha_tilde", 0.7),
    ])
    @pytest.mark.parametrize("command", ["power", "monitor"])
    def test_design_error_targets(self, design_file, tmp_path, capsys,
                                  command, side, field, value):
        doc = json.loads(Path(design_file).read_text())
        doc[side][field] = value
        bad = tmp_path / "design.json"
        bad.write_text(json.dumps(doc))
        events = tmp_path / "ev.jsonl"
        events.write_text(json.dumps({"seq": 1, "x": 0, "y": 0}) + "\n")
        argv = {"power": ("--theta-x", "0.1", "--theta-y", "0.2"),
                "monitor": ("--state", str(tmp_path / "state.json"),
                            "--input", str(events))}[command]
        code, out = run_cli(command, "--design", str(bad), *argv)
        assert (code, out) == (2, "")
        # a wrong type is the field checker's, a range the margin rule's
        assert re.search(rf"field '{side}(\.{field}' must be a number|': {field} must lie "
                         rf"in \(0, 0\.5\))", capsys.readouterr().err)
        assert not (tmp_path / "state.json").exists()

    @pytest.mark.parametrize("document", ["design", "params", "table", "state", "event"])
    def test_deeply_nested_json(self, design_file, tmp_path, capsys, document):
        deep = "[" * 100_000 + "]" * 100_000 + "\n"
        path = tmp_path / "deep.json"
        path.write_text(deep)
        argv = {"design": ("power", "--design", str(path), "--theta-x", "0.1", "--theta-y", "0.2"),
                "params": ("power", "--design", design_file, "--params", str(path)),
                "table": ("analyze", "--table", str(path)),
                "state": ("monitor", "--design", design_file, "--state", str(path),
                          "--input", os.devnull),
                "event": ("monitor", "--design", design_file,
                          "--state", str(tmp_path / "state.json"), "--input", str(path))}
        code, out = run_cli(*argv[document])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith(f"error: {document}")
        assert path.read_text() == deep

    @pytest.mark.parametrize("field, value", [
        ("version", True), ("last_seq", 2.0), ("n00", 2.0),
    ])
    def test_rejected_state_file_unchanged(self, design_file, tmp_path, capsys,
                                           field, value):
        state = tmp_path / "state.json"
        events = tmp_path / "ev.jsonl"
        events.write_text("".join(json.dumps({"seq": s, "x": 0, "y": 0}) + "\n"
                                  for s in (1, 2)))
        assert run_cli("monitor", "--design", design_file, "--state", str(state),
                       "--input", str(events))[0] == 0
        doc = json.loads(state.read_text())
        (doc["counts"] if field == "n00" else doc)[field] = value
        state.write_text(json.dumps(doc, indent=2))
        before = state.read_bytes()
        events.write_text(json.dumps({"seq": 3, "x": 1, "y": 0}) + "\n")
        code, out = run_cli("monitor", "--design", design_file, "--state", str(state),
                            "--input", str(events))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("error: corrupt state document")
        assert state.read_bytes() == before

    def test_monitor_refuses_unreachable_corner_state(self, design, design_file, tmp_path,
                                                     capsys):
        """Both margins past their critical values with N11 = 0: the test
        would have stopped at the first crossing."""
        state = tmp_path / "state.json"
        state.write_text(json.dumps(state_save(MonitorState(
            design, LatticeCounts(0, design.k_x + 1, design.k_y + 1, 0)))))
        before = state.read_bytes()
        events = tmp_path / "ev.jsonl"
        events.write_text("")
        code, out = run_cli("monitor", "--design", design_file, "--state", str(state),
                            "--input", str(events))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == \
            "error: counts are not a table the stopping rule can reach\n"
        assert state.read_bytes() == before

    def test_monitor_unwritable_state_prints_nothing(self, design_file, tmp_path, capsys):
        events = tmp_path / "ev.jsonl"
        events.write_text("".join(json.dumps({"seq": s, "x": 0, "y": 0}) + "\n"
                                  for s in (1, 2)))
        state = tmp_path / "missing" / "state.json"
        code, out = run_cli("monitor", "--design", design_file, "--state", str(state),
                            "--input", str(events))
        assert (code, out) == (3, "")
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "Traceback" not in err
        assert not state.parent.exists()

    def test_missing_design_file(self):
        code, _ = run_cli("power", "--design", "/nonexistent/d.json",
                          "--theta-x", "0.1", "--theta-y", "0.2")
        assert code == 3

    def test_quiet_suppresses_error_message(self, design_file, capsys):
        code, _ = run_cli("--quiet", "power", "--design", design_file,
                          "--theta-x", "0.05", "--theta-y", "0.1",
                          "--rho", "-0.1")
        assert code == 2
        assert capsys.readouterr().err == ""

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bivarseq.cli_monitor", "design",
             "--alpha", "0.05", "--beta", "0.1",
             "--theta-x0", "0.05", "--theta-x1", "0.1",
             "--theta-y0", "0.1", "--theta-y1", "0.2"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["n_star"] == 121

    def test_package_runs_as_a_module_without_warnings(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bivarseq", "design",
             "--alpha", "0.05", "--beta", "0.1",
             "--theta-x0", "0.05", "--theta-x1", "0.1",
             "--theta-y0", "0.1", "--theta-y1", "0.2"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["n_star"] == 121


_MARGINS = ("--design", "design.json", "--theta-x", "0.1", "--theta-y", "0.2", "--rho", "0.1")
_MONITOR = ("monitor", "--design", "design.json", "--state", "state.json", "--input")
# (argv, exit code, SHA-256 of stdout, SHA-256 of state.json after the run or
# None); the runs go in this order in one directory, the first one's stdout
# becoming design.json
_CLI_GOLDEN = [
    (("design", "--alpha", "0.05", "--beta", "0.1", "--theta-x0", "0.05", "--theta-x1", "0.1",
      "--theta-y0", "0.1", "--theta-y1", "0.2"), 0,
     "61754d446aaf777234df7dcd99d8841992716ef1c6da7e4e16b5e349968764f1",
     None),
    (("design", "--alpha", "0.05", "--beta", "0.1", "--theta-x0", "0.05", "--theta-x1", "0.1",
      "--theta-y0", "0.1", "--theta-y1", "0.2", "--exact-refine"), 0,
     "ad80bd88d72a08863914f853dbc490b360de853c580198ee61fb9d78d15e5540",
     None),
    (("power", *_MARGINS, "--method", "exact"), 0,
     "f10708b31da365e2b02a4eac060596b234912e7e7076c613acb49239851c5c50",
     None),
    (("power", *_MARGINS, "--method", "asymptotic"), 0,
     "c77bf76a304f0185c1cbf07e8bdd67da2c4b2370eef52e8b8675defa219b4579",
     None),
    (("power", *_MARGINS, "--method", "gut"), 0,
     "4b3d2f2c1c941fe5b22fe202bc8e05bedd859f433050a82704760c2272ad4b84",
     None),
    (("asn", *_MARGINS, "--method", "exact"), 0,
     "f1309129b5a4c9481b8fb4629b1d3b87fe0f90230885d10e241606cf81633603",
     None),
    (("asn", *_MARGINS, "--method", "asymptotic"), 0,
     "a8a83341b5f1dadeea55c8774f741af3de3fc953b30e264c1877e62742d0837d",
     None),
    (("pmf", *_MARGINS, "--method", "exact"), 0,
     "ef6ffdc06bb0d44febbdbfb21e98a1969fe148fc13d9dfc8343c389af83110de",
     None),
    (("pmf", *_MARGINS, "--method", "asymptotic"), 0,
     "727c59d2c0e7c125f162d1a7b579866bac52e74964f80ad8fd16d5545c262a7a",
     None),
    (("export-grid", "--design", "design.json", "--rho", "0.1", "--theta-x-min", "0.04",
      "--theta-x-max", "0.12", "--theta-y-min", "0.08", "--theta-y-max", "0.22",
      "--steps", "3"), 0,
     "27347741c770f4de98ab91bfbfa262a134737d20b2c54bc17e564eb7577c0d99",
     None),
    (("simulate", *_MARGINS, "--reps", "200", "--seed", "7"), 0,
     "22ed01acb49da2e2a300eac50a1de6ceeba21016a9dd889ba0d75cc3fe9fb7aa",
     None),
    (("analyze", "--counts", "63", "18", "11", "25"), 0,
     "580f4b1242eb383202ab60633e192022bf2c589d3bf84f3b1ed877dc944b3658",
     None),
    ((*_MONITOR, "a.jsonl"), 0,
     "92cc75ee4164c0f7512f1b3190fdff99cd2bfd1babb6fd7a5bfe981a3758f8cd",
     "132cfa16c76b4792750becb2cebc0e4e7f069360221b94fd2ea56476315b3114"),
    ((*_MONITOR, "b.jsonl"), 0,
     "0c851dc0fc8c2539f7840e3e9ef9883f554d10c5a830bd79afd5158cbf69e78f",
     "8f339d5226af031a7859b74c28ede9996cfdad15c26ba6b8faef73a0f485af98"),
]


def test_cli_golden(tmp_path, monkeypatch):
    """Stdout, exit code and state file of a fixed CLI session are
    byte-identical to the pinned ones."""
    monkeypatch.chdir(tmp_path)
    events = [json.dumps({"seq": i, "x": int(i % 7 == 0), "y": int(i % 4 == 0)}) + "\n"
              for i in range(1, 122)]
    Path("a.jsonl").write_text("".join(events[:40]))
    Path("b.jsonl").write_text("".join(events[40:]))
    digest = lambda data: hashlib.sha256(data.encode()).hexdigest()
    seen = []
    for argv, *_ in _CLI_GOLDEN:
        code, out = run_cli(*argv)
        if not Path("design.json").exists():
            Path("design.json").write_text(out)
        state = Path("state.json")
        seen.append((argv, code, digest(out), digest(state.read_text()) if state.exists()
                     else None))
    assert seen == [tuple(case) for case in _CLI_GOLDEN]


def _fresh_python(script, *args):
    """Stdout of ``script`` run in a new interpreter with ``args`` as sys.argv[1:]."""
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, check=True).stdout


class TestStartup:
    """Importing scipy.special is about half of a fresh process's start.  The
    monitor, Monte Carlo, the whole exact engine, design sizing and analysis
    call none of it, so they start without it; only ``design
    --exact-refine`` (the incomplete beta) and the asymptotic methods (the
    normal cdf) load it."""

    _MARGINS = "'--design', sys.argv[1], '--theta-x', '0.1', '--theta-y', '0.2', '--rho', '0.1'"
    _ASN = f"'asn', {_MARGINS}"

    def test_monitor_and_simulate_leave_scipy_unloaded(self, design_file, tmp_path):
        events = tmp_path / "ev.jsonl"
        events.write_text("".join(json.dumps({"seq": i + 1, "x": i % 2, "y": 1}) + "\n"
                                  for i in range(30)))
        script = f"""
import io, sys
from bivarseq.cli_monitor import main
assert main(['monitor', '--design', sys.argv[1], '--state', sys.argv[2],
             '--input', sys.argv[3]], out=io.StringIO()) == 0
assert main(['simulate', '--design', sys.argv[1], '--theta-x', '0.1', '--theta-y', '0.2',
             '--reps', '50', '--seed', '3'], out=io.StringIO()) == 0
assert main(['power', {self._MARGINS}], out=io.StringIO()) == 0
assert main(['pmf', {self._MARGINS}], out=io.StringIO()) == 0
print('scipy' in sys.modules)
out = io.StringIO()
assert main([{self._ASN}], out=out) == 0
print('scipy' in sys.modules)
print(out.getvalue(), end='')
"""
        lines = _fresh_python(script, design_file, str(tmp_path / "state.json"),
                              str(events)).splitlines()
        assert lines[:2] == ["False", "False"]
        # asn prints what it prints when scipy came first
        eager = _fresh_python(f"""
import sys
import scipy.special
from bivarseq.cli_monitor import main
main([{self._ASN}])
""", design_file)
        assert "\n".join(lines[2:]) + "\n" == eager
        assert json.loads(eager)["method"] == "exact"

    _SIZING = ("'design', '--alpha', '0.05', '--beta', '0.1', '--theta-x0', '0.05', "
               "'--theta-x1', '0.1', '--theta-y0', '0.1', '--theta-y1', '0.2'")

    def test_design_and_analyze_leave_scipy_unloaded(self):
        script = f"""
import io, sys
from bivarseq.cli_monitor import main
out = io.StringIO()
assert main([{self._SIZING}], out=out) == 0
assert main([{self._SIZING}, '--rounding', 'floor'], out=out) == 0
assert main(['analyze', '--counts', '50', '10', '20', '5'], out=out) == 0
assert main(['analyze', '--counts', '80', '3', '9', '2', '--level', '0.9'], out=out) == 0
print('scipy' in sys.modules)
print(out.getvalue(), end='')
"""
        lazy = _fresh_python(script).split("\n", 1)
        assert lazy[0] == "False"
        # the same bytes as when scipy came first
        eager = _fresh_python("import scipy.special\n" + script).split("\n", 1)
        assert eager[0] == "True"
        assert lazy[1] == eager[1]

    def test_scipy_routes_still_run(self, design_file):
        loaded = _fresh_python(f"""
import io, sys
from bivarseq.cli_monitor import main
assert main([{self._SIZING}, '--exact-refine'], out=io.StringIO()) == 0
print('scipy' in sys.modules)
assert main(['power', {self._MARGINS}, '--method', 'asymptotic'], out=io.StringIO()) == 0
print('scipy' in sys.modules)
""", design_file)
        assert loaded == "True\nTrue\n"

    def test_exact_engine_leaves_scipy_unloaded(self):
        loaded = _fresh_python("""
import sys
from bivarseq import MarginalDesign, combine, exact_engine as ee, make_params
design = combine(MarginalDesign(0.025, 0.1, 0.05, 0.1, 263, 19),
                 MarginalDesign(0.025, 0.1, 0.1, 0.2, 121, 18))
for rho in (-0.05, 0.0, 0.1):
    params = make_params(0.1, 0.2, rho)
    ee.power_exact(design, params)
    ee.stopping_pmf_exact(design, params)
    ee.asn_exact(design, params)
    ee.variance_cv(design, params)
    ee.asn_bounds(design, params)
    ee.estimator_expectation_exact(design, params, 'x')
    ee.estimator_expectation_exact(design, params, 'y')
print('scipy' in sys.modules)
""")
        assert loaded == "False\n"

    # the benchmark's tracer wraps the public functions of these modules
    _LAYERS = ("special_functions", "params", "design", "exact_engine",
               "asymptotic_engine", "simulator", "inference", "cli_monitor")

    def test_import_loads_every_layer(self):
        # the tracer finds the layer modules in sys.modules once the benchmark's
        # workloads have imported the CLI module
        loaded = _fresh_python("import sys, bivarseq; from bivarseq import cli_monitor; "
                               "print(' '.join(sorted(sys.modules)))")
        assert {f"bivarseq.{layer}" for layer in self._LAYERS} <= set(loaded.split())

    def test_import_leaves_cli_and_quadrature_modules_unloaded(self):
        """The Gauss-Legendre table is built on the first bivariate normal
        cdf, and the package does not import the CLI module, whose argparse,
        csv and hashlib are imported where they are used, so a library import
        loads none of them, nor json or scipy."""
        loaded = set(_fresh_python(
            "import sys, bivarseq; print(' '.join(sorted(sys.modules)))").split())
        assert not loaded & {"bivarseq.cli_monitor", "json", "numpy.polynomial", "hashlib",
                             "argparse", "csv", "scipy"}
        assert _fresh_python("""
import sys
from bivarseq import bvn_cdf
bvn_cdf(0.1, 0.2, 0.3)
print('numpy.polynomial' in sys.modules)
""") == "True\n"

    def test_benchmark_names_existing_functions(self):
        """``perfbench/run.py --trace 1`` reads every per-layer metric that
        BENCHMARK.json lists, and the exact-report gate calls
        ``bivarseq.lattice_forward_dp``: deleting a function named there
        breaks the benchmark."""
        import bivarseq
        spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
        named = set()
        for metric in spec["per_layer"]:
            layer, *function, stat = metric["name"].split(".")
            if layer in self._LAYERS and len(function) == 1 and stat in ("calls", "self_s"):
                named.add((layer, function[0]))
        assert ("exact_engine", "lattice_forward_dp") in named
        for layer, function in sorted(named):
            obj = getattr(import_module(f"bivarseq.{layer}"), function, None)
            assert not function.startswith("_") and inspect.isfunction(obj) \
                and obj.__module__ == f"bivarseq.{layer}", f"{layer}.{function}"
        assert inspect.isfunction(bivarseq.lattice_forward_dp)


# each module of the package may import only modules before it in this order
_LAYER_ORDER = ("errors", "special_functions", "params", "design", "exact_engine",
                "asymptotic_engine", "inference", "simulator", "cli_monitor")


def _relative_imports(layer):
    """(line, module) of each relative import of a layer, at module or
    function level."""
    path = Path(__file__).resolve().parents[1] / "src" / "bivarseq" / f"{layer}.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            for name in [node.module] if node.module else [a.name for a in node.names]:
                yield node.lineno, name


def test_layers_import_only_earlier_layers():
    """No relative import, at module or function level, reaches up the
    layer order."""
    upward = [f"{layer}.py:{line} imports {name}"
              for rank, layer in enumerate(_LAYER_ORDER)
              for line, name in _relative_imports(layer) if name in _LAYER_ORDER[rank + 1:]]
    assert not upward


def test_engines_are_peers():
    """The terminal table and the stopping law are types of ``design``, so
    the asymptotic engine, inference and the simulator import nothing from
    the exact engine."""
    reaching = [f"{layer}.py:{line}" for layer in ("asymptotic_engine", "inference", "simulator")
                for line, name in _relative_imports(layer) if name == "exact_engine"]
    assert not reaching


_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 200)
                 | st.floats(allow_nan=True, allow_infinity=True)
                 | st.floats(0.0, 1.0) | st.text(max_size=4))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


def _documents(plausible: dict):
    """Arbitrary JSON values, objects holding any subset of the fields with
    arbitrary values, and objects holding every field with a plausible value."""
    return (_JSON_VALUES
            | st.fixed_dictionaries({}, optional=dict.fromkeys(plausible, _JSON_VALUES))
            | st.fixed_dictionaries(plausible))


def _main_exit(*argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(list(argv), out=out)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(params=_documents({"theta_x": st.floats(-0.1, 1.1), "theta_y": st.floats(-0.1, 1.1),
                          "rho": st.floats(-1.1, 1.1)}),
       table=_documents(dict.fromkeys(("n00", "n10", "n01", "n11"), st.integers(-1, 40))),
       events=st.lists(_documents({"seq": st.integers(1, 2), "x": st.integers(0, 2),
                                   "y": st.integers(0, 2)}), min_size=1, max_size=4),
       raw=st.fixed_dictionaries({}, optional=dict.fromkeys(("design", "params", "table"),
                                                            st.binary(max_size=40))))
def test_fuzz_input_documents(params, table, events, raw):
    """Whatever JSON the params, table and event documents hold, and whatever
    bytes ``raw`` puts in the design, params and table files, the CLI answers
    or exits 2 with a message, never with a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "design.json").write_text(json.dumps(make_design(20, 3, 2).to_dict()))
        (tmp / "params.json").write_text(json.dumps(params))
        (tmp / "table.json").write_text(json.dumps(table))
        (tmp / "ev.jsonl").write_text("".join(json.dumps(e) + "\n" for e in events))
        for name, data in raw.items():
            (tmp / f"{name}.json").write_bytes(data)
        for argv in (("power", "--design", str(tmp / "design.json"),
                      "--params", str(tmp / "params.json")),
                     ("analyze", "--table", str(tmp / "table.json")),
                     ("monitor", "--design", str(tmp / "design.json"),
                      "--state", str(tmp / "state.json"), "--input", str(tmp / "ev.jsonl"))):
            code, _, err = _main_exit(*argv)
            assert code in (0, 2), (argv[0], code, err)
            assert "Traceback" not in err
            assert code == 0 or err.startswith("error:")


_DESIGN_FIELDS = [(side, f) for side in ("x", "y")
                  for f in ("alpha_tilde", "beta", "theta0", "theta1", "n_star", "k_star")] \
    + [("x",), ("y",), ("n_star",), ("k_lower",)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(edits=st.dictionaries(st.sampled_from(_DESIGN_FIELDS), _JSON_VALUES | st.integers(0, 8),
                             max_size=3),
       cells=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=8),
       split=st.integers(0, 8))
def test_fuzz_design_documents(edits, cells, split):
    """Whatever JSON the fields of a design document hold, ``monitor`` answers
    or exits 2 with a message, and the state file it leaves loads and holds
    the counts of the last decision record written.  The events go in two
    batches, so the second run resumes from the saved state."""
    doc = make_design(6, 2, 1).to_dict()
    for *parents, leaf in edits:
        target = doc
        for key in parents:
            target = target[key] if isinstance(target, dict) else None
        if isinstance(target, dict):
            target[leaf] = edits[(*parents, leaf)]
    events = [json.dumps({"seq": i + 1, "x": x, "y": y}) + "\n"
              for i, (x, y) in enumerate(cells)]
    last = {"seq": 0, "s_x": 0, "s_y": 0, "status": "open"}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "design.json").write_text(json.dumps(doc))
        for batch in (events[:split], events[split:]):
            (tmp / "ev.jsonl").write_text("".join(batch))
            code, out, err = _main_exit("monitor", "--design", str(tmp / "design.json"),
                                        "--state", str(tmp / "state.json"),
                                        "--input", str(tmp / "ev.jsonl"))
            assert code in (0, 2), (code, err)
            assert "Traceback" not in err
            assert code == 0 or err.startswith("error:")
            for line in out.splitlines():
                last = json.loads(line)
            if (tmp / "state.json").exists():
                state = state_load(json.loads((tmp / "state.json").read_text()))
                c = state.counts
                assert (state.last_seq, c.s_x, c.s_y, state.status) == \
                    (last["seq"], last["s_x"], last["s_y"], last["status"])


_STATE_FIELDS = [("version",), ("last_seq",), ("status",), ("design_hash",)] \
    + [("counts", c) for c in ("n00", "n10", "n01", "n11")]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(edits=st.dictionaries(st.sampled_from(_STATE_FIELDS),
                             _JSON_VALUES | st.integers(0, 6)
                             # the saved values (1, 3 and 0) as floats or booleans
                             | st.sampled_from([False, True, 0.0, 1.0, 3.0])
                             | st.sampled_from(["open", "exhausted", "rejected_x"]),
                             max_size=3),
       cell=st.tuples(st.integers(0, 1), st.integers(0, 1)))
def test_fuzz_state_documents(edits, cell):
    """Whatever JSON the fields of a saved mid-stream state hold, ``monitor``
    answers the next event or exits 2 with a message.  A state file it
    writes loads, holds integer counts and last_seq, and matches the record
    written, or the state it resumed from when it wrote none."""
    with tempfile.TemporaryDirectory() as tmp:
        design, state, events = (str(Path(tmp) / name)
                                 for name in ("design.json", "state.json", "ev.jsonl"))
        argv = ("monitor", "--design", design, "--state", state, "--input", events)
        Path(design).write_text(json.dumps(make_design(10, 3, 3).to_dict()))
        Path(events).write_text("".join(json.dumps({"seq": i + 1, "x": x, "y": y}) + "\n"
                                        for i, (x, y) in enumerate([(0, 0), (1, 0), (0, 1)])))
        assert _main_exit(*argv)[0] == 0
        doc = json.loads(Path(state).read_text())
        for *parents, leaf in edits:
            (doc[parents[0]] if parents else doc)[leaf] = edits[(*parents, leaf)]
        Path(state).write_text(json.dumps(doc, indent=2))
        before = Path(state).read_bytes()
        Path(events).write_text(json.dumps({"seq": 4, "x": cell[0], "y": cell[1]}) + "\n")
        code, out, err = _main_exit(*argv)
        assert code in (0, 2), (code, err)
        assert "Traceback" not in err
        assert code == 0 or err.startswith("error:")
        after = Path(state).read_bytes()
        if code == 0 or after != before:
            saved = json.loads(after)
            assert all(type(v) is int for v in (saved["last_seq"], *saved["counts"].values()))
            loaded = state_load(saved)
            if code == 0:
                record = json.loads(out)
                c = loaded.counts
                assert (loaded.last_seq, c.s_x, c.s_y, loaded.status) == \
                    (record["seq"], record["s_x"], record["s_y"], record["status"])
            else:
                assert loaded == state_load(json.loads(before))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.binary(max_size=40) | _JSON_VALUES.map(lambda v: json.dumps(v).encode()),
       target=st.sampled_from(["design", "params", "table"]),
       fault=st.sampled_from(["none", "path is a directory", "missing path"]))
def test_fuzz_evaluation_io_faults(data, target, fault):
    """Whatever bytes the design, params or table file holds, and whether
    that path is a directory or missing, ``power``, ``pmf``, ``asn``,
    ``simulate``, ``export-grid`` and ``analyze --table`` exit 0, 2 or 3 with
    a message and no traceback; a fault of a path the command reads exits 3."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {name: tmp / f"{name}.json" for name in ("design", "params", "table")}
        files["design"].write_text(json.dumps(make_design(20, 3, 2).to_dict()))
        files["params"].write_text(json.dumps({"theta_x": 0.2, "theta_y": 0.3, "rho": 0.1}))
        files["table"].write_text(json.dumps({"n00": 9, "n10": 3, "n01": 2, "n11": 1}))
        files[target].write_bytes(data)
        if fault == "path is a directory":
            files[target] = tmp
        elif fault == "missing path":
            files[target] = tmp / "absent.json"
        reads = {"power": ("design", "params"), "pmf": ("design", "params"),
                 "asn": ("design", "params"), "simulate": ("design", "params"),
                 "export-grid": ("design",), "analyze": ("table",)}
        margins = ("--design", str(files["design"]), "--params", str(files["params"]))
        for argv in (("power", *margins), ("pmf", *margins), ("asn", *margins),
                     ("simulate", *margins, "--reps", "5", "--seed", "1"),
                     ("export-grid", "--design", str(files["design"]), "--rho", "0.1",
                      "--theta-x-min", "0.1", "--theta-x-max", "0.3", "--theta-y-min", "0.1",
                      "--theta-y-max", "0.3", "--steps", "3"),
                     ("analyze", "--table", str(files["table"]))):
            code, _, err = _main_exit(*argv)
            assert code in (0, 2, 3), (argv[0], code, err)
            assert "Traceback" not in err
            assert code == 0 or err.startswith({2: "error:", 3: "i/o error:"}[code])
            if fault != "none" and target in reads[argv[0]]:
                assert code == 3, (argv[0], code, err)


# a run of valid events, then lines of arbitrary JSON documents or bytes
_EVENT_LINES = st.tuples(
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=4).map(
        lambda cells: [json.dumps({"seq": i + 1, "x": x, "y": y}).encode()
                       for i, (x, y) in enumerate(cells)]),
    st.lists(st.one_of(_documents({"seq": st.integers(1, 6), "x": st.integers(0, 2),
                                   "y": st.integers(0, 2)}).map(lambda d: json.dumps(d).encode()),
                       st.binary(max_size=12)), max_size=3),
).map(lambda parts: b"\n".join(parts[0] + parts[1]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(events=_EVENT_LINES,
       fault=st.sampled_from(["none", "state in a missing directory", "state is a directory",
                              "missing input"]))
def test_fuzz_monitor_io_faults(events, fault):
    """Whatever bytes the event file holds, and whether or not the state
    path and the input can be used, ``monitor`` exits 0, 2 or 3 with a
    message and no traceback; whenever it printed a record, the state file
    loads and its last_seq is that of the last record."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "design.json").write_text(json.dumps(make_design(8, 2, 1).to_dict()))
        (tmp / "ev.jsonl").write_bytes(events)
        state = {"state in a missing directory": tmp / "missing" / "state.json",
                 "state is a directory": tmp}.get(fault, tmp / "state.json")
        source = tmp / ("absent.jsonl" if fault == "missing input" else "ev.jsonl")
        code, out, err = _main_exit("monitor", "--design", str(tmp / "design.json"),
                                    "--state", str(state), "--input", str(source))
        assert code in (0, 2, 3), (code, err)
        assert "Traceback" not in err
        assert code == 0 or err.startswith({2: "error:", 3: "i/o error:"}[code])
        if fault != "none":
            assert code == 3
        records = out.splitlines()
        if records:
            saved = state_load(json.loads(state.read_text()))
            assert saved.last_seq == json.loads(records[-1])["seq"]
