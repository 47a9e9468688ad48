"""Operational surface: the resumable monitor state machine and the command
line interface.

The monitor wraps the sequential decision rule as an explicit state machine
so that surveillance can stop, persist its state as versioned JSON (with an
embedded design hash to prevent resuming under a different design), and pick
up exactly where it left off.  Events arriving after closure are rejected,
not ignored.  The ``monitor`` command saves its state after every batch,
also when a line fails, so the state file holds exactly the events whose
decision records were written; it writes a temporary file and renames it over
the old one.

Exit codes: 0 success, 2 domain errors (infeasible parameters, bad inputs,
malformed JSON), 3 I/O errors.
"""

from __future__ import annotations

# argparse, csv and hashlib are imported where they are used, so that
# ``import bivarseq`` does not load them
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, TextIO

import numpy as np

from . import asymptotic_engine, design as design_mod, exact_engine, inference
from .design import BivariateDesign, LatticeCounts, _flat_fields, _table_cells, combine
from .errors import BivarseqError, MonitorStateError, SequencingError
from .params import JointBernoulliParams, make_params
from .simulator import Event, monte_carlo, run_test, sample_stream

__all__ = ["MonitorState", "monitor_step", "state_save", "state_load", "main"]

_STATE_VERSION = 1
_OPEN = "open"


@dataclass(frozen=True)
class MonitorState:
    """A monitor's design and the running 2x2 table; the table's total is
    the sequence number of the last event and, through the stopping rule,
    gives the status."""

    design: BivariateDesign
    counts: LatticeCounts

    @classmethod
    def fresh(cls, design: BivariateDesign) -> "MonitorState":
        return cls(design=design, counts=LatticeCounts(0, 0, 0, 0))

    @property
    def last_seq(self) -> int:
        return self.counts.total

    @property
    def status(self) -> str:
        return _status(self.design, self.counts)[0]


def monitor_step(state: MonitorState, event: Event) -> tuple[MonitorState, dict]:
    """Feed one event through the stopping rule.

    Returns the successor state and an append-only decision record.  The
    record carries the running counts and thresholds, and a full post-test
    estimate once the state leaves ``open``.
    """
    if state.status != _OPEN:
        raise MonitorStateError(
            f"monitor is closed (status={state.status}); further events are invalid")
    if event.seq != state.last_seq + 1:
        raise SequencingError(
            f"expected seq {state.last_seq + 1}, got {event.seq}")

    c = state.counts
    counts = LatticeCounts(*_table_cells(event.seq, c.s_x + event.x, c.s_y + event.y,
                                         c.n11 + event.x * event.y))
    d = state.design
    status, decision = _status(d, counts)
    record = {
        "seq": event.seq,
        "s_x": counts.s_x,
        "s_y": counts.s_y,
        "k_x": d.k_x,
        "k_y": d.k_y,
        "n_star": d.n_star,
        "status": status,
        "decision": decision,
    }
    if status != _OPEN:
        record["m_star"] = event.seq
        record["estimate"] = inference.post_test_estimate(counts).to_dict()
    return MonitorState(d, counts), record


def _status(design: BivariateDesign, counts: LatticeCounts) -> tuple[str, str]:
    """(monitor status, decision) of the stopping rule at the table ``counts``."""
    decision, boundary = design.decide(counts.s_x, counts.s_y, counts.total)
    if decision == "reject":
        return f"rejected_{boundary}", decision
    return ("exhausted" if decision == "not_reject" else _OPEN), decision


def _design_hash(design: BivariateDesign) -> str:
    import hashlib
    payload = json.dumps(design.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def state_save(state: MonitorState) -> dict:
    """Lossless, versioned JSON document for a monitor state."""
    return {
        "version": _STATE_VERSION,
        "design": state.design.to_dict(),
        "design_hash": _design_hash(state.design),
        "counts": asdict(state.counts),
        "last_seq": state.last_seq,
        "status": state.status,
    }


_TABLE_FIELDS = dict.fromkeys(("n00", "n10", "n01", "n11"), int)
_STATE_FIELDS = {"version": int, "design_hash": str, "last_seq": int, "status": str,
                 "counts": _TABLE_FIELDS}


def state_load(doc: dict) -> MonitorState:
    """Parse and validate a saved state document."""
    try:
        version = _flat_fields(doc, "state", {"version": int})["version"]
        if version != _STATE_VERSION:
            raise MonitorStateError(f"unsupported state version {version!r}")
        fields = _flat_fields(doc, "state", _STATE_FIELDS)
        design = BivariateDesign.from_dict(doc["design"])
        if fields["design_hash"] != _design_hash(design):
            raise MonitorStateError("design hash mismatch: state was saved "
                                    "under a different design")
        state = MonitorState(design=design, counts=LatticeCounts(**fields["counts"]))
    except (KeyError, ValueError) as exc:
        if isinstance(exc, MonitorStateError):
            raise
        raise MonitorStateError(f"corrupt state document: {exc}") from exc
    # the document's last_seq and status must be the ones its counts give, and a
    # run reaches them: empty, or one event after a table the rule continues from
    c, last_seq = state.counts, fields["last_seq"]
    if c.total != last_seq:
        raise MonitorStateError(
            f"counts total {c.total} does not match last_seq {last_seq}")
    if c.total and not any(
            n > 0 and design.decide(c.s_x - x, c.s_y - y, c.total - 1)[0] == "continue"
            for n, x, y in ((c.n00, 0, 0), (c.n10, 1, 0), (c.n01, 0, 1), (c.n11, 1, 1))):
        raise MonitorStateError("counts are not a table the stopping rule can reach")
    if fields["status"] != state.status:
        raise MonitorStateError(
            f"status {fields['status']!r} inconsistent with counts "
            f"(expected {state.status!r})")
    return state


# ----------------------------------------------------------------------
# command line interface
# ----------------------------------------------------------------------

def _emit(result, fmt: str, out: TextIO) -> None:
    if fmt == "json":
        json.dump(result, out, indent=2)
        out.write("\n")
        return
    # csv: tables pass through, scalar dicts flatten to key,value rows
    import csv
    writer = csv.writer(out)
    if isinstance(result, dict) and "rows" in result and "columns" in result:
        writer.writerow(result["columns"])
        writer.writerows(result["rows"])
    else:
        for key, value in _flatten(result):
            writer.writerow([key, value])


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}.")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj


def _parse_json(data: bytes, what: str):
    """The one JSON parser of the command line: ``data`` as a JSON value.
    Bytes that are not UTF-8 or not JSON, or that nest deeper than the
    parser recurses, raise a ValueError naming the document ``what``."""
    try:
        return json.loads(data.decode())
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{what} is not valid JSON ({exc})") from None


def _load_design(path: str) -> BivariateDesign:
    return BivariateDesign.from_dict(_parse_json(Path(path).read_bytes(),
                                                 f"design file {path}"))


def _params_from_args(args) -> JointBernoulliParams:
    """Margins and correlation from flags, or from a flat JSON file
    {"theta_x": ..., "theta_y": ..., "rho": ...} given via --params."""
    if getattr(args, "params", None):
        what = f"params file {args.params}"
        doc = _parse_json(Path(args.params).read_bytes(), what)
        return make_params(**_flat_fields(doc, what, {"theta_x": float, "theta_y": float,
                                                      "rho": float}, {"rho": 0.0}))
    if args.theta_x is None or args.theta_y is None:
        raise ValueError("give --theta-x and --theta-y, or --params FILE")
    return make_params(args.theta_x, args.theta_y, args.rho)


def _cmd_design(args) -> dict:
    alpha_tilde = args.alpha / 2.0
    method = "exact-refine" if args.exact_refine else "approx"
    x = design_mod.design_marginal(alpha_tilde, args.beta, args.theta_x0,
                                   args.theta_x1, method=method,
                                   rounding=args.rounding)
    y = design_mod.design_marginal(alpha_tilde, args.beta, args.theta_y0,
                                   args.theta_y1, method=method,
                                   rounding=args.rounding)
    return combine(x, y).to_dict()


def _cmd_power(args) -> dict:
    design = _load_design(args.design)
    params = _params_from_args(args)
    if args.method == "exact":
        value = exact_engine.power_exact(design, params)
    elif args.method == "gut":
        value = asymptotic_engine.power_asymptotic(design, params, form="gut")
    else:
        value = asymptotic_engine.power_asymptotic(design, params,
                                                   form="curtailed-normal")
    return {"power": value, "method": args.method}


def _pmf_for(args, design: BivariateDesign, params: JointBernoulliParams):
    if args.method == "exact":
        return exact_engine.stopping_pmf_exact(design, params)
    return asymptotic_engine.stopping_pmf_asymptotic(design, params)


def _cmd_asn(args) -> dict:
    design = _load_design(args.design)
    params = _params_from_args(args)
    value, _ = _pmf_for(args, design, params).moments(design.n_star)
    lower, upper = exact_engine.asn_bounds(design, params)
    return {"asn": value, "method": args.method, "lower": lower, "upper": upper}


def _cmd_pmf(args) -> dict:
    pmf = _pmf_for(args, _load_design(args.design), _params_from_args(args))
    rows = [[int(m), float(px), float(py), float(pc)]
            for m, px, py, pc in zip(pmf.support, pmf.mass_x, pmf.mass_y,
                                     pmf.mass_corner)]
    return {"columns": ["m", "p_hit_x", "p_hit_y", "p_corner"], "rows": rows,
            "continue_mass": pmf.continue_mass}


def _cmd_export_grid(args) -> dict:
    design = _load_design(args.design)
    txs = np.linspace(args.theta_x_min, args.theta_x_max, args.steps)
    tys = np.linspace(args.theta_y_min, args.theta_y_max, args.steps)
    rows = []
    for tx in txs:
        for ty in tys:
            try:
                params = make_params(float(tx), float(ty), args.rho)
            except BivarseqError:
                continue
            if args.method == "exact":
                p = exact_engine.power_exact(design, params)
            else:
                p = asymptotic_engine.power_asymptotic(design, params)
            rows.append([float(tx), float(ty), float(p)])
    return {"columns": ["theta_x", "theta_y", "power"], "rows": rows}


def _cmd_simulate(args) -> dict:
    design = _load_design(args.design)
    params = _params_from_args(args)
    summary = monte_carlo(design, params, reps=args.reps, seed=args.seed,
                          level=args.level)
    if args.emit_streams:
        os.makedirs(args.emit_streams, exist_ok=True)
        for r in range(min(args.reps, args.max_stream_files)):
            events = list(sample_stream(params, args.seed, design.n_star, stream=r))
            outcome = run_test(design, iter(events))
            path = f"{args.emit_streams}/stream_{r:05d}.jsonl"
            with open(path, "w") as fh:
                for ev in events[: outcome.m_star]:
                    fh.write(json.dumps({"seq": ev.seq, "x": ev.x, "y": ev.y}) + "\n")
    return summary.to_dict()


def _cmd_analyze(args) -> dict:
    if args.table:
        what = f"table file {args.table}"
        doc = _parse_json(Path(args.table).read_bytes(), what)
        counts = LatticeCounts(**_flat_fields(doc, what, _TABLE_FIELDS))
    else:
        counts = LatticeCounts(*args.counts)
    est = inference.post_test_estimate(counts)
    result = {"estimate": est.to_dict(),
              "region": inference.confidence_region(est, args.level).to_dict()}
    if not est.singular:
        result["relative_risk"] = inference.relative_risk(est, args.level).to_dict()
        result["inverse_relative_risk"] = \
            inference.inverse_relative_risk(est, args.level).to_dict()
        if args.emit_ellipse_points:
            pts = inference.ellipse_points(est, args.level,
                                           args.emit_ellipse_points)
            import csv
            with open(args.ellipse_file, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["theta_x", "theta_y"])
                writer.writerows(pts.tolist())
            result["ellipse_file"] = args.ellipse_file
    return result


def _cmd_monitor(args, out: TextIO) -> int:
    design = _load_design(args.design)
    try:
        state = state_load(_parse_json(Path(args.state).read_bytes(),
                                       f"state file {args.state}"))
        if state.design != design:
            raise MonitorStateError("state file belongs to a different design")
    except FileNotFoundError:
        state = MonitorState.fresh(design)

    source = open(args.input, "rb") if args.input else sys.stdin.buffer
    try:
        # a state file that cannot be written fails before any record is printed
        _write_state(args.state, state)
        for number, line in enumerate(source, 1):
            if not line.strip():
                continue
            what = f"event line {number}"
            fields = _flat_fields(_parse_json(line, what), what,
                                  dict.fromkeys(("seq", "x", "y"), int))
            try:
                new_state, record = monitor_step(state, Event(**fields))
            except ValueError as exc:
                raise type(exc)(f"{what}: {exc}") from None
            out.write(json.dumps(record) + "\n")
            state = new_state
            if state.status != _OPEN:
                break
    finally:
        if args.input:
            source.close()
        _write_state(args.state, state)
    return 0


def _write_state(path: str, state: MonitorState) -> None:
    """Save ``state`` to ``path`` atomically: a temporary file renamed over it."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(state_save(state), fh, indent=2)
    os.replace(tmp, path)


def _build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="bivarseq",
        description="Curtailed sequential testing for two correlated binary "
                    "side effects: design, operating characteristics, "
                    "simulation, monitoring, post-detection inference.")
    parser.add_argument("--output", choices=("json", "csv"), default="json",
                        help="output format for results; monitor writes JSON "
                             "lines either way")
    parser.add_argument("--quiet", action="store_true",
                        help="omit the error: or i/o error: line of a failed "
                             "run; the exit code is unchanged")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="size the pooled two-margin design")
    p.add_argument("--alpha", type=float, required=True,
                   help="overall type I level; each margin gets alpha/2")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--theta-x0", type=float, required=True)
    p.add_argument("--theta-x1", type=float, required=True)
    p.add_argument("--theta-y0", type=float, required=True)
    p.add_argument("--theta-y1", type=float, required=True)
    p.add_argument("--rounding", choices=("nearest", "floor"), default="nearest")
    p.add_argument("--exact-refine", action="store_true",
                   help="refine (N, k) against the exact binomial constraints")

    def add_param_args(q):
        q.add_argument("--design", required=True, help="design JSON file")
        q.add_argument("--theta-x", type=float, default=None)
        q.add_argument("--theta-y", type=float, default=None)
        q.add_argument("--rho", type=float, default=0.0)
        q.add_argument("--params", default=None,
                       help="flat JSON file {theta_x, theta_y, rho}; "
                            "alternative to the three flags")

    p = sub.add_parser("power", help="rejection probability at given margins")
    add_param_args(p)
    p.add_argument("--method", choices=("exact", "asymptotic", "gut"),
                   default="exact")

    p = sub.add_parser("asn", help="expected terminal sample size and bounds")
    add_param_args(p)
    p.add_argument("--method", choices=("exact", "asymptotic"), default="exact")

    p = sub.add_parser("pmf", help="stopping-time distribution by boundary")
    add_param_args(p)
    p.add_argument("--method", choices=("exact", "asymptotic"), default="exact")

    p = sub.add_parser("export-grid", help="power surface over a margin grid")
    p.add_argument("--design", required=True)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--theta-x-min", type=float, required=True)
    p.add_argument("--theta-x-max", type=float, required=True)
    p.add_argument("--theta-y-min", type=float, required=True)
    p.add_argument("--theta-y-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=25)
    p.add_argument("--method", choices=("exact", "asymptotic"), default="exact")

    p = sub.add_parser("simulate", help="Monte Carlo operating characteristics")
    add_param_args(p)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--emit-streams", default=None,
                   help="directory for raw JSONL event streams")
    p.add_argument("--max-stream-files", type=int, default=100)

    p = sub.add_parser("analyze", help="post-detection estimates and intervals")
    p.add_argument("--counts", type=int, nargs=4, metavar=("N00", "N10", "N01", "N11"))
    p.add_argument("--table", help="JSON file with n00/n10/n01/n11")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--emit-ellipse-points", type=int, default=0, metavar="N")
    p.add_argument("--ellipse-file", default="ellipse_points.csv")

    p = sub.add_parser("monitor", help="resumable stop/continue monitoring")
    p.add_argument("--design", required=True)
    p.add_argument("--state", required=True, help="state JSON file (created if absent)")
    p.add_argument("--input", default=None,
                   help="JSONL event file; default reads standard input")
    return parser


_COMMANDS = {
    "design": _cmd_design,
    "power": _cmd_power,
    "asn": _cmd_asn,
    "pmf": _cmd_pmf,
    "export-grid": _cmd_export_grid,
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
}


def main(argv: Optional[list[str]] = None, out: TextIO = None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze" and not (args.table or args.counts):
        parser.error("analyze requires --counts or --table")
    try:
        for flag, low in (("--steps", 0), ("--emit-ellipse-points", 0),
                          ("--max-stream-files", 0), ("--reps", 1), ("--seed", 0)):
            value = getattr(args, flag[2:].replace("-", "_"), low)
            if value < low:                 # refused before any work, by its flag
                raise ValueError(f"{flag} must be >= {low}, got {value}")
        if args.command == "monitor":
            return _cmd_monitor(args, out)
        result = _COMMANDS[args.command](args)
        _emit(result, args.output, out)
        return 0
    except (BivarseqError, ValueError, ArithmeticError, MemoryError) as exc:
        if not args.quiet:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if not args.quiet:
            print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
