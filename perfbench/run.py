"""bivarseq benchmark: run one closed-loop workload and report its metrics.

    python3 perfbench/run.py --workload exact-report --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from ``src/``;
nothing is installed.  With ``--trace 0`` the run measures the end-to-end
metrics; with ``--trace 1`` it measures half the time untraced, then half
traced, and reports per-layer metrics from spans recorded around every
public function of ``src/bivarseq``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the metrics that BENCHMARK.json lists for the mode).  ``--out FILE`` also
writes the full record, which ``compare.py`` reads.

Exit codes: 0 when the run completed (its correctness is in the result),
2 when the checkout holds no bivarseq sources or an argument is invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5          # one in this process, the rest in fresh processes
# Untimed passes before the measured loop: on a shared host the first few
# seconds of a busy process run measurably slower than the rest.
WARMUP_SECONDS = 2.0
IMPORTTIME_SAMPLES = 3

# The workload-specific end-to-end metrics, kept in the full
# record beside the BENCHMARK.json ones: name -> (better, bound).
NAMED_BOUNDS = {
    "op_p50_ms": ("lower", 0.25),
    "wall_s": ("lower", 0.25),
    "report_p50_s": ("lower", 0.25),
    "point_p50_ms": ("lower", 0.25),
    "point_tail_ms": ("lower", 0.25),
    "mc_reps_per_s": ("higher", 0.25),
    "cmd_p50_ms": ("lower", 0.25),
    "cmd_tail_ms": ("lower", 0.25),
    "monitor_batch_p50_ms": ("lower", 0.25),
    "error_rate": ("lower", 0.0),
}


def closed_loop(wl, rec, seconds: float) -> None:
    """Whole passes, one after another, until ``seconds`` have elapsed.
    A pass's time leaves out the reference runs made during it."""
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        t0, ref0 = time.perf_counter(), rec.ref_busy
        wl.run_pass(index, rec)
        rec.passes.append(time.perf_counter() - t0 - (rec.ref_busy - ref0))
        index += 1
        if time.perf_counter() >= deadline:
            return


def setup_probe(workload: str, seed: int, workdir: str, env: dict) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    os.makedirs(workdir)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), workdir],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout)["setup_s"])


def import_times(env: dict) -> dict:
    """Cumulative import times from ``python -X importtime -c 'import bivarseq'``.

    scipy and numpy are charged the entries of their package that bivarseq
    imports directly; what scipy pulls in from numpy stays with scipy.
    """
    samples = {"bivarseq": [], "scipy": [], "numpy": []}
    line_re = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bivarseq"],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        rows = [(len(m.group(3)), m.group(4), int(m.group(2)))
                for m in map(line_re.match, proc.stderr.splitlines()) if m]
        totals = dict.fromkeys(samples, 0)
        # importtime lists a module after the modules it imported, one
        # indent deeper, so an entry's parent is the next shallower line
        for i, (depth, name, cum_us) in enumerate(rows):
            pkg = name.split(".")[0]
            if pkg not in totals:
                continue
            ancestors, level = [], depth
            for d, n, _ in rows[i + 1:]:
                if d < level:
                    ancestors.append(n.split(".")[0])
                    level = d
            top = not ancestors if pkg == "bivarseq" else \
                all(a == "bivarseq" for a in ancestors)
            if top:
                totals[pkg] += cum_us
        for pkg, us in totals.items():
            samples[pkg].append(us / 1e3)
    return {f"startup.import_{pkg}_ms": (statistics.median(v), "ms")
            for pkg, v in samples.items()}


def per_kind(samples: dict, stat) -> float:
    """``stat`` of each kind of operation, weighted by how often it ran."""
    n_ops = sum(len(values) for values in samples.values())
    return sum(len(values) * stat(values) for values in samples.values()) / n_ops


def peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def per_layer(agg: dict, loop_calls: dict, loop_units: int) -> dict:
    """Per-layer metrics from aggregated spans: name -> (value, unit)."""
    out = {}
    for label, row in agg.items():
        out[f"{label}.calls"] = (row["calls"], "count")
        out[f"{label}.self_s"] = (row["self_s"], "s")

    def per(label, field, unit_field, scale):
        row = agg[label]
        return scale * row[field] / row[unit_field] if row[unit_field] else 0.0

    sweeps = (loop_calls["exact_engine.stopping_pmf_exact"]
              + loop_calls["exact_engine.estimator_expectation_exact"])
    out["exact_engine.sweeps_per_report"] = (sweeps / loop_units if loop_units else 0.0,
                                             "count")
    out["special_functions.bvn_cdf.points"] = (agg["special_functions.bvn_cdf"]["units"],
                                               "count")
    out["simulator.monte_carlo.us_per_rep"] = (
        per("simulator.monte_carlo", "total_s", "units", 1e6), "us")
    out["simulator.sample_stream.events"] = (agg["simulator.sample_stream"]["units"], "count")
    out["simulator.sample_stream.us_per_event"] = (
        per("simulator.sample_stream", "self_s", "units", 1e6), "us")
    out["simulator.run_test.us_per_event"] = (
        per("simulator.run_test", "self_s", "units", 1e6), "us")
    out["cli_monitor.monitor_step.us_per_event"] = (
        per("cli_monitor.monitor_step", "self_s", "calls", 1e6), "us")
    out["cli_monitor.state_load.us"] = (per("cli_monitor.state_load", "self_s", "calls", 1e6),
                                        "us")
    out["cli_monitor.state_save.us"] = (per("cli_monitor.state_save", "self_s", "calls", 1e6),
                                        "us")
    return out


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def run(args, spec: dict, work: str) -> dict:
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, os.path.join(work, "main"))
    os.makedirs(wl.workdir)
    wl.setup()
    setup_main = time.perf_counter() - t0

    warm = workloads.Recorder(wl.reference)
    if not wl.spawns_children:      # a fresh process per operation: nothing to warm
        closed_loop(wl, warm, WARMUP_SECONDS)
    rec = workloads.Recorder(wl.reference)
    closed_loop(wl, rec, args.seconds / 2 if args.trace else args.seconds)
    rss = peak_rss_mb(include_children=wl.spawns_children)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "designs": wl.designs()}
    recs = [warm, rec]
    metrics = {}

    if not args.trace:
        wl.gate(rec)
        setups = [setup_main] + [setup_probe(args.workload, args.seed,
                                             os.path.join(work, f"probe{i}"),
                                             workloads.child_env())
                                 for i in range(1, SETUP_SAMPLES)]
        metrics.update({
            "setup_s": (statistics.median(setups), "s"),
            "op_time_ref": (sum(map(sum, rec.samples.values()))
                            / sum(map(sum, rec.refs.values())), "ref"),
            "op_p50_ms": (1e3 * per_kind(rec.samples, statistics.median), "ms"),
            "peak_rss_mb": (rss, "MB"),
            "wall_s": (statistics.median(rec.passes), "s"),
        })
        metrics.update(wl.named_metrics(rec))
        record["samples"] = {"setup_s": setups, "pass_s": rec.passes, **rec.samples}
        record["reference_s"] = rec.refs
    else:
        from tracing import Tracer
        warm_ms = wl.warm_main_ms()
        tracer = Tracer()
        tracer.install()
        try:
            traced = workloads.WORKLOADS[args.workload](args.seed, os.path.join(work, "traced"),
                                                        tracer=tracer)
            os.makedirs(traced.workdir)
            traced.setup()
            rec_t = workloads.Recorder(wl.reference)
            closed_loop(traced, rec_t, args.seconds / 2)
            loop_calls = dict(tracer.calls)
            traced.gate(rec_t)
        finally:
            tracer.uninstall()
        recs.append(rec_t)
        agg = tracer.aggregate()
        metrics.update(per_layer(agg, loop_calls, rec_t.units))
        metrics.update(import_times(workloads.child_env()))
        for what in workloads.SUBCOMMANDS:
            metrics[f"cli_monitor.main.{what}.warm_ms"] = (warm_ms.get(what, 0.0), "ms")
        untraced, traced_pass = statistics.median(rec.passes), statistics.median(rec_t.passes)
        metrics["trace.overhead_frac"] = ((traced_pass - untraced) / untraced, "fraction")
        metrics["trace.spans"] = (len(tracer.start), "count")
        record["layers"] = agg
        record["samples"] = {"untraced_pass_s": rec.passes, "traced_pass_s": rec_t.passes}
        if args.out:
            tracer.dump(args.out + ".spans.json")

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    metrics["error_rate"] = (failed / attempted, "fraction")
    record.update(correct=failed == 0, attempted=attempted, failed=failed,
                  failures=[f for r in recs for f in r.failures])

    bounds = {m["name"]: (m["better"], m.get("bound"))
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    bounds.update(NAMED_BOUNDS)
    record["metrics"] = {}
    for name, (value, unit) in metrics.items():
        better, bound = bounds.get(name, (None, None))
        record["metrics"][name] = {"value": value, "unit": unit, "better": better,
                                   "bound": bound}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the full record to this JSON file")
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "bivarseq", "__init__.py")):
        print(f"perfbench: no bivarseq package under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # on SIGTERM, unwind normally: kill and reap any child, remove the work dir
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        record = run(args, spec, work)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {'correct' if record['correct'] else 'INCORRECT'}, "
          f"{record['failed']}/{record['attempted']} failed")
    for failure in record["failures"]:
        print(f"  failure: {failure}")
    for name, m in record["metrics"].items():
        print(f"  {name:<56} {m['value']:>14.6g} {m['unit']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"],
              "metrics": {m["name"]: {"value": record["metrics"][m["name"]]["value"],
                                      "unit": m["unit"]} for m in listed}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
