"""The four closed-loop workloads of the bivarseq benchmark.

Each workload turns the run's seed into its inputs in ``setup``, does one
fixed block of work per ``run_pass`` (one caller, one operation at a time),
checks every operation's output as it goes, and runs its untimed
correctness gates in ``gate``.  Failed operations and failed gates are
counted in the ``Recorder``; timings of failed operations are not kept.

Importing this module imports ``bivarseq``, so the import cost is part of
every workload's set-up time.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import bivarseq as bq
from bivarseq import cli_monitor

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CLI_ENTRY = os.path.join(HERE, "cli_entry.py")
# the console-script target, spawned the way an installed ``bivarseq`` runs
CONSOLE_MAIN = "import sys; from bivarseq.cli_monitor import main; sys.exit(main())"

SUBCOMMANDS = ("design", "power", "asn", "pmf", "analyze", "simulate", "monitor")
MASS_TOL = 1e-10      # stopping laws sum to one; DP and closed form agree
FIG121_POWER = 0.906535   # power_exact(fig121, 0.1, 0.2, rho=0.1)
TIER1_TOL = 5e-4          # tolerance the acceptance tests use for it


class CheckFailed(Exception):
    """An operation's output is wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# Each workload times a fixed piece of benchmark code, its reference, right
# before and right after every operation.  On a shared host the machine's
# speed drifts by up to 1.7x within seconds, and different kinds of work
# drift differently; a reference that does the same kind of work as the
# workload drifts with it, so an operation's time over its reference's time
# cancels most of the drift, while any change in the package's own speed
# shows in full.  The references never change with the package.


def reference_exp() -> None:
    """Exponentials over a 160 x 125 grid, masked and summed, 60 times
    (about 5 ms): dense elementwise array work, as in the exact engine's
    per-m sweeps."""
    grid = np.linspace(-5.0, 0.0, 20_000).reshape(160, 125)
    keep = grid > -4.0
    for m in range(60):
        np.where(keep, np.exp(grid - m * 1e-3), 0.0).sum()


def reference_draws() -> None:
    """100 small Philox streams of 500 uniforms (about 4 ms): many short
    generator set-ups and draws, as in the simulator."""
    for r in range(100):
        rng = np.random.Generator(np.random.Philox(key=np.array([7, r], dtype=np.uint64)))
        np.cumsum(rng.random(500) < 0.3)


def reference_start() -> None:
    """Start an interpreter that imports numpy, and wait for it (about
    100 ms): process start-up and imports, as in every CLI invocation."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


class Recorder:
    """Operation timings, pass timings and failure counts of one run."""

    def __init__(self, reference):
        self.reference = reference
        self.samples: dict[str, list[float]] = {}
        # per operation: the mean time of the two reference runs beside it
        self.refs: dict[str, list[float]] = {}
        self.ref_busy = 0.0     # all time spent in reference runs
        self.passes: list[float] = []
        self.units = 0          # work units completed (workload-specific)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def _time_reference(self) -> float:
        t0 = time.perf_counter()
        self.reference()
        elapsed = time.perf_counter() - t0
        self.ref_busy += elapsed
        return elapsed

    def op(self, kind: str, fn, check=None):
        """Time ``fn()``, with the reference timed just before and just
        after it; then, untimed, ``check(result)``.  Returns the result, or
        None when the call raised or the check failed."""
        self.attempted += 1
        ref_before = self._time_reference()
        t0 = time.perf_counter()
        try:
            result = fn()
            elapsed = time.perf_counter() - t0
            ref_after = self._time_reference()
            if check is not None:
                check(result)
        except Exception as exc:    # any failure of the program counts
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.samples.setdefault(kind, []).append(elapsed)
        self.refs.setdefault(kind, []).append(0.5 * (ref_before + ref_after))
        return result

    def gate(self, what: str, fn) -> None:
        """One untimed correctness gate: ``fn`` raises when it fails."""
        self.attempted += 1
        try:
            fn()
        except Exception as exc:
            self.fail(f"gate {what}: {type(exc).__name__}: {exc}")


def child_env() -> dict:
    """Environment for child interpreters: the package comes from ``src/``."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def fig121() -> bq.BivariateDesign:
    """The package's running example: n*=121, k_x=19, k_y=18."""
    return bq.combine(bq.design_marginal(0.025, 0.1, 0.05, 0.10, rounding="floor"),
                      bq.design_marginal(0.025, 0.1, 0.10, 0.20, rounding="floor"))


def delta03() -> bq.BivariateDesign:
    """delta = 0.3 relative increase: n*=1154, k_x=143, k_y=135."""
    return bq.combine(bq.design_marginal(0.025, 0.1, 0.05, 0.065),
                      bq.design_marginal(0.025, 0.1, 0.10, 0.13))


def criterion10a() -> bq.BivariateDesign:
    """The exact bias scan design: n*=310, k_x=43, k_y=40."""
    return bq.combine(bq.design_marginal(0.025, 0.1, 0.05, 0.08, rounding="floor"),
                      bq.design_marginal(0.025, 0.1, 0.10, 0.16, rounding="floor"))


def _geometry(design: bq.BivariateDesign) -> dict:
    return {"n_star": design.n_star, "k_x": design.k_x, "k_y": design.k_y}


class Workload:
    name = ""
    spawns_children = False
    reference = staticmethod(reference_exp)

    def __init__(self, seed: int, workdir: str, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, rec: Recorder) -> None:
        raise NotImplementedError

    def gate(self, rec: Recorder) -> None:
        raise NotImplementedError

    def designs(self) -> dict:
        raise NotImplementedError

    def named_metrics(self, rec: Recorder) -> dict:
        """The workload's own end-to-end metrics: name -> (value, unit)."""
        raise NotImplementedError

    def warm_main_ms(self) -> dict:
        """In-process CLI timings per subcommand; only the CLI workload has them."""
        return {}


# ----------------------------------------------------------------------
# exact-report


class ExactReport(Workload):
    """Full exact reports on the n*=1154 design; exact_engine dominates."""

    name = "exact-report"

    def setup(self):
        self.design = delta03()
        rhos = (self.rng.uniform(-0.06, -0.04), self.rng.uniform(0.08, 0.12),
                self.rng.uniform(0.45, 0.55))
        # null, alternative, and a point where both boundaries carry mass
        margins = ((0.05, 0.10), (0.065, 0.13), (0.12, 0.12))
        points = [(tx, ty, float(rho)) for tx, ty in margins for rho in rhos]
        order = self.rng.permutation(len(points))
        self.points = [(points[i], bq.make_params(*points[i])) for i in order]
        self.results: dict[tuple, dict] = {}

    def designs(self):
        return {"delta03": _geometry(self.design)}

    # one report; each public call is its own timed operation
    CALLS = (
        ("power", lambda d, p: bq.power_exact(d, p)),
        ("pmf", lambda d, p: bq.stopping_pmf_exact(d, p)),
        ("asn", lambda d, p: bq.asn_exact(d, p)),
        ("var_cv", lambda d, p: bq.variance_cv(d, p)),
        ("bounds", lambda d, p: bq.asn_bounds(d, p)),
        ("est_x", lambda d, p: bq.estimator_expectation_exact(d, p, "x")),
        ("est_y", lambda d, p: bq.estimator_expectation_exact(d, p, "y")),
    )

    def _check(self, r: dict) -> None:
        pmf = r["pmf"]
        require(abs(pmf.total_mass() - 1.0) <= MASS_TOL,
                f"pmf mass residual {abs(pmf.total_mass() - 1.0):.3g}")
        require(0.0 <= r["power"] <= 1.0, f"power {r['power']}")
        require(abs(r["power"] - pmf.rejection_mass) <= MASS_TOL,
                "power disagrees with the pmf's rejection mass")
        lower, upper = r["bounds"]
        require(lower - 1e-9 <= r["asn"] <= upper + 1e-9,
                f"asn {r['asn']} outside its bounds [{lower}, {upper}]")
        require(r["var_cv"][0] >= 0.0, "negative variance")
        require(0.0 < r["est_x"] < 1.0 and 0.0 < r["est_y"] < 1.0,
                f"estimator means {r['est_x']}, {r['est_y']}")

    def run_pass(self, index, rec):
        point, params = self.points[index % len(self.points)]
        r = {key: rec.op(key, lambda call=call: call(self.design, params))
             for key, call in self.CALLS}
        if any(v is None for v in r.values()):
            return
        rec.gate(f"report {point}", lambda: self._check(r))
        rec.units += 1
        self.results[point] = r

    def gate(self, rec):
        for point, r in self.results.items():
            def against_dp(point=point, r=r):
                dp = bq.lattice_forward_dp(self.design, bq.make_params(*point))
                pmf = r["pmf"]
                diff = max(float(np.max(np.abs(dp.mass_x - pmf.mass_x))),
                           float(np.max(np.abs(dp.mass_y - pmf.mass_y))),
                           float(np.max(np.abs(dp.mass_corner - pmf.mass_corner))),
                           abs(dp.continue_mass - pmf.continue_mass),
                           abs(dp.rejection_mass - r["power"]))
                require(diff <= MASS_TOL, f"closed form vs DP at {point}: {diff:.3g}")
            rec.gate(f"dp {point}", against_dp)

    def named_metrics(self, rec):
        return {"report_p50_s": (statistics.median(rec.passes), "s")}


# ----------------------------------------------------------------------
# surface-scan


class SurfaceScan(Workload):
    """Power and bias surface on the n*=310 design: many small problems."""

    name = "surface-scan"

    def setup(self):
        self.design = criterion10a()
        self.rho = float(self.rng.uniform(0.05, 0.3))
        shift_x, shift_y = self.rng.uniform(0.0, 0.005, size=2)
        txs = np.linspace(0.04, 0.12, 8) + shift_x
        tys = np.linspace(0.08, 0.22, 6) + shift_y
        self.rows = [[(float(tx), float(tys[i]), self.rho) for tx in txs]
                     for i in self.rng.permutation(len(tys))]
        self.params = {pt: bq.make_params(*pt) for row in self.rows for pt in row}
        self.results: dict[tuple, tuple] = {}

    def designs(self):
        return {"criterion10a": _geometry(self.design), "fig121": _geometry(fig121())}

    @staticmethod
    def point(design, p) -> tuple:
        pmf = bq.stopping_pmf_asymptotic(design, p)
        return (bq.power_exact(design, p),
                bq.estimator_expectation_exact(design, p, "x"),
                bq.estimator_expectation_exact(design, p, "y"),
                *bq.asn_bounds(design, p),
                bq.power_asymptotic(design, p),
                bq.power_asymptotic(design, p, form="gut"),
                pmf.rejection_mass + pmf.continue_mass,
                bq.estimator_expectation_asymptotic(design, p, "x"),
                bq.estimator_expectation_asymptotic(design, p, "y"))

    def _checker(self, pt):
        def check(values):
            power, ex, ey, lower, upper, pa, pg, mass, ax, ay = values
            require(all(math.isfinite(v) for v in values), f"non-finite at {pt}")
            require(0.0 <= power <= 1.0 and 0.0 <= pa <= 1.0 and 0.0 <= pg <= 1.0,
                    f"power out of [0, 1] at {pt}")
            require(0.0 < ex < 1.0 and 0.0 < ey < 1.0, f"estimator means at {pt}")
            require(lower <= upper + 1e-9, f"asn bounds crossed at {pt}")
            seen = self.results.setdefault(pt, values)
            require(seen == values, f"point {pt} changed between passes")
        return check

    def run_pass(self, index, rec):
        for pt in self.rows[index % len(self.rows)]:
            p = self.params[pt]
            if rec.op("point", lambda: self.point(self.design, p),
                      self._checker(pt)) is not None:
                rec.units += 1

    def gate(self, rec):
        for row in self.rows:
            done = [pt for pt in row if pt in self.results]
            if len(done) < len(row):
                continue

            def monotone(row=row):
                powers = [self.results[pt][0] for pt in row]
                require(all(b >= a - 1e-12 for a, b in zip(powers, powers[1:])),
                        f"power decreases in theta_x along theta_y={row[0][1]:.4f}")
            rec.gate(f"row {row[0][1]:.4f}", monotone)

        def reference():
            value = bq.power_exact(fig121(), bq.make_params(0.1, 0.2, 0.1))
            require(abs(value - FIG121_POWER) <= TIER1_TOL, f"fig121 power {value}")
        rec.gate("fig121 power", reference)

    def named_metrics(self, rec):
        out = {"point_p50_ms": (1e3 * statistics.median(rec.samples["point"]), "ms")}
        out.update(tail_metrics("point", rec.samples["point"]))
        return out


# ----------------------------------------------------------------------
# mc-study


class MCStudy(Workload):
    """Monte Carlo and stream execution; the exact engine stays idle."""

    name = "mc-study"
    reference = staticmethod(reference_draws)

    # sized so that every operation takes about the same time
    STUDY_REPS = {"fig121": 4000, "delta03": 2600}
    BLOCK_STREAMS = 600
    PREFIX_REPS = 300

    def setup(self):
        rho = float(self.rng.uniform(0.0, 0.3))
        self.fig, self.big = fig121(), delta03()
        self.studies = [
            ("fig121-null", self.fig, bq.make_params(0.05, 0.10, rho), self.STUDY_REPS["fig121"]),
            ("fig121-alt", self.fig, bq.make_params(0.10, 0.20, rho), self.STUDY_REPS["fig121"]),
            ("delta03-null", self.big, bq.make_params(0.05, 0.10, rho), self.STUDY_REPS["delta03"]),
            ("delta03-alt", self.big, bq.make_params(0.065, 0.13, rho), self.STUDY_REPS["delta03"]),
        ]
        self.study_seeds = [int(s) for s in self.rng.integers(1, 2**31, len(self.studies))]
        self.block_params = self.studies[1][2]
        self.block_seed = int(self.rng.integers(1, 2**31))
        self.first: dict[str, object] = {}

    def designs(self):
        return {"fig121": _geometry(self.fig), "delta03": _geometry(self.big)}

    def _stream_block(self) -> list[tuple]:
        out = []
        for r in range(self.BLOCK_STREAMS):
            o = bq.run_test(self.fig, bq.sample_stream(self.block_params, self.block_seed,
                                                       self.fig.n_star, stream=r))
            out.append((o.m_star, o.boundary, o.decision))
        return out

    def _same_as_first(self, key, value):
        seen = self.first.setdefault(key, value)
        require(seen == value, f"{key} changed between passes")

    def _study_checker(self, key, design, reps):
        def check(s):
            require(s.reps == reps and 0.0 <= s.power <= 1.0, f"{key}: power {s.power}")
            require(abs(sum(s.boundary_split.values()) - 1.0) <= 1e-12,
                    f"{key}: boundary split does not sum to one")
            require(design.k_lower + 1 <= s.asn <= design.n_star, f"{key}: asn {s.asn}")
            self._same_as_first(key, s.to_dict())
        return check

    def _block_check(self, outcomes):
        for m, boundary, decision in outcomes:
            require(1 <= m <= self.fig.n_star, f"stream stopped at {m}")
            require((decision == "reject") == (boundary != "none"),
                    f"decision {decision} with boundary {boundary}")
        self._same_as_first("streams", outcomes)

    def run_pass(self, index, rec):
        for (key, design, params, reps), seed in zip(self.studies, self.study_seeds):
            if rec.op(key, lambda: bq.monte_carlo(design, params, reps, seed),
                      self._study_checker(key, design, reps)) is not None:
                rec.units += reps
        if rec.op("streams", self._stream_block, self._block_check) is not None:
            rec.units += self.BLOCK_STREAMS

    def gate(self, rec):
        n = self.PREFIX_REPS
        for key, design, params, _ in self.studies:
            def bit_identical(design=design, params=params, key=key):
                s = bq.monte_carlo(design, params, n, self.seed)
                outs = [bq.run_test(design, bq.sample_stream(params, self.seed,
                                                             design.n_star, stream=r))
                        for r in range(n)]
                rejects = np.array([o.decision == "reject" for o in outs])
                m_star = np.array([o.m_star for o in outs], dtype=np.int64)
                require(s.power == float(rejects.mean()),
                        f"{key}: monte_carlo power {s.power} != streams {rejects.mean()}")
                require(s.asn == float(m_star.mean()),
                        f"{key}: monte_carlo asn {s.asn} != streams {m_star.mean()}")
            rec.gate(f"{key} prefix", bit_identical)

            def chunking(design=design, params=params, key=key):
                a = bq.monte_carlo(design, params, n, self.seed, chunk_size=1024)
                b = bq.monte_carlo(design, params, n, self.seed, chunk_size=37)
                require(a.to_dict() == b.to_dict(), f"{key}: summary depends on chunk_size")
            rec.gate(f"{key} chunking", chunking)

    def named_metrics(self, rec):
        busy = sum(sum(times) for times in rec.samples.values())
        return {"mc_reps_per_s": (rec.units / busy, "1/s")}


# ----------------------------------------------------------------------
# cli-session


class CLISession(Workload):
    """A scripted analyst session of fresh CLI processes, then a monitor
    resumed from its state file over fixed-size event batches."""

    name = "cli-session"
    spawns_children = True
    reference = staticmethod(reference_start)

    BATCH = 25
    SIM_REPS = 200

    def setup(self):
        self.design = fig121()
        d = self.design
        self.env = child_env()
        self.design_file = os.path.join(self.workdir, "design.json")
        with open(self.design_file, "w") as fh:
            json.dump(d.to_dict(), fh)
        self.state_file = os.path.join(self.workdir, "state.json")

        rho = float(self.rng.uniform(0.05, 0.3))
        tx, ty = (float(v) for v in self.rng.uniform((0.08, 0.16), (0.12, 0.22)))
        # the monitored stream runs to curtailment at the null margins, so
        # every session makes the same number of monitor calls
        null = bq.make_params(0.05, 0.10, rho)
        stream = int(self.rng.integers(0, 2**20))
        while True:
            events = list(bq.sample_stream(null, self.seed, d.n_star, stream=stream))
            self.outcome = bq.run_test(d, events)
            if self.outcome.decision == "not_reject":
                break
            stream += 1
        self.batches = []
        for i, lo in enumerate(range(0, d.n_star, self.BATCH)):
            path = os.path.join(self.workdir, f"batch_{i}.jsonl")
            with open(path, "w") as fh:
                for ev in events[lo:lo + self.BATCH]:
                    fh.write(json.dumps({"seq": ev.seq, "x": ev.x, "y": ev.y}) + "\n")
            self.batches.append((path, [ev.seq for ev in events[lo:lo + self.BATCH]]))

        self.counts = [int(self.rng.integers(40, 80)), int(self.rng.integers(3, 10)),
                       int(self.rng.integers(5, 15)), int(self.rng.integers(1, 5))]
        margins = ["--design", self.design_file, "--theta-x", repr(tx),
                   "--theta-y", repr(ty), "--rho", repr(rho)]
        self.commands = [
            ("design", ["design", "--alpha", "0.05", "--beta", "0.1",
                        "--theta-x0", "0.05", "--theta-x1", "0.1",
                        "--theta-y0", "0.1", "--theta-y1", "0.2", "--rounding", "floor"]),
            ("power", ["power", *margins]),
            ("asn", ["asn", *margins]),
            ("pmf", ["--output", "csv", "pmf", *margins]),
            ("analyze", ["analyze", "--counts", *map(str, self.counts)]),
            ("simulate", ["simulate", *margins, "--reps", str(self.SIM_REPS),
                          "--seed", str(self.seed)]),
        ]

    def designs(self):
        return {"fig121": _geometry(self.design)}

    def _monitor_argv(self, batch_path):
        return ["monitor", "--design", self.design_file, "--state", self.state_file,
                "--input", batch_path]

    def _spawn(self, argv) -> subprocess.CompletedProcess:
        if self.tracer is None:
            cmd = [sys.executable, "-c", CONSOLE_MAIN, *argv]
        else:
            cmd = [sys.executable, CLI_ENTRY, os.path.join(self.workdir, "spans.json"), *argv]
        return subprocess.run(cmd, env=self.env, cwd=self.workdir, capture_output=True,
                              text=True, timeout=120)

    def _merge_spans(self):
        path = os.path.join(self.workdir, "spans.json")
        if self.tracer is not None and os.path.exists(path):
            with open(path) as fh:
                self.tracer.merge(json.load(fh))
            os.remove(path)

    def _checker(self, what):
        d = self.design

        def check(proc):
            require(proc.returncode == 0, f"{what} exited {proc.returncode}: {proc.stderr[-300:]}")
            require(proc.stderr == "", f"{what} wrote to stderr: {proc.stderr[-300:]}")
            if what == "pmf":
                rows = list(csv.reader(io.StringIO(proc.stdout)))
                require(rows[0] == ["m", "p_hit_x", "p_hit_y", "p_corner"], "pmf header")
                table = np.array(rows[1:], dtype=float)
                require(table.shape == (d.n_star - d.k_lower, 4), f"pmf shape {table.shape}")
                require(np.array_equal(table[:, 0], np.arange(d.k_lower + 1, d.n_star + 1)),
                        "pmf support")
                require(0.0 <= table[:, 1:].sum() <= 1.0 + MASS_TOL, "pmf mass")
                return
            doc = json.loads(proc.stdout)
            if what == "design":
                require(doc == d.to_dict(), "design output differs from fig121")
            elif what == "power":
                require(0.0 <= doc["power"] <= 1.0, f"power {doc['power']}")
            elif what == "asn":
                require(doc["lower"] - 1e-9 <= doc["asn"] <= doc["upper"] + 1e-9,
                        f"asn {doc['asn']} outside [{doc['lower']}, {doc['upper']}]")
            elif what == "analyze":
                n00, n10, n01, n11 = self.counts
                m = n00 + n10 + n01 + n11
                require(abs(doc["estimate"]["theta_hat_x"] - (n10 + n11) / m) <= 1e-12,
                        "analyze theta_hat_x")
            elif what == "simulate":
                require(doc["reps"] == self.SIM_REPS and 0.0 <= doc["power"] <= 1.0,
                        "simulate summary")
        return check

    def _monitor_checker(self, seqs):
        def check(proc):
            require(proc.returncode == 0, f"monitor exited {proc.returncode}: {proc.stderr[-300:]}")
            require(proc.stderr == "", f"monitor wrote to stderr: {proc.stderr[-300:]}")
            records = [json.loads(line) for line in proc.stdout.splitlines()]
            require([r["seq"] for r in records] == seqs, "monitor records out of sequence")
            self.last_record = records[-1]
        return check

    def _final_state(self):
        o, r = self.outcome, self.last_record
        require(r["decision"] == o.decision and r["m_star"] == o.m_star
                and (r["s_x"], r["s_y"]) == (o.counts.s_x, o.counts.s_y),
                f"final monitor record {r} differs from run_test {o}")
        with open(self.state_file) as fh:
            state = cli_monitor.state_load(json.load(fh))
        require(state.counts == o.counts and state.last_seq == o.m_star
                and state.status == "exhausted", f"saved state {state} differs from run_test")

    def run_pass(self, index, rec):
        if os.path.exists(self.state_file):
            os.remove(self.state_file)
        for what, argv in self.commands:
            if rec.op(what, lambda: self._spawn(argv), self._checker(what)) is not None:
                rec.units += 1
            self._merge_spans()
        self.last_record = None
        for path, seqs in self.batches:
            if rec.op("monitor", lambda: self._spawn(self._monitor_argv(path)),
                      self._monitor_checker(seqs)) is not None:
                rec.units += 1
            self._merge_spans()
        rec.gate("monitor state", self._final_state)

    def gate(self, rec):
        """Each pass already gated its final monitor record and state."""

    def warm_main_ms(self, repeats: int = 3) -> dict:
        """In-process ``main([...])`` per subcommand, after one warm call."""
        out = {}
        argvs = self.commands + [("monitor", self._monitor_argv(self.batches[0][0]))]
        for what, argv in argvs:
            times = []
            for _ in range(repeats + 1):
                if os.path.exists(self.state_file):
                    os.remove(self.state_file)
                t0 = time.perf_counter()
                code = cli_monitor.main(list(argv), out=io.StringIO())
                times.append(time.perf_counter() - t0)
                if code != 0:
                    raise CheckFailed(f"in-process {what} exited {code}")
            out[what] = 1e3 * statistics.median(times[1:])
        return out

    def named_metrics(self, rec):
        cmds = [t for times in rec.samples.values() for t in times]
        out = {"cmd_p50_ms": (1e3 * statistics.median(cmds), "ms"),
               "monitor_batch_p50_ms": (1e3 * statistics.median(rec.samples["monitor"]), "ms")}
        out.update(tail_metrics("cmd", cmds))
        return out


def tail_metrics(prefix: str, samples: list[float]) -> dict:
    """The highest whole percentile with at least ten samples beyond it."""
    qs = statistics.quantiles(samples, n=100, method="inclusive")
    for pct in range(99, 49, -1):
        value = qs[pct - 1]
        if sum(1 for s in samples if s > value) >= 10:
            return {f"{prefix}_tail_ms": (1e3 * value, "ms"),
                    f"{prefix}_tail_pct": (float(pct), "percentile"),
                    f"{prefix}_count": (len(samples), "count")}
    return {f"{prefix}_count": (len(samples), "count")}


WORKLOADS = {w.name: w for w in (ExactReport, SurfaceScan, MCStudy, CLISession)}
