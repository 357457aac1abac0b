"""Workload process of the benchmark: set up one workload, run its passes, report.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and
one BLAS/OpenMP thread.  It prints ``READY`` once the package is imported
and the workload's inputs are generated and parsed; with ``--setup-only``
it exits there (run.py times that as set-up).  Otherwise it runs passes
over the workload's jobs and writes a JSON result to ``--result``.

A job fails when its exit code or verdict differs from the expected one,
when a pushforward L1 exceeds its tolerance, when its report is not
byte-identical to the first pass's, or, in a traced pass, when a Poisson
solve ends above its solver tolerance.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MIN_PASSES = 2          # report byte-identity needs two passes of every job
VERIFY_N_FINE = 2 ** 12  # half the default fine mesh, so a run holds more passes


class LibraryVerifyJob:
    """build_representation on h_power (alpha=2), then pushforward checks, as run_demo.py."""

    name = "verify"
    root_span = "job.verify"

    def __init__(self, xs):
        self.xs = [float(x) for x in xs]

    def run(self, mt):
        fam = mt.builtin_family("h_power", alpha=2)
        tf = mt.build_representation(fam, mode="full", grid_n=1024, steps=256)
        checks = [tf.pushforward_check(x, n_fine=VERIFY_N_FINE) for x in self.xs]
        problems = [
            f"pushforward L1 {c['l1_error']:.3e} above tol {tf.tol_push:g} at x={c['x']:.6g}"
            for c in checks if not (c["passed"] and c["l1_error"] <= tf.tol_push)
        ]
        return problems, mt.reports.canonical_json(checks).encode()


class CliJob:
    """One moser-transport CLI command with its expected exit code and verdicts."""

    def __init__(self, command, config, out, seed, expect_rc, expect):
        self.name = command
        self.root_span = "cli." + command.replace("-", "_")
        self.config = config
        self.out = out
        self.seed = seed
        self.expect_rc = expect_rc
        self.expect = expect

    def run(self, mt):
        argv = [self.name, "--config", self.config, "--out", self.out,
                "--seed", str(self.seed), "--threads", "1"]
        rc = mt.cli.main(argv)
        problems = []
        if rc != self.expect_rc:
            problems.append(f"exit code {rc}, expected {self.expect_rc}")
        report_path = os.path.join(self.out, "report.json")
        try:
            with open(report_path, "rb") as handle:
                data = handle.read()
        except OSError:
            return problems + ["no report.json written"], None
        os.remove(report_path)      # a later pass must not read a stale report
        report = json.loads(data)
        for dotted, want in self.expect.items():
            got = report
            for key in dotted.split("."):
                got = got.get(key) if isinstance(got, dict) else None
            if got != want:
                problems.append(f"{dotted} = {got!r}, expected {want!r}")
        push = report.get("pushforward")
        if push is not None:
            problems += [
                f"pushforward L1 {r['l1_error']:.3e} above tol_push {push['tol']:g} at x={r['x']:.6g}"
                for r in push["per_x"] if not r["l1_error"] <= push["tol"]
            ]
        return problems, data


def _cli_inputs(tmp, seed, specs):
    """Copy each config into the run's input directory, parse it, and make its job."""
    from moser_transport.config import parse_config

    jobs = []
    for command, source, expect_rc, expect in specs:
        text = source.read_text(encoding="utf-8")
        parse_config(text)
        config = os.path.join(tmp, "inputs", f"{command}.cfg")
        os.makedirs(os.path.dirname(config), exist_ok=True)
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(text)
        jobs.append(CliJob(command, config, os.path.join(tmp, "out", command), seed,
                           expect_rc, expect))
    return jobs


def setup_interval_verify(root, tmp, seed):
    # The check costs more at small x; the antithetic pair u, 1 - u keeps the
    # pass cost nearly independent of the seed.
    u = np.random.default_rng(seed).random()
    return [LibraryVerifyJob([u, 1.0 - u])]


def setup_interval_scan(root, tmp, seed):
    shipped = root / "scripts" / "configs"
    return _cli_inputs(tmp, seed, [
        ("represent", HERE / "configs" / "scan_example1.cfg", 2,
         {"verdict": "FAIL", "ck_scan.verdict": "UNBOUNDED-SUSPECT",
          "pushforward.all_passed": True}),
        ("obstruct", shipped / "example2_obstruct.cfg", 2,
         {"lipschitz.verdict": "BLOWUP-DETECTED"}),
        ("check-assumptions", shipped / "h_power.cfg", 0,
         {"assumptions.verdict": "PASS"}),
    ])


def setup_cylinder_flow(root, tmp, seed):
    return _cli_inputs(tmp, seed, [
        ("represent", HERE / "configs" / "cylinder_flow.cfg", 0,
         {"verdict": "PASS", "ck_scan.verdict": "STABLE", "pushforward.all_passed": True}),
    ])


WORKLOADS = {
    "interval_verify": setup_interval_verify,
    "interval_scan": setup_interval_scan,
    "cylinder_flow": setup_cylinder_flow,
}


def run_pass(mt, jobs, tracer=None):
    """One pass over the jobs: (wall seconds, CPU seconds, [(problems, fingerprint)])."""
    outcomes = []
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for job in jobs:
        try:
            if tracer is None:
                problems, fingerprint = job.run(mt)
            else:
                tracer.job = job.name
                with tracer.span(job.root_span):
                    problems, fingerprint = job.run(mt)
        except Exception as exc:  # a crashing job is a failed operation, not a crash
            traceback.print_exc(file=sys.stderr)
            problems, fingerprint = [f"raised {type(exc).__name__}: {exc}"], None
        if tracer is not None:
            problems += tracer.problems.pop(job.name, [])
        outcomes.append((problems, fingerprint))
    return time.perf_counter() - wall0, time.process_time() - cpu0, outcomes


class Ledger:
    """Pass samples and job outcomes, with the byte-identity check across passes."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.first = {}
        self.walls, self.cpus = [], []
        self.attempted = self.failed = 0
        self.problems = []

    def add(self, wall, cpu, outcomes, pass_no):
        self.walls.append(wall)
        self.cpus.append(cpu)
        for job, (problems, fingerprint) in zip(self.jobs, outcomes):
            self.attempted += 1
            first = self.first.setdefault(job.name, fingerprint)
            if fingerprint is not None and fingerprint != first:
                problems = problems + ["report differs from the first pass's"]
            if problems:
                self.failed += 1
                self.problems += [f"pass {pass_no} {job.name}: {p}" for p in problems]


def run_timed(mt, jobs, seconds):
    ledger = Ledger(jobs)
    start = time.perf_counter()
    while True:
        ledger.add(*run_pass(mt, jobs), pass_no=len(ledger.walls) + 1)
        elapsed = time.perf_counter() - start
        if (len(ledger.walls) >= MIN_PASSES
                and elapsed + statistics.median(ledger.walls) > seconds):
            return ledger, {}


def run_traced(mt, jobs, workload, spans_path):
    """One untraced pass, then two traced passes compared count for count."""
    import tracer as tracing

    ledger = Ledger(jobs)
    ledger.add(*run_pass(mt, jobs), pass_no=1)
    untraced = ledger.walls[0]
    tr = tracing.Tracer()
    tracing.install(tr)
    per_pass, walls, check = [], [], []
    for pass_no in (2, 3):
        tr.reset()
        wall, cpu, outcomes = run_pass(mt, jobs, tracer=tr)
        ledger.add(wall, cpu, outcomes, pass_no)
        walls.append(wall)
        per_pass.append(tracing.layer_metrics(tr))
        check += [f"pass {pass_no}: wrap point {label} recorded no call"
                  for label in tr.missing_wraps(workload)]
        if workload == "cylinder_flow" and tr.span_count("collar."):
            check.append(f"pass {pass_no}: {tr.span_count('collar.')} collar spans "
                         "on a workload without a collar")
        if pass_no == 2:
            shares = tracing.self_time_shares(tr, wall)
            _write_spans(tr, spans_path)
    first, second = per_pass
    check += [f"{name} differs between traced passes: {first[name]!r} vs {second[name]!r}"
              for name in tracing.EXACT_COUNTS if first[name] != second[name]]
    metrics = {}
    for name, value in first.items():
        if name.endswith("_s"):
            value = statistics.median([first[name], second[name]])
        metrics[name] = value
    metrics["trace.overhead_s"] = statistics.median(walls) - untraced
    return ledger, {"metrics": metrics, "self_check": check,
                    "self_time": [[n, s, f] for n, s, f in shares],
                    "traced_walls": walls, "untraced_wall": untraced}


def _write_spans(tr, path):
    t0 = tr.spans[0][1] if tr.spans else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("name,start_s,end_s,parent,job\n")
        for name, start, end, parent, job in tr.spans:
            handle.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{job}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import moser_transport as mt
    import moser_transport.cli
    import moser_transport.reports

    src = (args.root / "src").resolve()
    if src not in Path(mt.__file__).resolve().parents:
        print(f"moser_transport imported from {mt.__file__}, not from {src}", file=sys.stderr)
        return 3
    jobs = WORKLOADS[args.workload](args.root, args.tmp, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        ledger, extra = run_traced(mt, jobs, args.workload, args.spans)
    else:
        ledger, extra = run_timed(mt, jobs, args.seconds)
    import scipy
    result = {
        "walls": ledger.walls,
        "cpus": ledger.cpus,
        "jobs_per_pass": len(jobs),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "moser_transport": mt.__version__},
        **extra,
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
