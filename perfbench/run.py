#!/usr/bin/env python3
"""Benchmark of moser-transport: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload interval_verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's ``src`` directory; each workload runs in its own child process
with one BLAS/OpenMP thread, and every output goes to a temporary
directory under ``.bench_build/`` that is removed at the end.

``--trace 0`` repeats passes over the workload's jobs for ``--seconds``
and reports the end-to-end metrics: median pass wall and CPU time, the
median set-up time of three fresh processes, and the peak resident set.
``--trace 1`` runs one untraced and two traced passes and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is the JSON result.  A run record (and, traced, the spans
of one pass) is kept under ``.bench_build/perfbench/``.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workloads.py"
WORKLOADS = ("interval_verify", "interval_scan", "cylinder_flow")
SETUP_PROBES = 2            # extra set-up-only processes; the measuring process is the third
CHILD_TIMEOUT = 170.0       # seconds; a run must end within 180
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "MOSER_TRANSPORT_THREADS")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def start_child(args, tmp, extra):
    """Start a workload process; return it and the seconds until it printed READY."""
    cmd = [sys.executable, str(WORKER), "--root", str(ROOT), "--workload", args.workload,
           "--seed", str(args.seed), "--tmp", tmp, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=tmp, env=child_env(), stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT)
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process did not start (exit {proc.returncode})")
    return proc, setup


def finish_child(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process ran past its time limit")
    if out.strip():
        sys.stdout.write(out)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return " ".join(handle.read().split()[:3])
    except OSError:
        return "unavailable"


def metadata():
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if got.returncode == 0:
            commit = got.stdout.strip()
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as handle:
            src_lines += sum(1 for _ in handle)
    return {"commit": commit, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "src_lines": src_lines}


def describe(values):
    return f"median of {len(values)} [min {min(values):.4f}, max {max(values):.4f}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (ROOT / "src" / "moser_transport" / "cli.py").is_file():
        print(f"perfbench: no moser_transport sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    records = ROOT / ".bench_build" / "perfbench"
    records.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=records)
    deadline = time.perf_counter() + CHILD_TIMEOUT
    meta = metadata()
    meta["loadavg_start"] = loadavg()
    proc = None
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, setup = start_child(args, tmp, ["--setup-only"])
                finish_child(proc, deadline)
                setups.append(setup)
        result_path = os.path.join(tmp, "result.json")
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--result", result_path,
                 "--spans", str(records / f"{args.workload}-spans.csv")]
        proc, setup = start_child(args, tmp, extra)
        setups.append(setup)
        finish_child(proc, deadline)
        with open(result_path, encoding="utf-8") as handle:
            res = json.load(handle)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    meta["loadavg_end"] = loadavg()
    meta.update(res["versions"])

    attempted, failed = res["attempted"], res["failed"]
    problems = res["problems"] + res.get("self_check", [])
    for line in problems:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {len(res['walls'])} passes of {res['jobs_per_pass']} jobs")
    if args.trace:
        metrics = res["metrics"]
        print(f"  traced pass wall {describe(res['traced_walls'])} s, "
              f"untraced {res['untraced_wall']:.4f} s")
        print("  self time by span (first traced pass):")
        for name, sec, share in res["self_time"]:
            if share >= 0.001:
                print(f"    {name:32s} {sec:10.4f} s  {100 * share:6.2f} %")
        for name, value in metrics.items():
            print(f"  {name:32s} {value}")
        if res["self_check"]:
            print(f"  trace self-check: {len(res['self_check'])} problems")
        else:
            print("  trace self-check: ok")
    else:
        metrics = {
            "wall_s": statistics.median(res["walls"]),
            "cpu_s": statistics.median(res["cpus"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        print(f"  wall_s       {metrics['wall_s']:.4f} s   {describe(res['walls'])}")
        print(f"  cpu_s        {metrics['cpu_s']:.4f} s   {describe(res['cpus'])}")
        print(f"  setup_s      {metrics['setup_s']:.4f} s   {describe(setups)}")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
    print(f"  fail_ratio   {failed / attempted:.4f}   ({failed} failed of {attempted} jobs)")
    print("  " + ", ".join(f"{k}={v}" for k, v in meta.items()))

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"perfbench: metrics {sorted(set(units) ^ set(metrics))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    out = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {"args": vars(args), "meta": meta, "setup_samples": setups,
              "result": res, "output": out}
    with open(records / f"{args.workload}-trace{args.trace}-seed{args.seed}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
