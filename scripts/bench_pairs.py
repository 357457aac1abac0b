#!/usr/bin/env python3
"""Paired benchmark runs: a base commit against the working tree.

    python3 scripts/bench_pairs.py --base HEAD --seed0 700 --out BENCH_<n>.json

Run from the root of a checkout.  The base commit is exported with
``git archive`` into ``.bench_build/base-<sha>/`` (an export leaves the
repository's git state alone even when the run is interrupted).  For each
workload and pair i, the unchanged ``perfbench/run.py`` of each side runs
with seed ``seed0 + i``, ``--seconds 35`` and ``--trace 0``; even pairs run
the base first, odd pairs the change, so a drift in machine load hits
both sides alike.  The output JSON holds every run, and per side,
workload and end-to-end metric the median and quartiles, with the number
of pairs the change won (ties count for neither side).  It also records
nproc, loadavg at start and end, the Python, numpy and scipy versions,
each side's ``src/`` line count as perfbench counts it, and each side's
Tier-1 suite (one run per side, before the pairs): its outcome counts,
exit code and wall time.  Each run also stores ``first_pass_s``, the wall
time of its first pass, read from the run record perfbench keeps under
that tree's ``.bench_build/perfbench/``; it shows import work that a
change moved out of set-up into the first pass, which the median pass
hides.  It is summarised beside the end-to-end metrics.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("interval_scan", "interval_verify", "cylinder_flow")
SECONDS = 35  # run length of every run, on both sides


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev):
    """The tree of ``rev`` under .bench_build/base-<sha>/, extracted once."""
    sha = git("rev-parse", rev)
    dest = ROOT / ".bench_build" / f"base-{sha[:12]}"
    if not (dest / "perfbench" / "run.py").is_file():
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir(parents=True)
        with tempfile.TemporaryFile() as archive:
            subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                           stdout=archive)
            archive.seek(0)
            with tarfile.open(fileobj=archive) as tar:
                tar.extractall(dest, filter="data")
    return sha, dest


def src_lines(tree):
    total = 0
    for path in sorted((tree / "src").rglob("*.py")):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def loadavg():
    with open("/proc/loadavg", encoding="ascii") as handle:
        return " ".join(handle.read().split()[:3])


def tier1(tree):
    """One run of the Tier-1 suite against the package under ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    got = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                         cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    tail = got.stdout.strip().splitlines()[-1:] or [""]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) ([a-z]+)", tail[0])}
    return {"counts": counts, "returncode": got.returncode, "wall_s": wall,
            "summary": tail[0]}


def run_once(tree, workload, seed):
    """One perfbench run; returns its JSON result line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    got = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = got.stdout.strip().splitlines()
    if got.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {got.returncode}:\n"
                           f"{got.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = tree / ".bench_build" / "perfbench" / f"{workload}-trace0-seed{seed}.json"
    with open(record, encoding="utf-8") as handle:
        first_pass = json.load(handle)["result"]["walls"][0]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {**{k: v["value"] for k, v in result["metrics"].items()},
                        "first_pass_s": first_pass}}


def summarise(runs, metrics):
    out = {}
    for name, spec in metrics.items():
        sides = {}
        for side in ("base", "change"):
            vals = [r[side]["metrics"][name] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
            sides[side] = {"median": med, "q1": q1, "q3": q3}
        lower = spec["better"] == "lower"
        wins = sum((r["change"]["metrics"][name] < r["base"]["metrics"][name]) if lower
                   else (r["change"]["metrics"][name] > r["base"]["metrics"][name])
                   for r in runs)
        out[name] = {**sides, "change_wins": wins, "pairs": len(runs), "unit": spec["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="base revision (default: HEAD)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, required=True,
                    help="first seed; pair i uses seed0 + i")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeatable; default: every workload")
    ap.add_argument("--out", required=True, help="output JSON path")
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        metrics = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    metrics["first_pass_s"] = {"unit": "s", "better": "lower"}
    sha, base_tree = export(args.base)
    import numpy
    import scipy
    report = {
        "base": sha, "change": f"working tree over {git('rev-parse', 'HEAD')}",
        "pairs": args.pairs, "seconds": SECONDS, "trace": 0,
        "meta": {"nproc": os.cpu_count(), "loadavg_start": loadavg(),
                 "python": platform.python_version(), "numpy": numpy.__version__,
                 "scipy": scipy.__version__,
                 "src_lines": {"base": src_lines(base_tree), "change": src_lines(ROOT)}},
        "workloads": {},
    }
    report["tier1"] = {side: tier1(tree) for side, tree in (("base", base_tree),
                                                          ("change", ROOT))}
    for side, rec in report["tier1"].items():
        print(f"tier1 {side}: {rec['summary']} ({rec['wall_s']:.1f} s wall)", flush=True)
    for workload in args.workload or WORKLOADS:
        runs = []
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            rec = {"seed": seed, "first": order[0]}
            for side in order:
                rec[side] = run_once(base_tree if side == "base" else ROOT,
                                     workload, seed)
            runs.append(rec)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} wall_s {rec[side]['metrics']['wall_s']:.3f}" for side in order),
                flush=True)
        report["workloads"][workload] = {"summary": summarise(runs, metrics), "runs": runs}
    report["meta"]["loadavg_end"] = loadavg()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
