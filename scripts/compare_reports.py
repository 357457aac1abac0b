#!/usr/bin/env python3
"""Report identity: the CLI outputs of a base commit against the working tree.

    python3 scripts/compare_reports.py --base HEAD

Run from the root of a checkout.  The base commit is exported as
scripts/bench_pairs.py exports it, into ``.bench_build/base-<sha>/``.  Both
sides run the working tree's configs: ``represent --threads 1`` on every
config in ``scripts/configs/`` and ``perfbench/configs/``, plus
``check-assumptions`` where a config has an ``[envelope]`` section and
``obstruct`` where it has an ``[obstruct]`` section, and each side's own
library demo ``scripts/run_demo.py`` (``verify``, ``estimate_uniform_Ck``,
``sample_random_maps`` and ``map_values`` outside the CLI).  Outputs go under
``.bench_build/reports/{base,change}/``.  Prints a unified diff of every
output file that differs (and any differing exit code), and exits 1 if
anything differs, 0 otherwise.
"""

import argparse
import difflib
import os
import re
import shutil
import subprocess
import sys

from bench_pairs import ROOT, export

CONFIG_DIRS = ("scripts/configs", "perfbench/configs")
OUT = ROOT / ".bench_build" / "reports"


def runs(tree):
    """(run name, interpreter arguments before the output directory), in a fixed order;
    the demo is the one in ``tree``, since it calls the package it runs against."""
    out = []
    for directory in CONFIG_DIRS:
        for cfg in sorted((ROOT / directory).glob("*.cfg")):
            text = cfg.read_text(encoding="utf-8")
            commands = ["represent"]
            if re.search(r"^\s*\[envelope\]", text, re.M):
                commands.append("check-assumptions")
            if re.search(r"^\s*\[obstruct\]", text, re.M):
                commands.append("obstruct")
            for command in commands:
                out.append((f"{directory}/{cfg.stem}/{command}",
                            ["-m", "moser_transport.cli", command, "--config", str(cfg),
                             "--threads", "1", "--out"]))
    out.append(("scripts/run_demo", [str(tree / "scripts" / "run_demo.py")]))
    return out


def run_side(tree, side):
    """Run every command against the package under ``tree``; exit code per run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    codes = {}
    for name, argv in runs(tree):
        out = OUT / side / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        proc = subprocess.run([sys.executable, *argv, str(out)],
                              env=env, cwd=out, capture_output=True, text=True)
        codes[name] = proc.returncode
        print(f"{side}: {name} exit {proc.returncode}", flush=True)
    return codes


def files_under(path):
    return {p.relative_to(path).as_posix() for p in path.rglob("*") if p.is_file()}


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines(keepends=True) if path.is_file() else []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="base revision")
    args = ap.parse_args()

    sha, base_tree = export(args.base)
    codes = {"base": run_side(base_tree, "base"), "change": run_side(ROOT, "change")}
    base_dir, change_dir = OUT / "base", OUT / "change"
    differ = 0
    for name in sorted(codes["base"]):
        if codes["base"][name] != codes["change"][name]:
            differ += 1
            print(f"exit code of {name}: {codes['base'][name]} -> {codes['change'][name]}")
    names = sorted(files_under(base_dir) | files_under(change_dir))
    for rel in names:
        old, new = read_lines(base_dir / rel), read_lines(change_dir / rel)
        if old != new:
            differ += 1
            sys.stdout.writelines(difflib.unified_diff(
                old, new, fromfile=f"base/{rel}", tofile=f"change/{rel}"))
    print(f"{differ} differences in {len(names)} output files and "
          f"{len(codes['base'])} exit codes (base {sha[:12]})")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
