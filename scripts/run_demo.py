#!/usr/bin/env python3
"""End-to-end demo: build the affine-family transport, verify it, probe it.

Writes report.json and CSV map/collar tables under ./demo_out and prints a
short summary.  Equivalent CLI run:

    moser-transport represent --config scripts/configs/affine.cfg --out demo_out
"""

import os
import sys

import numpy as np

from moser_transport import (
    build_representation,
    builtin_family,
    estimate_uniform_Ck,
    sample_random_maps,
)
from moser_transport.reports import write_csv, write_json


def main():
    out = sys.argv[1] if len(sys.argv) > 1 else "demo_out"
    fam = builtin_family("affine", k=2)
    tf = build_representation(fam, mode="full", grid_n=1024, steps=256)

    xs = np.linspace(-0.5, 0.5, 5)
    log = tf.verify(xs)
    print("pushforward L1 per x:")
    for rec in log["per_x"]:
        print(f"  x={rec['x']:+.2f}  L1={rec['l1_error']:.3e}  pass={rec['passed']}")
    print(f"t_star={log['t_star']:.4f}  nu_min={log['nu_min']:.4f}")

    ck = estimate_uniform_Ck(tf, np.geomspace(1e-3, 1.0, 15),
                             np.linspace(-0.4, 0.4, 7), k=1)
    print(f"sup |d/dx T_x(m)| = {ck.sups[1]:.4f} (stable: {ck.richardson_stable[1]})")

    samples = sample_random_maps(tf, count=5, seed=0)
    print("five random maps evaluated at x = 0.5:")
    print("  " + ", ".join(f"{s.map(0.5):.4f}" for s in samples))

    os.makedirs(out, exist_ok=True)
    write_json(os.path.join(out, "demo_report.json"),
               {"verify": log, "ck_sup_order1": ck.sups[1]})
    m = np.linspace(0, 1, 257)
    write_csv(os.path.join(out, "map_x_half.csv"), {"m": m, "T": tf.map_values(0.5, m)})
    print(f"wrote {out}/demo_report.json and {out}/map_x_half.csv")


if __name__ == "__main__":
    main()
