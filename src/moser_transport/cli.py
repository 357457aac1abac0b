"""Batch front-end: config ingestion, pipeline orchestration, report emission.

Exit codes (stable contract for CI use):

    0  all checks passed
    1  configuration error (parse or validation), with line/column
    2  a finding: FAIL / UNBOUNDED-SUSPECT / BLOWUP-DETECTED / NONSMOOTH-SUSPECT
    3  construction error (a pipeline stage raised)

Reports are canonical JSON (stable key order, no timestamps, no absolute
paths), so identical config + seed reproduce byte-identical files.
"""

import argparse
import os
import sys

import numpy as np

from . import __version__
from .config import build_envelope, build_family, parse_config
from .density import check_decay_assumptions, make_reference
from .diagnostics import expectation_curve, lipschitz_obstruction
from .errors import ConfigurationError, MoserTransportError
from .expressions import parse_density_expression
from .reports import write_csv, write_json
from .transport import build_representation, ck_floor_scan

SCHEMA = "moser-transport/report-v1"


def _paths(cfg, out_dir):
    base = out_dir or "."
    report = os.path.join(base, cfg.outputs.report)
    csv_dir = os.path.join(base, cfg.outputs.csv_dir)
    return report, csv_dir


def cmd_represent(cfg, out_dir=None, threads=1, verbose=False):
    fam = build_family(cfg)
    p = cfg.pipeline
    report_path, csv_dir = _paths(cfg, out_dir)
    try:
        tf = build_representation(
            fam,
            mode=p.mode,
            v=p.v,
            margin=p.margin,
            grid_n=p.grid,
            steps=p.steps,
            tol_push=p.tol_push,
            tol_solver=p.solver_tol,
            tol_mass=p.tol_mass,
            floor=p.floor,
            collar_t_nodes=p.collar_nodes,
        )
        lo, hi = fam.x_range
        xs = np.linspace(lo, hi, p.x_samples)
        check = ({"n_samples": p.samples, "bins": p.bins} if fam.domain.dim == 2
                 else {"n_fine": p.n_fine})
        log = tf.verify(xs, threads=threads, **check)
        scan = ck_floor_scan(
            tf, p.floors, k=p.ck_order, floor_mode=p.x_floor_mode,
            growth_threshold=p.growth_threshold,
        )
    except ConfigurationError:
        raise
    except MoserTransportError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return 3

    push_pass = log["all_passed"]
    verdict = "PASS" if (push_pass and scan.verdict == "STABLE") else "FAIL"
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": "represent",
        "seed": p.seed,
        "config": cfg.to_dict(),
        "mode": tf.mode,
        "pushforward": {"per_x": log["per_x"], "tol": p.tol_push, "all_passed": push_pass},
        "ck_scan": scan.to_dict(),
        "verdict": verdict,
    }
    if tf.mode == "full":
        report["construction"] = {
            "t_star": log["t_star"],
            "nu_min_past_sixth": log["nu_min"],
            "reference_mass": log["reference_mass"],
            "v": p.v,
        }
    write_json(report_path, report)

    if fam.domain.dim == 1:
        m_nodes = np.linspace(0.0, 1.0, 257)
        for i, x in enumerate(xs):
            values = tf.map_values(x, m_nodes)
            write_csv(
                os.path.join(csv_dir, f"map_x{i:02d}.csv"),
                ["m", "T_x_m", "x"],
                [(float(mv), float(tv), float(x)) for mv, tv in zip(m_nodes, values)],
            )
            if tf.mode == "full":
                cm = tf.collar_at(x)
                write_csv(
                    os.path.join(csv_dir, f"collar_x{i:02d}.csv"),
                    ["t", "g", "gbar", "dgbar_dt", "nu"],
                    [tuple(map(float, row)) for row in cm.table()],
                )
    else:
        a_nodes = np.linspace(0.0, fam.domain.circumference, 17)[:-1]
        t_nodes = np.linspace(0.0, 1.0, 17)
        aa, tt = np.meshgrid(a_nodes, t_nodes, indexing="ij")
        pts = np.stack([aa.reshape(-1), tt.reshape(-1)], axis=-1)
        for i, x in enumerate(xs):
            imgs = tf.map_values(x, pts)
            write_csv(
                os.path.join(csv_dir, f"map_x{i:02d}.csv"),
                ["a", "t", "T_a", "T_t", "x"],
                [(float(p[0]), float(p[1]), float(q[0]), float(q[1]), float(x))
                 for p, q in zip(pts, imgs)],
            )
    if p.dump_fields:
        x_last = float(xs[-1])
        mm = tf.moser_at(x_last)
        grid = mm.grid
        if grid.dim == 1:
            nodes = grid.nodes(0)
            (vel,) = mm.provider.snapshot(0.0)
            write_csv(
                os.path.join(csv_dir, "potential.csv"),
                ["m", "u"],
                list(zip(map(float, nodes), map(float, mm.potential.values))),
            )
            write_csv(
                os.path.join(csv_dir, "velocity_t0.csv"),
                ["m", "V"],
                list(zip(map(float, nodes), map(float, vel))),
            )
            write_csv(
                os.path.join(csv_dir, "flow_map.csv"),
                ["m", "Phi_1"],
                list(zip(map(float, nodes), map(float, mm.node_images))),
            )
        else:
            aa, tt = grid.meshes()
            vel = mm.provider.snapshot(0.0)
            rows = zip(
                aa.reshape(-1), tt.reshape(-1), mm.potential.values.reshape(-1),
                vel[0].reshape(-1), vel[1].reshape(-1),
                mm.node_images[:, 0], mm.node_images[:, 1],
            )
            write_csv(
                os.path.join(csv_dir, "fields.csv"),
                ["a", "t", "u", "V_a", "V_t", "Phi_a", "Phi_t"],
                [tuple(map(float, r)) for r in rows],
            )
    if verbose:
        print(f"verdict: {verdict} (pushforward {'ok' if push_pass else 'FAILED'}, "
              f"ck {scan.verdict})")
    return 0 if verdict == "PASS" else 2


def cmd_check_assumptions(cfg, out_dir=None, verbose=False):
    if cfg.envelope is None:
        raise ConfigurationError("check-assumptions needs an [envelope] section")
    fam = build_family(cfg)
    env = build_envelope(cfg)
    report_path, _ = _paths(cfg, out_dir)
    try:
        ref = make_reference(fam, margin=cfg.pipeline.margin)
        result = check_decay_assumptions(fam, ref, env, k=cfg.family.k)
    except ConfigurationError:
        raise
    except MoserTransportError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return 3
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": "check-assumptions",
        "seed": cfg.pipeline.seed,
        "config": cfg.to_dict(),
        "assumptions": result.to_dict(),
    }
    write_json(report_path, report)
    if verbose:
        print(f"assumption check: {result.verdict} (worst margin {result.worst_margin:.4g})")
    return 0 if result.verdict == "PASS" else 2


def cmd_obstruct(cfg, out_dir=None, verbose=False):
    fam = build_family(cfg)
    ob = cfg.obstruct
    report_path, csv_dir = _paths(cfg, out_dir)
    try:
        pairs = [(float(x), float(ob.base)) for x in ob.xs]
        result = lipschitz_obstruction(
            fam, pairs, slope_threshold=ob.slope_threshold, r2_threshold=ob.r2_threshold,
        )
        exp_report = None
        if ob.h is not None:
            h_ast = parse_density_expression(ob.h, variables=("m",))
            lo, hi = fam.x_range
            pad = 0.05 * (hi - lo)
            x_grid = np.linspace(lo + pad, hi - pad, ob.h_x_nodes)
            exp_report = expectation_curve(fam, h_ast, x_grid, k=cfg.family.k)
    except ConfigurationError:
        raise
    except MoserTransportError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return 3
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": "obstruct",
        "seed": cfg.pipeline.seed,
        "config": cfg.to_dict(),
        "lipschitz": result.to_dict(),
    }
    if exp_report is not None:
        report["expectation"] = exp_report.to_dict()
    write_json(report_path, report)
    write_csv(
        os.path.join(csv_dir, "obstruction.csv"),
        ["x", "y", "distance", "w_inf", "ratio"],
        [(r["x"], r["y"], r["distance"], r["w_inf"], r["ratio"]) for r in result.pairs],
    )
    if exp_report is not None:
        rows = []
        for i, x in enumerate(exp_report.x_nodes):
            row = [x, exp_report.values[i]]
            for order in sorted(exp_report.derivatives):
                val = exp_report.derivatives[order][i]
                row.append(val if val is not None else float("nan"))
            rows.append(tuple(row))
        header = ["x", "E_h"] + [f"d{order}" for order in sorted(exp_report.derivatives)]
        write_csv(os.path.join(csv_dir, "expectation.csv"), header, rows)
    finding = result.verdict == "BLOWUP-DETECTED" or (
        exp_report is not None and exp_report.verdict == "NONSMOOTH-SUSPECT"
    )
    if verbose:
        print(f"lipschitz: {result.verdict} (slope {result.slope:.4g}, R2 {result.r2:.4g})")
        if exp_report is not None:
            print(f"expectation: {exp_report.verdict}")
    return 2 if finding else 0


_COMMANDS = {
    "represent": cmd_represent,
    "check-assumptions": cmd_check_assumptions,
    "obstruct": cmd_obstruct,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="moser-transport",
        description="Construct, verify and stress-test transport representations "
                    "of parametrised density families.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the run config file")
    parser.add_argument("--out", default=None, help="output directory (default: cwd)")
    parser.add_argument("--seed", type=int, default=None, help="override pipeline seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads of represent's per-x checks; the other "
                             "commands run on one")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
        cfg = parse_config(text)
        if args.seed is not None:
            cfg.pipeline.seed = args.seed
        extra = {"threads": args.threads} if args.command == "represent" else {}
        return _COMMANDS[args.command](cfg, out_dir=args.out, verbose=args.verbose, **extra)
    except (ConfigurationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
