"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from moser_transport import (
    QuantileTransport,
    ReferenceDensity,
    build_collar_map,
    build_representation,
    builtin_family,
    check_decay_assumptions,
    ck_floor_scan,
    expectation_curve,
    family_from_expression,
    library_envelopes,
    lipschitz_obstruction,
    make_domain,
    make_envelope,
    make_reference,
    parse_density_expression,
    pushforward_histogram_2d,
)
from moser_transport.cli import main as cli_main
from oracles import tent_axis_weights

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def test_criterion_01_identity_law():
    t0 = time.perf_counter()
    fam = builtin_family("constant", k=2)
    tf = build_representation(fam, mode="moser_only", grid_n=1024, steps=256, floor=0.5)
    m = np.linspace(0.0, 1.0, 1024)
    sup = max(np.abs(tf.map_values(x, m) - m).max() for x in (-1.0, 0.0, 0.5))
    elapsed = time.perf_counter() - t0
    ok = sup <= 1e-12 and elapsed < 1.0
    assert _report(1, ok, f"identity law sup={sup:.3e} (<=1e-12), {elapsed:.2f}s (<1s)")


def test_criterion_02_moser_matches_quantile_oracle():
    from moser_transport import interval_grid, moser_map_from_values

    t0 = time.perf_counter()
    fam = builtin_family("affine", k=2)
    grid = interval_grid(1024)
    nodes = grid.nodes(0)

    def oracle(x, m):
        if x == 0.0:
            return np.asarray(m, dtype=float)
        return (-(1 - x) + np.sqrt((1 - x) ** 2 + 4 * x * np.asarray(m))) / (2 * x)

    uniform = lambda m: np.ones_like(np.asarray(m, dtype=float))
    sup = 0.0
    spot = None
    for x in (0.5, -0.5, 0.25, -0.25, 0.0):
        [mm] = moser_map_from_values(uniform(nodes), [fam.fn(x, nodes)], grid, [x], steps=256)
        sup = max(sup, float(np.abs(mm.node_images - oracle(x, nodes)).max()))
        if x == 0.5:
            spot = float(mm.evaluate(np.array([0.5]))[0])
    elapsed = time.perf_counter() - t0
    ok = sup <= 1e-4 and abs(spot - GOLDEN) <= 1e-4 and elapsed < 10.0
    assert _report(
        2,
        ok,
        f"1D flow vs rearrangement sup={sup:.3e} (<=1e-4), "
        f"spot |T-golden|={abs(spot - GOLDEN):.3e} (<=1e-4), {elapsed:.1f}s (<10s)",
    )


def test_criterion_03_collar_closed_form():
    fam = family_from_expression("2*m", x_range=(0.0, 1.0), normalize=False)
    ref = ReferenceDensity(
        profile_fn=lambda s: np.asarray(s, dtype=float),
        integral_fn=lambda t: 0.5 * np.asarray(t, dtype=float) ** 2,
    )
    ts = np.geomspace(1e-6, 1.0, 100)
    cm = build_collar_map(fam, ref, 0.0)
    g_err = max(abs(cm.g_batch(t)[0] - t / np.sqrt(2.0)) for t in ts)
    nu_err = max(abs(cm.nu(t)[0] - t) for t in np.geomspace(1e-4, 1.0 / 3.0, 25))
    ok = g_err <= 1e-8 and nu_err <= 1e-6
    assert _report(
        3, ok,
        f"collar closed form g err={g_err:.3e} (<=1e-8), nu err={nu_err:.3e} (<=1e-6)",
    )


@pytest.fixture(scope="module")
def h_power_tf():
    fam = builtin_family("h_power", k=2, alpha=2.0)
    return build_representation(fam, mode="full", grid_n=1024, steps=256)


def test_criterion_04_full_pipeline_pushforward(h_power_tf):
    t0 = time.perf_counter()
    worst = 0.0
    floors = []
    for x in np.linspace(0.0, 1.0, 5):
        rec = h_power_tf.pushforward_check(x)
        worst = max(worst, rec["l1_error"])
        floors.append(h_power_tf.collar_at(x).nu_min_past(1.0 / 6.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and min(floors) > 0.0 and elapsed < 60.0
    assert _report(
        4, ok,
        f"pipeline pushforward max L1={worst:.3e} (<=1e-3), "
        f"nu floor past 1/6 = {min(floors):.4f} (>0), {elapsed:.1f}s (<60s)",
    )


def test_criterion_05_uniform_c1_dichotomy(h_power_tf):
    scan_stable = ck_floor_scan(
        h_power_tf, [1e-2, 1e-3, 1e-4], k=1, floor_mode="fixed", x_nodes=8
    )
    stable_ok = (
        scan_stable.verdict == "STABLE"
        and 0 < scan_stable.sups[1][-1] < np.inf
        and all(rep.richardson_stable[1] for rep in scan_stable.reports)
    )
    qt = QuantileTransport(builtin_family("example1", k=2), ref_x=0.0)
    scan_blowup = ck_floor_scan(
        qt, [1e-2, 1e-3, 1e-4, 1e-5], k=1, floor_mode="match", x_nodes=8
    )
    growths = scan_blowup.growths[1]
    blowup_ok = len(growths) == 3 and all(g >= 2.0 for g in growths)
    ok = stable_ok and blowup_ok
    assert _report(
        5, ok,
        f"stable sup={scan_stable.sups[1][-1]:.4f} ({scan_stable.verdict}); "
        f"blow-up growths per 10x floor shrink = "
        f"{[round(g, 2) for g in growths]} (each >=2)",
    )


def _example1_w_inf_oracle(x):
    """W_inf(mu_x, mu_0) for example1 without the library's quantile code.

    F_x(m) = x^2 m^2 + (1 - x^2) m^5 is root-solved for m at each p of a
    log-spaced grid and compared with F_0^{-1}(p) = p^(1/5); the grid
    maximiser is then refined by a bounded scalar search in log p.  Since
    F_x >= F_0 on [0, 1], the gap p^(1/5) - F_x^{-1}(p) is non-negative.
    """
    a = x * x

    def gap(log_p):
        p = np.exp(log_p)
        m = brentq(lambda m: a * m * m + (1 - a) * m ** 5 - p, 0.0, 1.0,
                   xtol=1e-300, rtol=4 * np.finfo(float).eps)
        return p ** 0.2 - m

    log_ps = np.linspace(np.log(1e-30), 0.0, 601)
    gaps = np.array([gap(t) for t in log_ps])
    i = int(np.argmax(gaps))
    assert 0 < i < len(log_ps) - 1, "oracle maximiser on the edge of the p grid"
    res = minimize_scalar(lambda t: -gap(t), bounds=(log_ps[i - 1], log_ps[i + 1]),
                          method="bounded", options={"xatol": 1e-10})
    return max(-res.fun, gaps[i])


def test_criterion_06_obstruction_growth():
    # Scaling: with m = x^(2/3) u and p = x^(10/3) q, W_inf(x, 0) =
    # x^(2/3) C(x), where C(x) = sup_q |U_x(q) - q^(1/5)| and U_x solves
    # u^2 + (1 - x^2) u^5 = q.  C(x) -> 0.3269 as x -> 0 and moves by less
    # than 4e-5 relative over the schedule, so W_inf/|x| grows as x^(-1/3)
    # and the fitted log-log slope is -1/3.
    schedule = [(1e-1, 0.0), (1e-2, 0.0), (1e-3, 0.0)]
    fam = builtin_family("example1", k=2)
    t0 = time.perf_counter()
    rep = lipschitz_obstruction(fam, schedule)
    elapsed = time.perf_counter() - t0
    ratios = [r["ratio"] for r in rep.pairs]
    growth = ratios[2] / ratios[0]
    oracle = [_example1_w_inf_oracle(x) / x for x, _ in schedule]
    rel_err = max(abs(r - o) / o for r, o in zip(ratios, oracle))
    slope_err = abs(rep.slope + 1.0 / 3.0)
    ok = (
        rel_err <= 1e-6
        and slope_err <= 0.01
        and rep.verdict == "BLOWUP-DETECTED"
        and growth >= 2.0
        and elapsed < 10.0
    )
    assert _report(
        6, ok,
        f"ratio growth={growth:.2f} (>=2), {rep.verdict}, "
        f"max rel err vs root-solve oracle={rel_err:.1e} (<=1e-6), "
        f"fitted slope={rep.slope:.5f}, |slope+1/3|={slope_err:.1e} (<=0.01), "
        f"{elapsed:.1f}s (<10s)",
    )


def test_criterion_07_expectation_fixture():
    fam = builtin_family("example1", k=2)
    h = parse_density_expression("m", variables=("m",))
    xs = np.linspace(-0.8, 0.8, 9)
    rep = expectation_curve(fam, h, xs, k=2)
    e0 = rep.values[4]
    d2 = rep.derivatives[2][4]
    ok = (
        abs(e0 - 5.0 / 6.0) <= 1e-6
        and abs(d2 + 1.0 / 3.0) <= 1e-3
        and rep.verdict == "SMOOTH-CONSISTENT"
    )
    assert _report(
        7, ok,
        f"E_h(0)={e0:.8f} (5/6 +- 1e-6), E_h''={d2:.6f} (-1/3 +- 1e-3), {rep.verdict}",
    )


def test_criterion_08_assumption_dichotomy():
    hp = builtin_family("h_power", k=2, alpha=2.0)
    ref_hp = make_reference(hp, margin=0.5)
    env = make_envelope("power", k=2, alpha=2.0)
    rep_pass = check_decay_assumptions(hp, ref_hp, env, k=2)

    ex1 = builtin_family("example1", k=2)
    ref_ex1 = make_reference(ex1, margin=0.5)
    fails = []
    witness_ok = True
    for name, lib_env in library_envelopes(k=2, alpha=2.0).items():
        rep = check_decay_assumptions(ex1, ref_ex1, lib_env, k=2)
        fails.append(rep.verdict == "FAIL")
        rec = rep.margins.get(("derivative", 1, 0))
        witness_ok = witness_ok and rec is not None and rec["margin"] > 1.0
    ok = rep_pass.verdict == "PASS" and all(fails) and witness_ok
    assert _report(
        8, ok,
        f"h_power+power: {rep_pass.verdict} (worst margin {rep_pass.worst_margin:.3f}); "
        f"example1 FAILs all {len(fails)} library envelopes with a beta=1, j=0 witness",
    )


def test_criterion_09_cylinder_smoke():
    t0 = time.perf_counter()
    dom = make_domain("cylinder", circumference=1.0)
    fam = family_from_expression(
        "1 + 0.3*x*cos(2*pi*a)*cos(pi*t)", domain=dom, x_range=(-1.0, 1.0),
        k=2, normalize=False,
    )
    tf = build_representation(fam, mode="moser_only", grid_n=128, steps=64, floor=0.5)
    x = 0.8
    pot = tf.moser_at(x).potential
    # tent weights keep the quasi-random integrand continuous; sharp box
    # counting saturates near the tolerance at this sample count
    hist = pushforward_histogram_2d(
        lambda pts: tf.map_values(x, pts), dom,
        n_samples=2 ** 20, bins=64,
    )
    A0, A1 = tent_axis_weights(64, periodic=True, omega=2 * np.pi)
    T0, T1 = tent_axis_weights(64, periodic=False, omega=np.pi)
    target = np.outer(A0, T0) + 0.3 * x * np.outer(A1, T1)
    l1 = float(np.abs(hist["probs"] - target).sum())
    elapsed = time.perf_counter() - t0
    ok = pot.residual <= 1e-10 and l1 <= 5e-3 and elapsed < 300.0
    assert _report(
        9, ok,
        f"cylinder 128^2: residual={pot.residual:.2e} (<=1e-10), "
        f"L1={l1:.2e} over {hist['n_samples']} samples (<=5e-3), {elapsed:.0f}s (<300s)",
    )


def test_criterion_10_deterministic_reports(tmp_path):
    cfg_text = """
[domain]
kind = interval

[family]
name = affine
k = 2

[pipeline]
grid = 256
steps = 64
mode = full
seed = 21
x_samples = 3
floors = 1e-1, 1e-2

[outputs]
report = report.json
csv_dir = csv
"""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text, encoding="utf-8")
    code1 = cli_main(["represent", "--config", str(cfg), "--out", str(tmp_path / "a")])
    code2 = cli_main(["represent", "--config", str(cfg), "--out", str(tmp_path / "b")])
    b1 = (tmp_path / "a" / "report.json").read_bytes()
    b2 = (tmp_path / "b" / "report.json").read_bytes()
    ok = code1 == code2 == 0 and b1 == b2
    assert _report(
        10, ok,
        f"two identical runs: exit codes ({code1}, {code2}), "
        f"reports byte-identical: {b1 == b2} ({len(b1)} bytes)",
    )
