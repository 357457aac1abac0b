from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as si

from moser_transport import transport
from moser_transport import (
    ConfigurationError,
    DegeneracyError,
    InfeasibilityError,
    IntegrationError,
    MoserTransportError,
    QuantileTransport,
    ResolutionError,
    build_representation,
    builtin_family,
    ck_floor_scan,
    estimate_uniform_Ck,
    make_domain,
    family_from_expression,
    make_x_grid,
    pushforward_density_1d,
    pushforward_histogram_2d,
    sample_random_maps,
)
from oracles import CDF, cic_deposit_add_at, tent_axis_weights

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def constant_tf():
    fam = builtin_family("constant", k=2)
    return build_representation(fam, mode="moser_only", grid_n=256, steps=64, floor=0.5)


@pytest.fixture(scope="module")
def affine_tf():
    fam = builtin_family("affine", k=2)
    return build_representation(fam, mode="full", grid_n=512, steps=128)


def test_constant_family_identity(constant_tf):
    m = np.linspace(0, 1, 257)
    assert np.abs(constant_tf.map_values(0.3, m) - m).max() <= 1e-12


def test_mode_validation():
    fam = builtin_family("affine")
    with pytest.raises(ConfigurationError):
        build_representation(fam, v=0.5)
    with pytest.raises(ConfigurationError):
        build_representation(fam, mode="sideways")


def test_auto_mode_on_torus_is_moser_only():
    dom = make_domain("torus")
    fam = family_from_expression(
        "1 + 0.2*x*sin(2*pi*a)*sin(2*pi*t)", domain=dom, x_range=(0.0, 1.0),
        normalize=False,
    )
    tf = build_representation(fam, mode="auto", grid_n=32, steps=16, floor=0.5)
    assert tf.mode == "moser_only"


def _rearrangement_oracle(tf, x, m):
    nodes = np.unique(np.concatenate([
        np.linspace(0, 1, 2 ** 16 + 1), np.geomspace(1e-9, 1e-2, 200)
    ]))
    r0 = tf.rho0_fn(nodes)
    F0 = si.cumulative_trapezoid(r0, nodes, initial=0.0)
    F0 /= F0[-1]
    Fx = CDF["affine"](x, nodes)
    p = np.interp(m, nodes, F0)
    return np.interp(p, Fx, nodes)


def test_affine_full_mode_matches_rearrangement(affine_tf):
    m = np.linspace(0.0, 1.0, 257)
    for x in (0.5, -0.25, 0.0):
        vals = affine_tf.map_values(x, m)
        oracle = _rearrangement_oracle(affine_tf, x, m)
        assert np.abs(vals - oracle).max() <= 2e-4


def test_interface_continuity(affine_tf):
    for x in (-0.5, 0.0, 0.5):
        assert affine_tf.interface_gap(x) <= 1e-8


def test_pushforward_identity_map():
    y, nu = pushforward_density_1d(lambda m: m, lambda m: np.ones_like(m))
    assert np.trapezoid(np.abs(nu - 1.0), y) <= 1e-6


def test_pushforward_affine_recovers_density():
    fam = builtin_family("affine")
    x = 0.5

    def mono_map(m):
        return (-(1 - x) + np.sqrt((1 - x) ** 2 + 4 * x * np.asarray(m))) / (2 * x)

    y, nu = pushforward_density_1d(mono_map, lambda m: np.ones_like(m))
    target = fam.fn(x, y)
    assert np.trapezoid(np.abs(nu - target), y) <= 1e-4


def test_pushforward_rejects_non_monotone():
    with pytest.raises(ResolutionError):
        pushforward_density_1d(lambda m: np.asarray(m) ** 2 - np.asarray(m),
                               lambda m: np.ones_like(m))


def test_pushforward_rejects_a_massless_source():
    with pytest.raises(DegeneracyError, match="no mass"):
        pushforward_density_1d(lambda m: m, np.zeros_like)


def test_pushforward_verification_full_pipeline(affine_tf):
    rec = affine_tf.pushforward_check(0.4)
    assert rec["passed"] and rec["l1_error"] <= 1e-3


def test_pushforward_2d_smoke():
    dom = make_domain("cylinder", circumference=1.0)
    fam = family_from_expression(
        "1 + 0.3*x*cos(2*pi*a)*cos(pi*t)", domain=dom, x_range=(-1.0, 1.0),
        normalize=False,
    )
    tf = build_representation(fam, mode="moser_only", grid_n=32, steps=16, floor=0.5)
    x = 0.6
    hist = pushforward_histogram_2d(
        lambda pts: tf.map_values(x, pts), dom, n_samples=2 ** 16, bins=16,
    )
    # the target's tent-weighted cell masses in closed form, axis by axis
    A0, A1 = tent_axis_weights(16, periodic=True, omega=2 * np.pi)
    T0, T1 = tent_axis_weights(16, periodic=False, omega=np.pi)
    P = np.outer(A0, T0) + 0.3 * x * np.outer(A1, T1)
    l1 = np.abs(hist["probs"] - P).sum()
    assert l1 <= 0.05
    assert hist["n_samples"] == 2 ** 16


_EDGE_T = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@settings(deadline=None)
@given(bins=st.integers(2, 40), L=st.floats(0.25, 4.0), c=st.floats(0.1, 10.0),
       images=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), _EDGE_T),
                       max_size=60),
       cell=st.tuples(st.integers(0, 39), st.integers(0, 39)))
def test_tent_deposit_keeps_weight_nonnegative_and_in_place(bins, L, c, images, cell):
    # every image lands in bins >= 0 and all of it is kept, t = 0, t = 1 and
    # a just below L included; an image on a cell centre stays in that cell
    below_L = np.nextafter(L, 0.0)
    pts = np.array([(u * L, t) for u, t in images]
                   + [(below_L, 0.0), (below_L, 1.0), (0.0, 1.0)])
    counts = transport._cic_deposit(pts, bins, L)
    assert counts.shape == (bins, bins) and np.all(counts >= 0.0)
    assert abs(counts.sum() - len(pts)) <= 1e-12 * len(pts)
    i, j = cell[0] % bins, cell[1] % bins
    centre = np.array([[(i + 0.5) * L / bins, (j + 0.5) / bins]])
    assert transport._cic_deposit(centre, bins, L)[i, j] >= 1.0 - 1e-12
    # the target deposit of a constant density keeps its mass c L the same way
    dom = make_domain("cylinder", circumference=L)
    target = transport.binned_target_2d(lambda a, t: np.full_like(a, c), dom, bins=bins,
                                        oversample=2)
    assert np.all(target >= 0.0)
    assert abs(target.sum() - c * L) <= 1e-12 * c * L


@settings(deadline=None)
@given(bins=st.integers(2, 40), L=st.floats(0.25, 4.0),
       images=st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)), max_size=200),
       weighted=st.booleans())
def test_tent_deposit_is_the_four_add_at_deposit_bit_for_bit(bins, L, images, weighted):
    # one bincount adds each bin's terms in the order of the four add.at calls
    pts = np.array(images + [(0.0, 0.0), (np.nextafter(L, 0.0), 1.0)], dtype=float)
    pts[:, 0] *= L
    weights = np.cos(np.arange(len(pts))) if weighted else None
    got = transport._cic_deposit(pts, bins, L, weights=weights)
    want = cic_deposit_add_at(pts, bins, L, weights=weights)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_tent_deposit_is_the_four_add_at_deposit_at_benchmark_sizes():
    rng = np.random.default_rng(19)
    for n, bins in ((16_384, 24), (36_864, 64), (2 ** 18, 64)):
        pts = np.stack([rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)], axis=-1)
        assert np.array_equal(transport._cic_deposit(pts, bins, 1.0),
                              cic_deposit_add_at(pts, bins, 1.0))


def test_quantile_transport_spot_value():
    qt = QuantileTransport(builtin_family("affine"), ref_cdf=lambda m: np.asarray(m))
    assert qt.map_values(0.5, 0.5) == pytest.approx(GOLDEN, abs=1e-12)


def test_estimate_ck_constant_family(constant_tf):
    rep = estimate_uniform_Ck(constant_tf, np.geomspace(1e-3, 1, 9),
                              np.linspace(-0.8, 0.8, 5), k=2)
    assert rep.sups[1] <= 1e-10
    assert rep.sups[2] <= 1e-8
    assert rep.richardson_stable[1]


def test_estimate_ck_affine_stable(affine_tf):
    rep = estimate_uniform_Ck(affine_tf, np.geomspace(1e-3, 1, 7),
                              np.linspace(-0.35, 0.35, 5), k=1)
    assert 0 < rep.sups[1] < 10
    assert rep.stable_fraction[1] >= 0.9


def test_floor_scan_example1_blowup():
    qt = QuantileTransport(builtin_family("example1"), ref_x=0.0)
    scan = ck_floor_scan(qt, [1e-2, 1e-3, 1e-4], k=1, floor_mode="match",
                         m_per_floor=15, x_nodes=6)
    assert scan.verdict == "UNBOUNDED-SUSPECT"
    for growth in scan.growths[1]:
        assert growth >= 2.0


def test_floor_scan_needs_two_floors(constant_tf):
    with pytest.raises(ConfigurationError):
        ck_floor_scan(constant_tf, [1e-2], k=1)


def test_sample_random_maps_deterministic(constant_tf):
    s1 = sample_random_maps(constant_tf, 8, seed=42)
    s2 = sample_random_maps(constant_tf, 8, seed=42)
    assert [s.omega for s in s1] == [s.omega for s in s2]
    s3 = sample_random_maps(constant_tf, 8, seed=43)
    assert [s.omega for s in s1] != [s.omega for s in s3]


def test_sample_random_maps_constant_family(constant_tf):
    (sample,) = sample_random_maps(constant_tf, 1, seed=5)
    assert sample.map(0.25) == pytest.approx(sample.omega, abs=1e-12)


def test_sample_random_maps_ks_distance(affine_tf):
    samples = sample_random_maps(affine_tf, 10 ** 4, seed=11)
    x = 0.5
    omegas = np.array([s.omega for s in samples])
    images = affine_tf.map_values(x, omegas)
    images.sort()
    cdf_vals = CDF["affine"](x, images)
    n = len(images)
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    ks = max(np.abs(emp_hi - cdf_vals).max(), np.abs(cdf_vals - emp_lo).max())
    assert ks <= 0.02


def test_sample_count_guard(constant_tf):
    with pytest.raises(ConfigurationError):
        sample_random_maps(constant_tf, 0)


def test_moser_only_requires_floor():
    fam = builtin_family("example1")
    with pytest.raises(Exception):
        build_representation(fam, mode="moser_only", grid_n=64, steps=16, floor=1e-3)


def test_reference_mass_is_probability(affine_tf):
    nodes = np.linspace(0, 1, 20001)
    mass = np.trapezoid(affine_tf.rho0_fn(nodes), nodes)
    assert mass == pytest.approx(1.0, abs=1e-6)
    # the completion bump lives away from the collar: rho0 = f on [0, 0.4]
    assert np.abs(
        affine_tf.rho0_fn(np.linspace(0, 0.39, 50))
        - affine_tf.ref.profile(np.linspace(0, 0.39, 50))
    ).max() == 0.0


def test_interior_image_outside_collar_complement_raises(monkeypatch):
    # an interior image outside [v, 1] is a fault, reported with x, never clipped
    fam = builtin_family("affine", k=2)
    tf = build_representation(fam, mode="full", grid_n=64, steps=16)
    mm = tf.moser_at(0.5)
    monkeypatch.setattr(mm, "evaluate", lambda pts: np.asarray(pts, dtype=float) + 0.01)
    with pytest.raises(IntegrationError, match="x=0.5"):
        tf.map_values(0.5, np.array([0.3, 0.995]))
    monkeypatch.setattr(mm, "evaluate", lambda pts: np.asarray(pts, dtype=float) - 0.01)
    with pytest.raises(IntegrationError, match="x=0.5"):
        tf.interface_gap(0.5)


@pytest.mark.parametrize("name, mode", [("h_power", "full"), ("affine", "moser_only")])
def test_map_values_takes_points_in_any_order(name, mode):
    fam = builtin_family(name, k=2, **({"alpha": 2.0} if name == "h_power" else {}))
    tf = build_representation(fam, mode=mode, grid_n=128, steps=32, floor=0.1)
    m = np.unique(np.concatenate([np.linspace(0.0, 1.0, 257), np.geomspace(1e-7, 1.0, 64)]))
    perm = np.random.default_rng(3).permutation(m.size)
    lo, hi = fam.x_range
    x = lo + 0.75 * (hi - lo)
    assert np.array_equal(tf.map_values(x, m[perm]), tf.map_values(x, m)[perm])
    assert tf.map_values(x, m[7]) == tf.map_values(x, m)[7]


def test_maps_are_cached_by_exact_x():
    tf = build_representation(builtin_family("affine", k=2), mode="full", grid_n=64,
                              steps=16)
    mm, cm = tf.moser_at(1e-16), tf.collar_at(1e-16)
    assert tf.moser_at(4e-16) is not mm and tf.moser_at(4e-16).x == 4e-16
    assert tf.collar_at(4e-16) is not cm and tf.collar_at(4e-16).x == 4e-16
    assert tf.moser_at(np.float64(1e-16)) is mm


def _plan_spy(monkeypatch):
    """The xs of each plan built through transport.moser_map_from_values, and its maps."""
    real = transport.moser_map_from_values
    plans = []

    def spy(*args, **kwargs):
        built = real(*args, **kwargs)
        plans.append(([float(x) for x in args[3]], built))
        return built

    monkeypatch.setattr(transport, "moser_map_from_values", spy)
    return plans


def test_prefetch_builds_only_uncached_values(monkeypatch):
    tf = build_representation(builtin_family("affine", k=2), mode="full", grid_n=64,
                              steps=16)
    plans = _plan_spy(monkeypatch)
    # verify plans its values once, up front: one build for its distinct values
    tf.verify([0.1, -0.2, 0.1], n_fine=2 ** 10)
    assert [xs for xs, _ in plans] == [[0.1, -0.2]]
    tf.prefetch([-0.2, 0.1])
    tf.moser_at(0.1)
    tf.map_values(-0.2, np.linspace(0.0, 1.0, 5))
    assert [xs for xs, _ in plans] == [[0.1, -0.2]]
    tf.prefetch([0.1, 0.3, 0.3])
    assert [xs for xs, _ in plans] == [[0.1, -0.2], [0.3]]
    # the scan plans every floor, order and difference node at once
    ck_floor_scan(tf, [1e-2, 1e-3], k=2, m_per_floor=5, x_nodes=3)
    assert len(plans) == 3 and len(plans[-1][0]) > 3


@pytest.mark.parametrize("m", range(21))
def test_sobol_net_matches_scipy_bit_for_bit(m):
    # scipy stays the oracle in the tests; the package itself imports no scipy
    from scipy.stats import qmc

    expect = qmc.Sobol(d=2, scramble=False).random(2 ** m)
    got = transport._sobol_net_2d(m)
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))


def _cylinder_flow_tf(grid_n=24, steps=8):
    fam = family_from_expression(
        "1 + 0.3*x*cos(2*pi*a)*cos(pi*t) + 0.2*x*sin(2*pi*a)*(t^2 - 1/3)",
        domain=make_domain("cylinder", circumference=1.0), x_range=(-1.0, 1.0), k=2,
        normalize=False,
    )
    return build_representation(fam, mode="moser_only", grid_n=grid_n, steps=steps, floor=0.5)


def _scan_grids(tf, floors, floor_mode, m_per_floor, x_nodes):
    """Each floor's (x grid, m grid) as ck_floor_scan lays them out."""
    out = []
    for floor in floors:
        ts = np.geomspace(floor, 1.0, m_per_floor)
        if tf.domain.dim == 2:
            a_nodes = np.linspace(0.0, tf.domain.circumference, 5)[:-1]
            aa, tt = np.meshgrid(a_nodes, ts, indexing="ij")
            ts = np.stack([aa.reshape(-1), tt.reshape(-1)], axis=-1)
        out.append((make_x_grid(tf.x_range, floor_mode, floor, n=x_nodes), ts))
    return out


@pytest.mark.parametrize("make, floors, k, floor_mode, m_per_floor, x_nodes", [
    pytest.param(lambda: build_representation(builtin_family("h_power", k=2, alpha=2.0),
                                              mode="full", grid_n=128, steps=32,
                                              collar_t_nodes=160),
                 [1e-2, 1e-3, 1e-4], 1, "fixed", 9, 4, id="h_power-full"),
    pytest.param(lambda: QuantileTransport(builtin_family("example1"), ref_x=0.0),
                 [1e-2, 1e-3, 1e-4], 1, "match", 15, 6, id="quantile-example1"),
    pytest.param(_cylinder_flow_tf, [1e-1, 1e-2], 2, "fixed", 25, 10, id="cylinder"),
])
def test_floor_scan_reports_equal_each_floors_own_estimate(make, floors, k, floor_mode,
                                                           m_per_floor, x_nodes):
    # the scan queries each map once, at the union of the floors' points; each
    # floor's rows give the report estimate_uniform_Ck gives on that floor alone
    scan = ck_floor_scan(make(), floors, k=k, floor_mode=floor_mode,
                         m_per_floor=m_per_floor, x_nodes=x_nodes)
    alone = make()
    grids = _scan_grids(alone, floors, floor_mode, m_per_floor, x_nodes)
    assert len(scan.reports) == len(floors)
    for rep, (x_grid, m_grid) in zip(scan.reports, grids):
        assert rep == estimate_uniform_Ck(alone, m_grid, x_grid, k=k)


def _smooth_2d_family(kind, circumference=1.0):
    return family_from_expression("1 + 0.2*x*sin(2*pi*a)*sin(2*pi*t)",
                                  domain=make_domain(kind, circumference=circumference),
                                  x_range=(-1.0, 1.0), normalize=False)


def test_ck_scan_unwraps_periodic_images_across_the_seam():
    # T_x(p) = p + x (0.3, 0.1), wrapped on the torus: d/dx T_x = (0.3, 0.1) everywhere,
    # also where the image of one difference node wrapped and the other's did not
    pts = np.array([[0.99, 0.5], [0.5, 0.97], [0.0, 0.0], [0.4, 0.6]])
    shift = np.array([0.3, 0.1])

    def images(x):
        return (pts + x * shift) % 1.0

    x_grid = np.linspace(-0.9, 0.9, 7)
    torus = _smooth_2d_family("torus")
    plain = SimpleNamespace(x_range=(-1.0, 1.0), domain=make_domain("interval"))  # no circle
    rep = transport._ck_report(images, torus, x_grid, 1)
    assert rep.sups[1] == pytest.approx(np.hypot(0.3, 0.1), rel=1e-9)
    assert rep.richardson_stable[1]
    assert transport._ck_report(images, plain, x_grid, 1).sups[1] > 10
    # where no image wraps, unwrapping subtracts zero: the report is the same bit for bit
    inside = pts[3:]
    assert (transport._ck_report(lambda x: inside + x * shift, torus, x_grid, 1)
            == transport._ck_report(lambda x: inside + x * shift, plain, x_grid, 1))
    # the cylinder's circle is its first coordinate, of period the circumference
    wrapped = lambda x: (pts + x * shift) % [2.0, 10.0]
    assert transport._ck_report(wrapped, _smooth_2d_family("cylinder", 2.0), x_grid, 1).sups[1] \
        == pytest.approx(np.hypot(0.3, 0.1), rel=1e-9)


def test_torus_floor_scan_of_a_smooth_family_is_stable():
    # a node's image crosses the seam t = 0 between the two nodes of a difference at
    # x = -0.7, p = (0, 0.0261); read as a jump of one period it made the sup 26.6
    fam = family_from_expression(
        "1 + 0.3*x*cos(2*pi*a)*sin(2*pi*t) + 0.2*x*sin(2*pi*(a + t))",
        domain=make_domain("torus"), x_range=(-1.0, 1.0), k=1, normalize=False)
    tf = build_representation(fam, mode="moser_only", grid_n=32, steps=16, floor=0.4)
    scan = ck_floor_scan(tf, [1e-1, 1e-2])
    assert scan.verdict == "STABLE"
    assert scan.sups[1] == pytest.approx([0.04785, 0.04785], rel=1e-3)


def test_floor_scan_queries_each_difference_node_once(monkeypatch):
    qt = QuantileTransport(builtin_family("example1"), ref_x=0.0)
    real = qt.map_values
    calls = []

    def spy(x, points):
        calls.append((float(x), len(points)))
        return real(x, points)

    monkeypatch.setattr(qt, "map_values", spy)
    floors, m_per_floor = [1e-2, 1e-3, 1e-4], 15
    ck_floor_scan(qt, floors, k=2, floor_mode="match", m_per_floor=m_per_floor, x_nodes=6)
    nodes = {float(node) for floor in floors for j in (1, 2)
             for x, h in transport._ck_probes(qt.x_range,
                                              make_x_grid(qt.x_range, "match", floor, n=6), j)
             for step in (h, h / 2) for node in transport.difference_nodes(x, j, step)}
    xs = [x for x, _ in calls]
    assert len(xs) == len(set(xs)) and set(xs) == nodes
    assert {n for _, n in calls} == {len(floors) * m_per_floor}


def test_cylinder_floor_scan_integrates_only_the_nodes_it_reads(monkeypatch):
    from moser_transport import moser

    integrated = []
    real_flow = moser.integrate_flow

    def spy(provider, points, **kw):
        integrated.append(len(points))
        return real_flow(provider, points, **kw)

    monkeypatch.setattr(moser, "integrate_flow", spy)
    plans = _plan_spy(monkeypatch)
    tf = _cylinder_flow_tf()
    scan = ck_floor_scan(tf, [1e-1, 1e-2], k=2)
    [(xs, built)] = plans
    n_nodes = 24 * 24
    assert sum(integrated) < len(xs) * n_nodes // 2
    assert all(mm.done is not None for mm in built)
    # the partial maps were dropped once evaluated: the cache holds only complete maps
    assert tf._mosers == {}

    real_build = transport.moser_map_from_values
    monkeypatch.setattr(transport, "moser_map_from_values",
                        lambda *args, points=None, **kw: real_build(*args, **kw))
    full = _cylinder_flow_tf()
    assert ck_floor_scan(full, [1e-1, 1e-2], k=2) == scan
    assert all(mm.done is None for _, maps in plans[1:] for mm in maps)


def test_estimate_uniform_ck_plans_all_its_difference_nodes_at_once(monkeypatch):
    tf = build_representation(builtin_family("affine", k=2), mode="full", grid_n=64,
                              steps=16)
    plans = _plan_spy(monkeypatch)
    x_grid = np.linspace(-0.4, 0.4, 4)
    rep = estimate_uniform_Ck(tf, np.geomspace(1e-3, 1, 5), x_grid, k=2)
    nodes = {float(node) for j in (1, 2) for x, h in transport._ck_probes(tf.x_range, x_grid, j)
             for step in (h, h / 2) for node in transport.difference_nodes(x, j, step)}
    assert len(plans) == 1 and set(plans[0][0]) == nodes and len(plans[0][0]) == len(nodes)
    # its maps integrate only the nodes the points read and are dropped once
    # evaluated: a second estimate plans again and gives an equal report
    assert all(mm.done is not None for mm in plans[0][1]) and tf._mosers == {}
    assert estimate_uniform_Ck(tf, np.geomspace(1e-3, 1, 5), x_grid, k=2) == rep
    assert len(plans) == 2 and plans[1][0] == plans[0][0]


@pytest.mark.parametrize("kind", ["interval", "cylinder"])
def test_scan_caches_only_complete_maps(kind, monkeypatch):
    if kind == "cylinder":
        def make():
            return _cylinder_flow_tf(grid_n=16, steps=4)
        check = {"n_samples": 2 ** 8, "bins": 8}
        pts = interior = np.random.default_rng(2).uniform(0.0, 1.0, (64, 2))
    else:
        def make():
            return build_representation(builtin_family("affine", k=2), mode="full", grid_n=64,
                                        steps=16)
        check = {"n_fine": 2 ** 10}
        # 0 reads only the collar; v and 1 are the interior grid's end knots
        interior = np.concatenate([[0.25, 1.0], np.random.default_rng(2).uniform(0.25, 1.0, 62)])
        pts = np.concatenate([[0.0], interior])
    tf = make()
    tf.verify([-0.5, 0.5], **check)
    plans = _plan_spy(monkeypatch)
    ck_floor_scan(tf, [1e-1, 1e-2], k=1, x_nodes=4)
    assert sorted(tf._mosers) == [-0.5, 0.5]
    assert all(mm.done is None for mm in tf._mosers.values())
    # a later query at a scanned x, at points the scan never read, builds a
    # complete map, whose images a fresh complete build repeats bit for bit
    [(xs, built)] = plans
    with pytest.raises(IntegrationError, match="plan never integrated"):
        built[0].evaluate(interior)
    got = tf.map_values(xs[0], pts)
    assert tf._mosers[xs[0]].done is None
    assert np.array_equal(got, make().map_values(xs[0], pts))


@pytest.fixture(scope="module")
def h_power_tf():
    return build_representation(builtin_family("h_power", alpha=2.0), mode="full", grid_n=128)


def test_a_nan_collar_coordinate_raises_with_its_x(h_power_tf):
    with pytest.raises(InfeasibilityError,
                       match=r"^collar solve at x=0\.3: collar coordinate t outside \[0, 1\]"):
        h_power_tf.collar_at(0.3).g_batch([np.nan])


@pytest.mark.parametrize("points", [[np.nan], [0.5, np.nan]])
def test_a_nan_point_raises_with_its_x(h_power_tf, points):
    # NaN is not below v, so it reaches the interior map, which rejects it
    with pytest.raises(IntegrationError, match=r"^query at x=0\.3: point \[nan\] is not finite$"):
        h_power_tf.map_values(0.3, np.array(points))


def test_a_nan_interior_image_raises_with_its_x(h_power_tf):
    # the interior map rejects a NaN point itself, so a map that returns a NaN image stands in
    mm = mock.Mock(evaluate=lambda points: np.array([np.nan, 0.5]))
    with pytest.raises(IntegrationError, match=r"leaves \[0\.25, 1\] by nan at x=0\.3$"):
        h_power_tf._interior_images(0.3, mm, np.array([0.4, 0.5]))


def test_a_subnormal_point_maps_below_its_normal_neighbours():
    # at a subnormal target every relative stop test of the Newton inversion
    # underflows; the inversion once ran to its cap there and raised
    fam = builtin_family("affine")
    tf = build_representation(fam, mode="full", grid_n=128)
    images = tf.map_values(0.3, np.array([5e-324, 1e-315, 1e-310, 1e-308, 1e-300]))
    assert images[0] >= 0.0 and np.all(np.diff(images) > 0.0) and images[-1] < 1e-299
    table = fam.mass_table(0.3)
    for target in (5e-324, 1e-315, 1e-310):
        g = table.invert(target)
        assert table.cdf(np.nextafter(g, 0.0)) <= target <= table.cdf(np.nextafter(g, 1.0))


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["example1", "h_power", "affine"]),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       picks=st.lists(st.integers(0, 5), max_size=2),
       extra=st.lists(st.floats(0.0, 1.0), max_size=8))
def test_images_equal_one_x_map_values_bit_for_bit(name, fractions, picks, extra):
    # a plan's collars, its shared I_f below v and its stacked interior inversion
    # give each value what map_values gives it on a family that cached nothing
    def make():
        return build_representation(builtin_family(name), mode="full", grid_n=128, steps=32)

    lo, hi = builtin_family(name).x_range
    xs = [lo + f * (hi - lo) for f in fractions]
    for i in picks:    # a duplicate and a 1-ulp neighbour
        x = xs[i % len(xs)]
        xs += [x, float(np.nextafter(x, hi if x < hi else lo))]
    v = 0.25
    pts = np.array([0.0, 1e-9, np.nextafter(v, 0.0), v, np.nextafter(v, 1.0), 0.5, 1.0] + extra)
    def outcome(run):
        try:
            return run()
        except MoserTransportError as exc:    # a subnormal point fails the Newton iteration
            return type(exc), str(exc)

    fresh = make()
    want = [outcome(lambda: fresh.map_values(x, pts)) for x in xs]
    got = outcome(lambda: make().images(xs, pts))
    if isinstance(got, tuple):    # the plan raises what one of its values raises alone
        assert got in [w for w in want if isinstance(w, tuple)]
    else:
        for row, one in zip(got, want):
            assert np.array_equal(row, one)
