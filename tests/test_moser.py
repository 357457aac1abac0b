from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as si, sparse

from moser_transport import (
    DegeneracyError,
    IntegrationError,
    MassMismatchError,
    SolverError,
    assemble_rhs,
    build_representation,
    builtin_family,
    cylinder_grid,
    family_from_expression,
    integrate_flow,
    interval_grid,
    make_domain,
    pushforward_density_1d,
    solve_neumann_poisson,
    torus_grid,
)
from moser_transport import moser
from moser_transport.geometry import Pchip
from moser_transport.moser import (
    VelocityProvider,
    apply_stiffness,
    gradient,
    moser_map_from_values,
)


def _stiffness_1d(axis):
    n, h = axis.n, axis.spacing
    main = np.full(n, 2.0 / h)
    off = np.full(n - 1, -1.0 / h)
    K = sparse.diags([off, main, off], offsets=(-1, 0, 1), format="lil")
    if axis.periodic:
        K[0, -1] = K[-1, 0] = -1.0 / h
    else:
        K[0, 0] = K[-1, -1] = 1.0 / h
    return K.tocsr()


def stiffness(grid):
    """Assembled sparse P1 stiffness matrix: the oracle for apply_stiffness."""
    if grid.dim == 1:
        return _stiffness_1d(grid.axes[0])
    Ka = _stiffness_1d(grid.axes[0])
    Kt = _stiffness_1d(grid.axes[1])
    Ma = sparse.diags(grid.axes[0].weights)
    Mt = sparse.diags(grid.axes[1].weights)
    return (sparse.kron(Ka, Mt) + sparse.kron(Ma, Kt)).tocsr()


def _uniform(m):
    return np.ones_like(np.asarray(m, dtype=float))


def test_rhs_identical_densities_zero():
    grid = interval_grid(64)
    rho = 1.0 + 0.3 * np.sin(2 * np.pi * grid.nodes(0))
    out = assemble_rhs(rho, rho, grid)
    assert np.abs(out).max() == 0.0


def test_rhs_affine_mean_zero():
    grid = interval_grid(128)
    nodes = grid.nodes(0)
    out = assemble_rhs(1.0 + 0.5 * (2 * nodes - 1), np.ones_like(nodes), grid)
    assert abs(grid.integrate(out)) <= 1e-14


def test_rhs_mass_mismatch():
    grid = interval_grid(64)
    nodes = grid.nodes(0)
    with pytest.raises(MassMismatchError):
        assemble_rhs(np.ones_like(nodes), 0.9 * np.ones_like(nodes), grid)


def test_solve_homogeneous_is_zero():
    grid = interval_grid(128)
    pot = solve_neumann_poisson(np.zeros(128), grid)
    assert np.abs(pot.values).max() == 0.0
    assert pot.iterations == 0


def test_solve_affine_closed_form():
    # -u'' = 2m - 1 with u'(0) = u'(1) = 0:  u = -(m^3/3 - m^2/2) + shift
    grid = interval_grid(1024)
    nodes = grid.nodes(0)
    pot = solve_neumann_poisson(assemble_rhs(2 * nodes, np.ones_like(nodes), grid), grid)
    exact = -(nodes ** 3 / 3 - nodes ** 2 / 2)
    exact -= grid.integrate(exact)
    assert np.abs(pot.values - exact).max() <= 5e-7
    assert pot.residual <= 1e-10
    assert abs(grid.integrate(pot.values)) <= 1e-12
    # mirror Neumann closure: the end differences are O(h), not O(1)
    h = nodes[1] - nodes[0]
    assert abs(pot.values[1] - pot.values[0]) / h <= h
    assert abs(pot.values[-1] - pot.values[-2]) / h <= h


def test_solve_matches_double_integration_oracle():
    # independent oracle: u(t) = -int_0^t int_0^s rhs + Neumann/mean correction
    grid = interval_grid(512)
    nodes = grid.nodes(0)
    rhs = np.cos(2 * np.pi * nodes) + 0.5 * np.sin(np.pi * nodes) ** 2 - 0.25
    rhs = rhs - grid.integrate(rhs)
    fine = np.linspace(0.0, 1.0, 2 ** 15 + 1)
    rhs_fine = np.interp(fine, nodes, rhs)
    inner = si.cumulative_trapezoid(rhs_fine, fine, initial=0.0)
    u_fine = -si.cumulative_trapezoid(inner, fine, initial=0.0)
    u_fine -= np.trapezoid(u_fine, fine)
    pot = solve_neumann_poisson(rhs, grid)
    oracle = np.interp(nodes, fine, u_fine)
    assert np.abs(pot.values - oracle).max() <= 5e-5


def test_solve_cylinder_manufactured_eigenexpansion():
    # rhs = cos(2 pi a) (2t - 1): separable cosine-series oracle
    grid = cylinder_grid(64, 64)
    aa, tt = grid.meshes()
    rhs = np.cos(2 * np.pi * aa) * (2 * tt - 1)
    pot = solve_neumann_poisson(rhs, grid, tol=1e-12)
    series = np.zeros_like(tt)
    for k in range(1, 200, 2):
        b_k = -8.0 / (k * k * np.pi * np.pi)
        series += b_k * np.cos(k * np.pi * tt) / (4 * np.pi ** 2 + k ** 2 * np.pi ** 2)
    oracle = np.cos(2 * np.pi * aa) * series
    oracle -= grid.integrate(oracle) / grid.integrate(np.ones_like(oracle))
    assert pot.residual <= 1e-12
    assert np.abs(pot.values - oracle).max() <= 1e-3


def test_velocity_zero_potential():
    grid = interval_grid(64)
    pot = solve_neumann_poisson(np.zeros(64), grid)
    (vel,) = VelocityProvider(grid, pot, np.ones(64), np.ones(64), 1e-12).snapshot(0.0)
    assert np.abs(vel).max() == 0.0


def test_velocity_affine_formula():
    # V(m) = u'(m) / rho0 = x (m - m^2) at t = 0 for the affine deformation
    grid = interval_grid(2048)
    nodes = grid.nodes(0)
    x = 0.5
    rhox = 1.0 + x * (2 * nodes - 1)
    pot = solve_neumann_poisson(assemble_rhs(rhox, np.ones_like(nodes), grid), grid)
    (vel,) = VelocityProvider(grid, pot, np.ones_like(nodes), rhox, 1e-12).snapshot(0.0)
    interior = slice(8, -8)
    expect = x * (nodes - nodes ** 2)
    assert np.abs(vel[interior] - expect[interior]).max() <= 1e-5
    assert vel[0] == 0.0 and vel[-1] == 0.0


def test_velocity_denominator_guard():
    grid = interval_grid(64)
    nodes = grid.nodes(0)
    pot = solve_neumann_poisson(assemble_rhs(2 * nodes, np.ones_like(nodes), grid), grid)
    rhox = np.ones_like(nodes)
    rhox[10] = 0.0
    with pytest.raises(DegeneracyError):
        VelocityProvider(grid, pot, np.ones_like(nodes), rhox, c_min=0.1)


def test_flow_zero_field_identity():
    grid = interval_grid(64)
    pot = solve_neumann_poisson(np.zeros(64), grid)
    provider = VelocityProvider(grid, pot, np.ones(64), np.ones(64), 0.5)
    pts = np.linspace(0, 1, 17)
    out, clamps = integrate_flow(provider, pts, steps=16)
    assert np.array_equal(out, pts)
    assert clamps == 0


def _on_grid(fn, grid):
    """Velocity ``fn(t, p)`` as a provider for integrate_flow on ``grid``."""
    fn.grid = grid
    return fn


GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def test_flow_affine_golden_ratio():
    fam = builtin_family("affine")
    grid = interval_grid(1024)
    nodes = grid.nodes(0)
    [mm] = moser_map_from_values(_uniform(nodes), [fam.fn(0.5, nodes)], grid, [0.5], steps=256)
    val = mm.evaluate(np.array([0.5]))[0]
    assert val == pytest.approx(GOLDEN, abs=1e-6)


def test_flow_reverse_round_trip():
    fam = builtin_family("affine")
    grid = interval_grid(512)
    nodes = grid.nodes(0)
    [mm] = moser_map_from_values(_uniform(nodes), [fam.fn(0.5, nodes)], grid, [0.5], steps=128)
    reverse = _on_grid(lambda t, p: -mm.provider(1.0 - t, p), grid)
    fwd, _ = integrate_flow(mm.provider, nodes, steps=128)
    back, _ = integrate_flow(reverse, fwd, steps=128)
    # 10x the interpolation tolerance of this grid
    assert np.abs(back - nodes).max() <= 10 * (1.0 / 511) ** 2


def test_moser_constant_family_identity():
    fam = builtin_family("constant")
    grid = interval_grid(256)
    nodes = grid.nodes(0)
    [mm] = moser_map_from_values(_uniform(nodes), [fam.fn(0.2, nodes)], grid, [0.2], steps=64)
    assert np.abs(mm.node_images - grid.nodes(0)).max() == 0.0


def _affine_oracle(x, m):
    if x == 0.0:
        return np.asarray(m, dtype=float)
    m = np.asarray(m, dtype=float)
    return (-(1 - x) + np.sqrt((1 - x) ** 2 + 4 * x * m)) / (2 * x)


def test_moser_matches_quantile_oracle():
    fam = builtin_family("affine")
    grid = interval_grid(512)
    nodes = grid.nodes(0)
    for x in (0.5, -0.25):
        [mm] = moser_map_from_values(_uniform(nodes), [fam.fn(x, nodes)], grid, [x], steps=128)
        assert np.abs(mm.node_images - _affine_oracle(x, grid.nodes(0))).max() <= 1e-5
        assert np.all(np.diff(mm.node_images) > 0)
        assert mm.clamp_events == 0


def test_moser_grid_convergence_order():
    fam = builtin_family("affine")
    errs = []
    for n, steps in ((64, 16), (128, 32), (256, 64)):
        grid = interval_grid(n)
        nodes = grid.nodes(0)
        [mm] = moser_map_from_values(_uniform(nodes), [fam.fn(0.5, nodes)], grid, [0.5],
                                     steps=steps)
        errs.append(np.abs(mm.node_images - _affine_oracle(0.5, grid.nodes(0))).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.5


def test_intermediate_deformation_consistency():
    # (Phi_{1/2})_* mu matches the linear interpolation eta_{1/2}
    fam = builtin_family("affine")
    grid = interval_grid(1024)
    x = 0.5
    nodes = grid.nodes(0)
    [mm] = moser_map_from_values(_uniform(nodes), [fam.fn(x, nodes)], grid, [x], steps=128)
    # s -> Phi_{s/2}: the velocity 0.5 V_{t/2} over unit time ends at time 1/2
    half = _on_grid(lambda t, p: 0.5 * mm.provider(0.5 * t, p), grid)

    def half_map(pts):
        return integrate_flow(half, np.asarray(pts, dtype=float), steps=64)[0]

    y, nu = pushforward_density_1d(half_map, _uniform, n_fine=2 ** 12)
    eta_half = 1.0 + 0.5 * x * (2 * y - 1)
    l1 = np.trapezoid(np.abs(nu - eta_half), y)
    assert l1 <= 1e-3


@settings(max_examples=10, deadline=None)
@given(x=st.floats(-0.5, 0.5))
def test_flow_monotone_for_affine(x):
    fam = builtin_family("affine")
    grid = interval_grid(128)
    nodes = grid.nodes(0)
    [mm] = moser_map_from_values(_uniform(nodes), [fam.fn(x, nodes)], grid, [x], steps=32)
    assert np.all(np.diff(mm.node_images) > 0)
    assert mm.node_images.min() >= 0.0 and mm.node_images.max() <= 1.0


def test_moser_map_from_values_positivity_guard():
    grid = interval_grid(64)
    with pytest.raises(DegeneracyError):
        moser_map_from_values(np.zeros(64), [np.ones(64)], grid, [0.0])


def _generic_rhs(grid):
    if grid.dim == 1:
        m = grid.nodes(0)
        rhs = np.cos(3 * m) + m ** 2 + 0.3 * np.sin(7 * m)
    else:
        aa, tt = grid.meshes()
        rhs = (0.3 * np.cos(2 * np.pi * aa) * np.cos(np.pi * tt)
               + 0.2 * np.sin(2 * np.pi * aa) * (tt ** 2 - 1 / 3))
    return rhs - grid.integrate(rhs) / grid.integrate(np.ones_like(rhs))


@pytest.mark.parametrize("grid", [interval_grid(1024), cylinder_grid(128, 128)],
                         ids=["interval1024", "cylinder128"])
def test_solve_reports_true_residual(grid):
    # the reported residual is ||b - K u|| / ||b|| of the returned u.  On the
    # interval it sits at the rounding floor of a float64 K u product, where
    # two summation orders differ by ~5 %, so each row of the oracle b - K u
    # is computed exactly in rationals and rounded once.
    tol = 1e-10
    rhs = _generic_rhs(grid)
    pot = solve_neumann_poisson(rhs, grid, tol=tol)
    b = grid.weight_field().reshape(-1) * rhs.reshape(-1)
    b -= b.mean()
    K = stiffness(grid).tocsr()
    u = pot.values.reshape(-1)
    r = np.empty_like(b)
    for i in range(b.size):
        cols = slice(K.indptr[i], K.indptr[i + 1])
        exact = Fraction(b[i]) - sum(Fraction(k) * Fraction(v)
                                     for k, v in zip(K.data[cols], u[K.indices[cols]]))
        r[i] = float(exact)
    true = float(np.linalg.norm(r) / np.linalg.norm(b))
    assert pot.residual == pytest.approx(true, rel=1e-3)
    assert true <= tol
    assert pot.iterations in (1, 2)


def _flow_oracle_gap(mm, queries, steps):
    # RK4 re-integration of the queries through the same velocity provider
    reintegrated, _ = integrate_flow(mm.provider, queries, steps=steps)
    diff = mm.evaluate(queries) - reintegrated
    if mm.grid.dim == 2:
        L = mm.grid.axes[0].length
        diff[:, 0] -= L * np.round(diff[:, 0] / L)
    return float(np.abs(diff).max())


def test_evaluate_matches_reintegration_1d():
    rng = np.random.default_rng(7)
    fam = builtin_family("affine")
    grid = interval_grid(1024)
    nodes = grid.nodes(0)
    for x in (0.5, -0.5):
        [mm] = moser_map_from_values(_uniform(nodes), [fam.fn(x, nodes)], grid, [x], steps=256)
        assert _flow_oracle_gap(mm, rng.uniform(0.0, 1.0, 2000), 256) <= 2e-6
    tf = build_representation(builtin_family("h_power", k=2, alpha=2.0), mode="full",
                              grid_n=1024, steps=256)
    for x in (0.2, 0.8):
        mm = tf.moser_at(x)
        assert _flow_oracle_gap(mm, rng.uniform(tf.v, 1.0, 2000), tf.steps) <= 2e-6


def test_evaluate_matches_reintegration_cylinder():
    dom = make_domain("cylinder", circumference=1.0)
    fam = family_from_expression(
        "1 + 0.3*x*cos(2*pi*a)*cos(pi*t) + 0.2*x*sin(2*pi*a)*(t^2 - 1/3)",
        domain=dom, x_range=(-1.0, 1.0), k=2, normalize=False,
    )
    tf = build_representation(fam, mode="moser_only", grid_n=48, steps=24, floor=0.5)
    mm = tf.moser_at(1.0)
    rng = np.random.default_rng(11)
    queries = rng.uniform(0.0, 1.0, (4096, 2))
    assert _flow_oracle_gap(mm, queries, tf.steps) <= 2e-4


@settings(max_examples=15, deadline=None)
@given(x=st.floats(-0.5, 0.5),
       ticks=st.lists(st.integers(0, 10 ** 6), min_size=2, max_size=200, unique=True))
def test_evaluate_monotone_bounded_and_nodal_for_affine(x, ticks):
    grid = interval_grid(128)
    nodes = grid.nodes(0)
    [mm] = moser_map_from_values(_uniform(nodes), [builtin_family("affine").fn(x, nodes)], grid,
                                 [x], steps=32)
    vals = mm.evaluate(np.sort(np.asarray(ticks, dtype=float)) / 10 ** 6)
    assert np.all(np.diff(vals) > 0)
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    assert np.abs(mm.evaluate(grid.nodes(0)) - mm.node_images).max() <= 1e-14


def test_evaluate_rejects_points_outside_grid():
    grid = interval_grid(64)
    nodes = grid.nodes(0)
    [mm] = moser_map_from_values(_uniform(nodes), [builtin_family("affine").fn(0.5, nodes)],
                                 grid, [0.5], steps=16)
    assert mm.evaluate(np.array([-1e-13, 1.0 + 1e-13])).tolist() == [0.0, 1.0]
    for bad in (-1e-9, 1.0 + 1e-9):
        with pytest.raises(IntegrationError):
            mm.evaluate(np.array([0.5, bad]))
    tf = build_representation(
        family_from_expression("1 + 0.2*x*cos(pi*t)", domain=make_domain("cylinder"),
                               x_range=(0.0, 1.0), normalize=False),
        mode="moser_only", grid_n=16, steps=8, floor=0.5,
    )
    mm2 = tf.moser_at(1.0)
    # the circle coordinate wraps; the bounded one must stay in [0, 1]
    wrapped = mm2.evaluate(np.array([[1.25, 0.5], [-0.75, 0.5]]))
    assert np.abs(wrapped[0] - wrapped[1]).max() <= 1e-15
    with pytest.raises(IntegrationError):
        mm2.evaluate(np.array([[0.5, 1.0 + 1e-9]]))


def test_node_displacement_unwraps_circle_and_rejects_ambiguous():
    from moser_transport.moser import _node_displacement

    grid = cylinder_grid(8, 8, circumference=2.0)
    aa, tt = grid.meshes()
    seeds = np.stack([aa.reshape(-1), tt.reshape(-1)], axis=-1)
    images = seeds.copy()
    images[:, 0] = (seeds[:, 0] + 1.8) % 2.0  # a shift of -0.2 across the seam
    disp = _node_displacement(grid, seeds, images)
    assert np.abs(disp[0] + 0.2).max() <= 1e-12
    images[:, 0] = (seeds[:, 0] + 0.6) % 2.0  # beyond a quarter period
    with pytest.raises(IntegrationError):
        _node_displacement(grid, seeds, images)


def test_velocity_interpolates_across_torus_seam():
    grid = torus_grid(16, 16)
    aa, tt = grid.meshes()
    pot = solve_neumann_poisson(np.sin(2 * np.pi * tt) * np.cos(2 * np.pi * aa), grid)
    provider = VelocityProvider(grid, pot, np.ones(grid.shape), np.ones(grid.shape), 0.5)
    h = grid.axes[1].spacing
    on_seam = provider(0.0, np.array([[0.25, 1.0 - h / 2]]))[0]
    snap = provider.snapshot(0.0)
    expect = [0.5 * (c[4, -1] + c[4, 0]) for c in snap]
    assert np.abs(on_seam - expect).max() <= 1e-14


@pytest.mark.parametrize("grid", [interval_grid(1024), cylinder_grid(48, 48), torus_grid(64, 64)],
                         ids=["interval1024", "cylinder48", "torus64"])
def test_stiffness_stencil_matches_sparse_product(grid):
    u = np.random.default_rng(5).standard_normal(grid.shape)
    expect = (stiffness(grid) @ u.reshape(-1)).reshape(grid.shape)
    got = apply_stiffness(grid, u)
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


def _reference_velocity(grid, grad, rho0, rhox, t, points):
    """The former lookup: np.interp in 1D, four corner weights in 2D."""
    if grid.dim == 1:
        nodes = grid.nodes(0)
        g, r0, rx = (np.interp(points, nodes, f) for f in (grad[0], rho0, rhox))
        return g / (r0 + t * (rx - r0))

    def cell(ax, c):
        rel = (c - ax.lo) / ax.spacing
        if ax.periodic:
            i = np.floor(rel).astype(np.intp)
            return i % ax.n, (i + 1) % ax.n, rel - i
        i = np.clip(np.floor(rel).astype(np.intp), 0, ax.n - 2)
        return i, i + 1, np.clip(rel - i, 0.0, 1.0)

    F = np.stack([*grad, rho0, rhox], axis=-1)
    ia0, ia1, fa = cell(grid.axes[0], points[:, 0])
    it0, it1, ft = cell(grid.axes[1], points[:, 1])
    fa, ft = fa[:, None], ft[:, None]
    vals = (F[ia0, it0] * (1 - fa) * (1 - ft) + F[ia0, it1] * (1 - fa) * ft
            + F[ia1, it0] * fa * (1 - ft) + F[ia1, it1] * fa * ft)
    eta = vals[:, 2] + t * (vals[:, 3] - vals[:, 2])
    return vals[:, :2] / eta[:, None]


@pytest.mark.parametrize("kind", ["interval", "cylinder", "torus"])
def test_velocity_lookup_matches_reference(kind):
    rng = np.random.default_rng(13)
    if kind == "interval":
        grid = interval_grid(257, lo=0.25, hi=1.0)
        m = grid.nodes(0)
        # off-grid points hold the end values, as np.interp does
        pts = np.concatenate([rng.uniform(0.25, 1.0, 4000), m, [0.25, 1.0],
                              rng.uniform(0.0, 0.25, 50), rng.uniform(1.0, 1.5, 50)])
        rhox = 1.0 + 0.4 * np.cos(5 * m)
    else:
        grid = cylinder_grid(40, 33, circumference=2.0) if kind == "cylinder" else torus_grid(32, 24)
        aa, tt = grid.meshes()
        L = grid.axes[0].length
        h = [ax.spacing for ax in grid.axes]
        pts = rng.uniform(0.0, 1.0, (6000, 2)) * [L, 1.0]
        # circle seams, unwrapped coordinates, boundary rows (cylinder), off-grid rows
        edge = rng.uniform(0.0, 1.0, (600, 2)) * [L, 1.0]
        edge[:200, 0] = L - rng.uniform(0.0, h[0], 200)
        edge[200:300, 0] += L
        edge[300:400, 0] -= L
        edge[400:500, 1] = 0.0 if kind == "cylinder" else 1.0 - rng.uniform(0.0, h[1], 100)
        edge[500:550, 1] = 1.0 if kind == "cylinder" else edge[500:550, 1] - 1.0
        edge[550:, 1] = rng.uniform(-0.5, 1.5, 50)
        pts = np.concatenate([pts, edge])
        rhox = 1.0 + 0.3 * np.cos(2 * np.pi * aa / L) * np.sin(2 * np.pi * tt) + 0.1 * tt
    rho0 = np.ones(grid.shape)
    rhox = rhox / grid.integrate(rhox) * grid.integrate(rho0)
    pot = solve_neumann_poisson(assemble_rhs(rhox, rho0, grid), grid)
    provider = VelocityProvider(grid, pot, rho0, rhox, 0.1)
    grad = gradient(grid, pot.values)
    for t in (0.0, 0.375, 1.0):
        expect = _reference_velocity(grid, grad, rho0, rhox, t, pts)
        got = provider(t, pts)
        assert got.shape == expect.shape
        assert np.abs(got - expect).max() <= 1e-14


def _drift(grid, vel):
    """Constant velocity ``vel`` as a provider on ``grid``."""
    return _on_grid(lambda t, p: np.broadcast_to(np.asarray(vel, dtype=float), p.shape), grid)


def test_flow_clamps_within_one_cell_and_raises_beyond():
    grid = cylinder_grid(8, 11)  # t spacing 0.1
    aa, tt = grid.meshes()
    seeds = np.stack([aa.reshape(-1), tt.reshape(-1)], axis=-1)
    # 0.05 per unit time: every stage ends less than one cell past t = 1
    images, clamps = integrate_flow(_drift(grid, [0.3, 0.05]), seeds, steps=4)
    assert clamps > 0
    assert images[:, 1].min() >= 0.0 and images[:, 1].max() <= 1.0
    assert images[:, 0].min() >= 0.0 and images[:, 0].max() < 1.0
    circle = np.abs(images[:, 0] - (seeds[:, 0] + 0.3) % 1.0)
    assert np.minimum(circle, 1.0 - circle).max() <= 1e-14
    # a first half step of 0.25 leaves the grid by more than one cell
    with pytest.raises(IntegrationError, match="axis 1"):
        integrate_flow(_drift(grid, [0.0, 0.5]), seeds, steps=1)


def test_rk4_sweep_error_names_stage_and_x():
    grid = interval_grid(8)
    rhox = np.full(8, 0.2)
    w = grid.axes[0].weights
    rhox[-1] = (1.0 - grid.integrate(rhox) + 0.2 * w[-1]) / w[-1]
    # one RK4 step on seven cells overshoots t = 1 by more than a cell
    with pytest.raises(IntegrationError, match=r"RK4 sweep at x=0\.5: point"):
        moser_map_from_values(np.ones(8), [rhox], grid, [0.5], steps=1)


def test_velocity_floor_error_names_stage_and_x():
    grid = interval_grid(64)
    nodes = grid.nodes(0)
    with pytest.raises(DegeneracyError, match=r"velocity floor at x=-0\.25: interpolated"):
        moser_map_from_values(np.ones(64), [1.0 + 0.2 * (2 * nodes - 1)], grid, [-0.25],
                              c_floor=0.95)


def test_poisson_and_mass_errors_name_stage_and_x():
    # the true residual floor of a 4096-node interval solve lies above the
    # default solver tolerance (ROADMAP, "Standing")
    fam = builtin_family("affine")
    nodes = interval_grid(4096).nodes(0)
    with pytest.raises(SolverError, match=r"^Poisson solve at x=0\.5: "):
        moser_map_from_values(_uniform(nodes), [fam.fn(0.5, nodes)], interval_grid(4096), [0.5])
    grid = interval_grid(64)
    with pytest.raises(MassMismatchError, match=r"^mass balance at x=0\.25: "):
        moser_map_from_values(np.ones(64), [np.full(64, 0.9)], grid, [0.25])


@pytest.mark.parametrize("grid_n", [128, 1024])
@pytest.mark.parametrize("name, mode", [("h_power", "full"), ("affine", "moser_only")])
def test_stacked_sweep_matches_per_x_sweeps(name, mode, grid_n):
    # one RK4 sweep over the stacked seeds of a plan gives, block by block,
    # the node images of a sweep over that x alone, bit for bit
    fam = builtin_family(name, k=2, **({"alpha": 2.0} if name == "h_power" else {}))
    tf = build_representation(fam, mode=mode, grid_n=grid_n, steps=grid_n // 4, floor=0.1)
    lo, hi = fam.x_range
    xs = lo + (hi - lo) * np.array([0.2, 0.5, 0.9])
    tf.prefetch(xs)
    for x in xs:
        mm = tf.moser_at(x)
        alone, clamps = integrate_flow(mm.provider, mm.grid.nodes(0), steps=tf.steps)
        assert np.array_equal(mm.node_images, alone)
        assert mm.clamp_events == clamps


def _end_heavy(grid, level):
    """A density of mass one at ``level`` on all nodes but the last."""
    rhox = np.full(grid.axes[0].n, level)
    w = grid.axes[0].weights
    rhox[-1] = (1.0 - grid.integrate(rhox) + level * w[-1]) / w[-1]
    return rhox


def test_plan_sweep_error_names_the_block_x():
    grid = interval_grid(8)
    still, leaves = np.ones(8), _end_heavy(grid, 0.2)
    # one RK4 step on seven cells takes the second block more than a cell past t = 1
    for xs, plan in (([0.25, 0.5], [still, leaves]), ([0.5, 0.25], [leaves, still])):
        with pytest.raises(IntegrationError, match=r"^RK4 sweep at x=0\.5: point"):
            moser_map_from_values(np.ones(8), plan, grid, xs, steps=1)


def test_plan_clamp_counts_land_on_their_maps():
    grid = interval_grid(8)
    plan = [np.ones(8), _end_heavy(grid, 0.4), _end_heavy(grid, 0.6)]
    alone = [moser_map_from_values(np.ones(8), [rhox], grid, [x], steps=4)[0].clamp_events
             for x, rhox in zip((0.1, 0.2, 0.3), plan)]
    assert alone[1] > 0 and alone[0] == alone[2] == 0
    built = moser_map_from_values(np.ones(8), plan, grid, [0.1, 0.2, 0.3], steps=4)
    assert [mm.x for mm in built] == [0.1, 0.2, 0.3]
    assert [mm.clamp_events for mm in built] == alone


def _scipy_spectral_solve(grid, lam, f):
    """The solve as scipy.fft computes it: the oracle for the numpy transforms."""
    from scipy import fft as sp_fft

    bounded = [i for i, ax in enumerate(grid.axes) if not ax.periodic]
    periodic = [i for i, ax in enumerate(grid.axes) if ax.periodic]
    c = f
    for i in bounded:
        c = sp_fft.dct(c, type=1, axis=i)
    if periodic:
        c = sp_fft.fftn(c, axes=periodic)
    c = c / lam
    if periodic:
        c = sp_fft.ifftn(c, axes=periodic).real
    for i in bounded:
        c = sp_fft.idct(c, type=1, axis=i)
    return c


@pytest.mark.parametrize("grid", [interval_grid(n) for n in (2, 3, 17, 100, 129, 1024, 4097)]
                         + [cylinder_grid(na, nt) for na, nt in
                            ((2, 2), (3, 5), (16, 16), (33, 17), (100, 37), (128, 128))],
                         ids=lambda g: "x".join(map(str, g.shape)))
def test_spectral_solve_matches_scipy_fft(grid):
    from moser_transport.moser import _eigenvalues, _spectral_solve

    lam = _eigenvalues(grid)
    f = np.random.default_rng(grid.axes[0].n).standard_normal(grid.shape)
    assert np.array_equal(_spectral_solve(grid, lam, f), _scipy_spectral_solve(grid, lam, f))


def test_spectral_solve_on_torus_matches_scipy_to_rounding():
    from moser_transport.moser import _eigenvalues, _spectral_solve

    grid = torus_grid(33, 17)
    lam = _eigenvalues(grid)
    f = np.random.default_rng(4).standard_normal(grid.shape)
    got, expect = _spectral_solve(grid, lam, f), _scipy_spectral_solve(grid, lam, f)
    assert np.abs(got - expect).max() <= 4 * np.finfo(float).eps * np.abs(expect).max()


def _corners_flat_by_remainder(grid, points):
    """The flat corner indices of ``moser._corners`` with both periodic corners taken % n."""
    pts = points.reshape(-1, grid.dim)
    flat, stride = None, 1
    for i in reversed(range(grid.dim)):
        ax = grid.axes[i]
        rel = (pts[:, i] - ax.lo) / ax.spacing
        if ax.periodic:
            corner = (np.floor(rel).astype(np.intp) + np.array([[0], [1]])) % ax.n
        else:
            rel = np.minimum(np.maximum(rel, 0.0), ax.n - 1)
            corner = np.minimum(rel.astype(np.intp), ax.n - 2) + np.array([[0], [1]])
        corner = corner.reshape((1,) * i + (2,) + (1,) * (grid.dim - 1 - i) + (-1,))
        flat = corner if flat is None else flat + corner * stride
        stride *= ax.n
    return flat


@settings(deadline=None)
@given(make_grid=st.sampled_from([cylinder_grid, torus_grid]), n=st.integers(2, 40),
       pts=st.lists(st.tuples(st.floats(-3.0, 4.0), st.floats(-3.0, 4.0)), min_size=1,
                    max_size=60))
def test_corners_wrap_each_periodic_cell_once(make_grid, n, pts):
    # cells below 0 and at or above n included: the upper corner is the lower + 1, or 0
    grid = make_grid(n, n + 1)
    points = np.array(pts + [(1.0 - 1.0 / n, 0.5), (-1.0 / n, 0.5), (1.0, 1.0)])
    flat, _ = moser._corners(grid, points)
    assert flat.dtype == np.intp
    assert np.array_equal(flat, _corners_flat_by_remainder(grid, points))


@pytest.mark.parametrize("make_grid", [cylinder_grid, torus_grid], ids=["cylinder", "torus"])
def test_stacked_blocks_match_their_own_sweeps_across_the_seam(make_grid):
    # _corners wraps the periodic leading axis itself, so the seam nodes of a
    # block (a = 0 and a = 1 - h) read only their own block's node data
    grid = make_grid(8, 7)
    aa, tt = grid.meshes()
    n, nt = aa.size, grid.axes[1].n
    setups = [moser._flow_setup(np.ones(grid.shape),
                                1 + 0.3 * np.sin(2 * np.pi * (s * aa + 0.1)) * np.cos(np.pi * s * tt),
                                grid, s, 1e-10, 1e-4, None) for s in (1, 2, 3)]
    providers = [pv for _, pv in setups]
    seam = np.concatenate([np.arange(nt), np.arange(n - nt, n), [nt + 3, 2 * nt + 5]])
    seeds = np.stack([aa.ravel(), tt.ravel()], axis=-1)[seam]
    assert set(seeds[:, 0]) == {0.0, grid.axes[0].nodes[-1], *grid.axes[0].nodes[1:3]}
    stacked = VelocityProvider.stack(providers, len(seeds))
    images, _ = integrate_flow(stacked, np.concatenate([seeds] * 3), steps=8)
    blocks = np.split(images, 3)
    for block, provider in zip(blocks, providers):
        alone, _ = integrate_flow(provider, seeds, steps=8)
        assert np.array_equal(block, alone)
    assert not np.array_equal(blocks[0], blocks[1])


# -- maps integrate only the grid nodes their queries read ---------------------


def _boundary_heavy(grid, level):
    """A cylinder density that shifts mass onto the t = 1 circle near a = 0."""
    aa, _ = grid.meshes()
    w = grid.axes[1].weights
    g = np.full(grid.axes[1].n, -level)
    g[-1] = level * (1 - w[-1]) / w[-1]
    return 1 + (1 + np.cos(2 * np.pi * aa)) / 2 * g


def _pushes_to_the_rim(grid):
    """A smooth cylinder density whose flow clamps at t = 1 when integrated in two steps."""
    aa, tt = grid.meshes()
    bulge = np.exp(20 * (tt - 1)) * 20 / (1 - np.exp(-20)) - 1
    return 1 + 0.4 * (1 + np.cos(2 * np.pi * aa)) / 2 * bulge


def _seam_rim_node_points(grid):
    """Query points on the seam (a = 0, a = L, unwrapped a < 0), the rows t = 0
    and t = 1, grid nodes and points between nodes."""
    L = grid.axes[0].length
    ha, ht = grid.axes[0].spacing, grid.axes[1].spacing
    return np.array([
        [0.0, 0.37], [L, 0.37], [-0.3 * L, 0.52], [-L - ha / 3, 0.81],
        [0.41 * L, 0.0], [0.63 * L, 1.0], [0.0, 0.0], [L, 1.0],
        [3 * ha, 5 * ht], [7 * ha, 0.0], [0.123 * L, 0.456], [0.9 * L, 0.987],
    ])


def _knot_and_cell_points(grid):
    """Interval query points: the two end knots, points in the first and last cells,
    knots and points between knots.  The last six read nodes the first six do not."""
    m, h = grid.nodes(0), grid.axes[0].spacing
    n = m.size
    return np.array([m[0], m[0] + h / 3, m[n // 12], (m[n // 3] + m[n // 3 + 1]) / 2,
                     m[-1] - h / 4, m[-1], m[n // 2], m[2 * n // 3] + h / 5, m[1], m[-3],
                     m[n // 12 + 1] + h / 2, (m[0] + m[-1]) / 2])


def _query_points(grid):
    return _knot_and_cell_points(grid) if grid.dim == 1 else _seam_rim_node_points(grid)


def _cases():
    ivl = interval_grid(129, lo=0.25, hi=1.0)  # the interior grid of full mode at v = 1/4
    m = ivl.nodes(0)
    cyl = cylinder_grid(24, 24)
    tor = torus_grid(24, 20)
    aa, tt = tor.meshes()
    wavy = 1 + 0.4 * np.cos(2 * np.pi * aa) * np.cos(2 * np.pi * tt) + 0.2 * np.sin(2 * np.pi * tt)
    return {"interval": (ivl, 1 + 0.4 * np.cos(2 * np.pi * (m - 0.25) / 0.75), 16),
            "cylinder": (cyl, _pushes_to_the_rim(cyl), 2), "torus": (tor, wavy, 8)}


@pytest.mark.parametrize("kind", ["interval", "cylinder", "torus"])
def test_partial_map_matches_the_full_build_bit_for_bit(kind):
    grid, rhox, steps = _cases()[kind]
    n_nodes = rhox.size

    def build(points):
        return moser_map_from_values(np.ones(grid.shape), [rhox], grid, [0.5], steps=steps,
                                     tol_mass=2e-2, points=points)[0]

    full = build(None)
    assert full.done is None
    if kind == "cylinder":
        assert full.clamp_events > 0
    pts = _query_points(grid)
    partial = build(pts[:6])
    planned = np.flatnonzero(partial.done)
    assert 0 < planned.size < n_nodes // 4
    # the plan's points read only planned nodes, whose images are the full build's
    assert np.array_equal(partial.evaluate(pts[:6]), full.evaluate(pts[:6]))
    assert np.array_equal(partial._images[planned], full._images[planned])
    if grid.dim == 2:
        assert np.array_equal(partial.interpolant[:, planned], full.interpolant[:, planned])
    assert partial.clamp_events <= full.clamp_events
    # any other node was never integrated, and a query that reads one raises
    with pytest.raises(IntegrationError, match=r"^query at x=0\.5: reads grid nodes"):
        partial.evaluate(pts)
    with pytest.raises(IntegrationError, match=r"^query at x=0\.5: reads grid nodes"):
        partial.node_images
    assert np.array_equal(np.flatnonzero(partial.done), planned)


def test_a_partial_map_raises_for_a_point_that_reads_an_unplanned_node():
    m = _cases()["interval"][0].nodes(0)
    # (kind, the plan's point, points of its cell, a point that reads another node, nodes read):
    # on the interval a point reads its PCHIP cell's stencil and the two end nodes, and
    # a knot lies in the cell it starts
    for kind, planned, same_cell, other, n_read in (
            ("interval", [(m[40] + m[41]) / 2], [m[40], m[40] + 1e-9, m[41] - 1e-9], [m[41]], 6),
            ("torus", [[0.5, 0.5]], [[0.5, 0.5], [0.51, 0.52]], [[0.1, 0.9]], 4)):
        grid, rhox, steps = _cases()[kind]

        def build(points):
            return moser_map_from_values(np.ones(grid.shape), [rhox], grid, [0.25], steps=steps,
                                         tol_mass=2e-2, points=points)[0]

        mm = build(np.array(planned))
        assert int(mm.done.sum()) == n_read
        # a planned point again, and points of the same cell, read only planned nodes
        pts = np.array(planned + same_cell)
        assert np.array_equal(mm.evaluate(pts), build(None).evaluate(pts))
        with pytest.raises(IntegrationError, match=r"^query at x=0\.25: reads grid nodes"):
            mm.evaluate(np.array(planned + other))
        assert int(mm.done.sum()) == n_read


def test_a_2d_node_no_query_reads_is_never_integrated():
    grid = cylinder_grid(8, 11)  # t spacing 0.1
    rhox = _boundary_heavy(grid, 0.5)
    # in two RK4 steps the node (a, t) = (0, 0.7) leaves the grid by more than a cell
    with pytest.raises(IntegrationError, match=r"^RK4 sweep at x=0\.5: point"):
        moser_map_from_values(np.ones(grid.shape), [rhox], grid, [0.5], steps=2)
    far = np.array([[0.5, 0.1], [0.45, 0.35]])
    [mm] = moser_map_from_values(np.ones(grid.shape), [rhox], grid, [0.5], steps=2, points=far)
    images, done = mm.evaluate(far), mm.done.copy()
    # a query that reads the failing node raises the guard's error: nothing is integrated
    with pytest.raises(IntegrationError, match=r"^query at x=0\.5: reads grid nodes"):
        mm.evaluate(np.array([[0.01, 0.69]]))
    assert np.array_equal(mm.done, done)
    assert np.array_equal(mm.evaluate(far), images)
    with pytest.raises(IntegrationError, match=r"^query at x=0\.5: reads grid nodes"):
        mm.node_images


def test_a_later_chunk_rk4_failure_names_its_own_x():
    grid = cylinder_grid(8, 11)
    per = moser._SWEEP_POINTS // grid.axes[0].n // grid.axes[1].n
    xs = [round(0.01 * (i + 1), 2) for i in range(per + 2)]
    # only the second value of the second chunk leaves the grid, as in the test above
    plan = [np.ones(grid.shape)] * (per + 1) + [_boundary_heavy(grid, 0.5)]
    with pytest.raises(IntegrationError, match=rf"^RK4 sweep at x={xs[-1]!r}: point"):
        moser_map_from_values(np.ones(grid.shape), plan, grid, xs, steps=2)
    moser_map_from_values(np.ones(grid.shape), plan[:-1], grid, xs[:-1], steps=2)


def test_a_stacked_node_displacement_failure_names_its_own_x():
    grid = torus_grid(16, 8)
    aa, _ = grid.meshes()
    peaked = np.exp(4 * np.cos(2 * np.pi * aa))
    plan = [np.ones(grid.shape), np.ones(grid.shape), peaked / grid.integrate(peaked)]
    # the three values share one sweep; only the last moves a node beyond a quarter period
    with pytest.raises(IntegrationError, match=r"^node displacement at x=0\.3: node"):
        moser_map_from_values(np.ones(grid.shape), plan, grid, [0.1, 0.2, 0.3], steps=16)


def _wave_and_rim(grid, amp, phase, rim):
    """A density of the grid's mass one: a wave of amplitude ``amp`` and, scaled by
    ``rim``, mass shifted towards the t = 1 circle (the end m = 1 of the interval, or
    a second wave on the torus)."""
    if grid.dim == 1:
        m = grid.nodes(0)
        bulge = np.exp(20 * (m - 1)) * 20
        bulge -= grid.integrate(bulge)  # zero mean: the interval has length one
        # half the 2D rim: a whole one moves the nodes near m = 1 too far for two steps
        return 1 + amp * np.cos(2 * np.pi * (m - phase)) + rim / 2 * bulge
    aa, tt = grid.meshes()
    wave = amp * np.cos(2 * np.pi * (aa - phase)) * np.cos(np.pi * tt)
    if grid.axes[1].periodic:
        return 1 + wave + rim * np.cos(2 * np.pi * aa) * np.sin(2 * np.pi * (tt + phase))
    bulge = np.exp(20 * (tt - 1)) * 20
    bulge -= grid.integrate(bulge)  # zero mean: the axis a has length one
    return 1 + wave + rim * (1 + np.cos(2 * np.pi * aa)) / 2 * bulge


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["interval", "cylinder", "torus"]),
       plan=st.lists(st.tuples(st.floats(-0.3, 0.3), st.floats(0.0, 1.0), st.floats(0.0, 0.5)),
                     min_size=1, max_size=12),
       named=st.lists(st.integers(0, 11), max_size=6),
       off=st.lists(st.tuples(st.floats(-1.5, 2.5), st.floats(0.0, 1.0)), max_size=6),
       sweep_points=st.sampled_from([moser._SWEEP_POINTS, 60, 1]))
def test_chunked_plan_matches_per_value_sweeps(kind, plan, named, off, sweep_points):
    # any plan, any chunk size and any planned points (ends, seam, rim, knots and
    # nodes, between them): each map's images, displacement and clamp count are
    # those of integrate_flow over that value alone, bit for bit
    grid = {"interval": interval_grid(40), "cylinder": cylinder_grid(12, 10),
            "torus": torus_grid(12, 10)}[kind]
    steps = 6 if kind == "torus" else 2
    off = np.reshape(off, (-1, 2))
    pts = np.concatenate([_query_points(grid)[named], off[:, 1] if grid.dim == 1 else off])
    with mock.patch.object(moser, "_SWEEP_POINTS", sweep_points):
        built = moser_map_from_values(
            np.ones(grid.shape), [_wave_and_rim(grid, *p) for p in plan], grid,
            [0.1 * i for i in range(len(plan))], steps=steps, tol_mass=1e-8, points=pts)
    if grid.dim == 1:
        seeds = grid.nodes(0)
    else:
        seeds = np.stack([c.ravel() for c in grid.meshes()], axis=-1)
    planned = np.unique(moser._reads(grid, pts)[0])
    for mm in built:
        clamps = np.zeros(len(seeds), dtype=np.intp)
        images, total = integrate_flow(mm.provider, seeds, steps=steps, clamps=clamps)
        assert mm.done is None or np.array_equal(np.flatnonzero(mm.done), planned)
        assert mm.clamp_events == clamps[planned].sum()
        if grid.dim == 2:
            disp = moser._node_displacement(grid, seeds, images)
            assert np.array_equal(mm.interpolant[:, planned], disp[:, planned])
        assert np.array_equal(mm._images[planned], images[planned])
        if mm.done is None:
            assert np.array_equal(mm.node_images, images)
            assert mm.clamp_events == total


_finite = st.floats(-1e3, 1e3)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 40), data=st.data())
def test_a_1d_query_reads_only_the_nodes_reads_names(n, data):
    # the nodes _reads leaves out may hold anything finite: the clipped PCHIP
    # that MoserMap.evaluate computes at the queries is the complete one, bit for bit
    grid = interval_grid(n, lo=0.25, hi=1.0)
    nodes = grid.nodes(0)
    images = 0.25 + 0.75 * np.cumsum(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n,
                                                         max_size=n)))
    queries = np.array(data.draw(st.lists(st.one_of(st.sampled_from(nodes.tolist()),
                                                    st.floats(0.25, 1.0)),
                                          min_size=1, max_size=8)))
    read = np.zeros(n, dtype=bool)
    read[moser._reads(grid, queries)[0]] = True
    filled = np.where(read, images, data.draw(st.lists(_finite, min_size=n, max_size=n)))

    def evaluate(held):
        return np.clip(Pchip(nodes, held, extrapolate=False)(queries), held[0], held[-1])

    assert np.array_equal(evaluate(filled), evaluate(images))
