import numpy as np
import pytest
from scipy import integrate as si

from moser_transport import transport
from moser_transport import (
    ConfigurationError,
    IntegrationError,
    QuantileTransport,
    build_representation,
    builtin_family,
    ck_floor_scan,
    estimate_uniform_Ck,
    make_domain,
    family_from_expression,
    pushforward_density_1d,
    pushforward_histogram_2d,
    sample_random_maps,
)

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


def _rearrangement_oracle(tf, fam, x, m):
    nodes = np.unique(np.concatenate([
        np.linspace(0, 1, 2 ** 16 + 1), np.geomspace(1e-9, 1e-2, 200)
    ]))
    r0 = tf.rho0_fn(nodes)
    F0 = si.cumulative_trapezoid(r0, nodes, initial=0.0)
    F0 /= F0[-1]
    Fx = fam.cdf_fn(x, nodes)
    p = np.interp(m, nodes, F0)
    return np.interp(p, Fx, nodes)


def test_affine_full_mode_matches_rearrangement(affine_tf):
    fam = affine_tf.fam
    m = np.linspace(0.0, 1.0, 257)
    for x in (0.5, -0.25, 0.0):
        vals = affine_tf.map_values(x, m)
        oracle = _rearrangement_oracle(affine_tf, fam, x, m)
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
    with pytest.raises(ConfigurationError):
        pushforward_density_1d(lambda m: np.asarray(m) ** 2 - np.asarray(m),
                               lambda m: np.ones_like(m))


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
    ea, et = hist["a_edges"], hist["t_edges"]
    Sa = np.sin(2 * np.pi * ea) / (2 * np.pi)
    St = np.sin(np.pi * et) / np.pi
    P = np.outer(np.diff(ea), np.diff(et)) + 0.3 * x * np.outer(np.diff(Sa), np.diff(St))
    l1 = np.abs(hist["probs"] - P).sum()
    assert l1 <= 0.05
    assert hist["err_bars"].shape == hist["probs"].shape


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
    fam = affine_tf.fam
    cdf_vals = fam.cdf_fn(x, images)
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
        - affine_tf.ref.value_at(np.linspace(0, 0.39, 50))
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


def test_prefetch_builds_only_uncached_values(monkeypatch):
    tf = build_representation(builtin_family("affine", k=2), mode="full", grid_n=64,
                              steps=16)
    real = transport.moser_map_from_values
    plans = []

    def spy(*args, **kwargs):
        plans.append([float(x) for x in args[3]])
        return real(*args, **kwargs)

    monkeypatch.setattr(transport, "moser_map_from_values", spy)
    # verify plans its values before the workers start: one build, none in the workers
    tf.verify([0.1, -0.2, 0.1], threads=2, n_fine=2 ** 10)
    assert plans == [[0.1, -0.2]]
    tf.prefetch([-0.2, 0.1])
    tf.moser_at(0.1)
    tf.map_values(-0.2, np.linspace(0.0, 1.0, 5))
    assert plans == [[0.1, -0.2]]
    tf.prefetch([0.1, 0.3, 0.3])
    assert plans == [[0.1, -0.2], [0.3]]
    # the scan plans every floor, order and difference node at once
    ck_floor_scan(tf, [1e-2, 1e-3], k=2, m_per_floor=5, x_nodes=3)
    assert len(plans) == 3 and len(plans[-1]) > 3


@pytest.mark.parametrize("m", range(21))
def test_sobol_net_matches_scipy_bit_for_bit(m):
    # scipy stays the oracle in the tests; the package itself imports no scipy
    from scipy.stats import qmc

    expect = qmc.Sobol(d=2, scramble=False).random(2 ** m)
    got = transport._sobol_net_2d(m)
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))
