import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as si
from scipy.optimize import brentq

from moser_transport import (
    ConfigurationError,
    DegeneracyError,
    InfeasibilityError,
    build_collar_map,
    builtin_family,
    family_from_expression,
    make_domain,
    make_reference,
    reference_from_profile,
)
from moser_transport.collar import Cutoff
from oracles import CDF

SQRT2 = np.sqrt(2.0)


def _fam_2s():
    return family_from_expression("2*m", x_range=(0.0, 1.0), normalize=False)


def _ref_s():
    return reference_from_profile(
        lambda s: np.asarray(s, dtype=float),
        lambda t: 0.5 * np.asarray(t, dtype=float) ** 2,
    )


def test_cutoff_plateaus_and_monotone():
    eta = Cutoff(k=2)
    ts = np.linspace(0, 1, 301)
    vals = eta.eta(ts)
    assert np.all(vals[ts <= 1 / 3] == 1.0)
    assert np.all(vals[ts >= 2 / 3] == 0.0)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all(eta.eta_prime(ts) <= 0.0)


@given(k=st.integers(1, 4))
def test_cutoff_derivatives_vanish_at_junctions(k):
    # derivatives through order k+1 vanish at both junctions, so eta' decays
    # like (distance)^{k+1} approaching them from inside
    eta = Cutoff(k=k)
    for t0, sign in ((1 / 3, 1), (2 / 3, -1)):
        for eps in (1e-4, 1e-3):
            inside = abs(eta.eta_prime(t0 + sign * eps))
            # power-law decay up to the cancellation noise of the
            # large-coefficient polynomial evaluation
            assert inside <= 1e4 * (3 * eps) ** (k + 1) + 1e-10
        assert eta.eta_prime(t0) == 0.0


def test_cutoff_degree():
    # degree 2k + 3: the highest power of u = 3t - 1 in the smoothstep
    for k in (1, 2, 4):
        assert max(power for _, power in Cutoff(k=k)._coeffs()) == 2 * k + 3


def test_collar_g_closed_form():
    fam, ref = _fam_2s(), _ref_s()
    g, g0 = build_collar_map(fam, ref, 0.0).g_batch(np.array([0.5, 0.0]))
    assert g == pytest.approx(0.5 / SQRT2, abs=1e-12)
    assert g0 == 0.0


def test_collar_g_identity_when_equal():
    fam = family_from_expression("2*m", x_range=(0.0, 1.0), normalize=False)
    ref = reference_from_profile(
        lambda s: 2.0 * np.asarray(s, dtype=float),
        lambda t: np.asarray(t, dtype=float) ** 2,
    )
    cm = build_collar_map(fam, ref, 0.0)
    for t in (0.1, 0.4, 0.9):
        assert cm.g_batch(t)[0] == pytest.approx(t, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(p=st.floats(0.5, 4.0), t=st.floats(0.01, 1.0))
def test_collar_g_power_pairs(p, t):
    # rho = (p+1) s^p against f = s: g = (t^2 (p+1) / 2 / (p+1))^{1/(p+1)}... i.e.
    # g^{p+1} = t^2 / 2
    fam = family_from_expression(f"({p} + 1) * m^{p}", x_range=(0.0, 1.0), normalize=False)
    ref = _ref_s()
    # a one-node t grid: without domination gbar need not be monotone, and g is all we read
    g = build_collar_map(fam, ref, 0.0, t_grid=[1.0]).g_batch(t)[0]
    assert g == pytest.approx((t * t / 2.0) ** (1.0 / (p + 1.0)), rel=1e-9)


def test_collar_infeasibility():
    # family ray mass 1/2 cannot supply a target of 0.9 * t near t = 1
    fam = family_from_expression("m", x_range=(0.0, 1.0), normalize=False)
    ref = reference_from_profile(
        lambda s: 0.9 * np.ones_like(np.asarray(s, dtype=float)),
        lambda t: 0.9 * np.asarray(t, dtype=float),
    )
    cm = build_collar_map(fam, ref, 0.0, t_grid=[0.1])
    with pytest.raises(InfeasibilityError):
        cm.g_batch(0.9)


def test_collar_errors_name_stage_and_x():
    ref = reference_from_profile(
        lambda s: 0.9 * np.ones_like(np.asarray(s, dtype=float)),
        lambda t: 0.9 * np.asarray(t, dtype=float),
    )
    short = family_from_expression("m", x_range=(0.0, 1.0), normalize=False)
    with pytest.raises(InfeasibilityError,
                       match=r"^collar solve at x=0\.25: mass deficiency"):
        build_collar_map(short, ref, 0.25)
    negative = family_from_expression("m - 0.5", x_range=(0.0, 1.0), normalize=False)
    with pytest.raises(DegeneracyError,
                       match=r"^collar ray mass at x=0\.5: density is not finite"):
        build_collar_map(negative, ref, 0.5)
    cm = build_collar_map(_fam_2s(), _ref_s(), 0.0)
    with pytest.raises(InfeasibilityError, match=r"^collar solve at x=0\.0: collar coordinate"):
        cm.g_batch(np.array([0.5, 1.5]))


def test_build_collar_map_fixtures():
    cm = build_collar_map(_fam_2s(), _ref_s(), 0.0)
    # below the cutoff knee eta = 1, so gbar = g
    assert cm.gbar(np.asarray(0.2)) == pytest.approx(0.2 / SQRT2, abs=1e-9)
    assert cm.gbar(np.asarray(1.0)) == pytest.approx(1.0)
    # domination ordering g <= t, strict inside
    assert np.all(cm.gs <= cm.ts + 1e-14)
    assert np.all(cm.gs[cm.ts > 1e-4] < cm.ts[cm.ts > 1e-4])
    # cutoff sandwich min(g, t) <= gbar <= t
    gb = cm.gbar(cm.ts, cm.gs)
    assert np.all(gb <= cm.ts + 1e-14)
    assert np.all(gb >= np.minimum(cm.gs, cm.ts) - 1e-14)
    # strict monotonicity of the interpolant
    assert np.all(np.diff(gb) > 0)
    assert np.all(cm.dgbar_dt(cm.ts, cm.gs) > 0)


def test_rearrangement_identity_recheck():
    fam, ref = _fam_2s(), _ref_s()
    cm = build_collar_map(fam, ref, 0.0)
    for i in range(0, len(cm.ts), 64):
        t, g = cm.ts[i], cm.gs[i]
        lhs = si.quad(lambda s: 2 * s, 0, g)[0]
        rhs = float(ref.integral(t))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_pushed_density_closed_form():
    cm = build_collar_map(_fam_2s(), _ref_s(), 0.0)
    # nu = rho(gbar) dgbar/dt = 2 (t/sqrt2)(1/sqrt2) = t = f(t) below the knee
    assert cm.nu(0.2)[0] == pytest.approx(0.2, abs=1e-9)
    # identity region: G = id, nu = rho
    assert cm.nu(0.9)[0] == pytest.approx(2 * 0.9, abs=1e-9)


def test_pushed_density_uniformises_h_power():
    fam = builtin_family("h_power", alpha=2.0)
    ref = make_reference(fam, margin=0.5)
    cm = build_collar_map(fam, ref, 0.7)
    for t in np.geomspace(1e-3, 1.0 / 3.0, 9):
        assert cm.nu(t)[0] == pytest.approx(
            float(ref.profile(t)), rel=1e-6, abs=1e-12
        )


def test_density_floor_past_sixth_and_t_star():
    fam = builtin_family("h_power", alpha=2.0)
    ref = make_reference(fam, margin=0.5)
    t_stars = []
    for x in (0.0, 0.5, 1.0):
        cm = build_collar_map(fam, ref, x)
        assert cm.nu_min_past(1.0 / 6.0) > 0.0
        t_stars.append(cm.t_star_sample())
    assert min(t_stars) > 0.0


def test_extrapolation_below_table_floor():
    cm = build_collar_map(_fam_2s(), _ref_s(), 0.0)
    t = 1e-8  # below the tabulation floor 1e-6
    assert cm.g_batch(t)[0] == pytest.approx(t / SQRT2, rel=1e-6)


def test_g_batch_matches_exact():
    # oracle: the closed-form h_power CDF (the ray mass from 0) inverted by brentq
    fam = builtin_family("h_power", alpha=2.0)
    ref = make_reference(fam, margin=0.5)
    cm = build_collar_map(fam, ref, 0.4)
    ts = np.geomspace(1e-5, 1.0, 23)
    batch = cm.g_batch(ts)
    for t, g in zip(ts[::4], batch[::4]):
        target = float(ref.integral(t))
        exact = brentq(lambda m: float(CDF["h_power"](0.4, m)) - target, 0.0, 1.0, xtol=1e-15)
        assert g == pytest.approx(exact, abs=1e-9)


def test_g_relative_accuracy_small_t_example1():
    # oracle: F_x(m) = x^2 m^2 + (1 - x^2) m^5 = I_f(t) solved for u = log m,
    # with log F evaluated without underflow
    fam = builtin_family("example1")
    ref = make_reference(fam, margin=0.5)
    ts = np.geomspace(1e-7, 1.0, 200)
    for x in (0.0, 1e-7, 1e-3, 0.5):
        log_x2 = 2 * np.log(x) if x > 0 else -np.inf
        g = build_collar_map(fam, ref, x).g_batch(ts)
        for t, gv in zip(ts, g):
            log_target = np.log(float(ref.integral(t)))
            u = brentq(lambda u: np.logaddexp(log_x2 + 2 * u, np.log1p(-x * x) + 5 * u)
                       - log_target, -800.0, 0.0, xtol=1e-15)
            assert abs(gv - np.exp(u)) <= 1e-10 * np.exp(u), (x, t, gv, np.exp(u))


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.5, 4.0), x=st.floats(0.0, 1.0),
       ts=st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=40))
def test_g_batch_properties_h_power(alpha, x, ts):
    # closed-form reference f = s^alpha / (2 N(1)) <= rho_x / 2 for every x in [0, 1]
    fam = builtin_family("h_power", alpha=alpha)
    n1 = 1.0 / (alpha + 1) + 0.5 / (alpha + 2)
    ref = reference_from_profile(
        lambda s: np.asarray(s, dtype=float) ** alpha / (2 * n1),
        lambda t: np.asarray(t, dtype=float) ** (alpha + 1) / (2 * n1 * (alpha + 1)),
    )
    ts = np.sort(np.asarray(ts))
    g = build_collar_map(fam, ref, x).g_batch(ts)
    assert np.all(np.diff(g) >= 0.0)
    targets = ref.integral(ts)
    for gv, target in zip(g, targets):
        exact = brentq(lambda m: float(CDF["h_power"](x, m, alpha)) - target, 0.0, 1.0,
                       xtol=1e-300, rtol=4 * np.finfo(float).eps)
        assert abs(gv - exact) <= 1e-10 * exact
        assert abs(float(CDF["h_power"](x, gv, alpha)) - target) <= 1e-10 * target


def test_collar_rays_cylinder():
    # the collar runs at the interval's boundary point m = 0 only; a cylinder
    # family has no ray mass table, so its collar is refused, not computed
    dom = make_domain("cylinder", circumference=1.0)
    fam = family_from_expression("1 + 0.5*cos(2*pi*a) + 0*t + 0*x", domain=dom,
                                 x_range=(0.0, 1.0), normalize=False)
    with pytest.raises(ConfigurationError, match="1D families only"):
        build_collar_map(fam, _ref_s(), 0.0)
