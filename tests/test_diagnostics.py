import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.optimize import brentq, minimize_scalar

from moser_transport import (
    ConfigurationError,
    DegeneracyError,
    DensityFamily,
    MassTable,
    builtin_family,
    expectation_curve,
    lipschitz_obstruction,
    make_domain,
    parse_density_expression,
    w_infinity_1d,
)
from moser_transport.diagnostics import central_difference, probe_step, richardson_stable

# dense-oracle value for the example1 pair (x=0.1 vs x=0), frozen from a
# closed-form maximisation of the quantile difference
W_EX1_01 = 0.07042507562


def _quantile(table, p):
    return table.invert(p * table.total)


def test_quantile_uniform():
    q = MassTable(lambda m: np.ones_like(np.asarray(m)))
    for p in (0.0, 0.25, 0.7, 1.0):
        assert _quantile(q, p) == pytest.approx(p, abs=1e-9)
    assert q.cdf(0.3) == pytest.approx(0.3, abs=1e-9)


def test_quantile_example1_at_zero():
    q = builtin_family("example1").mass_table(0.0)
    assert _quantile(q, 1.0 / 32.0) == pytest.approx(0.5, abs=1e-9)


def test_quantile_affine_cdf_value():
    fam = builtin_family("affine")
    assert fam.mass_table(0.5).cdf(0.5) == pytest.approx(3.0 / 8.0, abs=1e-9)


def test_quantile_negative_density_rejected():
    with pytest.raises(DegeneracyError):
        MassTable(lambda m: np.asarray(m) - 0.5)


def test_generalized_inverse_flat_segment():
    # density vanishing on (0.4, 0.6): inverse at the flat level sits at the
    # right end of the flat CDF run
    def dens(m):
        m = np.asarray(m, dtype=float)
        return np.where((m <= 0.4) | (m >= 0.6), 1.25, 0.0)

    q = MassTable(dens)
    assert _quantile(q, 0.5) == pytest.approx(0.6, abs=1e-3)


@settings(max_examples=30, deadline=None)
@given(m=st.floats(0.05, 0.95))
def test_quantile_round_trip_strictly_increasing(m):
    q = _AFFINE_Q
    assert q.invert(q.cdf(m)) == pytest.approx(m, abs=1e-6)


_AFFINE_Q = builtin_family("affine").mass_table(0.25)


def test_w_infinity_identical_zero():
    q = builtin_family("example1").mass_table(0.3)
    w, _ = w_infinity_1d(q, q)
    assert w == 0.0


def test_w_infinity_symmetric():
    fam = builtin_family("example1")
    qa, qb = fam.mass_table(0.3), fam.mass_table(0.0)
    w1, _ = w_infinity_1d(qa, qb)
    w2, _ = w_infinity_1d(qb, qa)
    assert w1 == pytest.approx(w2, rel=1e-12)


def test_w_infinity_triangle_inequality_sampled():
    fam = builtin_family("example1")
    qs = [fam.mass_table(x) for x in (0.0, 0.2, 0.5)]
    w01, _ = w_infinity_1d(qs[0], qs[1])
    w12, _ = w_infinity_1d(qs[1], qs[2])
    w02, _ = w_infinity_1d(qs[0], qs[2])
    tol = 2e-4  # 2x grid tolerance
    assert w02 <= w01 + w12 + tol


def test_w_infinity_spike_fixture():
    # uniform vs narrow uniform at the right end: distance 1 - width
    for width in (0.1, 0.01):
        def spike(m, w=width):
            m = np.asarray(m, dtype=float)
            return np.where(m >= 1 - w, 1.0 / w, 0.0)

        qu = MassTable(lambda m: np.ones_like(np.asarray(m)))
        qs = MassTable(spike)
        w_val, _ = w_infinity_1d(qu, qs)
        assert w_val == pytest.approx(1 - width, abs=2e-3)


def test_w_infinity_example1_oracle_reproducible():
    fam = builtin_family("example1")
    w, _ = w_infinity_1d(fam.mass_table(0.1), fam.mass_table(0.0))
    assert w == pytest.approx(W_EX1_01, abs=1e-3)


def test_lipschitz_constant_family_bounded():
    rep = lipschitz_obstruction(
        builtin_family("constant"), [(0.1, 0.0), (0.01, 0.0), (0.001, 0.0)]
    )
    assert rep.verdict == "BOUNDED-CONSISTENT"
    assert rep.sup_ratio <= 1e-8


def test_lipschitz_degenerate_schedule():
    with pytest.raises(ConfigurationError):
        lipschitz_obstruction(builtin_family("constant"), [(0.1, 0.0), (0.01, 0.0)])
    with pytest.raises(ConfigurationError):
        lipschitz_obstruction(
            builtin_family("constant"), [(0.1, 0.1), (0.01, 0.0), (0.2, 0.0)]
        )


def _example1_scaled_gap():
    """lim W_inf(mu_x, mu_0) / x^(2/3) as x -> 0 for example1, by root-solving.

    With m = x^(2/3) u and p = x^(10/3) q the gap is sup_q q^(1/5) - u(q),
    u^2 + (1 - x^2) u^5 = q; below x = 1e-8 the factor 1 - x^2 rounds to 1.
    """
    def gap(log_q):
        q = np.exp(log_q)
        u = brentq(lambda u: u * u + u ** 5 - q, 0.0, max(1.0, q),
                   xtol=1e-300, rtol=4 * np.finfo(float).eps)
        return q ** 0.2 - u

    log_qs = np.linspace(-30.0, 5.0, 701)
    gaps = np.array([gap(t) for t in log_qs])
    i = int(np.argmax(gaps))
    res = minimize_scalar(lambda t: -gap(t), bounds=(log_qs[i - 1], log_qs[i + 1]),
                          method="bounded", options={"xatol": 1e-10})
    return max(-res.fun, gaps[i])


def test_lipschitz_tiny_x_gets_its_own_table():
    # x = 1e-18 lies within 1e-17 of the base x = 0; it must not read the base's table
    xs = (1e-9, 1e-12, 1e-18)
    rep = lipschitz_obstruction(builtin_family("example1"), [(x, 0.0) for x in xs])
    c = _example1_scaled_gap()
    for x, r in zip(xs, rep.pairs):
        assert r["w_inf"] == pytest.approx(c * x ** (2.0 / 3.0), rel=1e-6)
    assert rep.verdict == "BLOWUP-DETECTED"
    assert rep.slope == pytest.approx(-1.0 / 3.0, abs=0.01)


def test_lipschitz_example1_blowup_short_schedule():
    rep = lipschitz_obstruction(
        builtin_family("example1"), [(1e-1, 0.0), (3e-2, 0.0), (1e-2, 0.0)]
    )
    assert rep.verdict == "BLOWUP-DETECTED"
    ratios = [r["ratio"] for r in rep.pairs]
    assert ratios[-1] > ratios[0]


def test_expectation_fixtures():
    fam = builtin_family("example1")
    h = parse_density_expression("m", variables=("m",))
    xs = np.linspace(-0.8, 0.8, 9)
    rep = expectation_curve(fam, h, xs, k=2)
    i0 = 4
    assert rep.values[i0] == pytest.approx(5.0 / 6.0, abs=1e-9)
    assert rep.derivatives[2][i0] == pytest.approx(-1.0 / 3.0, abs=1e-6)
    assert rep.verdict == "SMOOTH-CONSISTENT"


def test_expectation_total_mass():
    fam = builtin_family("affine")
    one = parse_density_expression("1 + 0*m", variables=("m",))
    rep = expectation_curve(fam, one, np.linspace(-0.4, 0.4, 5), k=1)
    for v in rep.values:
        assert v == pytest.approx(1.0, abs=1e-9)


def test_expectation_constant_family_flat():
    fam = builtin_family("constant")
    h = parse_density_expression("m^2", variables=("m",))
    rep = expectation_curve(fam, h, np.linspace(-0.5, 0.5, 5), k=1)
    assert max(rep.values) - min(rep.values) <= 1e-12
    assert max(abs(v) for v in rep.derivatives[1] if v is not None) <= 1e-8


def test_expectation_linearity():
    fam = builtin_family("example1")
    h1 = parse_density_expression("m", variables=("m",))
    h2 = parse_density_expression("m^3", variables=("m",))
    combo = parse_density_expression("2*m + 3*m^3", variables=("m",))
    xs = np.linspace(-0.5, 0.5, 3)
    r1 = expectation_curve(fam, h1, xs, k=1)
    r2 = expectation_curve(fam, h2, xs, k=1)
    rc = expectation_curve(fam, combo, xs, k=1)
    for a, b, c in zip(r1.values, r2.values, rc.values):
        assert c == pytest.approx(2 * a + 3 * b, abs=1e-9)


# W_inf(mu_x, mu_0) for example2 on the pairs of scripts/configs/example2_obstruct.cfg,
# frozen from _example2_w_inf_oracle below (about three minutes per pair at 40
# digits on a 2-core VM, too slow to recompute in the suite).
EX2_W_INF = {
    1e-2: 0.020871785995531335,
    3e-3: 0.013961721525241652,
    1e-3: 0.009676610754282118,
    3e-4: 0.006476323548479941,
    1e-4: 0.004489951183446021,
}


def test_w_infinity_example2_matches_mpmath_oracle():
    rep = lipschitz_obstruction(builtin_family("example2"), [(x, 0.0) for x in EX2_W_INF])
    assert rep.verdict == "BLOWUP-DETECTED"
    for rec in rep.pairs:
        oracle = EX2_W_INF[rec["x"]]
        assert abs(rec["w_inf"] - oracle) <= 1e-6 * oracle


def _example2_w_inf_oracle(x, dps=40):
    """W_inf(mu_x, mu_0) for example2 in mpmath, without the library's mass tables.

    The oscillatory part of the CDF is I(m) = int_0^m s^5 sin^2(1/s) ds
    = m^6/12 - Re[m^6 E_7(-2i/m)]/2, the bump integral is a regularised
    incomplete beta function, and c(x) is the family's own float constant,
    so F_x is the exact CDF of the density the library integrates.  Each
    F_x is normalised by F_x(1) and inverted by bisection.  The coarse
    search takes the levels p = F_0(m) on a grid of m in [0.02, 1]; the
    best one is refined by a golden-section search in log p between its
    neighbours.
    """
    import mpmath as mp
    from scipy import special

    from moser_transport.density import _ex2_oscillatory_mass

    q = 3  # bump degree parameter k + 1 for k = 2
    c = (1.0 - (2.0 + x) * _ex2_oscillatory_mass() - 1.0 / 31.0) / (
        0.5 * special.beta(q + 1, q + 1))
    with mp.workdps(dps):
        def cdf(xv, cv, m):
            m = mp.mpf(m)
            osc = m ** 6 / 12 - mp.re(m ** 6 * mp.expint(7, -2j / m)) / 2
            u = min(max(2 * m - 1, mp.mpf(0)), mp.mpf(1))
            bump = mp.betainc(q + 1, q + 1, 0, u) / 2 if u > 0 else mp.mpf(0)
            return (2 + mp.mpf(xv)) * osc + m ** 31 / 31 + mp.mpf(cv) * bump

        c0 = (1.0 - 2.0 * _ex2_oscillatory_mass() - 1.0 / 31.0) / (
            0.5 * special.beta(q + 1, q + 1))
        total_x, total_0 = cdf(x, c, 1), cdf(0.0, c0, 1)

        def quantile(xv, cv, total, p):
            lo, hi = mp.mpf(0), mp.mpf(1)
            while hi - lo > mp.mpf(10) ** -17:
                mid = (lo + hi) / 2
                if cdf(xv, cv, mid) > p * total:
                    hi = mid
                else:
                    lo = mid
            return (lo + hi) / 2

        def gap(log_p):
            p = mp.exp(log_p)
            return abs(quantile(x, c, total_x, p) - quantile(0.0, c0, total_0, p))

        ms = [mp.mpf(v) for v in np.linspace(0.02, 1.0, 99)[:-1]]
        log_ps = [mp.log(cdf(0.0, c0, m) / total_0) for m in ms]
        gaps = [abs(quantile(x, c, total_x, mp.exp(lp)) - m) for lp, m in zip(log_ps, ms)]
        i = max(range(len(gaps)), key=gaps.__getitem__)
        assert 0 < i < len(gaps) - 1, "oracle maximiser on the edge of the m grid"
        a, b = log_ps[i - 1], log_ps[i + 1]
        ratio = (mp.sqrt(5) - 1) / 2
        u, v = b - ratio * (b - a), a + ratio * (b - a)
        gu, gv = gap(u), gap(v)
        while b - a > mp.mpf(10) ** -10:
            if gu > gv:
                b, v, gv = v, u, gu
                u = b - ratio * (b - a)
                gu = gap(u)
            else:
                a, u, gu = u, v, gv
                v = a + ratio * (b - a)
                gv = gap(v)
        return float(max(gaps[i], gu, gv))


def _expectation_quad_oracle(fam, h, x):
    return integrate.quad(lambda m: float(fam.fn(x, m)) * float(h.evaluate(m=m)),
                          0.0, 1.0, limit=300, epsabs=1e-12, epsrel=1e-12)[0]


@pytest.mark.parametrize("name,xs", [
    ("example2", np.linspace(-0.9, 0.9, 11)),    # scripts/configs/example2_obstruct.cfg
    ("example1", np.linspace(-0.8, 0.8, 9)),
])
def test_expectation_matches_quad_oracle(name, xs):
    fam = builtin_family(name)
    h = parse_density_expression("m", variables=("m",))
    rep = expectation_curve(fam, h, xs, k=2)
    assert not rep.inconclusive
    for x, v in zip(rep.x_nodes, rep.values):
        assert abs(v - _expectation_quad_oracle(fam, h, x)) <= 1e-10


def test_expectation_unresolvable_integral_is_inconclusive():
    # 1 + sin(1/m)^2 as in test_mass_table_unresolvable_oscillation_fails_fast
    points = 0

    def fn(x, m):
        nonlocal points
        points += np.size(m)
        return 1.0 + np.sin(1.0 / np.asarray(m, dtype=float)) ** 2

    fam = DensityFamily(domain=make_domain("interval"), x_range=(-1.0, 1.0), k=1,
                        name="unresolvable", fn=fn)
    rep = expectation_curve(fam, lambda m: m, [0.0], k=1)
    assert rep.to_dict()["inconclusive_count"] > 0
    assert rep.values == [None]
    # x = 0 and the four finite-difference points, each one pass of at most
    # 41 halvings of 2048 pairs
    assert points <= 5 * 41 * 3 * 2048 * 24


def test_parameter_probe_difference_step_and_richardson_rule():
    rng = np.random.default_rng(5)
    for j in (1, 2, 3):
        # exact to rounding on polynomials of degree <= j + 1, scalar and array valued
        for degree in range(j + 2):
            coef = rng.normal(size=(2, degree + 1))
            polys = [np.polynomial.Polynomial(c) for c in coef]
            f = lambda x: np.array([p(x) for p in polys])
            for x, h in ((0.3, 0.1), (-0.7, 0.02)):
                exact = np.array([p.deriv(j)(x) for p in polys])
                d = central_difference(f, x, j, h)
                assert np.allclose(d, exact, rtol=1e-9, atol=1e-9)
                assert abs(central_difference(polys[0], x, j, h) - exact[0]) <= 1e-9
        # every node of the pair (h, h/2) lies inside the range near either end
        for lo, hi in ((-1.0, 1.0), (0.0, 1.0)):
            for x in (lo + 1e-3, lo + 0.1, hi - 0.1, hi - 1e-3):
                for fraction in (0.2, 0.25):
                    h = probe_step(x, (lo, hi), j, fraction, abs(x) or hi - lo)
                    nodes = []
                    for step in (h, h / 2):
                        central_difference(lambda v: nodes.append(v) or 0.0, x, j, step)
                    assert len(nodes) == 2 * (j + 1)
                    assert all(lo < v < hi for v in nodes)
            # an endpoint, or a point outside, gives no pair
            for x in (lo, hi, hi + 0.5):
                assert probe_step(x, (lo, hi), j, 0.25, 1.0) is None
    # an inconclusive (NaN) node stops the sum
    calls = []
    d = central_difference(lambda v: calls.append(v) or np.nan, 0.0, 2, 0.1)
    assert np.isnan(d) and len(calls) == 1
    # |D_{h/2}| / |D_h| must lie in [1/2, 2] where either magnitude exceeds atol
    assert richardson_stable(1.0, 2.0, 1e-9)
    assert richardson_stable(-1.0, 0.5, 1e-9)
    assert not richardson_stable(1.0, 2.01, 1e-9)
    assert not richardson_stable(1.0, 0.49, 1e-9)
    assert not richardson_stable(0.0, 1e-8, 1e-9)
    assert richardson_stable(0.0, 5e-10, 1e-9)
    assert richardson_stable(1e-10, 9e-10, 1e-9)
    ok = richardson_stable(np.array([1.0, 1.0, 0.0, 0.0]), np.array([2.0, 2.01, 1e-8, 0.0]), 1e-9)
    assert ok.tolist() == [True, False, False, True]
