import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moser_transport import (
    ConfigurationError,
    NoCollarError,
    collar_chart,
    cylinder_grid,
    interval_grid,
    make_domain,
    torus_grid,
)
from moser_transport.geometry import Pchip


def test_make_domain_kinds():
    assert make_domain("interval").has_boundary
    assert make_domain("cylinder", circumference=1.0).has_boundary
    assert not make_domain("torus").has_boundary


def test_make_domain_errors():
    with pytest.raises(ConfigurationError):
        make_domain("square")
    with pytest.raises(ConfigurationError):
        make_domain("cylinder", circumference=0.0)


def test_collar_chart_interval_fixtures():
    dom = make_domain("interval")
    assert collar_chart(dom, 0, 0.25) == pytest.approx(0.25)
    assert collar_chart(dom, 1, 0.25) == pytest.approx(0.75)


def test_collar_chart_cylinder_identity_on_boundary():
    dom = make_domain("cylinder", circumference=1.0)
    a, t = collar_chart(dom, 0.5, 0.0)
    assert (a, t) == (0.5, 0.0)


def test_collar_chart_torus_errors():
    dom = make_domain("torus")
    with pytest.raises(NoCollarError):
        collar_chart(dom, 0.0, 0.1)


@given(t=st.floats(min_value=0.0, max_value=1.0))
def test_chart_identity_at_zero_and_range(t):
    dom = make_domain("interval")
    assert collar_chart(dom, 0, 0.0) == 0.0
    assert collar_chart(dom, 1, 0.0) == 1.0
    m = collar_chart(dom, 0, t)
    assert 0.0 <= m <= 1.0


def test_chart_injective_per_side():
    dom = make_domain("interval")
    ts = np.linspace(0.0, 0.999, 64)
    for side in (0, 1):
        vals = collar_chart(dom, side, ts)
        assert len(np.unique(np.round(vals, 14))) == len(ts)
    dom2 = make_domain("cylinder", circumference=2.0)
    a_nodes = np.linspace(0.0, 2.0, 9)[:-1]
    seen = set()
    for a in a_nodes:
        for t in ts[::8]:
            av, tv = collar_chart(dom2, a, t, side=0)
            seen.add((round(float(av), 12), round(float(tv), 12)))
    assert len(seen) == len(a_nodes) * len(ts[::8])


@given(n=st.integers(min_value=2, max_value=400))
def test_interval_grid_spans_exactly(n):
    g = interval_grid(n)
    ax = g.axes[0]
    assert ax.spacing * (ax.n - 1) == pytest.approx(1.0)
    assert ax.nodes[0] == 0.0 and ax.nodes[-1] == 1.0


@given(n=st.integers(min_value=2, max_value=200))
def test_periodic_axis_wraps(n):
    g = torus_grid(n, n)
    for ax in g.axes:
        assert ax.spacing * ax.n == pytest.approx(1.0)


def test_grid_integrate_constant_matches_volume():
    g = cylinder_grid(16, 17, circumference=2.5)
    field = np.ones(g.shape)
    assert g.integrate(field) == pytest.approx(2.5)
    g1 = interval_grid(33, lo=0.25, hi=1.0)
    assert g1.integrate(np.ones(33)) == pytest.approx(0.75)


_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@st.composite
def _pchip_cases(draw):
    """Knots (2 to 40, uneven), data with flat runs and turns, and queries."""
    n = draw(st.integers(2, 40))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    x = draw(_finite) + np.concatenate([[0.0], np.cumsum(steps)])
    levels = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | _finite,
                           min_size=n, max_size=n))
    y = np.array(levels)
    span = x[-1] - x[0]
    queries = draw(st.lists(st.floats(x[0] - span / 4, x[-1] + span / 4),
                            min_size=1, max_size=120))
    return x, y, np.array(queries + list(x))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # scipy's, on tiny slopes
@settings(deadline=None)
@given(_pchip_cases(), st.booleans(), st.booleans())
def test_pchip_matches_scipy_bit_for_bit(case, extrapolate, sort):
    # scipy stays the oracle in the tests; the package itself imports no scipy
    from scipy.interpolate import PchipInterpolator

    x, y, q = case
    if sort:  # sorted queries take the counting path when there are enough of them
        q = np.sort(q)
    ours = Pchip(x, y, extrapolate=extrapolate)
    theirs = PchipInterpolator(x, y, extrapolate=extrapolate)
    for mine, oracle in ((ours, theirs), (ours.derivative(), theirs.derivative())):
        assert np.array_equal(mine.c, oracle.c)
        for query in (q, np.stack([q, q[::-1]]), np.asarray(q[0])):
            got, expect = mine(query), oracle(query)
            assert got.shape == expect.shape
            assert np.array_equal(np.isnan(got), np.isnan(expect))
            assert np.array_equal(_bits(np.nan_to_num(got)), _bits(np.nan_to_num(expect)))


def test_pchip_two_knots_is_the_chord_and_masks_outside():
    p = Pchip([0.0, 2.0], [1.0, 5.0], extrapolate=False)
    assert np.array_equal(p(np.array([0.0, 0.5, 2.0])), [1.0, 2.0, 5.0])
    assert np.isnan(p(np.array([-1e-9, 2.5]))).all()
    assert float(p.derivative()(1.0)) == 2.0
