import numpy as np
import pytest
from hypothesis import given, strategies as st

from moser_transport import (
    ConfigurationError,
    NoCollarError,
    collar_chart,
    cylinder_grid,
    interval_grid,
    make_domain,
    torus_grid,
)


def test_make_domain_kinds():
    assert make_domain("interval").boundary_sides == (0, 1)
    assert make_domain("cylinder", circumference=1.0).boundary_sides == (0, 1)
    assert make_domain("torus").boundary_sides == ()
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


def test_boundary_mask():
    g = cylinder_grid(8, 9)
    mask = g.boundary_mask()
    assert mask[:, 0].all() and mask[:, -1].all()
    assert not mask[:, 1:-1].any()
    assert not torus_grid(8, 8).boundary_mask().any()
