from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.optimize import brentq

from moser_transport import (
    ConfigurationError,
    DegeneracyError,
    DensityFamily,
    MassTable,
    ResolutionError,
    build_representation,
    builtin_family,
    check_decay_assumptions,
    family_from_expression,
    library_envelopes,
    make_domain,
    make_envelope,
    make_reference,
    reference_from_profile,
)
from moser_transport.density import (_base_integrals, _ex2_oscillatory_mass, _power,
                                     _x_probe_nodes, gauss_segments, probe_integrals,
                                     symmetric_beta)
from oracles import CDF, DENSITY


def test_torus_mass_counts_the_seam_once():
    # t = 0 and t = 1 are one circle of the torus; a normalised family has mass one
    fam = family_from_expression("1 + 0.5*x*cos(2*pi*t)", domain=make_domain("torus"),
                                 x_range=(-1.0, 1.0), normalize=False)
    for x in (-1.0, 0.0, 1.0):
        assert fam.mass(x) == pytest.approx(1.0, abs=1e-12)
    assert build_representation(fam, mode="moser_only").mode == "moser_only"


def test_example1_point_values():
    fam = builtin_family("example1")
    assert fam.rho(1.0, 0.5) == pytest.approx(1.0)
    assert fam.rho(0.0, 1.0) == pytest.approx(5.0)


def test_constant_family():
    fam = builtin_family("constant")
    assert fam.rho(0.3, 0.7) == 1.0


def test_out_of_domain_arguments():
    fam = builtin_family("example1")
    with pytest.raises(ConfigurationError):
        fam.rho(2.0, 0.5)
    with pytest.raises(ConfigurationError):
        fam.rho(0.5, 1.5)


def test_unknown_builtin():
    with pytest.raises(ConfigurationError):
        builtin_family("nope")
    with pytest.raises(ConfigurationError):
        builtin_family("h_power", alpha=-1.0)


@pytest.mark.parametrize("name,params", [
    ("constant", {}),
    ("example1", {}),
    ("affine", {}),
    ("h_power", {"alpha": 2.0}),
    ("h_stretched", {"alpha": 1.0}),
    ("h_loglog", {}),
    ("example2", {}),
])
def test_builtins_normalised(name, params):
    fam = builtin_family(name, k=2, **params)
    lo, hi = fam.x_range
    for x in np.linspace(lo, hi, 5):
        assert fam.mass(x) == pytest.approx(1.0, abs=5e-8)


def test_affine_min_density():
    fam = builtin_family("affine")
    nodes = np.linspace(0, 1, 101)
    worst = min(fam.fn(x, nodes).min() for x in (-0.5, 0.5))
    assert worst == pytest.approx(0.5)


@pytest.mark.parametrize("pair", [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)])
def test_derivative_consistency_observed_order(pair):
    # central FD of rho converges to the attached closed form at order >= 1.8;
    # h_power has genuinely non-polynomial dependence in both arguments
    fam = builtin_family("h_power", alpha=2.5)
    bx, jt = pair
    x0, m0 = 0.37, 0.53
    exact = float(fam.derivative(x0, (m0,), bx, jt))

    def fd(h):
        if bx and jt:
            vals = [
                fam.rho(x0 + sx * h, m0 + sm * h) * sx * sm
                for sx in (1, -1) for sm in (1, -1)
            ]
            return sum(vals) / (4 * h * h)
        if bx == 2 or jt == 2:
            f = (lambda d: fam.rho(x0 + d, m0)) if bx else (lambda d: fam.rho(x0, m0 + d))
            return (f(h) - 2 * f(0.0) + f(-h)) / (h * h)
        f = (lambda d: fam.rho(x0 + d, m0)) if bx else (lambda d: fam.rho(x0, m0 + d))
        return (f(h) - f(-h)) / (2 * h)

    errs = [abs(fd(h) - exact) for h in (1e-2, 5e-3)]
    if errs[1] < 1e-12:
        return  # below rounding floor; nothing to rate
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.8


# the closed forms the builtins carried before their tables came from
# their formula strings; kept as oracles for the symbolic derivatives
_m = lambda m: np.asarray(m, float)


def _modulated_hand(base, d1, d2, s, s1, s2, n0, ns):
    """The table of (1 + x s(t)) base(t) / (n0 + x ns), to order 2."""
    N = lambda x: n0 + x * ns
    fn = lambda x, t: (1 + x * s(t)) * base(t) / N(x)
    dA = lambda x, t: d1(t) + x * (s1(t) * base(t) + s(t) * d1(t))
    return {
        (1, 0): lambda x, t: s(t) * base(t) / N(x) - fn(x, t) * ns / N(x),
        (2, 0): lambda x, t: (-2 * s(t) * base(t) * ns
                              + 2 * (1 + x * s(t)) * base(t) * ns * ns / N(x)) / N(x) ** 2,
        (0, 1): lambda x, t: dA(x, t) / N(x),
        (0, 2): lambda x, t: (d2(t) + x * (s2(t) * base(t) + 2 * s1(t) * d1(t)
                                           + s(t) * d2(t))) / N(x),
        (1, 1): lambda x, t: (s1(t) * base(t) + s(t) * d1(t)) / N(x) - dA(x, t) * ns / N(x) ** 2,
    }


_HALF_T = (lambda t: _m(t) / 2, lambda t: np.full_like(_m(t), 0.5),
           lambda t: np.zeros_like(_m(t)))


def _h_power_hand(a):
    return _modulated_hand(lambda t: _m(t) ** a, lambda t: a * _m(t) ** (a - 1),
                           lambda t: a * (a - 1) * _m(t) ** (a - 2), *_HALF_T,
                           1.0 / (a + 1), 0.5 / (a + 2))


def _h_stretched_hand(a):
    base = lambda t: np.exp(-_m(t) ** (-a))
    n0, ns = _base_integrals(base, _HALF_T[0])
    return _modulated_hand(
        base, lambda t: a * _m(t) ** (-a - 1) * base(t),
        lambda t: (a * a * _m(t) ** (-2 * a - 2) - a * (a + 1) * _m(t) ** (-a - 2)) * base(t),
        *_HALF_T, n0, ns)


def _h_loglog_hand():
    L = lambda t: np.log(2.0 / _m(t))
    mod = (lambda t: _m(t) ** 2 * (1 - _m(t)) ** 3,
           lambda t: _m(t) * (1 - _m(t)) ** 2 * (2 - 5 * _m(t)),
           lambda t: (1 - _m(t)) * (2 - 16 * _m(t) + 20 * _m(t) ** 2))
    base = lambda t: 1.0 / L(t)
    n0, ns = _base_integrals(base, mod[0])
    return _modulated_hand(
        base, lambda t: 1.0 / (_m(t) * L(t) ** 2),
        lambda t: -1.0 / (_m(t) ** 2 * L(t) ** 2) + 2.0 / (_m(t) ** 2 * L(t) ** 3), *mod, n0, ns)


def _example2_hand(q=3):
    I1 = _ex2_oscillatory_mass()
    sigma_mass = 0.5 * symmetric_beta(q)
    c_of_x = lambda x: (1.0 - (2.0 + x) * I1 - 1.0 / 31.0) / sigma_mass
    c_slope = -I1 / sigma_mass
    u = lambda m: np.maximum(4.0 * (_m(m) - 0.5) * (1.0 - _m(m)), 0.0)
    du = lambda m: 6.0 - 8.0 * _m(m)
    inside = lambda m: (_m(m) > 0.5) & (_m(m) < 1.0)
    sigma = lambda m: u(m) ** q
    sigma_d1 = lambda m: np.where(inside(m), q * u(m) ** (q - 1) * du(m), 0.0)
    sigma_d2 = lambda m: np.where(inside(m), q * (q - 1) * u(m) ** (q - 2) * du(m) * du(m)
                                  - 8.0 * q * u(m) ** (q - 1), 0.0)
    osc_t = lambda m: 5 * _m(m) ** 4 * np.sin(1.0 / _m(m)) ** 2 - _m(m) ** 3 * np.sin(2.0 / _m(m))
    return {
        (1, 0): lambda x, m: _m(m) ** 5 * np.sin(1.0 / _m(m)) ** 2 + c_slope * sigma(m),
        (2, 0): lambda x, m: np.zeros_like(_m(m)),
        (0, 1): lambda x, m: (2.0 + x) * osc_t(m) + 30 * _m(m) ** 29 + c_of_x(x) * sigma_d1(m),
        (0, 2): lambda x, m: (2.0 + x) * (20 * _m(m) ** 3 * np.sin(1.0 / _m(m)) ** 2
                                          - 8 * _m(m) ** 2 * np.sin(2.0 / _m(m))
                                          + 2 * _m(m) * np.cos(2.0 / _m(m)))
                             + 870 * _m(m) ** 28 + c_of_x(x) * sigma_d2(m),
        (1, 1): lambda x, m: osc_t(m) + c_slope * sigma_d1(m),
        (2, 1): lambda x, m: np.zeros_like(_m(m)),
    }


_HAND_TABLES = {
    "example1": {
        (1, 0): lambda x, m: 4 * x * _m(m) - 10 * x * _m(m) ** 4,
        (2, 0): lambda x, m: 4 * _m(m) - 10 * _m(m) ** 4,
        (0, 1): lambda x, m: 2 * x * x + 20 * (1 - x * x) * _m(m) ** 3,
        (0, 2): lambda x, m: 60 * (1 - x * x) * _m(m) ** 2,
        (1, 1): lambda x, m: 4 * x - 40 * x * _m(m) ** 3,
        (2, 1): lambda x, m: 4 - 40 * _m(m) ** 3,
        (1, 2): lambda x, m: -120 * x * _m(m) ** 2,
        (0, 3): lambda x, m: 120 * (1 - x * x) * _m(m),
    },
    "affine": {
        (1, 0): lambda x, m: 2 * _m(m) - 1,
        (0, 1): lambda x, m: 2 * x * np.ones_like(_m(m)),
        (1, 1): lambda x, m: 2.0 * np.ones_like(_m(m)),
        (2, 0): lambda x, m: np.zeros_like(_m(m)),
        (0, 2): lambda x, m: np.zeros_like(_m(m)),
    },
    "constant": {(b, j): lambda x, m: np.zeros_like(_m(m))
                 for b in range(4) for j in range(4) if 0 < b + j <= 3},
}

# (name, params, hand table); the polynomial families above are
# compared at 1e-13 relative, the four below at 1e-12 relative with an
# absolute floor where an entry crosses zero: 1e-15 of the entry's largest
# magnitude on the sweep (at least 1e-15), since the terms that cancel there
# (h_stretched, alpha = 2, D_t^2 near t = 0.87: both forms are 1e-12 off
# an mpmath value) are that large
_BUILTIN_CASES = [pytest.param(name, {}, table, id=name)
                  for name, table in sorted(_HAND_TABLES.items())] + [
    *[pytest.param("h_power", {"alpha": a}, _h_power_hand(a), id=f"h_power-{a}")
      for a in (0.7, 2.0, 2.5)],
    *[pytest.param("h_stretched", {"alpha": a}, _h_stretched_hand(a), id=f"h_stretched-{a}")
      for a in (1.0, 2.0)],
    pytest.param("h_loglog", {}, _h_loglog_hand(), id="h_loglog"),
    pytest.param("example2", {}, _example2_hand(), id="example2"),
]
# the checker's t nodes and a uniform sweep; sin(1/m) is probed no closer
# to m = 0 than 1e-6
_TABLE_TS = np.concatenate([np.geomspace(1e-6, 1.0, 12), np.linspace(0.01, 0.99, 99)])


@pytest.mark.parametrize("name,params,hand_table", _BUILTIN_CASES)
def test_symbolic_tables_match_the_hand_derivatives(name, params, hand_table):
    fam = builtin_family(name, k=2, **params)
    rel, floor = (1e-13, 0.0) if name in _HAND_TABLES else (1e-12, 1e-15)
    ts = _TABLE_TS
    for x in _x_probe_nodes(fam.x_range):
        for (b, j), hand in hand_table.items():
            got, want = fam.derivative(x, (ts,), b, j), hand(x, ts)
            assert got.shape == ts.shape
            atol = floor * max(1.0, np.max(np.abs(want)))
            assert np.all(np.abs(got - want) <= np.maximum(rel * np.abs(want), atol)), \
                (name, x, b, j)


@pytest.mark.parametrize("name,params,hand_table", _BUILTIN_CASES)
def test_formula_tree_matches_the_hand_evaluator(name, params, hand_table):
    # each builtin keeps a hand fn (its formula has no value at m = 0); away
    # from 0 the tree its derivatives come from is the same density
    fam = builtin_family(name, k=2, **params)
    for x in _x_probe_nodes(fam.x_range):
        got, want = fam.exact_derivs[0, 0](x, _TABLE_TS), fam.fn(x, _TABLE_TS)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), (name, x)


def _mass_table_gauss_nodes():
    """The Gauss nodes at which a MassTable's initial layout evaluates fn, [0, 1e-300] too."""
    seen = []
    layout = np.concatenate([[0.0], np.geomspace(1e-300, 1.0 / 64.0, 991),
                             np.linspace(1.0 / 64.0, 1.0, 65)[1:]])
    gauss_segments(lambda m: seen.append(m) or np.zeros_like(m), layout[:-1], layout[1:])
    return np.concatenate(seen).ravel()


_GAUSS_NODES = _mass_table_gauss_nodes()
_POWER_EDGES = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                2.2250738585072014e-308, 1e-300, 1.0, -1.0, 2.0]


def _same_power(m, p):
    got, want = _power(m, p), np.asarray(m) ** p
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True), (m, p)
    assert np.array_equal(np.signbit(got), np.signbit(want)), (m, p)


_POWERS = st.sampled_from([4, 5, 30]) | st.floats(0.0, 64.0, exclude_min=True)


@settings(deadline=None, max_examples=300)
@given(p=_POWERS, ms=st.lists(st.floats(allow_subnormal=True) | st.sampled_from(_POWER_EDGES),
                              max_size=40))
def test_power_is_pow_bit_for_bit(p, ms):
    # entries whose power rounds to zero skip pow; every other bit is pow's
    with np.errstate(all="ignore"):
        threshold = 2.0 ** (-1076.0 / p)
        edges = [threshold, np.nextafter(threshold, 0.0), np.nextafter(threshold, 1.0)]
        for m in ms + edges:
            _same_power(np.float64(m), p)
        _same_power(np.array(ms + edges, dtype=float), p)
        _same_power(_GAUSS_NODES, p)


def test_power_on_the_mass_table_nodes_and_their_negatives():
    assert np.count_nonzero(_GAUSS_NODES < 1e-30) > 20_000  # where pow underflows
    with np.errstate(all="ignore"):
        for p in (4, 5, 30, 0.5, 1.0, 2.0, 63.9):
            _same_power(_GAUSS_NODES, p)
            _same_power(-_GAUSS_NODES, p)
            _same_power(_GAUSS_NODES.reshape(-1, 24), p)


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_hand_evaluators_match_their_pow_formulas_bit_for_bit(name):
    fam = builtin_family(name, k=2)
    for x in _x_probe_nodes(fam.x_range):
        for m in (_GAUSS_NODES, _TABLE_TS, np.float64(0.3), np.float64(0.0)):
            got, want = fam.fn(x, m), DENSITY[name](x, m)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want), (name, x)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (name, x)


def test_expression_twin_of_h_power_matches_the_builtin():
    # (1 + x m/2) m^2 is h_power at alpha = 2 before normalisation; with
    # fixed-step differences this check read INCONCLUSIVE (22 unresolved points)
    twin = family_from_expression("(1 + x*m/2)*m^2", x_range=(0.0, 1.0), k=2)
    builtin = builtin_family("h_power", k=2, alpha=2.0)
    ts = np.geomspace(1e-6, 1.0, 12)
    for x in _x_probe_nodes(builtin.x_range):
        for b, j in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]:
            want = builtin.derivative(x, (ts,), b, j)
            assert np.all(np.abs(twin.derivative(x, (ts,), b, j) - want)
                          <= 1e-12 * np.abs(want)), (x, b, j)
    env = make_envelope("power", k=2, alpha=2.0)
    reps = [check_decay_assumptions(fam, make_reference(fam, margin=0.5), env, k=2)
            for fam in (twin, builtin)]
    assert [rep.verdict for rep in reps] == ["PASS", "PASS"]
    assert reps[0].margins.keys() == reps[1].margins.keys()
    for key, rec in reps[1].margins.items():
        assert reps[0].margins[key]["margin"] == pytest.approx(rec["margin"], rel=1e-9, abs=0)


def test_k_below_one_is_rejected_for_every_family():
    for k in (0, -1):
        with pytest.raises(ConfigurationError, match="positive integer"):
            family_from_expression("1 + x*(2*m - 1)", x_range=(-0.5, 0.5), k=k)
        with pytest.raises(ConfigurationError, match="positive integer"):
            builtin_family("h_power", k=k)
    with pytest.raises(ConfigurationError, match="positive integer"):
        builtin_family("example2", k=-2)


def test_every_builtin_table_reaches_any_order():
    # no order limit: k = 3 on a builtin that once carried a hand table to order 2
    fam = builtin_family("h_power", k=3)
    env = make_envelope("power", k=3, alpha=2.0)
    rep = check_decay_assumptions(fam, make_reference(fam, margin=0.5), env, k=3, t_nodes=8)
    assert rep.verdict == "PASS"
    assert ("derivative", 0, 3) in rep.margins and ("integrated", 3, 0) in rep.margins
    for name in ("example2", "h_loglog", "h_stretched"):
        assert np.all(np.isfinite(builtin_family(name, k=3).derivative(0.5, (_TABLE_TS,), 2, 4)))


def test_a_partial_hand_table_raises_key_error():
    zero = lambda x, m: np.zeros_like(np.asarray(m, dtype=float))
    fam = DensityFamily(domain=make_domain("interval"), x_range=(0.0, 1.0), k=1,
                        name="partial", fn=lambda x, m: np.ones_like(np.asarray(m, float)),
                        exact_derivs={(1, 0): zero})
    assert np.all(fam.derivative(0.5, (_TABLE_TS,), 1, 0) == 0.0)
    with pytest.raises(KeyError, match=r"\(0, 1\)"):
        fam.derivative(0.5, (_TABLE_TS,), 0, 1)


def test_make_reference_constant():
    ref = make_reference(builtin_family("constant"), margin=0.5)
    assert ref.profile(0.37) == pytest.approx(0.5)
    assert ref.mass == pytest.approx(0.5, rel=1e-6)


def test_make_reference_affine_flat_quarter():
    ref = make_reference(builtin_family("affine"), margin=0.5)
    for m in (0.05, 0.3, 0.77, 0.99):
        assert ref.profile(m) == pytest.approx(0.25, rel=1e-9)


def test_make_reference_example1_endpoint():
    ref = make_reference(builtin_family("example1"), margin=0.5)
    assert ref.profile(1.0) == pytest.approx(1.0, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(x=st.floats(-1.0, 1.0), m=st.floats(1e-4, 1.0))
def test_reference_domination(x, m):
    fam = builtin_family("example1")
    ref = _EX1_REF
    assert fam.rho(x, m) > ref.profile(m)


_EX1_REF = make_reference(builtin_family("example1"), margin=0.5)


def test_reference_monotone_along_collar():
    ts = np.geomspace(1e-6, 1.0, 200)
    vals = _EX1_REF.profile(ts)
    assert np.all(np.diff(vals) >= -1e-14)


def test_degenerate_family_rejected():
    # vanishing on the right half of the interval -> degenerate reference
    fam = family_from_expression("m * max(0, 0.5 - m)", x_range=(0.0, 1.0), normalize=False)
    with pytest.raises(DegeneracyError):
        make_reference(fam, margin=0.5)


def test_envelope_library_invariants():
    ts = np.geomspace(1e-6, 1.0, 64)
    for name, env in library_envelopes(k=2, alpha=2.0).items():
        E = env.E_fn(ts)
        B = env.B_fn(ts)
        assert np.all(E >= 1.0), name
        assert np.all(B >= 1.0), name
        assert np.all(E ** 2 <= env.A * B * (1 + 1e-12)), name


def test_envelope_unknown():
    with pytest.raises(ConfigurationError):
        make_envelope("mystery", k=2)
    with pytest.raises(ConfigurationError):
        make_envelope("power", k=2, alpha=2.0, junk=1.0)


def test_check_constant_family_all_margins_at_most_one():
    fam = builtin_family("constant")
    ref = make_reference(fam, margin=0.5)
    env = make_envelope("constant", k=2, E0=1.0, B0=1.0, A=1.0)
    rep = check_decay_assumptions(fam, ref, env, k=2, t_nodes=8)
    assert rep.verdict == "PASS"
    assert rep.worst_margin <= 1.0 + 1e-9


def test_check_h_power_passes_matching_envelope():
    fam = builtin_family("h_power", alpha=2.0)
    ref = make_reference(fam, margin=0.5)
    env = make_envelope("power", k=2, alpha=2.0)
    rep = check_decay_assumptions(fam, ref, env, k=2, t_nodes=8)
    assert rep.verdict == "PASS"
    assert rep.codomain_ok


def test_check_stretched_and_loglog_pass_matching_envelopes():
    # stretched decay underflows below t ~ 1/709 in double precision and the
    # inequality window there is narrower than quadrature noise, so the probe
    # floor sits above that scale
    fam = builtin_family("h_stretched", alpha=1.0)
    ref = make_reference(fam, margin=0.5, t_floor=2e-3)
    env = make_envelope("stretched", k=2, alpha=1.0)
    rep = check_decay_assumptions(fam, ref, env, k=2, t_nodes=8, t_floor=2e-2)
    assert rep.verdict == "PASS"
    assert rep.probe_meta["domination_margin"] > 0

    fam = builtin_family("h_loglog")
    ref = make_reference(fam, margin=0.5)
    env = make_envelope("loglog", k=2)
    rep = check_decay_assumptions(fam, ref, env, k=2, t_nodes=8)
    assert rep.verdict == "PASS"


def test_check_example1_fails_with_first_order_witness():
    fam = builtin_family("example1")
    ref = _EX1_REF
    env = make_envelope("power", k=2, alpha=2.0)
    rep = check_decay_assumptions(fam, ref, env, k=2, t_nodes=8)
    assert rep.verdict == "FAIL"
    rec = rep.margins[("derivative", 1, 0)]
    assert rec["margin"] > 1.0
    assert rec["witness"]["beta"] == 1 and rec["witness"]["j"] == 0


def test_check_on_the_cylinder_matches_a_pointwise_loop():
    # the checker evaluates each table entry once per (x, a); the margins are
    # those of one scalar evaluation per probe point
    dom = make_domain("cylinder")
    fam = family_from_expression("(1 + 0.5*x*cos(2*pi*a))*(1 + t^2) + x*t", domain=dom,
                                 x_range=(-0.5, 0.5), k=2)
    env = make_envelope("constant", k=2, E0=2.0, B0=3.0)
    rep = check_decay_assumptions(fam, None, env, k=2, x_nodes=3, t_nodes=5)
    want = {}
    for x in rep.probe_meta["x_nodes"]:
        for a in np.linspace(0.0, dom.circumference, 5)[:-1]:
            for t in np.geomspace(1e-6, 1.0, 5):
                rho = float(fam.fn(x, a, t))
                for b in range(3):
                    for j in range(3 - b):
                        dv = float(fam.derivative(x, (a, t), b, j))
                        ratio = abs(dv) / rho / (2.0 ** b * 3.0 ** j)
                        want[b, j] = max(want.get((b, j), 0.0), ratio)
    got = {(b, j): rec["margin"] for (eq, b, j), rec in rep.margins.items() if eq == "derivative"}
    assert got.keys() == want.keys()
    for key, margin in want.items():
        assert got[key] == pytest.approx(margin, rel=1e-12, abs=0), key
    assert got[1, 0] > 0 and got[0, 1] > 0 and got[1, 1] > 0


def test_expression_family_normalises():
    fam = family_from_expression("1 + x*(2*m - 1)", x_range=(-0.5, 0.5))
    assert fam.mass(0.25) == pytest.approx(1.0, abs=1e-9)


def test_expression_family_nonpositive_mass():
    fam = family_from_expression("0 * m", x_range=(0.0, 1.0))
    with pytest.raises(DegeneracyError):
        fam.rho(0.5, 0.5)


def test_reference_integral_consistency():
    # integral(t) must antidifferentiate the profile
    ref = _EX1_REF
    for t in (0.01, 0.2, 0.7, 0.98):
        dt = 1e-5
        num = (ref.integral(t + dt) - ref.integral(t - dt)) / (2 * dt)
        assert num == pytest.approx(float(ref.profile(t)), rel=1e-4, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["h_power", "example1"]), x=st.floats(0.0, 1.0),
       alpha=st.floats(0.5, 4.0),
       log_q=st.lists(st.floats(-30.0, 0.0), min_size=1, max_size=16))
def test_mass_table_matches_closed_form_cdf(name, x, alpha, log_q):
    # the closed-form CDFs, root-solved in log m, are the oracle for the
    # Gauss table and its Newton inverse, with targets down to 1e-30 of the mass
    params = {"alpha": alpha} if name == "h_power" else {}
    fam = builtin_family(name, **params)
    cdf = lambda x, m: CDF[name](x, m, **params)
    table = fam.mass_table(x)
    q = 10.0 ** np.asarray(log_q)
    assert table.total == pytest.approx(float(cdf(x, 1.0)), rel=1e-12)
    m = table.invert(q * table.total)
    for qi, mi in zip(q, m):
        target = qi * float(cdf(x, 1.0))
        exact = np.exp(brentq(lambda s: np.log(cdf(x, np.exp(s))) - np.log(target),
                              np.log(1e-40), 0.0, xtol=1e-15, rtol=4 * np.finfo(float).eps))
        assert abs(mi - exact) <= 1e-10 * exact
        assert abs(table.cdf(exact) - target) <= 1e-10 * target


def test_mass_table_newton_cannot_cycle():
    # Levels of example2 at x = 1e-4 where the partial-segment Gauss residual
    # is rough (sin(1/m) oscillates inside the segment): Newton steps landed
    # exactly on a bracket end and alternated between two floats (the first
    # three), or crawled across the bracket by a factor of 0.94-0.98 per
    # step (the last two), until the iteration cap raised.
    table = builtin_family("example2").mass_table(1e-4)
    levels = np.array([5.894818520077629e-13, 1.973746813938972e-13,
                       1.6262803935460493e-13, 1.5815148457607712e-12,
                       5.604927712907345e-19])
    targets = levels * table.total
    batch = table.invert(targets)
    for target, m in zip(targets, batch):
        assert table.invert(target) == pytest.approx(m, rel=1e-14)
        assert table.cdf(m * (1 - 1e-12)) <= target <= table.cdf(m * (1 + 1e-12))


def test_mass_table_queries_its_density_in_sorted_order():
    # each evaluation block is increasing, so an interpolant in the density
    # (the reference Pchip) counts its queries per knot instead of searching
    # each one; the kink at 0.3 makes pair_refine halve pairs below the top level
    blocks = []

    def dens(m):
        blocks.append(np.all(np.diff(m.ravel()) >= 0))
        return np.sqrt(np.abs(m - 0.3))

    MassTable(dens)
    assert len(blocks) > 6 and all(blocks)


def test_mass_table_unresolvable_oscillation_fails_fast():
    # sin(1/m)^2 does not vanish at 0, so every segment pair below about 1e-2
    # drifts by a few percent of its width at any depth.  Halving all of them
    # down to the depth cap would need about 2^40 pairs; the table must give
    # up after a bounded number of density evaluations instead.
    limit = 41 * 3 * 2048 * 24
    evaluated = 0

    def dens(m):
        nonlocal evaluated
        evaluated += np.size(m)
        assert evaluated <= limit, "mass table kept halving an unresolvable oscillation"
        return 1.0 + np.sin(1.0 / np.asarray(m)) ** 2

    with pytest.raises(ResolutionError, match="unresolved"):
        MassTable(dens)


def _quad_oracle(fn, t):
    # scalar adaptive quadrature at the tolerances the checker asks for
    return integrate.quad(lambda s: float(fn(s)), 0.0, t, limit=200,
                          epsabs=1e-9, epsrel=1e-8)[0]


@pytest.mark.parametrize("name", ["h_power", "example1", "h_loglog"])
def test_check_integrals_match_quad_oracle(name):
    # the checker's pass for one (x, beta): int_0^t |D_x^beta rho| at its probe t
    fam = builtin_family(name)
    ts = np.geomspace(1e-6, 1.0, 12)
    lo, hi = fam.x_range
    for x in (lo + 0.02 * (hi - lo), 1e-3 * max(abs(lo), abs(hi)), 0.7 * hi):
        for b in range(3):
            integrand = lambda s: np.abs(fam.derivative(x, (s,), b, 0))
            vals, drift = probe_integrals(integrand, ts, 1e-9)
            for t, v, d in zip(ts, vals, drift):
                oracle = _quad_oracle(integrand, t)
                assert abs(v - oracle) <= 1e-9 + 1e-8 * abs(oracle)
                assert d <= 1e-9 + 1e-8 * v


def _unresolvable_family():
    # sin(1/m)^2 does not vanish at 0: no halving depth resolves it (see
    # test_mass_table_unresolvable_oscillation_fails_fast); the t- and
    # x-derivatives are set to zero so that only the integrated inequality
    # can decide the verdict
    calls = {"points": 0}

    def fn(x, m):
        calls["points"] += np.size(m)
        return 1.0 + np.sin(1.0 / np.asarray(m, dtype=float)) ** 2

    zero = lambda x, m: np.zeros_like(np.asarray(m, dtype=float))
    fam = DensityFamily(domain=make_domain("interval"), x_range=(0.5, 1.0), k=1,
                        name="unresolvable", fn=fn,
                        exact_derivs={(1, 0): zero, (0, 1): zero})
    return fam, calls


def test_check_unresolvable_integral_is_inconclusive():
    fam, calls = _unresolvable_family()
    env = make_envelope("constant", k=1, E0=1.0, B0=0.4)
    rep = check_decay_assumptions(fam, None, env, k=1, x_nodes=2, t_nodes=4, t_floor=1e-2)
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.worst_margin <= 1.0
    # one pass per x for beta = 0 (beta = 1 has an exact zero derivative),
    # each at most 41 halvings of 2048 pairs, plus the point probes
    assert calls["points"] <= 2 * 41 * 3 * 2048 * 24 + 100


def test_ex2_oscillatory_mass_matches_closed_form():
    # I(1) = int_0^1 s^5 sin^2(1/s) ds = 1/12 - Re[E_7(-2i)]/2
    import mpmath as mp
    with mp.workdps(40):
        exact = mp.mpf(1) / 12 - mp.re(mp.expint(7, -2j)) / 2
    assert abs(_ex2_oscillatory_mass() - float(exact)) <= 1e-13


def test_reference_from_profile_default_integral():
    ref = reference_from_profile(lambda s: 3.0 * np.asarray(s, dtype=float) ** 2)
    assert ref.integral(np.array([0.0, 0.5, 1.0])) == pytest.approx([0.0, 0.125, 1.0], abs=1e-12)
    assert ref.mass == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("q", range(1, 11))
def test_symmetric_beta_is_correctly_rounded(q):
    # B(q + 1, q + 1) = q!^2 / (2q + 1)!; float(Fraction) rounds the exact value once
    assert symmetric_beta(q) == float(Fraction(factorial(q) ** 2, factorial(2 * q + 1)))
