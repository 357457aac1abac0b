"""Parametrised density families, reference densities, and decay envelopes.

A family is an evaluator rho(x, .) over a model domain together with a table
of exact partial derivatives D_x^beta D_t^j rho to any order; its masses
come from integrating rho through MassTable.  Every table, builtin or user
expression, comes from one formula tree differentiated symbolically
(Node.diff); the builtins keep a hand evaluator of rho itself, which also
serves t = 0, where some of their formulas have no value.  One pair-refined
Gauss rule, pair_refine, serves every integral on [0, 1]: MassTable, the one
cumulative mass and its inverse (collar, CDFs, quantiles), and
probe_integrals, the signed integrals of the masses, normalisers, E_h and
the decay checker.

The decay machinery consists of envelope pairs (E, B) with a closure
constant A, a small library of candidate envelopes, and a sampling-based
checker for the three decay inequalities.  A PASS is evidence at probe
resolution, not a proof, and the report says so.
"""

import functools
import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, DegeneracyError, InfeasibilityError,
                     MoserTransportError, ResolutionError)
from .expressions import parse_density_expression
from .geometry import INTERVAL, Domain, Pchip, default_grid, make_domain

_X_EPS = 1e-9

_GAUSS_ROWS = 512  # segments per evaluation block, which bounds the node arrays


@functools.cache
def _gauss_rule():
    # computed on first use: leggauss starts LAPACK, which costs memory at import
    return np.polynomial.legendre.leggauss(24)


def gauss_segments(fn, a, b):
    """24-node Gauss-Legendre integrals of fn over [a[i], b[i]] for 1D arrays a, b.

    fn is evaluated on (rows, 24) node arrays, one block of rows at a time.
    """
    xg, wg = _gauss_rule()
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    mid, half = 0.5 * (b + a), 0.5 * (b - a)
    out = np.empty_like(mid)
    for lo in range(0, mid.size, _GAUSS_ROWS):
        blk = slice(lo, lo + _GAUSS_ROWS)
        vals = np.asarray(fn(mid[blk, None] + half[blk, None] * xg), dtype=float)
        out[blk] = half[blk] * np.sum(wg * vals, axis=1)
    return out


_EPS = np.finfo(float).eps
_MAX_SPLITS = 40   # halvings of one segment pair before the drift check
_MAX_PAIRS = 2048  # live segment pairs per halving, about 4x the initial layout
_MAX_NEWTON = 100  # bisection alone reaches 4 eps from a ratio-2 bracket in ~51


def pair_refine(fn, nodes, bound):
    """Gauss integrals of fn over the segments of ``nodes`` (an even number).

    Each pair of adjacent segments is integrated with the 24-node Gauss
    rule and compared with one rule over the pair's union.  A pair whose
    drift exceeds its width's share of ``bound`` (plus 4 eps of its value)
    is halved, to a depth of 40, which resolves steps and kinks.  Halving
    stops early when it would leave more than 2048 pairs to integrate, as
    an oscillation that no depth resolves does.  Returns the refined nodes,
    the segment integrals and each pair's drift, which the caller judges.
    """
    nodes = np.asarray(nodes, dtype=float)
    lo, mid, hi = nodes[:-2:2], nodes[1::2], nodes[2::2]
    pieces = []
    with np.errstate(under="ignore"):
        for depth in range(_MAX_SPLITS + 1):
            # lo stays sorted, so each query below is sorted, which a Pchip counts
            halves = gauss_segments(fn, np.column_stack([lo, mid]).ravel(),
                                    np.column_stack([mid, hi]).ravel())
            left, right = halves[0::2], halves[1::2]
            drift = np.abs(gauss_segments(fn, lo, hi) - (left + right))
            split = drift > bound * (hi - lo) + 4 * _EPS * np.abs(left + right)
            if depth == _MAX_SPLITS or 2 * np.count_nonzero(split) > _MAX_PAIRS:
                split[:] = False
            keep = ~split
            pieces.append((lo[keep], mid[keep], left[keep], right[keep], drift[keep]))
            if not np.any(split):
                break
            lo, hi = (np.column_stack([lo[split], mid[split]]).ravel(),
                      np.column_stack([mid[split], hi[split]]).ravel())
            mid = 0.5 * (lo + hi)
    lo, mid, left, right, drift = (np.concatenate(col) for col in zip(*pieces))
    order = np.argsort(lo)
    refined = np.concatenate([np.column_stack([lo, mid])[order].ravel(), nodes[-1:]])
    return refined, np.column_stack([left, right])[order].ravel(), drift[order]


def probe_integrals(fn, marks, bound):
    """int_0^t fn (which may be signed) for each t of ``marks`` in [0, 1].

    One pair_refine pass over 0, a geometric sequence from 1e-16 to 1/64
    (ratio about 2), 64 uniform segments up to 1, and the marks, so each
    integral is one cumulative sum.  [0, 1e-16] lies in the first pair, and
    no node is subnormal, where power terms are slow.  Returns the
    integrals and, per mark, the drift summed over the pairs below it.
    """
    marks = np.asarray(marks, dtype=float)
    if np.any((marks < 0.0) | (marks > 1.0)):
        raise ConfigurationError("probe integrals run over [0, t] with t in [0, 1]")
    nodes = np.unique(np.concatenate([[0.0], np.geomspace(1e-16, 1.0 / 64.0, 48),
                                      np.linspace(1.0 / 64.0, 1.0, 65), marks.ravel()]))
    if nodes.size % 2 == 0:    # odd segment count: halve the widest segment
        i = int(np.argmax(np.diff(nodes)))
        nodes = np.insert(nodes, i + 1, 0.5 * (nodes[i] + nodes[i + 1]))
    nodes, seg, drift = pair_refine(fn, nodes, bound)
    i = np.searchsorted(nodes, marks)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    cum_drift = np.concatenate([[0.0], np.cumsum(drift)])
    return cum[i], cum_drift[(i + 1) // 2]


def _resolved_integrals(fn, marks, bound):
    """probe_integrals that raises ResolutionError where a drift exceeds bound."""
    vals, drift = probe_integrals(fn, marks, bound)
    if not np.all(drift <= bound):
        raise ResolutionError(f"integral unresolved (pair drift {np.max(drift):.3e})")
    return vals


class MassTable:
    """Cumulative mass M(s) = int_0^s fn on [0, 1], tabulated and inverted.

    The nodes are 0, a geometric sequence from 1e-300 to 1/64 (ratio about
    2) and 64 uniform segments up to 1, so every scale down to the
    underflow range has its own segments and so does the core.  Above
    1e-300 pair_refine integrates them; a total drift above max(100 tol,
    1e-9) raises ResolutionError.
    """

    def __init__(self, fn, tol=1e-10):
        self.fn = fn
        self.tol = tol
        bound = max(100 * tol, 1e-9)
        layout = np.concatenate([np.geomspace(1e-300, 1.0 / 64.0, 991),
                                 np.linspace(1.0 / 64.0, 1.0, 65)[1:]])
        nodes, seg, drift = pair_refine(fn, layout, bound)
        with np.errstate(under="ignore"):
            first = gauss_segments(fn, [0.0], [1e-300])
        seg = np.concatenate([first, seg])
        if not np.all(np.isfinite(seg)) or np.any(seg < 0.0):
            raise DegeneracyError("density is not finite and nonnegative on [0, 1]")
        total_drift = float(np.sum(drift))
        if total_drift > bound:
            raise ResolutionError(f"mass table unresolved (pair drift {total_drift:.3e})")
        self.nodes = np.concatenate([[0.0], nodes])
        self.cum = np.cumsum(np.concatenate([[0.0], seg]))

    @property
    def total(self):
        return float(self.cum[-1])

    def cdf(self, m):
        """M(m): the table value at the node below m plus one Gauss segment."""
        m_arr = np.clip(np.atleast_1d(np.asarray(m, dtype=float)), 0.0, 1.0)
        i = np.clip(np.searchsorted(self.nodes, m_arr, side="right") - 1,
                    0, self.nodes.size - 2)
        with np.errstate(under="ignore"):
            out = self.cum[i] + gauss_segments(self.fn, self.nodes[i], m_arr)
        return float(out[0]) if np.ndim(m) == 0 else out

    def invert(self, targets):
        """inf{s : M(s) > T} for each target T: a bracketed Newton iteration on M' = fn.

        Each target is bracketed by the two table nodes around it and
        started from the local power law through them.  A Newton step that
        lands on or outside the bracket, or is longer than half the point's
        previous move (Newton crawling on a rough residual), is replaced by
        bisection, so the bracket keeps shrinking.  A point stops when its
        step is below 4 eps relative, its mass residual below 4 eps
        relative where fn > 0 (inside a flat run a zero residual does not
        stop it), or its bracket below 4 eps relative; it keeps the iterate
        whose residual was evaluated.  Targets at or below 0 give 0 and
        targets at or above the total give 1.  Targets above the total by
        more than tol raise InfeasibilityError; residuals above tol raise
        ResolutionError.
        """
        T_all = np.atleast_1d(np.asarray(targets, dtype=float))
        g = np.zeros_like(T_all)
        total = self.total
        excess = float(np.max(T_all, initial=0.0)) - total
        if excess > self.tol:
            raise InfeasibilityError(
                f"mass deficiency: total mass {total:.6g} below target {total + excess:.6g}"
            )
        g[(T_all > 0.0) & (T_all >= total)] = 1.0
        act = np.flatnonzero((T_all > 0.0) & (T_all < total))
        T = T_all[act]
        i = np.searchsorted(self.cum, T, side="right") - 1    # cum[i] <= T < cum[i + 1]
        s0, s1, m0, m1 = self.nodes[i], self.nodes[i + 1], self.cum[i], self.cum[i + 1]
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            power = s0 * (T / m0) ** (np.log(s1 / s0) / np.log(m1 / m0))
        linear = s0 + (T - m0) / (m1 - m0) * (s1 - s0)
        gi = np.where((m0 > 0.0) & (power > s0) & (power < s1), power, linear)
        lo, hi = s0.copy(), s1.copy()
        moved = np.full(act.size, np.inf)    # length of each point's last move
        rows = np.arange(act.size)
        resid_max = 0.0
        for _ in range(_MAX_NEWTON):
            if rows.size == 0:
                break
            with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
                resid = m0[rows] + gauss_segments(self.fn, s0[rows], gi) - T[rows]
                slope = np.asarray(self.fn(gi), dtype=float)
                step = resid / slope
            above = resid > 0.0
            hi[rows[above]] = gi[above]
            lo[rows[~above]] = gi[~above]
            lo_r, hi_r = lo[rows], hi[rows]
            done = ((np.abs(step) <= 4 * _EPS * gi)
                    | ((np.abs(resid) <= 4 * _EPS * T[rows]) & (slope > 0.0))
                    | (hi_r - lo_r <= 4 * _EPS * hi_r))
            g[act[rows[done]]] = gi[done]
            if np.any(done):
                resid_max = max(resid_max, float(np.max(np.abs(resid[done]))))
            keep = ~done
            rows, gi, step, lo_r, hi_r = rows[keep], gi[keep], step[keep], lo_r[keep], hi_r[keep]
            new = gi - step
            out = ~((new > lo_r) & (new < hi_r)) | (np.abs(step) > 0.5 * moved[rows])
            new[out] = 0.5 * (lo_r[out] + hi_r[out])
            moved[rows] = np.abs(new - gi)
            gi = new
        if rows.size:
            raise ResolutionError(f"Newton iteration did not converge at {rows.size} points")
        if resid_max > self.tol:
            raise ResolutionError(f"mass residual {resid_max:.3e} above tol {self.tol:g}")
        return float(g[0]) if np.ndim(targets) == 0 else g


@dataclass
class DensityFamily:
    """Evaluator bundle for a parametrised density family.

    ``fn(x, *coords)`` accepts scalar or ndarray coordinates.  For 1D
    domains coords is ``(m,)``; for 2D domains ``(a, t)`` with ``t`` the
    collar coordinate.  ``exact_derivs`` maps ``(bx, jt)`` to the evaluator
    of D_x^bx D_t^jt rho.  All evaluators are pure, so concurrent evaluation
    is safe.
    """

    domain: Domain
    x_range: tuple
    k: int
    name: str
    fn: object
    exact_derivs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError("smoothness budget k must be a positive integer")

    def _check_x(self, x):
        lo, hi = self.x_range
        pad = _X_EPS * max(1.0, hi - lo)
        if x < lo - pad or x > hi + pad:
            raise ConfigurationError(f"parameter x={x} outside X=[{lo}, {hi}]")

    def rho(self, x, *coords):
        self._check_x(x)
        for c in coords:
            arr = np.asarray(c)
            if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12):
                raise ConfigurationError("point outside the domain")
        return self.fn(x, *coords)

    def derivative(self, x, coords, bx=0, jt=0):
        """D_x^bx D_t^jt rho at (x, coords), from the exact derivative table."""
        if bx == 0 and jt == 0:
            return self.fn(x, *coords)
        return self.exact_derivs[bx, jt](x, *coords)

    def mass_table(self, x):
        """MassTable of rho(x, .) along the 1D domain."""
        if self.domain.dim != 1:
            raise ConfigurationError("mass tables are defined for 1D families only")
        self._check_x(x)
        return MassTable(lambda m: self.fn(x, m))

    def mass(self, x, bx=0):
        """Integral of D_x^bx rho(x, .) over the domain, the total mass at bx = 0.

        Probe integrals in 1D, the 256-node grid quadrature in 2D.
        """
        self._check_x(x)
        if self.domain.dim == 1:
            return float(_resolved_integrals(lambda m: self.derivative(x, (m,), bx),
                                             [1.0], 1e-10)[0])
        grid = default_grid(self.domain, 256)
        # on open axes the evaluator's axis factors run on 256 points, not on 256^2
        return grid.integrate(self.derivative(x, np.ix_(grid.nodes(0), grid.nodes(1)), bx))

    def validate(self, x_samples=9, tol_norm=1e-4):
        """Normalisation and interior positivity on a sample grid."""
        lo, hi = self.x_range
        for x in np.linspace(lo, hi, x_samples):
            m = self.mass(x)
            if abs(m - 1.0) > tol_norm:
                raise ConfigurationError(
                    f"family {self.name!r} not normalised at x={x:g}: mass={m!r}"
                )
            if self.domain.dim == 1:
                pts = np.geomspace(1e-6, 1.0, 64)
                vals = self.fn(x, pts)
            else:
                a = np.linspace(0, self.domain.circumference, 17)[:-1]
                t = np.geomspace(1e-6, 1.0, 17)
                vals = self.fn(x, a[:, None], t[None, :])
            if np.any(np.asarray(vals) <= 0.0):
                raise DegeneracyError(
                    f"family {self.name!r} not positive on the interior at x={x:g}"
                )

    def min_density(self):
        """Minimum of rho over 17 x and a 129-node mesh (times 128 nodes in a in 2D)."""
        lo, hi = self.x_range
        worst = np.inf
        for x in np.linspace(lo, hi, 17):
            if self.domain.dim == 1:
                vals = self.fn(x, np.linspace(0.0, 1.0, 129))
            else:
                a = np.linspace(0, self.domain.circumference, 129)[:-1]
                t = np.linspace(0.0, 1.0, 129)
                vals = self.fn(x, a[:, None], t[None, :])
            worst = min(worst, float(np.min(vals)))
        return worst


# ---------------------------------------------------------------------------
# exact derivative tables of expressions


class _LazyTable(dict):
    """(b, j) -> value, built by ``build(b, j)`` on the first lookup of a missing key."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        b, j = key
        if b < 0 or j < 0:
            raise KeyError(key)
        value = self[key] = self.build(b, j)
        return value


def _evaluator(ast):
    """fn(x, *coords) of an expression over (x, *coords)."""
    names = ast.variables[1:]

    def fn(x, *coords):
        env = {name: np.asarray(c, dtype=float) for name, c in zip(names, coords)}
        return np.asarray(ast.evaluate(x=x, **env), dtype=float)

    return fn


def _expression_derivatives(ast):
    """Table of D_x^b D_t^j of an expression, to any order, differentiated on first use.

    t is the last coordinate (m in 1D); entry (0, 0) is the expression itself.
    """
    t = ast.variables[-1]
    trees = _LazyTable(lambda b, j: trees[b, j - 1].diff(t) if j else trees[b - 1, 0].diff("x"))
    trees[0, 0] = ast
    return _LazyTable(lambda b, j: _evaluator(trees[b, j]))


def _normalised_derivatives(raw, integral):
    """Table of D_x^b D_t^j (rho / N) from the table ``raw`` of rho; (0, 0) is rho / N.

    ``integral(b, x)`` is N^(b)(x).  Leibniz on rho = (rho / N) N gives
    D_x^b D_t^j (rho / N) = (D_x^b D_t^j rho
                             - sum_{i=1}^b C(b, i) N^(i) D_x^(b-i) D_t^j (rho / N)) / N.
    """
    def build(b, j):
        def entry(x, *coords):
            x = float(x)
            out = raw[b, j](x, *coords)
            for i in range(1, b + 1):
                out = out - math.comb(b, i) * integral(i, x) * table[b - i, j](x, *coords)
            return out / integral(0, x)
        return entry

    table = _LazyTable(build)
    return table


# ---------------------------------------------------------------------------
# builtin families


def _interval():
    return make_domain(INTERVAL)


def _power(m, p):
    """m ** p bit for bit, for p > 0, without calling pow on entries in
    [+0, 2**(-1076/p)]: their power rounds to +0.0, and pow's underflow path
    is about four times slower than its normal one."""
    m = np.asarray(m, dtype=float)
    out = np.zeros_like(m)
    np.power(m, p, out=out, where=np.signbit(m) | ~(m <= 2.0 ** (-1076.0 / p)))
    return out


def _constant_family(k):
    return DensityFamily(
        domain=_interval(),
        x_range=(-1.0, 1.0),
        k=k,
        name="constant",
        fn=lambda x, m: np.ones_like(np.asarray(m, dtype=float)),
        exact_derivs=_expression_derivatives(parse_density_expression("1")),
    )


def _example1_family(k):
    def fn(x, m):
        m = np.asarray(m, dtype=float)
        return 2 * x * x * m + 5 * (1 - x * x) * _power(m, 4)

    return DensityFamily(
        domain=_interval(), x_range=(-1.0, 1.0), k=k, name="example1", fn=fn,
        exact_derivs=_expression_derivatives(
            parse_density_expression("2*x^2*m + 5*(1 - x^2)*m^4")),
    )


def _affine_family(k, c=0.5):
    if not 0 < c < 1:
        raise ConfigurationError(f"affine family needs 0 < c < 1, got {c}")

    def fn(x, m):
        m = np.asarray(m, dtype=float)
        return 1.0 + x * (2 * m - 1)

    return DensityFamily(
        domain=_interval(), x_range=(-c, c), k=k, name="affine", fn=fn,
        exact_derivs=_expression_derivatives(parse_density_expression("1 + x*(2*m - 1)")),
    )


def _half(t):
    return t / 2


def _modulated_family(name, k, base, numerator, n0, ns, s=_half):
    """Family (1 + x s(t)) base(t) / (n0 + x ns) on [0,1], X = [0,1].

    base and s act on float arrays; the default s(t) is t/2.  n0 is the
    integral of base and ns the integral of s * base, so the mass is one for
    every x.  ``fn`` is the product by hand, since some bases have no
    formula value at t = 0, which meshes reach; the derivative table
    differentiates ``numerator``, the text of (1 + x s(m)) base(m), over
    n0 + x ns, both written with repr so that they parse back to the same
    doubles.
    """
    def fn(x, t):
        t = np.asarray(t, dtype=float)
        return (1 + x * s(t)) * base(t) / (n0 + x * ns)

    formula = f"{numerator}/({n0!r} + x*{ns!r})"
    return DensityFamily(
        domain=_interval(), x_range=(0.0, 1.0), k=k, name=name, fn=fn,
        exact_derivs=_expression_derivatives(parse_density_expression(formula)),
    )


def _h_power_family(k, alpha=2.0):
    if not alpha > 0:
        raise ConfigurationError(f"h_power needs alpha > 0, got {alpha}")
    a = float(alpha)
    return _modulated_family("h_power", k, lambda t: t ** a, f"(1 + x*m/2)*m^{a!r}",
                             1.0 / (a + 1), 0.5 / (a + 2))


def _base_integrals(base, s_fn):
    """The normalisers n0 = int_0^1 base and ns = int_0^1 s * base."""
    n0 = _resolved_integrals(base, [1.0], 1e-12)[0]
    ns = _resolved_integrals(lambda t: s_fn(t) * base(t), [1.0], 1e-12)[0]
    return float(n0), float(ns)


def _h_stretched_family(k, alpha=1.0):
    if not alpha > 0:
        raise ConfigurationError(f"h_stretched needs alpha > 0, got {alpha}")
    a = float(alpha)

    def base(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 0
        with np.errstate(under="ignore"):
            out[pos] = np.exp(-t[pos] ** (-a))
        return out if out.ndim else float(out)

    n0, ns = _base_integrals(base, _half)
    return _modulated_family("h_stretched", k, base, f"(1 + x*m/2)*exp(-m^(-{a!r}))", n0, ns)


def _h_loglog_family(k):
    # decay profile 1 / log(2/t): doubly-logarithmic exponent shape near 0.
    # The modulation t^2 (1 - t)^3 vanishes to second order at t = 1, so the
    # parameter dependence does not tighten the razor-thin envelope window
    # at the interior end of the collar
    base = lambda t: 1.0 / np.log(2.0 / t)
    mod = lambda t: t ** 2 * (1 - t) ** 3
    n0, ns = _base_integrals(base, mod)
    return _modulated_family("h_loglog", k, base, "(1 + x*m^2*(1 - m)^3)/log(2/m)",
                             n0, ns, s=mod)


def symmetric_beta(q):
    """B(q + 1, q + 1) = q!^2 / (2q + 1)!, correctly rounded (one exact integer division)."""
    return math.factorial(q) ** 2 / math.factorial(2 * q + 1)


@functools.cache
def _ex2_oscillatory_mass():
    """I(1) = int_0^1 s^5 sin^2(1/s) ds, resolved to a pair drift of 1e-15."""
    return float(_resolved_integrals(lambda s: s ** 5 * np.sin(1.0 / s) ** 2, [1.0], 1e-15)[0])


def _example2_family(k):
    q = k + 1  # bump degree 2q >= 2k + 2
    I1 = _ex2_oscillatory_mass()

    def sigma(m):
        u = 4.0 * (m - 0.5) * (1.0 - m)
        return np.where((m >= 0.5) & (m <= 1.0), np.maximum(u, 0.0) ** q, 0.0)

    def fn(x, m):
        m = np.asarray(m, dtype=float)
        m5 = _power(m, 5)
        osc = np.zeros_like(m)
        pos = m5 > 0  # sin(1/m)^2 multiplies m^5, so it is read only there
        osc[pos] = np.sin(1.0 / m[pos]) ** 2
        c_of_x = (1.0 - (2.0 + x) * I1 - 1.0 / 31.0) / sigma_mass
        with np.errstate(under="ignore"):
            return (2.0 + x) * m5 * osc + _power(m, 30) + c_of_x * sigma(m)

    fam = DensityFamily(
        domain=_interval(), x_range=(-1.0, 1.0), k=k, name="example2", fn=fn,
    )
    # after the family has checked k: symmetric_beta needs q >= 0
    sigma_mass = 0.5 * symmetric_beta(q)
    fam.exact_derivs = _expression_derivatives(parse_density_expression(
        f"(2 + x)*m^5*sin(1/m)^2 + m^30"
        f" + (1 - (2 + x)*{I1!r} - 1/31)/{sigma_mass!r}*max(4*(m - 0.5)*(1 - m), 0)^{q}"))
    return fam


_BUILTINS = {
    "constant": _constant_family,
    "example1": _example1_family,
    "example2": _example2_family,
    "affine": _affine_family,
    "h_power": _h_power_family,
    "h_stretched": _h_stretched_family,
    "h_loglog": _h_loglog_family,
}


def builtin_family(name, k=2, **params):
    """Construct one of the built-in families by name."""
    if name not in _BUILTINS:
        raise ConfigurationError(
            f"unknown builtin family {name!r}; available: {sorted(_BUILTINS)}"
        )
    try:
        inspect.signature(_BUILTINS[name]).bind(k, **params)
    except TypeError as exc:
        raise ConfigurationError(f"builtin family {name!r}: {exc}") from None
    return _BUILTINS[name](k, **params)


def expression_variables(domain):
    """The variables of a family expression on ``domain``: x, then its coordinates."""
    return ("x", "m") if domain.dim == 1 else ("x", "a", "t")


def family_from_expression(text, domain=None, x_range=(0.0, 1.0), k=2, normalize=True):
    """Family from an expression in (x, m) on the interval or (x, a, t) on 2D domains.

    When ``normalize`` is set, the evaluator is divided by the per-x mass
    N(x), so the family is a probability density for every sampled x.  Its
    derivatives are exact at any order: the expression's tree differentiated
    symbolically, and for the normalised family N^(b)(x) = int D_x^b rho by
    the rule of ``mass``, cached per (b, x).
    """
    domain = domain or _interval()
    raw = _expression_derivatives(parse_density_expression(
        text, variables=expression_variables(domain)))
    fam = DensityFamily(
        domain=domain, x_range=tuple(x_range), k=k,
        name=f"expression({text})", fn=raw[0, 0], exact_derivs=raw,
    )
    if not normalize:
        return fam

    @functools.cache
    def integral(b, x):
        total = fam.mass(x, b)
        if b == 0 and not total > 0:
            raise DegeneracyError(f"expression family has non-positive mass at x={x:g}")
        return total

    table = _normalised_derivatives(raw, integral)
    return DensityFamily(
        domain=domain, x_range=tuple(x_range), k=k,
        name=f"expression({text})", fn=table[0, 0], exact_derivs=table,
    )


# ---------------------------------------------------------------------------
# reference densities


@dataclass
class ReferenceDensity:
    """Sub-probability reference density dominated by the family.

    The profile is a function of the collar coordinate t, which is m itself
    on the interval; in the collar it does not depend on the boundary
    coordinate a.  ``integral(t)`` is the exact antiderivative
    int_0^t f.
    """

    profile_fn: object
    integral_fn: object

    def profile(self, t):
        return self.profile_fn(np.asarray(t, dtype=float))

    def integral(self, t):
        return self.integral_fn(np.asarray(t, dtype=float))

    @property
    def mass(self):
        return float(self.integral(1.0))


def reference_from_profile(profile_fn, integral_fn=None):
    """Reference density from closed-form callables (mainly for tests/fixtures)."""
    if integral_fn is None:
        def integral_fn(t):
            out = _resolved_integrals(profile_fn, np.atleast_1d(t), 1e-10)
            return out if np.ndim(t) else float(out[0])
    return ReferenceDensity(profile_fn=profile_fn, integral_fn=integral_fn)


def make_reference(fam, margin=0.5, t_floor=1e-8):
    """Reference f = (1-margin) * min_x rho, collar-constant and monotone in t.

    The pointwise minimum over 41 sampled x (and over the boundary coordinate
    for 2D domains) is tabulated on 500 log-refined t-nodes, pushed down to a
    nondecreasing-in-t envelope (suffix minimum from the interior), and
    interpolated monotonically.  Below the first node the profile continues
    by its fitted power law.
    """
    if not 0 < margin < 1:
        raise ConfigurationError(f"margin must lie in (0, 1), got {margin}")
    dom = fam.domain
    ts = np.geomspace(t_floor, 1.0, 500)
    ts[-1] = 1.0
    lo, hi = fam.x_range
    xs = np.linspace(lo, hi, 41)

    if dom.dim == 1:
        raw = np.min(np.stack([np.asarray(fam.fn(x, ts), dtype=float) for x in xs]), axis=0)
    else:
        a_nodes = np.linspace(0.0, dom.circumference, 17)[:-1]
        aa, tt = np.meshgrid(a_nodes, ts, indexing="ij")
        stacked = np.stack([np.asarray(fam.fn(x, aa, tt), dtype=float) for x in xs])
        raw = stacked.min(axis=0).min(axis=0)  # min over x then over a

    raw = (1.0 - margin) * raw
    if dom.has_boundary:
        mono = np.minimum.accumulate(raw[::-1])[::-1]
    else:
        mono = np.full_like(raw, raw.min())

    if np.any(mono[ts >= 0.02] <= 0.0):
        raise DegeneracyError(
            "constructed reference vanishes on an interior region; family is degenerate"
        )
    if np.any(mono <= 0.0):
        raise DegeneracyError(
            "constructed reference not positive on the interior "
            "(raise t_floor above the family's underflow scale)"
        )

    # interpolate in log-log space: linear-space interpolation between the
    # log-refined knots overshoots by orders of magnitude for fast-decaying
    # profiles, which would break the domination rho > f between knots
    log_spline = Pchip(np.log(ts), np.log(mono), extrapolate=False)
    t0, f0 = ts[0], mono[0]
    q_hat = min(max(float(log_spline.derivative()(np.log(t0))), 0.0), 200.0)
    tail_mass = f0 * t0 / (q_hat + 1.0)

    def profile_fn(t):
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        low = t < t0
        high = t > 1.0
        mid = ~low & ~high
        with np.errstate(under="ignore"):
            out[mid] = np.exp(log_spline(np.log(np.clip(t[mid], t0, 1.0))))
            out[low] = f0 * np.power(np.maximum(t[low], 0.0) / t0, q_hat)
        out[high] = mono[-1]
        return out if out.ndim else float(out)

    # cumulative mass by per-interval Gauss quadrature of the interpolant
    seg = gauss_segments(profile_fn, ts[:-1], ts[1:])
    cum = tail_mass + np.cumsum(np.concatenate([[0.0], seg]))

    def integral_fn(t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t_arr = np.atleast_1d(t).astype(float)
        out = np.empty_like(t_arr)
        low = t_arr < t0
        out[low] = tail_mass * np.power(np.maximum(t_arr[low], 0.0) / t0, q_hat + 1.0)
        hi = ~low
        if np.any(hi):
            tc = np.clip(t_arr[hi], t0, 1.0)
            idx = np.clip(np.searchsorted(ts, tc, side="right") - 1, 0, len(ts) - 2)
            out[hi] = cum[idx] + gauss_segments(profile_fn, ts[idx], tc)
        return float(out[0]) if scalar else out

    ref = ReferenceDensity(profile_fn=profile_fn, integral_fn=integral_fn)

    # domination on a verification grid denser in x than the build grid
    check_x = np.linspace(lo, hi, 83)
    check_t = np.geomspace(t_floor, 1.0, 97)
    fvals = ref.profile(check_t)
    for x in check_x:
        if dom.dim == 1:
            rv = np.asarray(fam.fn(x, check_t), dtype=float)
        else:
            a_nodes = np.linspace(0.0, dom.circumference, 9)[:-1]
            aa, tt = np.meshgrid(a_nodes, check_t, indexing="ij")
            rv = np.asarray(fam.fn(x, aa, tt), dtype=float).min(axis=0)
        if np.any(rv - fvals <= 0):
            raise DegeneracyError(
                f"reference domination rho > f violated at x={x:g} on the verification grid"
            )
    return ref


# ---------------------------------------------------------------------------
# decay envelopes


@dataclass(frozen=True)
class DecayEnvelope:
    """Envelope pair (E, B) with closure constant A.

    The checker enforces the weak form E, B > 0; whether the strong
    codomain form E, B >= 1 also holds is reported separately.
    """

    name: str
    E_fn: object
    B_fn: object
    A: float
    params: dict


def _sized_A(E_fn, B_fn, k):
    ts = np.geomspace(1e-8, 1.0, 400)
    return float(2.0 * np.max(E_fn(ts) ** k / B_fn(ts)))


def make_envelope(name, k=2, **params):
    """Construct a library envelope.

    * ``power(alpha, E0=2, b=1.3)``      -- E = E0, B = b*alpha/t
    * ``stretched(alpha, E0=2, b=1.3)``  -- E = E0, B = b*alpha*t^(-alpha-1)
    * ``loglog(C1=4, C2=2)``             -- E = C2*(1+log(2/t)), B = C1/t
    * ``constant(E0=1, B0=1)``           -- constants
    """
    if name in ("power", "stretched") and "alpha" not in params:
        raise ConfigurationError(f"envelope {name!r} needs the parameter 'alpha'")
    if name == "power":
        alpha = float(params.pop("alpha"))
        E0 = float(params.pop("E0", 2.0))
        b = float(params.pop("b", 1.3))
        E_fn = lambda t: np.full_like(np.asarray(t, float), E0)
        B_fn = lambda t: b * alpha / np.asarray(t, float)
        chosen = {"alpha": alpha, "E0": E0, "b": b}
    elif name == "stretched":
        # the window between the derivative and integrated inequalities for
        # exp(-t^-alpha) decay has relative width O(t^alpha); the tapered
        # (alpha+1)/alpha correction is the matching Laplace-expansion
        # constant near 0, reduced toward the interior end where the sharp
        # mass ratio caps B from above
        alpha = float(params.pop("alpha"))
        E0 = float(params.pop("E0", 2.0))
        E_fn = lambda t: np.full_like(np.asarray(t, float), E0)

        def B_fn(t):
            t = np.asarray(t, dtype=float)
            return alpha * t ** (-alpha - 1.0) * (
                1.0 + 0.75 * ((alpha + 1.0) / alpha) * t ** alpha * (1.0 - t / 2.0)
            )

        chosen = {"alpha": alpha, "E0": E0}
    elif name == "loglog":
        # a pure C1/t cannot satisfy the integrated inequality near 0 and the
        # derivative inequalities near 1 simultaneously; the 1/log correction
        # bridges the two regimes and recovers ~C1/t asymptotically
        C1 = float(params.pop("C1", 0.85))
        C1b = float(params.pop("C1b", 0.56))
        C2 = float(params.pop("C2", 2.0))
        E_fn = lambda t: C2 * (1.0 + np.log(2.0 / np.asarray(t, float)))

        def B_fn(t):
            t = np.asarray(t, dtype=float)
            return (C1 + C1b / np.log(2.0 / t)) / t

        chosen = {"C1": C1, "C1b": C1b, "C2": C2}
    elif name == "constant":
        E0 = float(params.pop("E0", 1.0))
        B0 = float(params.pop("B0", 1.0))
        E_fn = lambda t: np.full_like(np.asarray(t, float), E0)
        B_fn = lambda t: np.full_like(np.asarray(t, float), B0)
        chosen = {"E0": E0, "B0": B0}
    else:
        raise ConfigurationError(f"unknown envelope {name!r}")
    A = params.pop("A", None)
    if params:
        raise ConfigurationError(f"unknown envelope parameters {sorted(params)}")
    A = float(A) if A is not None else _sized_A(E_fn, B_fn, k)
    return DecayEnvelope(name=name, E_fn=E_fn, B_fn=B_fn, A=A, params=chosen)


def library_envelopes(k=2, alpha=2.0):
    """The candidate envelopes used when sweeping for a matching one."""
    return {
        "power": make_envelope("power", k, alpha=alpha),
        "stretched": make_envelope("stretched", k, alpha=alpha),
        "loglog": make_envelope("loglog", k),
        "constant": make_envelope("constant", k),
    }


# ---------------------------------------------------------------------------
# assumption checking


@dataclass
class AssumptionReport:
    verdict: str  # PASS | FAIL | INCONCLUSIVE
    worst_margin: float
    worst_witness: dict
    margins: dict  # (eq, beta, j) -> {"margin": float, "witness": {...}}
    codomain_ok: bool
    inconclusive: list
    k: int
    probe_meta: dict

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "worst_margin": self.worst_margin,
            "worst_witness": self.worst_witness,
            "margins": {
                f"{eq}:beta={b}:j={j}": rec for (eq, b, j), rec in sorted(self.margins.items())
            },
            "codomain_ok": self.codomain_ok,
            "inconclusive_count": len(self.inconclusive),
            "k": self.k,
            "probe": self.probe_meta,
        }


def _x_probe_nodes(x_range, n=7):
    lo, hi = x_range
    pad = 0.02 * (hi - lo)
    nodes = list(np.linspace(lo + pad, hi - pad, n))
    scale = max(abs(lo), abs(hi))
    if lo <= 0.0 <= hi:
        # degeneracy in the parameter often sits at x -> 0: refine there
        for s in np.geomspace(1e-3 * scale, 0.3 * scale, 4):
            if hi >= s:
                nodes.append(s)
            if lo <= -s:
                nodes.append(-s)
    return np.array(sorted(set(round(v, 15) for v in nodes)))


def check_decay_assumptions(
    fam,
    ref,
    env,
    k=None,
    x_nodes=7,
    t_nodes=12,
    t_floor=1e-6,
):
    """Evaluate the three decay inequalities on a probe grid.

    Ratios LHS/RHS are recorded per derivative order; PASS means every
    sampled ratio is <= 1 (within 1e-6), FAIL carries the witnessing
    probe point.  The integrated inequality reads int_0^t |D_x^beta rho|
    at every probe t from one probe_integrals pass per (x, a, beta); a
    point whose summed pair drift exceeds 1e-9 + 1e-8 of the value,
    or whose integrand raised, is reported INCONCLUSIVE, never silently
    passed.  A PASS is evidence at probe resolution only.  Every derivative
    comes from the family's exact table, evaluated once per (x, a, beta, j)
    on the probe t where rho > 0.
    """
    k = k or fam.k
    quad_tol = 1e-9
    dom = fam.domain
    xs = _x_probe_nodes(fam.x_range, n=x_nodes)
    ts = np.geomspace(t_floor, 1.0, t_nodes)
    a_nodes = [0.0] if dom.dim == 1 else list(np.linspace(0, dom.circumference, 5)[:-1])
    Es, Bs = env.E_fn(ts), env.B_fn(ts)  # the envelopes depend on t alone

    margins = {}
    inconclusive = []
    worst = (0.0, None)

    def record(eq, b, j, ratio, witness):
        nonlocal worst
        key = (eq, b, j)
        prev = margins.get(key)
        if prev is None or ratio > prev["margin"]:
            margins[key] = {"margin": float(ratio), "witness": witness}
        if ratio > worst[0]:
            worst = (float(ratio), witness)

    def coords(a, t):
        return (t,) if dom.dim == 1 else (a, t)

    for x in xs:
        for a in a_nodes:
            integrated = []    # per beta: int_0^t |D_x^beta rho| at every t, drifts, failure
            for b in range(0, k + 1):
                try:
                    vals, drifts = probe_integrals(
                        lambda s: np.abs(fam.derivative(x, coords(a, s), b, 0)), ts, quad_tol)
                    integrated.append((vals, drifts, None))
                except MoserTransportError as exc:
                    integrated.append((ts * np.nan, ts * np.inf, str(exc)))
            rho = np.broadcast_to(np.asarray(fam.fn(x, *coords(a, ts)), dtype=float), ts.shape)
            live = rho > 0
            pts = coords(a, ts[live])
            # each table entry once, on the probe t where rho > 0
            derivs = {(b, j): np.broadcast_to(np.asarray(fam.derivative(x, pts, b, j), float),
                                              ts[live].shape)
                      for b in range(k + 1) for j in range(k + 1 - b)} if np.any(live) else {}
            n = -1    # index of t among the live probe t
            for i, t in enumerate(ts):
                if not live[i]:
                    inconclusive.append({"x": float(x), "a": float(a), "t": float(t),
                                         "reason": "vanishing density"})
                    continue
                n += 1
                E, B = float(Es[i]), float(Bs[i])
                rho_val = float(rho[i])
                for (b, j), dv in derivs.items():
                    ratio = abs(float(dv[n])) / rho_val / (E ** b * B ** j)
                    record("derivative", b, j,
                           ratio, {"x": float(x), "a": float(a), "t": float(t),
                                   "beta": b, "j": j})
                for b, (vals, drifts, failure) in enumerate(integrated):
                    if failure or not drifts[i] <= quad_tol + 1e-8 * vals[i]:
                        inconclusive.append({"x": float(x), "a": float(a), "t": float(t), "beta": b,
                                             "reason": failure or f"pair drift {drifts[i]:.3e}"})
                        continue
                    ratio = vals[i] / rho_val / (E ** b / B)
                    record("integrated", b, 0,
                           ratio, {"x": float(x), "a": float(a), "t": float(t),
                                   "beta": b, "j": 0})

    for a in a_nodes:
        for t, E, B in zip(ts, Es.tolist(), Bs.tolist()):
            ratio = E ** k / (env.A * B)
            record("closure", k, 0, ratio, {"a": float(a), "t": float(t), "beta": k, "j": 0})

    env_ts = np.geomspace(t_floor, 1.0, 64)
    codomain_ok = bool(np.min(env.E_fn(env_ts)) >= 1.0 - 1e-12
                       and np.min(env.B_fn(env_ts)) >= 1.0 - 1e-12)

    domination_margin = None
    if ref is not None:
        worst_dom = np.inf
        f_vals = np.asarray(ref.profile(env_ts))
        for x in xs:
            for a in a_nodes:
                rho_vals = np.asarray(fam.fn(x, *coords(a, env_ts)))
                worst_dom = min(worst_dom, float(np.min(rho_vals - f_vals)))
        domination_margin = worst_dom

    if worst[0] > 1.0 + 1e-6:
        verdict = "FAIL"
    elif inconclusive:
        verdict = "INCONCLUSIVE"
    else:
        verdict = "PASS"

    return AssumptionReport(
        verdict=verdict,
        worst_margin=worst[0],
        worst_witness=worst[1] or {},
        margins=margins,
        codomain_ok=codomain_ok,
        inconclusive=inconclusive,
        k=k,
        probe_meta={
            "x_nodes": [float(v) for v in xs],
            "t_floor": t_floor,
            "t_nodes": t_nodes,
            "envelope": env.name,
            "sampling_based": True,
            "domination_margin": domination_margin,
        },
    )
