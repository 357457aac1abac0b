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
the decay checker.  Each integrates one row, or with ``xs`` one row per x
of fn(x, .) in the same calls (W_inf, E_h, the collar, the checker);
invert_tables runs the inversions of several tables as one Newton loop.
A row's results equal its one-row pass bit for bit.

The decay machinery consists of envelope pairs (E, B) with a closure
constant A, a small library of candidate envelopes, and a sampling-based
checker for the three decay inequalities, which reads rho and each
derivative table entry in one call over its (x, a, t) probe grid, as
make_reference reads rho.  A PASS is evidence at probe resolution, not a
proof, and the report says so.
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


def gauss_segments(fn, a, b, x=None, end=False):
    """24-node Gauss-Legendre integrals of fn over [a[i], b[i]] for 1D arrays a, b.

    fn is evaluated on (rows, 24) node arrays, one block of rows at a time:
    as fn(m), or as fn(xm, m) when ``x`` gives the segments' parameter, one
    float or an array of one per segment; xm is then one float where all
    segments share it, else a column of the rows' x.  With ``end`` fn(b) is
    returned too.  A batch of one block passes its nodes and then its b as
    one flat array (xm then one x per point), so the same call gives fn(b),
    which saves a call where batches are small; a larger batch evaluates
    fn(b) in a call of its own, which is faster there.
    """
    xg, wg = _gauss_rule()
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    mid, half = 0.5 * (b + a), 0.5 * (b - a)
    if np.ndim(x) and x.size and np.all(x == x[0]):
        x = float(x[0])
    per_node = np.ndim(x) > 0
    if end and mid.size > _GAUSS_ROWS:
        return gauss_segments(fn, a, b, x), np.asarray(fn(b) if x is None else fn(x, b),
                                                       dtype=float)
    out, at_b = np.empty_like(mid), np.empty_like(mid)
    for lo in range(0, mid.size, _GAUSS_ROWS):
        hi = min(lo + _GAUSS_ROWS, mid.size)
        n = 24 * (hi - lo)    # Gauss nodes in the block
        m = np.empty(n + hi - lo if end else n)
        nodes = m[:n].reshape(-1, 24)
        np.multiply(half[lo:hi, None], xg, out=nodes)
        nodes += mid[lo:hi, None]
        if end:
            m[n:] = b[lo:hi]
        pts = m if end else nodes
        if per_node:    # a column of x, or one x per point where b follows the nodes
            x_pts = np.concatenate([np.repeat(x[lo:hi], 24), x[lo:hi]]) if end else x[lo:hi, None]
        vals = np.asarray(fn(pts) if x is None else fn(x_pts if per_node else x, pts), dtype=float)
        if vals.shape != pts.shape:
            vals = np.broadcast_to(vals, pts.shape)
        vals = vals.reshape(-1)
        if end:
            at_b[lo:hi] = vals[n:]
        out[lo:hi] = half[lo:hi] * np.sum(wg * vals[:n].reshape(-1, 24), axis=1)
    return (out, at_b) if end else out


_EPS = np.finfo(float).eps
_MAX_SPLITS = 40   # halvings of one segment pair before the drift check
_MAX_PAIRS = 2048  # live segment pairs per halving, about 4x the initial layout
_MAX_NEWTON = 100  # bisection alone reaches 4 eps from a ratio-2 bracket in ~51
_STACK_ROWS = 32   # rows per stacked pass, which bounds the per-pair arrays


def pair_refine(fn, nodes, bound, xs=None):
    """Gauss integrals of fn over the segments of ``nodes`` (an even number), per row.

    There is one row, of fn(m), or with ``xs`` one row of fn(x, m) for each
    x; the segments of up to 32 rows go through the same gauss_segments
    calls.
    Each pair of adjacent segments is integrated with the 24-node Gauss
    rule and compared with one rule over the pair's union.  A pair whose
    drift exceeds its width's share of ``bound`` (plus 4 eps of its value)
    is halved, to a depth of 40, which resolves steps and kinks.  A row
    stops halving early when it would leave more than 2048 of its pairs to
    integrate, as an oscillation that no depth resolves does.  Returns, per
    row, the refined nodes, the segment integrals and each pair's drift,
    which the caller judges.
    """
    nodes = np.asarray(nodes, dtype=float)
    n_rows = 1 if xs is None else len(xs)
    if n_rows > _STACK_ROWS:
        return [row for lo in range(0, n_rows, _STACK_ROWS)
                for row in pair_refine(fn, nodes, bound, xs[lo:lo + _STACK_ROWS])]
    xs = None if xs is None else np.asarray(xs, dtype=float)
    lo, mid, hi = (np.tile(v, n_rows) for v in (nodes[:-2:2], nodes[1::2], nodes[2::2]))
    row = np.repeat(np.arange(n_rows), lo.size // n_rows)
    pieces = []
    with np.errstate(under="ignore"):
        for depth in range(_MAX_SPLITS + 1):
            x = None if xs is None else xs[row]
            # a row's lo stays sorted, so its queries below are sorted, which a Pchip counts
            halves = gauss_segments(fn, np.column_stack([lo, mid]).ravel(),
                                    np.column_stack([mid, hi]).ravel(),
                                    x=None if x is None else np.repeat(x, 2))
            left, right = halves[0::2], halves[1::2]
            drift = np.abs(gauss_segments(fn, lo, hi, x=x) - (left + right))
            split = drift > bound * (hi - lo) + 4 * _EPS * np.abs(left + right)
            capped = 2 * np.bincount(row[split], minlength=n_rows) > _MAX_PAIRS
            split &= (depth < _MAX_SPLITS) & ~capped[row]
            keep = ~split
            pieces.append((row[keep], lo[keep], mid[keep], left[keep], right[keep], drift[keep]))
            if not np.any(split):
                break
            row = np.repeat(row[split], 2)
            lo, hi = (np.column_stack([lo[split], mid[split]]).ravel(),
                      np.column_stack([mid[split], hi[split]]).ravel())
            mid = 0.5 * (lo + hi)
    row, lo, mid, left, right, drift = (np.concatenate(col) for col in zip(*pieces))
    order = np.lexsort((lo, row))
    row, lo, mid, left, right, drift = (col[order] for col in (row, lo, mid, left, right, drift))
    cut = np.searchsorted(row, np.arange(n_rows + 1))
    return [(np.concatenate([np.column_stack([lo[a:b], mid[a:b]]).ravel(), nodes[-1:]]),
             np.column_stack([left[a:b], right[a:b]]).ravel(), drift[a:b])
            for a, b in zip(cut[:-1], cut[1:])]


def probe_integrals(fn, marks, bound, xs=None):
    """int_0^t fn (which may be signed) for each t of ``marks`` in [0, 1].

    One pair_refine pass over 0, a geometric sequence from 1e-16 to 1/64
    (ratio about 2), 64 uniform segments up to 1, and the marks, so each
    integral is one cumulative sum.  [0, 1e-16] lies in the first pair, and
    no node is subnormal, where power terms are slow.  Returns the
    integrals and, per mark, the drift summed over the pairs below it; with
    ``xs``, those of fn(x, .) for each x, in one stacked pass, as arrays of
    one row per x.
    """
    marks = np.asarray(marks, dtype=float)
    if np.any((marks < 0.0) | (marks > 1.0)):
        raise ConfigurationError("probe integrals run over [0, t] with t in [0, 1]")
    nodes = np.unique(np.concatenate([[0.0], np.geomspace(1e-16, 1.0 / 64.0, 48),
                                      np.linspace(1.0 / 64.0, 1.0, 65), marks.ravel()]))
    if nodes.size % 2 == 0:    # odd segment count: halve the widest segment
        i = int(np.argmax(np.diff(nodes)))
        nodes = np.insert(nodes, i + 1, 0.5 * (nodes[i] + nodes[i + 1]))
    vals, drifts = [], []
    for row_nodes, seg, drift in pair_refine(fn, nodes, bound, xs):
        i = np.searchsorted(row_nodes, marks)
        vals.append(np.concatenate([[0.0], np.cumsum(seg)])[i])
        drifts.append(np.concatenate([[0.0], np.cumsum(drift)])[(i + 1) // 2])
    return (vals[0], drifts[0]) if xs is None else (np.array(vals), np.array(drifts))


def _split_on_failure(run, n):
    """run(rows) over the row indices 0..n-1 in one pass, which returns one result
    per row; where a pass raises, its rows run again in halves until each
    raising row runs alone.  Returns per row its result, or the error of its
    own pass."""
    def go(rows):
        try:
            return list(run(rows))
        except MoserTransportError as exc:
            if rows.size == 1:
                return [exc]
            return go(rows[:rows.size // 2]) + go(rows[rows.size // 2:])
    return go(np.arange(n)) if n else []


def _resolved_integrals(fn, marks, bound):
    """probe_integrals that raises ResolutionError where a drift exceeds bound."""
    vals, drift = probe_integrals(fn, marks, bound)
    if not np.all(drift <= bound):
        raise ResolutionError(f"integral unresolved (pair drift {np.max(drift):.3e})")
    return vals


def _tabulate(fn, xs, tol):
    """The (nodes, cum) of each row's mass table, from one pair_refine pass.

    Rows are checked in order; the first that fails raises what its own
    pass would."""
    bound = max(100 * tol, 1e-9)
    layout = np.concatenate([np.geomspace(1e-300, 1.0 / 64.0, 991),
                             np.linspace(1.0 / 64.0, 1.0, 65)[1:]])
    rows = pair_refine(fn, layout, bound, xs)
    with np.errstate(under="ignore"):
        first = gauss_segments(fn, np.zeros(len(rows)), np.full(len(rows), 1e-300),
                               x=None if xs is None else np.asarray(xs, dtype=float))
    out = []
    for f0, (nodes, seg, drift) in zip(first, rows):
        seg = np.concatenate([[f0], seg])
        if not np.all(np.isfinite(seg)) or np.any(seg < 0.0):
            raise DegeneracyError("density is not finite and nonnegative on [0, 1]")
        total_drift = float(np.sum(drift))
        if total_drift > bound:
            raise ResolutionError(f"mass table unresolved (pair drift {total_drift:.3e})")
        out.append((np.concatenate([[0.0], nodes]), np.cumsum(np.concatenate([[0.0], seg]))))
    return out


class MassTable:
    """Cumulative mass M(s) = int_0^s rho on [0, 1], tabulated and inverted.

    rho is fn(m), or fn(x, m) for a table that ``stack`` built at x.  The
    nodes are 0, a geometric sequence from 1e-300 to 1/64 (ratio about 2)
    and 64 uniform segments up to 1, so every scale down to the underflow
    range has its own segments and so does the core.  Above 1e-300
    pair_refine integrates them; a total drift above max(100 tol, 1e-9)
    raises ResolutionError.
    """

    def __init__(self, fn, tol=1e-10, x=None, layout=None):
        self.fn, self.x, self.tol = fn, x, tol
        if layout is None:
            (layout,) = _tabulate(fn, None if x is None else [x], tol)
        self.nodes, self.cum = layout

    @classmethod
    def stack(cls, fn, xs, tol=1e-10):
        """The tables of fn(x, .) for each x of xs, from one stacked pair_refine pass."""
        xs = [float(x) for x in xs]
        return [cls(fn, tol, x, layout) for x, layout in zip(xs, _tabulate(fn, xs, tol))]

    @property
    def total(self):
        return float(self.cum[-1])

    def density(self, m):
        return self.fn(m) if self.x is None else self.fn(self.x, m)

    def cdf(self, m):
        """M(m): the table value at the node below m plus one Gauss segment."""
        m_arr = np.clip(np.atleast_1d(np.asarray(m, dtype=float)), 0.0, 1.0)
        i = np.clip(np.searchsorted(self.nodes, m_arr, side="right") - 1,
                    0, self.nodes.size - 2)
        with np.errstate(under="ignore"):
            out = self.cum[i] + gauss_segments(self.fn, self.nodes[i], m_arr, x=self.x)
        return float(out[0]) if np.ndim(m) == 0 else out

    def invert(self, targets):
        """inf{s : M(s) > T} for each target T: invert_tables on this table alone."""
        T = np.atleast_1d(np.asarray(targets, dtype=float))
        g = invert_tables([self], np.zeros(T.size, dtype=int), T)
        return float(g[0]) if np.ndim(targets) == 0 else g


def invert_tables(tables, which, targets):
    """inf{s : M(s) > T} for each target T in its table, tables[which[i]].

    One bracketed Newton iteration on M' = rho runs over every target, and
    each of its steps calls each distinct fn of the tables once, on the
    Gauss nodes of every residual and the iterates together.  Each target
    is bracketed by the two table nodes around it and started from the
    local power law through them.  A Newton step that lands on or outside
    the bracket, or is longer than half the point's previous move (Newton
    crawling on a rough residual), is replaced by bisection, so the bracket
    keeps shrinking.  A point stops when its step is below 4 eps relative,
    its mass residual below 4 eps relative where rho > 0 (inside a flat run
    a zero residual does not stop it), or its bracket below 4 eps relative
    or too short to bisect (subnormal, where the relative tests underflow);
    it keeps the iterate whose residual was evaluated.  Every step is
    elementwise, so a target's result does not depend on the others.
    Targets at or below 0 give 0 and targets at or above their table's
    total give 1.  A table with a target above its total by more than its
    tol raises InfeasibilityError, and one with a residual above its tol
    ResolutionError, the first such table in order.
    """
    which = np.asarray(which, dtype=int)
    T_all = np.asarray(targets, dtype=float)
    g = np.zeros_like(T_all)
    for table, mine in zip(tables, _members(which, len(tables))):
        total = table.total
        excess = float(np.max(T_all[mine], initial=0.0)) - total
        if excess > table.tol:
            raise InfeasibilityError(
                f"mass deficiency: total mass {total:.6g} below target {total + excess:.6g}"
            )
    total = np.array([t.total for t in tables])[which]
    g[(T_all > 0.0) & (T_all >= total)] = 1.0
    act = np.flatnonzero((T_all > 0.0) & (T_all < total))
    T, tab = T_all[act], which[act]
    s0, s1, m0, m1 = (np.empty(act.size) for _ in range(4))
    members = _members(tab, len(tables))
    for table, mine in zip(tables, members):
        i = np.searchsorted(table.cum, T[mine], side="right") - 1    # cum[i] <= T < cum[i + 1]
        s0[mine], s1[mine] = table.nodes[i], table.nodes[i + 1]
        m0[mine], m1[mine] = table.cum[i], table.cum[i + 1]
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        power = s0 * (T / m0) ** (np.log(s1 / s0) / np.log(m1 / m0))
    linear = s0 + (T - m0) / (m1 - m0) * (s1 - s0)
    gi = np.where((m0 > 0.0) & (power > s0) & (power < s1), power, linear)
    # the integrands: one per distinct fn, with its x per target, or one float x
    # where its tables share one, or None for tables of fn(m)
    kinds = {}
    for n, t in enumerate(tables):
        kinds.setdefault(id(t.fn), []).append(n)
    x_of = np.array([np.nan if t.x is None else t.x for t in tables])[tab]
    integrands = []
    for ns in kinds.values():
        xs = {tables[n].x for n in ns}
        x = xs.pop() if len(xs) == 1 else x_of
        integrands.append((None if len(kinds) == 1 else np.isin(tab, ns), tables[ns[0]].fn, x))
    lo, hi = s0.copy(), s1.copy()
    moved = np.full(act.size, np.inf)    # length of each point's last move
    rows = np.arange(act.size)
    resid_done = np.zeros(act.size)    # each point's residual when it stopped
    for _ in range(_MAX_NEWTON):
        if rows.size == 0:
            break
        seg, slope = np.empty(rows.size), np.empty(rows.size)
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            for member, fn, x in integrands:
                sel = slice(None) if member is None else member[rows]
                r = rows[sel]
                seg[sel], slope[sel] = gauss_segments(fn, s0[r], gi[sel],
                                                      x=x if np.ndim(x) == 0 else x[r], end=True)
            resid = m0[rows] + seg - T[rows]
            step = resid / slope
        above = resid > 0.0
        hi[rows[above]] = gi[above]
        lo[rows[~above]] = gi[~above]
        lo_r, hi_r = lo[rows], hi[rows]
        mid = 0.5 * (lo_r + hi_r)
        done = ((np.abs(step) <= 4 * _EPS * gi)
                | ((np.abs(resid) <= 4 * _EPS * T[rows]) & (slope > 0.0))
                | (hi_r - lo_r <= 4 * _EPS * hi_r) | ~(mid > lo_r) | ~(mid < hi_r))
        g[act[rows[done]]] = gi[done]
        resid_done[rows[done]] = np.abs(resid[done])
        keep = ~done
        rows, gi, step, lo_r, hi_r = rows[keep], gi[keep], step[keep], lo_r[keep], hi_r[keep]
        new = gi - step
        out = ~((new > lo_r) & (new < hi_r)) | (np.abs(step) > 0.5 * moved[rows])
        new[out] = 0.5 * (lo_r[out] + hi_r[out])
        moved[rows] = np.abs(new - gi)
        gi = new
    if rows.size:
        n = int(np.min(tab[rows]))
        raise ResolutionError(f"Newton iteration did not converge at "
                              f"{np.count_nonzero(tab[rows] == n)} points")
    for table, mine in zip(tables, members):
        worst = float(np.fmax.reduce(resid_done[mine], initial=0.0))
        if worst > table.tol:
            raise ResolutionError(f"mass residual {worst:.3e} above tol {table.tol:g}")
    return g


def _members(tab, n_tables):
    """Per table index, the selector of the entries of tab that name it."""
    return [slice(None)] if n_tables == 1 else [tab == n for n in range(n_tables)]


@dataclass
class DensityFamily:
    """Evaluator bundle for a parametrised density family.

    ``fn(x, *coords)`` accepts scalar or ndarray coordinates, and an x
    array that broadcasts with them (a column, or one x per point, as the
    stacked integrals pass it), each entry equal bit for bit to the call at
    its own scalar x.  For 1D domains coords is ``(m,)``; for 2D domains
    ``(a, t)`` with ``t`` the collar coordinate.  ``exact_derivs`` maps
    ``(bx, jt)`` to the evaluator of D_x^bx D_t^jt rho, which takes x the
    same way.  All evaluators are pure, so concurrent evaluation is safe.
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

    def mass_tables(self, xs):
        """MassTables of rho(x, .) along the 1D domain for each x of xs, in one pass."""
        if self.domain.dim != 1:
            raise ConfigurationError("mass tables are defined for 1D families only")
        for x in xs:
            self._check_x(x)
        return MassTable.stack(self.fn, xs)

    def mass_table(self, x):
        return self.mass_tables([x])[0]

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
            if np.ndim(x):    # N^(i) once for each distinct x, broadcast back
                distinct, inverse = np.unique(x, return_inverse=True)

                def norm(i):
                    return np.array([integral(i, float(v)) for v in distinct])[
                        inverse].reshape(np.shape(x))
            else:
                x = float(x)
                norm = lambda i: integral(i, x)
            out = raw[b, j](x, *coords)
            for i in range(1, b + 1):
                out = out - math.comb(b, i) * norm(i) * table[b - i, j](x, *coords)
            return out / norm(0)
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

    def sigma(m):    # the bump, with its power taken only on [0.5, 1]
        out, on = np.zeros_like(m), (m >= 0.5) & (m <= 1.0)
        out[on] = np.maximum(4.0 * (m[on] - 0.5) * (1.0 - m[on]), 0.0) ** q
        return out

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


def make_reference(fam, margin=0.5, t_floor=1e-8):
    """Reference f = (1-margin) * min_x rho, collar-constant and monotone in t.

    The pointwise minimum over 41 sampled x (and over 16 boundary coordinates
    for 2D domains) is tabulated on 500 log-refined t-nodes, pushed down to a
    nondecreasing-in-t envelope (suffix minimum from the interior), and
    interpolated monotonically.  Below the first node the profile continues
    by its fitted power law.  Domination rho > f is checked on 83 x by 97 t
    (by 8 boundary coordinates in 2D), naming the first x that fails.
    """
    if not 0 < margin < 1:
        raise ConfigurationError(f"margin must lie in (0, 1), got {margin}")
    dom = fam.domain
    ts = np.geomspace(t_floor, 1.0, 500)
    ts[-1] = 1.0
    lo, hi = fam.x_range
    raw = _on_grid(fam, np.linspace(lo, hi, 41), 16, ts)[1].min(axis=0).min(axis=0)  # x, then a
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
    below = np.any(_on_grid(fam, check_x, 8, check_t)[1].min(axis=1) - ref.profile(check_t) <= 0,
                   axis=1)
    if np.any(below):
        raise DegeneracyError(f"reference domination rho > f violated at "
                              f"x={check_x[np.argmax(below)]:g} on the verification grid")
    return ref


def _coords(dom, a, t):
    """The coordinates fn takes at boundary coordinate a and collar coordinate t."""
    return (t,) if dom.dim == 1 else (a, t)


def _on_grid(fam, xs, n_a, ts):
    """The (x, a, t) mesh of xs, n_a equispaced boundary coordinates (a = 0
    alone in 1D) and ts, and rho on it from one fn call."""
    dom = fam.domain
    a_nodes = [0.0] if dom.dim == 1 else np.linspace(0.0, dom.circumference, n_a + 1)[:-1]
    X, A, T = np.meshgrid(xs, a_nodes, ts, indexing="ij")
    return (X, A, T), np.broadcast_to(np.asarray(fam.fn(X, *_coords(dom, A, T)), float), X.shape)


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


def check_decay_assumptions(fam, ref, env, k=None, x_nodes=7, t_nodes=12, t_floor=1e-6):
    """Evaluate the three decay inequalities on a probe grid.

    The probe points are the (x, a, t) grid of the probe x, four boundary
    coordinates a in 2D (a = 0 alone in 1D) and t_nodes geometric t.
    Ratios LHS/RHS are recorded per derivative order; PASS means every
    sampled ratio is <= 1 (within 1e-6), FAIL carries the witnessing probe
    point, the first largest in (x, a, t) order.  rho is one fn call on the
    grid, and every derivative comes from the family's exact table, one
    call per (beta, j) on the points where rho > 0.  The integrated
    inequality reads int_0^t |D_x^beta rho| at every probe t from one
    stacked probe_integrals pass per (a, beta) over every probe x; a point
    whose summed pair drift exceeds 1e-9 + 1e-8 of the value, or whose
    integrand raised at its x (a raising x runs alone, so the reason is its
    own), is reported INCONCLUSIVE, never silently passed.  A PASS is
    evidence at probe resolution only.  A, E and B must be positive.
    """
    k = k or fam.k
    quad_tol = 1e-9
    dom = fam.domain
    xs = _x_probe_nodes(fam.x_range, n=x_nodes)
    ts = np.geomspace(t_floor, 1.0, t_nodes)
    Es, Bs = env.E_fn(ts), env.B_fn(ts)  # the envelopes depend on t alone
    if not (env.A > 0 and np.all(Es > 0) and np.all(Bs > 0)):
        raise ConfigurationError(f"envelope {env.name!r} needs A, E and B positive at the probe t")
    # E^n and B^n, a row per n = 0..k, by the float pow of the scalar ratios (not numpy's)
    Ep, Bp = (np.array([[v ** n for v in row.tolist()] for n in range(k + 1)]) for row in (Es, Bs))
    (X, A, T), rho = _on_grid(fam, xs, 4, ts)
    a_nodes, live = A[0, :, 0], rho > 0
    ratios = {}    # key -> its ratio at each probe point, nan where none is recorded
    for b in range(k + 1):
        for j in range(k + 1 - b):
            ratios["derivative", b, j] = r = np.full(X.shape, np.nan)
            dv = fam.derivative(X[live], _coords(dom, A[live], T[live]), b, j)
            r[live] = (np.abs(np.broadcast_to(np.asarray(dv, float), rho[live].shape))
                       / rho[live] / np.broadcast_to(Ep[b] * Bp[j], X.shape)[live])

    vals = np.full((k + 1,) + X.shape, np.nan)    # int_0^t |D_x^beta rho|, per beta
    drifts = np.full(vals.shape, np.inf)
    failures = {}    # (beta, x index, a index) -> why its pass raised
    for ia, a in enumerate(a_nodes):
        for b in range(k + 1):
            def integrate(rows, a=a, b=b):
                integrand = lambda x, s: np.abs(fam.derivative(x, _coords(dom, a, s), b, 0))
                return zip(*probe_integrals(integrand, ts, quad_tol, xs=xs[rows]))
            for ix, res in enumerate(_split_on_failure(integrate, xs.size)):
                if isinstance(res, MoserTransportError):
                    failures[b, ix, ia] = str(res)
                else:
                    vals[b, ix, ia], drifts[b, ix, ia] = res
    unresolved = live & ~(drifts <= quad_tol + 1e-8 * vals)
    for b in range(k + 1):
        ratios["integrated", b, 0] = r = np.full(X.shape, np.nan)
        ok = live & ~unresolved[b]
        r[ok] = vals[b][ok] / rho[ok] / np.broadcast_to(Ep[b] / Bs, X.shape)[ok]
    ratios["closure", k, 0] = Ep[k] / (env.A * Bs)    # one per t, recorded after the grid

    inconclusive = []    # in (x, a, t) order, a vanishing density before each beta
    for ix, ia, i, s in np.argwhere(np.stack([~live, *unresolved], axis=-1)):
        entry = {"x": float(xs[ix]), "a": float(a_nodes[ia]), "t": float(ts[i])}
        if s == 0:
            entry["reason"] = "vanishing density"
        else:
            entry["beta"] = b = int(s) - 1
            entry["reason"] = (failures.get((b, ix, ia))
                               or f"pair drift {drifts[b, ix, ia, i]:.3e}")
        inconclusive.append(entry)

    margins = {}
    firsts = [(0.0, 0, 0, {})]    # per key: its margin, then its witness's place in record order
    for n, ((eq, b, j), r) in enumerate(ratios.items()):
        if np.all(np.isnan(r)):
            continue
        i = int(np.nanargmax(r))
        if eq == "closure":
            witness, place = {"a": float(a_nodes[0]), "t": float(ts[i])}, X.size + i
        else:
            witness, place = {"x": float(X.flat[i]), "a": float(A.flat[i]),
                              "t": float(T.flat[i])}, i
        witness.update(beta=b, j=j)
        margins[eq, b, j] = {"margin": float(r.flat[i]), "witness": witness}
        firsts.append((float(r.flat[i]), -place, -n, witness))
    worst = max(firsts, key=lambda first: first[:3])

    env_ts = np.geomspace(t_floor, 1.0, 64)
    codomain_ok = bool(np.min(env.E_fn(env_ts)) >= 1.0 - 1e-12
                       and np.min(env.B_fn(env_ts)) >= 1.0 - 1e-12)

    domination_margin = None
    if ref is not None:
        domination_margin = float(np.min(_on_grid(fam, xs, 4, env_ts)[1]
                                         - np.asarray(ref.profile(env_ts))))

    verdict = "FAIL" if worst[0] > 1.0 + 1e-6 else "INCONCLUSIVE" if inconclusive else "PASS"
    return AssumptionReport(
        verdict=verdict,
        worst_margin=worst[0],
        worst_witness=worst[3],
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
