"""Obstruction diagnostics: sup-Wasserstein ratios and blow-up tests.

In one dimension the sup-Wasserstein distance between two measures is the
supremum over levels p of the quantile difference |F_x^{-1}(p) - F_y^{-1}(p)|,
attained by monotone rearrangement; the quantiles come from the mass tables
of density.MassTable.  Both diagnostics here are necessary-condition tests:
a family whose W_inf/d_X ratios blow up along a parameter schedule cannot
be boundedly Lipschitz representable, and a family whose observable
averages E_h(x) = int h d(mu_x) lose smoothness cannot be boundedly C^k
representable.  Neither verdict asserts the converse, and the blow-up
thresholds are finite-sample heuristics, labelled as such in reports.

Both run in stacked passes.  The W_inf ratios build the tables of every
distinct x in one pass, and every pair's search advances in lockstep, one
stacked inversion a round.  E_h integrates every x its probes read in one
pass.  A result is bit-identical to its one-x (one-pair) run.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .density import _split_on_failure, invert_tables, probe_integrals
from .errors import ConfigurationError, DegeneracyError, MoserTransportError

_TINY = np.finfo(float).tiny
_CHUNK = 64  # levels inverted per pass, largest upper bound first


def difference_nodes(x, j, h):
    """The nodes x + (j/2 - i) h, i = 0..j, at which central_difference reads f."""
    return [x + (j / 2 - i) * h for i in range(j + 1)]


def central_difference(f, x, j, h):
    """j-th difference quotient of f at difference_nodes(x, j, h); second order.

    The parameter-derivative probe of E_h and of the C^k scan.
    A scalar NaN (an inconclusive node) stops the sum and gives NaN.
    """
    total = 0.0
    for i, node in enumerate(difference_nodes(x, j, h)):
        v = f(node)
        if np.ndim(v) == 0 and math.isnan(v):
            return math.nan
        total = total + (-1) ** i * math.comb(j, i) * v
    return total / h ** j


def probe_step(x, x_range, j, fraction, scale):
    """h = fraction * min(scale, 2 edge / (j + 1)), edge the distance to the nearer
    end of x_range, so the order-j nodes stay inside; None when x is not interior."""
    edge = min(x - x_range[0], x_range[1] - x)
    h = fraction * min(scale, 2.0 * edge / (j + 1))
    return h if h > 0 else None


def richardson_stable(d_h, d_h2, atol):
    """Elementwise: |D_{h/2}| / |D_h| in [1/2, 2] wherever either magnitude
    exceeds atol (a NaN magnitude exceeds nothing)."""
    a, b = np.abs(d_h), np.abs(d_h2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = b / a
    return ~(np.maximum(a, b) > atol) | ((ratio >= 0.5) & (ratio <= 2.0))


def _levels(own, other):
    """The node levels p = M(s)/M(1) of one table, normal and below 1, seen from the other.

    Returns p, the quantile in the own table (the last node of each run of
    equal masses: the inverse is right-continuous), the lower and upper
    bounds on the quantile difference that the other table's bracketing
    nodes give, and the mass target in the other table.
    """
    sel = own.cum[(own.cum > _TINY * own.total) & (own.cum < own.total)]
    m = own.nodes[np.searchsorted(own.cum, sel, side="right") - 1]
    target = sel * (other.total / own.total)
    i = np.clip(np.searchsorted(other.cum, target, side="right") - 1,
                0, other.nodes.size - 2)
    lo, hi = other.nodes[i], other.nodes[i + 1]
    lower = np.maximum(np.maximum(lo - m, m - hi), 0.0)
    upper = np.maximum(m - lo, hi - m)
    return sel / own.total, m, lower, upper, target


def _pair_search(q1, q2, n1, n2):
    """W_inf of one pair as a generator: it yields (table indices, targets) to
    invert, is sent the inverses, and returns (W_inf, level p).  n1, n2 index
    q1, q2 in the table list of the caller's inversions."""
    if not (q1.total > 0.0 and q2.total > 0.0):
        raise DegeneracyError("density has no mass on [0, 1]")
    parts = [_levels(a, b) for a, b in ((q1, q2), (q2, q1))]
    p, m, lower, upper, target = (np.concatenate(col) for col in zip(*parts))
    other = np.repeat([n2, n1], [parts[0][0].size, parts[1][0].size])  # table to invert in
    gap = lower.copy()
    best = float(np.max(lower))
    order = np.argsort(-upper, kind="stable")
    for start in range(0, order.size, _CHUNK):
        rows = order[start:start + _CHUNK]
        rows = rows[upper[rows] > best]
        if rows.size == 0:
            break
        gap[rows] = np.abs(m[rows] - (yield other[rows], target[rows]))
        best = max(best, float(np.max(gap[rows])))
    i = int(np.argmax(gap))
    best, best_p = float(gap[i]), float(p[i])
    grid = np.unique(p)
    k = int(np.searchsorted(grid, best_p))
    lo_p = grid[k - 1] if k > 0 else 0.5 * best_p
    hi_p = grid[k + 1] if k + 1 < grid.size else 1.0
    search = _bounded_minimize(math.log(lo_p), math.log(hi_p), xatol=1e-10)
    try:
        log_p = next(search)
        while True:
            level = math.exp(log_p)
            g1, g2 = yield np.array([n1, n2]), np.array([level * q1.total, level * q2.total])
            log_p = search.send(-abs(float(g1) - float(g2)))
    except StopIteration as stop:
        log_p, fun, _ = stop.value
    if -fun > best:
        best, best_p = float(-fun), math.exp(log_p)
    return best, best_p


def w_infinity_1d(pairs):
    """sup_p |q1^{-1}(p) - q2^{-1}(p)| and the level p, for each pair (q1, q2) of MassTables.

    The levels are the union of both tables' node masses.  A level is
    exact in its own table; in the other table its quantile lies between
    two nodes, which bounds the difference from above and below.  Levels
    are inverted in the other table (Newton) in passes of 64, largest upper
    bound first, until no upper bound beats the best difference found; the
    best level is then refined by Brent's bounded search (Brent 1973) in
    log p between its neighbours.  The pairs advance in lockstep: each
    round inverts every live pair's next request, in both tables, in one
    density.invert_tables call.  Symmetric in the tables of a pair.
    """
    tables = list({id(q): q for pair in pairs for q in pair}.values())
    index = {id(q): n for n, q in enumerate(tables)}
    searches = [_pair_search(q1, q2, index[id(q1)], index[id(q2)]) for q1, q2 in pairs]
    results = [None] * len(searches)
    requests = {n: next(search) for n, search in enumerate(searches)}
    while requests:
        live = list(requests)
        g = invert_tables(tables, np.concatenate([requests[n][0] for n in live]),
                          np.concatenate([requests[n][1] for n in live]))
        cuts = np.cumsum([requests[n][0].size for n in live])[:-1]
        for n, inverses in zip(live, np.split(g, cuts)):
            try:
                requests[n] = searches[n].send(inverses)
            except StopIteration as stop:
                results[n] = stop.value
                del requests[n]
    return results


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _bounded_minimize(a, b, xatol):
    """Brent's bounded minimisation (Brent 1973, ch. 5): golden-section steps with
    parabolic interpolation where it is safe, in the operation order of scipy's
    ``minimize_scalar(method="bounded")``.  A generator: it yields each trial x,
    is sent f(x), and returns x, f(x) and the evaluations.
    """
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = yield xf
    num = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if not abs(xf - xm) > tol2 - 0.5 * (b - a) or num >= 500:  # scipy's maxfun
            return xf, fx, num
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0 else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = yield x
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu


@dataclass
class ObstructionReport:
    pairs: list          # [{"x":., "y":., "w_inf":., "ratio":.}]
    sup_ratio: float
    slope: float
    r2: float
    verdict: str         # BLOWUP-DETECTED | BOUNDED-CONSISTENT
    slope_threshold: float
    r2_threshold: float

    def to_dict(self):
        return {
            "pairs": self.pairs,
            "sup_ratio": self.sup_ratio,
            "log_log_slope": self.slope,
            "fit_r2": self.r2,
            "verdict": self.verdict,
            "thresholds": {"slope": self.slope_threshold, "r2": self.r2_threshold},
            "note": "necessary-condition evidence only; thresholds are heuristics",
        }


def lipschitz_obstruction(fam, pair_schedule, slope_threshold=-0.05, r2_threshold=0.9):
    """W_inf(mu_x, mu_y) / |x - y| ratios over a pair schedule, with a
    log-log slope fit against the pair distances.

    BLOWUP-DETECTED requires slope <= threshold with fit R^2 above its
    threshold; the verdict is evidence against bounded Lipschitz
    representability, never a proof of it.
    """
    pairs = [(float(x), float(y)) for x, y in pair_schedule]
    if len(pairs) < 3:
        raise ConfigurationError("pair schedule needs at least 3 pairs for the fit")
    for x, y in pairs:
        if abs(x - y) <= 0:
            raise ConfigurationError(f"degenerate pair ({x}, {y})")
    xs = list(dict.fromkeys(v for pair in pairs for v in pair))    # distinct by float value
    table = dict(zip(xs, fam.mass_tables(xs)))
    records = []
    for (x, y), (w, _) in zip(pairs, w_infinity_1d([(table[x], table[y]) for x, y in pairs])):
        d = abs(x - y)
        records.append({"x": x, "y": y, "w_inf": w, "ratio": w / d, "distance": d})

    dists = np.array([r["distance"] for r in records])
    ratios = np.array([max(r["ratio"], 1e-300) for r in records])
    lx = np.log10(dists)
    ly = np.log10(ratios)
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ np.array([slope, intercept])
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    blowup = slope <= slope_threshold and r2 >= r2_threshold
    return ObstructionReport(
        pairs=records,
        sup_ratio=float(np.max(ratios)),
        slope=float(slope),
        r2=float(r2),
        verdict="BLOWUP-DETECTED" if blowup else "BOUNDED-CONSISTENT",
        slope_threshold=slope_threshold,
        r2_threshold=r2_threshold,
    )


@dataclass
class ExpectationReport:
    x_nodes: list
    values: list
    derivatives: dict     # order -> list (None where not computable)
    stable: dict          # order -> bool
    inconclusive: list
    verdict: str          # SMOOTH-CONSISTENT | NONSMOOTH-SUSPECT

    def to_dict(self):
        return {
            "x": self.x_nodes,
            "E_h": self.values,
            "derivatives": {str(k): v for k, v in self.derivatives.items()},
            "stable": {str(k): bool(v) for k, v in self.stable.items()},
            "inconclusive_count": len(self.inconclusive),
            "verdict": self.verdict,
        }


# Pair-drift tolerance of E_h(x): a drift above it leaves x inconclusive
_EXPECTATION_TOL = 1e-10


def expectation_curve(fam, h, x_grid, k=2):
    """E_h(x) = int h d(mu_x), with smoothness probes.

    ``h`` is a callable or a parsed expression over m, evaluated on arrays.
    Finite differences of orders 1..k run at steps (h, h/2); instability of
    any Richardson pair flips the verdict to NONSMOOTH-SUSPECT.  Every x the
    probes read, the grid and the difference nodes at both steps, takes
    one row of a single stacked density.probe_integrals pass of
    rho(x, .) h.  Where that pass raises, its rows run again in halves
    until each raising x runs alone.  An x whose pair drift exceeds
    _EXPECTATION_TOL + 1e-12 |E_h(x)|, or whose integrand raised, is
    inconclusive and has no value; it is listed when a probe first reads it.
    """
    if hasattr(h, "evaluate"):
        h_fn = lambda m: h.evaluate(m=m)
    else:
        h_fn = h
    lo, hi = fam.x_range
    xs = np.asarray(x_grid, dtype=float)
    steps = {(x, j): probe_step(x, (lo, hi), j, 0.2, hi - lo) for j in range(1, k + 1) for x in xs}
    reads = list(xs)
    for (x, j), step in steps.items():
        if step is not None:
            reads += difference_nodes(x, j, step) + difference_nodes(x, j, step / 2)
    nodes = np.array(list(dict.fromkeys(reads)))    # distinct by float value, in read order

    def integrate(rows):
        vals, drifts = probe_integrals(lambda x, m: fam.fn(x, m) * h_fn(m), [1.0],
                                       _EXPECTATION_TOL, xs=nodes[rows])
        return zip(vals[:, 0], drifts[:, 0])

    outcome = {}    # x -> (E_h(x), None) or (nan, why it is inconclusive)
    for x, res in zip(nodes, _split_on_failure(integrate, nodes.size)):
        if isinstance(res, MoserTransportError):
            outcome[x] = (np.nan, str(res))
        elif not res[1] <= _EXPECTATION_TOL + 1e-12 * abs(res[0]):
            outcome[x] = (np.nan, f"pair drift {res[1]:.3e}")
        else:
            outcome[x] = (res[0], None)
    inconclusive = []

    @functools.cache
    def E(x):
        val, reason = outcome[x]
        if reason is not None:
            inconclusive.append({"x": float(x), "reason": reason})
        return val

    values = [E(x) for x in xs]
    derivs = {}
    stable = {}
    for j in range(1, k + 1):
        col = []
        ok = True
        for x in xs:
            step = steps[x, j]
            d_h = d_h2 = math.nan
            if step is not None:
                d_h = central_difference(E, x, j, step)
                d_h2 = central_difference(E, x, j, step / 2)
            col.append(None if np.isnan(d_h) or np.isnan(d_h2) else float(d_h2))
            ok = ok and bool(richardson_stable(d_h, d_h2, 1e-7))
        derivs[j] = col
        stable[j] = ok
    verdict = "SMOOTH-CONSISTENT" if all(stable.values()) else "NONSMOOTH-SUSPECT"
    return ExpectationReport(
        x_nodes=[float(v) for v in xs],
        values=[float(v) if not np.isnan(v) else None for v in values],
        derivatives=derivs,
        stable=stable,
        inconclusive=inconclusive,
        verdict=verdict,
    )
