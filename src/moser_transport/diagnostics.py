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
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .density import probe_integrals
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


def w_infinity_1d(q1, q2):
    """sup_p |q1^{-1}(p) - q2^{-1}(p)| for two MassTables, and the level p.

    The levels are the union of both tables' node masses.  A level is
    exact in its own table; in the other table its quantile lies between
    two nodes, which bounds the difference from above and below.  Levels
    are inverted in the other table (Newton) in passes of 64, largest upper
    bound first, until no upper bound beats the best difference found; the
    best level is then refined by Brent's bounded search (Brent 1973) in
    log p between its neighbours.  Symmetric in its arguments.
    """
    if not (q1.total > 0.0 and q2.total > 0.0):
        raise DegeneracyError("density has no mass on [0, 1]")
    parts = [_levels(a, b) for a, b in ((q1, q2), (q2, q1))]
    p, m, lower, upper, target = (np.concatenate(col) for col in zip(*parts))
    other = np.repeat([1, 0], [parts[0][0].size, parts[1][0].size])  # table to invert in
    gap = lower.copy()
    best = float(np.max(lower))
    order = np.argsort(-upper, kind="stable")
    for start in range(0, order.size, _CHUNK):
        rows = order[start:start + _CHUNK]
        rows = rows[upper[rows] > best]
        if rows.size == 0:
            break
        for k, table in enumerate((q1, q2)):
            sel = rows[other[rows] == k]
            gap[sel] = np.abs(m[sel] - table.invert(target[sel]))
        best = max(best, float(np.max(gap[rows])))
    i = int(np.argmax(gap))
    best, best_p = float(gap[i]), float(p[i])
    grid = np.unique(p)
    k = int(np.searchsorted(grid, best_p))
    lo_p = grid[k - 1] if k > 0 else 0.5 * best_p
    hi_p = grid[k + 1] if k + 1 < grid.size else 1.0

    def neg_gap(log_p):
        level = math.exp(log_p)
        return -abs(q1.invert(level * q1.total) - q2.invert(level * q2.total))

    log_p, fun, _ = _bounded_minimize(neg_gap, math.log(lo_p), math.log(hi_p), xatol=1e-10)
    if -fun > best:
        best, best_p = float(-fun), math.exp(log_p)
    return best, best_p


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _bounded_minimize(f, a, b, xatol):
    """Brent's bounded minimisation (Brent 1973, ch. 5): golden-section steps with
    parabolic interpolation where it is safe, in the operation order of scipy's
    ``minimize_scalar(method="bounded")``.  Returns x, f(x) and the evaluations.
    """
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = f(xf)
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
        fu = f(x)
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
    pairs = list(pair_schedule)
    if len(pairs) < 3:
        raise ConfigurationError("pair schedule needs at least 3 pairs for the fit")
    records = []
    table = functools.cache(fam.mass_table)

    for x, y in pairs:
        d = abs(float(x) - float(y))
        if d <= 0:
            raise ConfigurationError(f"degenerate pair ({x}, {y})")
        w, _ = w_infinity_1d(table(float(x)), table(float(y)))
        records.append({"x": float(x), "y": float(y), "w_inf": w, "ratio": w / d,
                        "distance": d})

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


def expectation_curve(fam, h, x_grid, k=2, quad_tol=1e-10):
    """E_h(x) = int h d(mu_x), with smoothness probes.

    ``h`` is a callable or a parsed expression over m, evaluated on arrays.
    Each distinct x takes one density.probe_integrals pass of rho(x, .) h;
    an x whose pair drift exceeds quad_tol + 1e-12 |E_h(x)|, or whose
    integrand raised, is inconclusive and has no value.  Finite differences
    of orders 1..k run at steps (h, h/2); instability of any Richardson
    pair flips the verdict to NONSMOOTH-SUSPECT.
    """
    if hasattr(h, "evaluate"):
        h_fn = lambda m: h.evaluate(m=m)
    else:
        h_fn = h
    lo, hi = fam.x_range
    inconclusive = []

    @functools.cache
    def E(x):
        try:
            (val,), (drift,) = probe_integrals(lambda m: fam.fn(x, m) * h_fn(m),
                                               [1.0], quad_tol)
        except MoserTransportError as exc:
            inconclusive.append({"x": float(x), "reason": str(exc)})
            return np.nan
        if not drift <= quad_tol + 1e-12 * abs(val):
            inconclusive.append({"x": float(x), "reason": f"pair drift {drift:.3e}"})
            return np.nan
        return val

    xs = np.asarray(x_grid, dtype=float)
    values = [E(x) for x in xs]
    derivs = {}
    stable = {}
    for j in range(1, k + 1):
        col = []
        ok = True
        for x in xs:
            step = probe_step(x, (lo, hi), j, 0.2, hi - lo)
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
