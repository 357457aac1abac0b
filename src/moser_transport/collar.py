"""Monotone rearrangement at the interval's boundary point m = 0.

For a fixed parameter value, g(t) is defined by matching the family mass
on [0, g] against the reference mass on [0, t]:

    M(g) = int_0^g rho(x, s) ds = int_0^t f(s) ds = I_f(t)

(the collar coordinate t is m itself, so no chart or Jacobian enters).  g
is the monotone rearrangement M^{-1}(I_f(t)), computed for a plan of
values in stacked passes of 8 (which bound their memory) that build the
density.MassTables or invert all targets in one bracketed Newton iteration
with the exact derivative M' = rho; I_f is evaluated once for a shared t.
Each value's g equals its one-value pass bit for bit.  Errors name the
stage ("collar ray mass" or "collar solve") and x: where a stacked pass
raises, its values run again until the raising x runs alone.

Domination rho > f gives g(t) <= t.  The cutoff interpolation
gbar = eta * g + (1 - eta) * t turns g into a map of the whole interval
that is the identity past 2/3 of the collar, with

    d/dt gbar = eta'(t) (g - t) + eta(t) g'(t) + 1 - eta(t) > 0,
    g'(t) = f(t) / rho(x, g(t))        (exact),

and the pushed density nu(t) = rho(x, gbar) * d/dt gbar, which equals f
on [0, 1/3] where the cutoff is 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .density import MassTable, _split_on_failure, invert_tables
from .errors import DegeneracyError, InfeasibilityError, MoserTransportError, ResolutionError


@dataclass(frozen=True)
class Cutoff:
    """Polynomial smoothstep cutoff: 1 on [0, 1/3], 0 on [2/3, 1], nonincreasing.

    Degree 2k+3, so derivatives through order k+1 vanish at both junctions.
    """

    k: int

    def _coeffs(self):
        p = self.k + 1
        return [(math.comb(p + j, j) * math.comb(2 * p + 1, p - j) * (-1) ** j, p + 1 + j)
                for j in range(p + 1)]

    def eta(self, t):
        t = np.asarray(t, dtype=float)
        u = np.clip(3.0 * t - 1.0, 0.0, 1.0)
        s = np.zeros_like(u)
        for c, power in self._coeffs():
            s += c * u ** power
        out = 1.0 - s
        return out if out.ndim else float(out)

    def eta_prime(self, t):
        t = np.asarray(t, dtype=float)
        u = 3.0 * t - 1.0
        inside = (u > 0.0) & (u < 1.0)
        uc = np.clip(u, 0.0, 1.0)
        ds = np.zeros_like(uc)
        for c, power in self._coeffs():
            ds += c * power * uc ** (power - 1)
        out = np.where(inside, -3.0 * ds, 0.0)
        return out if out.ndim else float(out)


_MASS_ERRORS = (DegeneracyError, InfeasibilityError, ResolutionError)
_BLOCK = 8   # values per stacked pass, which bounds the pass's memory


def _per_x(run, xs, stage):
    """run(rows) over the rows of ``xs`` in stacked passes of _BLOCK rows, one result
    per row; where a pass raises, the error of the first raising x's own pass,
    naming ``stage`` and x."""
    out = [res for lo in range(0, len(xs), _BLOCK)
           for res in _split_on_failure(lambda r: run(lo + r), min(_BLOCK, len(xs) - lo))]
    for x, res in zip(xs, out):
        if isinstance(res, _MASS_ERRORS):
            raise type(res)(f"{stage} at x={x!r}: {res}") from res
        if isinstance(res, MoserTransportError):
            raise res
    return out


def _rearrange(tables, ref, t, xs, targets=None):
    """g(t) = M^{-1}(I_f(t)) for each table, one row per table and its x of ``xs``.

    ``t`` in [0, 1], in any order, is one array the tables share or one row
    per table; ``targets``, if given, holds I_f of a shared t already.  A
    shared t takes one ref.integral call and rows of t one per block of
    _BLOCK rows, and each block takes one invert_tables call.  g is
    nondecreasing in t along each row: near-equal targets can come out
    inverted by rounding; the running maximum over the row's sorted t
    removes that, and an inversion above 1e-12 relative raises
    ResolutionError.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n = t.shape[-1]
    if targets is None and t.ndim == 1 and np.all((t >= 0.0) & (t <= 1.0)):
        targets = ref.integral(t)

    def solve(rows):
        ts = t if t.ndim == 1 else t[rows]
        if not np.all((ts >= 0.0) & (ts <= 1.0)):    # a NaN fails too
            raise InfeasibilityError("collar coordinate t outside [0, 1]")
        T = np.broadcast_to(ref.integral(ts) if targets is None else targets, (rows.size, n))
        g = invert_tables([tables[i] for i in rows], np.repeat(np.arange(rows.size), n),
                          T.ravel()).reshape(rows.size, n)
        order = np.broadcast_to(np.argsort(ts, kind="stable"), g.shape)
        g_sorted = np.take_along_axis(g, order, axis=1)
        lifted = np.maximum.accumulate(g_sorted, axis=1)
        if np.any(lifted - g_sorted > 1e-12 * lifted):
            raise ResolutionError(
                "collar g not monotone in t; the reference integral is not monotone")
        np.put_along_axis(g, order, lifted, axis=1)
        return g

    return np.reshape(_per_x(solve, xs, "collar solve"), (len(tables), n))


@dataclass
class CollarMap:
    """Rearrangement data for one parameter value at the boundary point m = 0.

    Holds the ray mass table, so any batch of t is solved exactly by
    ``g_batch``; gbar, its exact t-derivative and the pushed density follow
    by formula.  ``ts``/``gs`` is the tabulation made at build time.
    """

    ref: object
    x: float
    cutoff: Cutoff
    ts: np.ndarray
    gs: np.ndarray
    mass: MassTable

    # -- g -----------------------------------------------------------------
    def g_batch(self, ts, targets=None):
        """g at any t in [0, 1], as a 1D array (a scalar t gives one element): the
        one-row case of _rearrange, which ``targets`` = I_f(ts) spares its integral."""
        return _rearrange([self.mass], self.ref, ts, [self.x], targets)[0]

    # -- gbar and derived quantities ----------------------------------------
    def gbar(self, t, g_values=None):
        t = np.asarray(t, dtype=float)
        g_values = self.g_batch(t) if g_values is None else g_values
        eta = self.cutoff.eta(t)
        return eta * g_values + (1.0 - eta) * t

    def dgbar_dt(self, t, g_values=None):
        """Exact derivative: eta'(g - t) + eta g' + 1 - eta with g' by formula."""
        t = np.asarray(t, dtype=float)
        g_values = self.g_batch(t) if g_values is None else g_values
        rho_g = self.mass.density(np.asarray(g_values, dtype=float))
        f_t = np.asarray(self.ref.profile(t), dtype=float)
        gprime = np.where(rho_g > 0, f_t / np.where(rho_g > 0, rho_g, 1.0), np.inf)
        eta = self.cutoff.eta(t)
        etap = self.cutoff.eta_prime(t)
        return etap * (g_values - t) + eta * gprime + 1.0 - eta

    def nu(self, t, g_values=None):
        """Density of the inverse-map pushforward: rho(gbar) * d/dt gbar."""
        t = np.asarray(t, dtype=float)
        g_values = self.g_batch(t) if g_values is None else g_values
        gb = self.gbar(t, g_values)
        return self.mass.density(np.asarray(gb, dtype=float)) * self.dgbar_dt(t, g_values)

    # -- build-time diagnostics ---------------------------------------------
    def t_star_sample(self):
        return float(self.gbar(np.asarray(1.0 / 6.0))[0])

    def nu_min_past(self, t0=1.0 / 6.0):
        sel = self.ts >= t0
        vals = self.nu(self.ts[sel], g_values=self.gs[sel])
        return float(np.min(vals))

    def table(self):
        """Columns (t, g, gbar, dgbar_dt, nu) for CSV dumps."""
        g = self.gs
        return np.column_stack([
            self.ts, g, self.gbar(self.ts, g), self.dgbar_dt(self.ts, g),
            self.nu(self.ts, g),
        ])


def build_collar_map(fam, ref, x, t_grid=None, k=None, targets=None):
    """Tabulate the ray mass and g on a log-refined t grid; wrap them as a CollarMap.

    ``x`` is one value, which gives its CollarMap, or an array of values,
    which gives the list of theirs.  Their tables come from stacked passes
    and their g on the shared grid from one _rearrange call, both in blocks
    of 8 values.  ``targets`` may carry the reference integral on
    ``t_grid``, which does not depend on x.  Verifies strict monotonicity
    of each gbar on the grid and raises ResolutionError asking for a finer
    grid if violated.
    """
    k = k or fam.k
    if t_grid is None:
        t_grid = np.geomspace(1e-6, 1.0, 320)
        t_grid[-1] = 1.0
    ts = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(ts) <= 0) or ts[0] <= 0:
        raise ResolutionError("t grid must be strictly increasing and positive")
    xs = [float(v) for v in np.ravel(x)]
    tables = _per_x(lambda r: fam.mass_tables(np.take(xs, r)), xs, "collar ray mass")
    cms = [CollarMap(ref=ref, x=bx, cutoff=Cutoff(k=k), ts=ts, gs=gs, mass=mass)
           for bx, mass, gs in zip(xs, tables, _rearrange(tables, ref, ts, xs, targets))]
    if any(np.any(np.diff(cm.gbar(ts, cm.gs)) <= 0) for cm in cms):
        raise ResolutionError("gbar not strictly monotone on the t grid; refine the t grid")
    return cms if np.ndim(x) else cms[0]
