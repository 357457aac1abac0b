"""Monotone rearrangement at the interval's boundary point m = 0.

For a fixed parameter value, g(t) is defined by matching the family mass
on [0, g] against the reference mass on [0, t]:

    M(g) = int_0^g rho(x, s) ds = int_0^t f(s) ds = I_f(t)

(the collar coordinate t is m itself, so no chart or Jacobian enters).  g
is the monotone rearrangement M^{-1}(I_f(t)); it is computed in array
passes over a batch of t: M is the family's density.MassTable at x, I_f is
evaluated for the whole batch, and the table's bracketed Newton iteration
with the exact derivative M' = rho inverts it.  Errors name the stage
("collar ray mass" or "collar solve") and x.

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

from .density import MassTable
from .errors import DegeneracyError, InfeasibilityError, ResolutionError


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


def _ray_mass(fam, x):
    try:
        return fam.mass_table(x)
    except _MASS_ERRORS as exc:
        raise type(exc)(f"collar ray mass at x={float(x)!r}: {exc}") from exc


def _rearrange(mass, ref, t, x, targets=None):
    """g(t) = M^{-1}(I_f(t)) for an array t in [0, 1], in any order.

    ``targets``, if given, holds I_f(t) already.  g is nondecreasing in t.
    Near-equal targets can come out inverted by rounding; the running
    maximum over the sorted t removes that, and an inversion above 1e-12
    relative raises ResolutionError.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    try:
        if np.any((t < 0.0) | (t > 1.0)):
            raise InfeasibilityError("collar coordinate t outside [0, 1]")
        g = mass.invert(ref.integral(t) if targets is None else targets)
        order = np.argsort(t, kind="stable")
        g_sorted = g[order]
        lifted = np.maximum.accumulate(g_sorted)
        if np.any(lifted - g_sorted > 1e-12 * lifted):
            raise ResolutionError(
                "collar g not monotone in t; the reference integral is not monotone")
    except _MASS_ERRORS as exc:
        raise type(exc)(f"collar solve at x={float(x)!r}: {exc}") from exc
    g[order] = lifted
    return g


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
    def g_batch(self, ts):
        """g at any t in [0, 1], as a 1D array (a scalar t gives one element)."""
        return _rearrange(self.mass, self.ref, ts, self.x)

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
        rho_g = self.mass.fn(np.asarray(g_values, dtype=float))
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
        return self.mass.fn(np.asarray(gb, dtype=float)) * self.dgbar_dt(t, g_values)

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

    ``targets`` may carry the reference integral on ``t_grid``, which does
    not depend on x.  Verifies strict monotonicity of gbar on the grid and
    raises ResolutionError asking for a finer grid if violated.
    """
    k = k or fam.k
    if t_grid is None:
        t_grid = np.geomspace(1e-6, 1.0, 320)
        t_grid[-1] = 1.0
    ts = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(ts) <= 0) or ts[0] <= 0:
        raise ResolutionError("t grid must be strictly increasing and positive")
    mass = _ray_mass(fam, x)
    cm = CollarMap(ref=ref, x=float(x), cutoff=Cutoff(k=k), ts=ts,
                   gs=_rearrange(mass, ref, ts, x, targets), mass=mass)
    gb = cm.gbar(ts, cm.gs)
    if np.any(np.diff(gb) <= 0):
        raise ResolutionError("gbar not strictly monotone on the t grid; refine the t grid")
    return cm

