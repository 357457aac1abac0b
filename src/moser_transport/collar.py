"""Radial monotone rearrangement near the boundary.

For a fixed parameter value and boundary ray, g(t) is defined by matching
the family mass on [0, g] against the reference mass on [0, t]:

    M(g) = int_0^g rho(x, a, s) ds = int_0^t f(s) ds = I_f(t)

(the model collar charts are flat, so the Jacobian JQ is 1).  g is the
monotone rearrangement M^{-1}(I_f(t)); it is computed in array passes over
a batch of t: M is tabulated once per ray as a density.MassTable, I_f is
evaluated for the whole batch, and the table's bracketed Newton iteration
with the exact derivative M' = rho inverts it.  Errors name the stage
("collar ray mass" or "collar solve") and x.

Domination rho > f gives g(t) <= t.  The cutoff interpolation
gbar = eta * g + (1 - eta) * t turns the ray maps into a map of the whole
domain that is the identity past 2/3 of the collar, with

    d/dt gbar = eta'(t) (g - t) + eta(t) g'(t) + 1 - eta(t) > 0,
    g'(t) = f(t) / rho(x, a, g(t))        (exact),

and the pushed density nu(t) = rho(x, a, gbar) * d/dt gbar, which equals f
on [0, 1/3] where the cutoff is 1.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .density import MassTable
from .diagnostics import central_difference, probe_step, richardson_stable
from .errors import DegeneracyError, InfeasibilityError, ResolutionError
from .geometry import collar_chart


@dataclass(frozen=True)
class Cutoff:
    """Polynomial smoothstep cutoff: 1 on [0, 1/3], 0 on [2/3, 1], nonincreasing.

    Degree 2k+3, so derivatives through order k+1 vanish at both junctions.
    """

    k: int

    @property
    def degree(self):
        return 2 * self.k + 3

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


def _ray_density(fam, x, a, side):
    """Density along one collar ray as a function of the collar coordinate."""
    dom = fam.domain
    collar_chart(dom, a if dom.dim == 2 else float(side), 0.0, side=side)  # validates the ray
    flip = side == 1
    if dom.dim == 1:
        def fn(s):
            return np.asarray(fam.fn(x, 1.0 - s if flip else s), dtype=float)
    else:
        a = float(a) % dom.circumference

        def fn(s):
            return np.asarray(fam.fn(x, np.full_like(s, a), 1.0 - s if flip else s), dtype=float)
    return fn


_MASS_ERRORS = (DegeneracyError, InfeasibilityError, ResolutionError)


def _ray_mass(fam, x, a, side, tol):
    try:
        return MassTable(_ray_density(fam, x, a, side), tol)
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
    """Rearrangement data for one parameter value on one boundary ray.

    Holds the ray mass table, so any batch of t is solved exactly by
    ``g_batch``; gbar, its exact t-derivative and the pushed density follow
    by formula.  ``ts``/``gs`` is the tabulation made at build time.
    """

    fam: object
    ref: object
    x: float
    a: float
    side: int
    cutoff: Cutoff
    tol: float
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


def build_collar_map(fam, ref, x, t_grid=None, tol=1e-10, a=0.0, side=0, k=None,
                     targets=None):
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
    mass = _ray_mass(fam, x, a, side, tol)
    cm = CollarMap(
        fam=fam, ref=ref, x=float(x), a=float(a), side=side,
        cutoff=Cutoff(k=k), tol=tol, ts=ts, gs=_rearrange(mass, ref, ts, x, targets),
        mass=mass,
    )
    gb = cm.gbar(ts, cm.gs)
    if np.any(np.diff(gb) <= 0):
        raise ResolutionError("gbar not strictly monotone on the t grid; refine the t grid")
    return cm


@dataclass
class BoundReport:
    verdict: str
    c_hat: float
    c_hat_sequence: list
    uniform_bound: float
    richardson_ok: bool
    witness: dict
    orders: dict


def check_lemma_bound(fam, ref, env, x_grid, k=None, t_floors=(1e-2, 1e-3, 1e-4),
                      tol=1e-10, side=0, probes_per_floor=5):
    """Empirical uniform-derivative constants for x -> g_x(t).

    For each refinement floor, estimates D_x^beta g by central finite
    differences (Richardson pairs h, h/2 expose non-convergence) and
    records C_hat = max |D_x^beta g| * B(a, g) / E(a, g)^beta.  PASS needs
    the Richardson pairs consistent and the C_hat sequence stable (ratio of
    successive refinements within [0.5, 2]); blow-up under refinement is a
    FAIL with the witnessing probe.
    """
    k = k or fam.k
    lo, hi = fam.x_range
    span = hi - lo
    c_hats = []
    orders = {b: [] for b in range(1, k + 1)}
    witness = {}
    richardson_ok = True

    # one collar map per shifted x, shared by all probes, orders and floors
    collar = functools.cache(
        lambda xv: build_collar_map(fam, ref, xv, tol=tol, side=side, k=k))

    for floor in t_floors:
        t_probes = np.geomspace(floor, 0.3, probes_per_floor)
        g_probes = lambda xv: collar(float(xv)).g_batch(t_probes)
        xs = list(np.asarray(x_grid, dtype=float))
        if lo <= 0.0 <= hi:
            xs += [s for s in (floor ** 1.5, 10 * floor ** 1.5) if lo <= s <= hi]
            xs += [-s for s in (floor ** 1.5, 10 * floor ** 1.5) if lo <= -s <= hi]
        best = 0.0
        best_orders = {b: 0.0 for b in range(1, k + 1)}
        for b in range(1, k + 1):
            for x in xs:
                h = probe_step(x, (lo, hi), b, 0.25, abs(x) or span)
                if h is None:
                    continue
                dhs = central_difference(g_probes, x, b, h)
                dh2s = central_difference(g_probes, x, b, h / 2)
                if not np.all(richardson_stable(dhs, dh2s, 1e-10)):
                    richardson_ok = False
                for t, dh2, g_here in zip(t_probes, dh2s, g_probes(x)):
                    weight = float(env.B(0.0, max(g_here, 1e-300))) / float(
                        env.E(0.0, max(g_here, 1e-300))) ** b
                    c_val = abs(dh2) * weight
                    if c_val > best:
                        best = c_val
                        witness = {"x": float(x), "t": float(t), "beta": b,
                                   "fd": float(dh2), "c": float(c_val)}
                    best_orders[b] = max(best_orders[b], c_val)
        c_hats.append(best)
        for b in range(1, k + 1):
            orders[b].append(best_orders[b])

    growth_ok = True
    for prev, cur in zip(c_hats, c_hats[1:]):
        if prev > 1e-12 and cur / prev > 2.0:
            growth_ok = False
        if prev <= 1e-12 and cur > 1e-6:
            growth_ok = False
    verdict = "PASS" if (richardson_ok and growth_ok) else "FAIL"
    c_hat = max(c_hats) if c_hats else 0.0
    return BoundReport(
        verdict=verdict,
        c_hat=float(c_hat),
        c_hat_sequence=[float(v) for v in c_hats],
        uniform_bound=float(c_hat * env.A),
        richardson_ok=richardson_ok,
        witness=witness,
        orders=orders,
    )
