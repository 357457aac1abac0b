"""Composed transport families, pushforward verification, and probes.

The full construction composes a boundary rearrangement G with an interior
flow map F built on the complement of a collar neighbourhood V:

* the reference measure has density rho0 = f + (1 - mass(f)) * bump, where
  f is the dominated margin reference and the bump is supported away from
  the collar, making rho0 a probability density that equals f on V;
* G uniformises the family near the boundary so nu = (G^{-1})_* family
  equals f on [0, 1/3] and is bounded below past 1/6;
* F pushes rho0 to nu on the complement of V = [0, v), v in (1/6, 1/3),
  and is extended by the identity on V;
* T = G o F then pushes rho0 to the family member, strictly increasing in
  the 1D case, hence equal to the monotone rearrangement.

On domains without boundary (and generally whenever a global positive
floor is declared) the pipeline runs the interior stage alone against the
uniform reference.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .collar import _rearrange, build_collar_map
from .density import MassTable, make_reference, symmetric_beta
from .diagnostics import central_difference, difference_nodes, probe_step, richardson_stable
from .errors import ConfigurationError, DegeneracyError, IntegrationError, ResolutionError
from .geometry import INTERVAL, Pchip, default_grid, interval_grid
from .moser import moser_map_from_values


def _bump_profile(k, lo=0.4, hi=0.9):
    """Polynomial bump supported in [lo, hi], integrating to one, C^k at the ends."""
    q = k + 1
    width = hi - lo
    norm = width ** (2 * q + 1) * symmetric_beta(q)

    def bump(m):
        m = np.asarray(m, dtype=float)
        u = (m - lo) * (hi - m)
        return np.where((m > lo) & (m < hi), np.maximum(u, 0.0) ** q / norm, 0.0)

    return bump


@dataclass
class TransportFamily:
    """Lazily built family of composed transport maps.

    Per-parameter collar and interior maps are cached under the exact
    value of x, and every cached map is complete.  Callers that know their
    parameter values up front plan them: ``prefetch`` (``verify``) builds
    and caches their maps together, from stacked collar passes and RK4
    sweeps.
    ``images`` (the C^k probes) also names its query points: its maps
    integrate only the nodes those read and are dropped once evaluated, and
    its values' collars are queried in stacked passes.  A value outside a
    plan is built on first use, and ``map_values`` queries it, as a plan of
    one.  Evaluation pushes the query points through the stages in the
    order they come; both stages accept any order.
    """

    domain: object
    fam: object
    mode: str
    v: float
    grid_n: int
    steps: int
    k: int
    tol_push: float
    tol_solver: float
    tol_mass: float
    ref: object = None
    rho0_fn: object = None
    collar_t: np.ndarray = None        # full mode: the collar's t grid
    collar_targets: np.ndarray = None  # and the reference integral on it
    _collars: dict = field(default_factory=dict)
    _mosers: dict = field(default_factory=dict)
    _ref_mass: object = None

    @property
    def x_range(self):
        return self.fam.x_range

    # -- per-parameter stages ------------------------------------------------
    def collar_at(self, x):
        key = float(x)
        if key not in self._collars:
            self._build_collars([key])
        return self._collars[key]

    def _build_collars(self, xs):
        """Build and cache, in one call, the collars of the values of ``xs`` not cached yet."""
        new = [x for x in dict.fromkeys(map(float, xs)) if x not in self._collars]
        self._collars.update(zip(new, build_collar_map(
            self.fam, self.ref, new, t_grid=self.collar_t, k=self.k, targets=self.collar_targets)))

    def moser_at(self, x):
        key = float(x)
        if key not in self._mosers:
            self.prefetch([x])
        return self._mosers[key]

    def prefetch(self, xs):
        """Build and cache the complete maps of every x in ``xs`` not cached yet, as one plan."""
        self._mosers.update(self._plan(xs))

    def _plan(self, xs, points=None):
        """{exact x: interior map} of the values of ``xs`` not cached yet, as one plan.

        Its uncached collars are built in one call, I_f is evaluated once at
        the grid nodes, and stacked Newton passes invert each value's targets
        there for its ``nu``.  Each value gets its Poisson solve, and their
        interior flows come from stacked RK4 sweeps (``moser``); a map
        integrates only the nodes that ``points`` read (all nodes when
        None).  Errors name the x they belong to.
        """
        plan = {}
        for x in xs:
            if float(x) not in self._mosers:
                plan.setdefault(float(x), x)
        if not plan:
            return {}
        xs = list(plan.values())
        if self.mode == "moser_only":
            grid = default_grid(self.domain, self.grid_n)
            coords = grid.meshes()
            rhox = [self.fam.fn(x, *coords) for x in xs]
        else:
            grid = interval_grid(self.grid_n, lo=self.v, hi=1.0)
            coords = grid.meshes()
            self._build_collars(xs)
            cms = [self.collar_at(x) for x in xs]
            gs = _rearrange([cm.mass for cm in cms], self.ref, coords[0], list(plan))
            rhox = [cm.nu(coords[0], g_values=g) for cm, g in zip(cms, gs)]
            if points is not None:  # as ``_compose`` splits them: the rest read only the collar
                points = points[~(points < self.v)]
        return dict(zip(plan, moser_map_from_values(
            self.rho0_fn(*coords), rhox, grid, xs, steps=self.steps,
            tol=self.tol_solver, tol_mass=self.tol_mass, points=points,
        )))

    # -- evaluation ------------------------------------------------------------
    def map_values(self, x, points):
        """T_x at the given points (1D array of m, or (N, 2) for 2D modes), in any order."""
        return self._compose([x], [self.moser_at(x)], points)[0]

    def images(self, xs, points):
        """[T_x(points) for x in xs]: the uncached values in one plan that integrates
        only the nodes ``points`` read, its maps dropped once evaluated."""
        pts = np.asarray(points, dtype=float)
        partial = self._plan(xs, pts)
        return self._compose(xs, [partial.get(float(x)) or self.moser_at(x) for x in xs], pts)

    def _compose(self, xs, mms, points):
        """[T_x(points) for x in xs]: each interior map of ``mms``, then (full mode)
        x's collar.  The points below v share one I_f, and the interior images
        of all values are rearranged in stacked passes."""
        pts = np.asarray(points, dtype=float)
        m = np.atleast_1d(pts)
        if self.mode == "moser_only":
            outs = [mm.evaluate(m) for mm in mms]
        else:
            cms = [self.collar_at(x) for x in xs]
            low = m < self.v
            t = np.tile(m, (len(xs), 1))    # the interior columns take each value's images
            g = np.empty_like(t)
            if np.any(low):
                targets = self.ref.integral(m[low])    # I_f does not depend on x
                for row, cm in zip(g, cms):
                    row[low] = cm.g_batch(m[low], targets)
            if not np.all(low):
                for row, x, mm in zip(t, xs, mms):
                    row[~low] = self._interior_images(x, mm, m[~low])
                g[:, ~low] = _rearrange([cm.mass for cm in cms], self.ref, t[:, ~low],
                                        [cm.x for cm in cms])
            outs = [cm.gbar(row_t, g_values=row_g) for cm, row_t, row_g in zip(cms, t, g)]
        return [float(out[0]) for out in outs] if pts.ndim == 0 else outs

    # -- reference handling ------------------------------------------------------
    def reference_quantile(self, u):
        """Inverse CDF of the reference density (1D), from its cached mass table."""
        if self._ref_mass is None:
            self._ref_mass = MassTable(self.rho0_fn)
        return self._ref_mass.invert(np.asarray(u, dtype=float) * self._ref_mass.total)

    # -- verification ------------------------------------------------------------
    def interface_gap(self, x):
        """|T from the V side - T from the complement side| at the interface."""
        if self.mode != "full":
            return 0.0
        cm = self.collar_at(x)
        mm = self.moser_at(x)
        v_side = cm.gbar(np.asarray(self.v))
        phi_v = self._interior_images(x, mm, np.asarray([self.v]))
        complement_side = cm.gbar(phi_v)
        return abs(float(v_side[0]) - float(complement_side[0]))

    def _interior_images(self, x, mm, points):
        """Interior map images, which must stay in [v, 1] for the collar stage."""
        imgs = mm.evaluate(points)
        over = float(np.max(np.maximum(self.v - imgs, imgs - 1.0)))
        if not over <= 1e-12:    # a NaN image fails too
            raise IntegrationError(
                f"interior map image leaves [{self.v:g}, 1] by {over:.3e} at x={float(x)!r}"
            )
        return imgs

    def pushforward_check(self, x, n_fine=2 ** 13):
        if self.domain.dim == 2:
            return self.pushforward_check_2d(x)
        y, nu = pushforward_density_1d(
            lambda pts: self.map_values(x, pts), self.rho0_fn, n_fine=n_fine
        )
        target = np.asarray(self.fam.fn(x, y), dtype=float)
        l1 = float(np.trapezoid(np.abs(nu - target), y))
        return {"x": float(x), "l1_error": l1, "passed": bool(l1 <= self.tol_push)}

    def pushforward_check_2d(self, x, n_samples=2 ** 18, bins=64):
        """Tent-binned sample pushforward against the tent-binned target."""
        hist = pushforward_histogram_2d(lambda pts: self.map_values(x, pts), self.domain,
                                        n_samples=n_samples, bins=bins)
        target = binned_target_2d(lambda a, t: self.fam.fn(x, a, t),
                                  self.domain, bins=bins)
        l1 = float(np.abs(hist["probs"] - target).sum())
        return {"x": float(x), "l1_error": l1, "passed": bool(l1 <= self.tol_push),
                "n_samples": int(n_samples), "bins": int(bins)}

    def verify(self, xs, **check):
        """Per-x pushforward checks, in the order of ``xs``, after one ``prefetch`` of their maps.

        ``check`` goes to the check (n_fine in 1D; n_samples, bins in 2D); full
        mode adds the collar diagnostics and the t_star / nu_min summary.
        """
        self.prefetch(xs)
        check_x = self.pushforward_check_2d if self.domain.dim == 2 else self.pushforward_check
        per_x = []
        for x in xs:
            rec = check_x(x, **check)
            if self.mode == "full":    # the interval only
                rec["interface_gap"] = self.interface_gap(x)
                cm = self.collar_at(x)
                rec["t_star_sample"] = cm.t_star_sample()
                rec["nu_min_past_sixth"] = cm.nu_min_past()
            per_x.append(rec)
        log = {"per_x": per_x, "all_passed": all(r["passed"] for r in per_x)}
        if self.mode == "full":
            log["t_star"] = min(r["t_star_sample"] for r in per_x)
            log["nu_min"] = min(r["nu_min_past_sixth"] for r in per_x)
            log["reference_mass"] = float(self.ref.mass)
        return log


def build_representation(
    fam,
    mode="auto",
    v=0.25,
    margin=0.5,
    grid_n=1024,
    steps=256,
    tol_push=1e-3,
    tol_solver=1e-10,
    tol_mass=1e-4,
    floor=1e-6,
    collar_t_nodes=320,
    k=None,
):
    """Build the composed transport family for a density family.

    ``mode`` is ``full`` (collar + interior stages), ``moser_only``
    (interior stage against the uniform reference; requires a global
    density floor), or ``auto`` (moser_only exactly on boundaryless
    domains).  The collar split V = [0, v) needs v in (1/6, 1/3).
    """
    k = k or fam.k
    if not (1.0 / 6.0 < v < 1.0 / 3.0):
        raise ConfigurationError(f"collar split v={v} must lie in (1/6, 1/3)")
    if mode == "auto":
        mode = "full" if fam.domain.has_boundary else "moser_only"
    if mode not in ("full", "moser_only"):
        raise ConfigurationError(f"unknown pipeline mode {mode!r}")
    if mode == "full" and fam.domain.kind != INTERVAL:
        raise ConfigurationError(
            "the composed collar+interior pipeline is implemented for the interval; "
            "use moser_only with a declared floor on 2D domains"
        )
    fam.validate(x_samples=5, tol_norm=max(tol_mass, 1e-8))

    ref = collar_t = collar_targets = None
    if mode == "moser_only":
        measured = fam.min_density()
        if measured < floor:
            raise DegeneracyError(
                f"moser_only requires a global density floor: measured min {measured:.3e} "
                f"below declared floor {floor:.3e}"
            )
        volume = fam.domain.volume
        if fam.domain.dim == 1:
            rho0_fn = lambda m: np.ones_like(np.asarray(m, dtype=float)) / volume
        else:
            rho0_fn = lambda a, t: np.ones_like(np.asarray(a, dtype=float)) / volume
    else:
        ref = make_reference(fam, margin=margin)
        deficit = 1.0 - ref.mass
        if deficit < 0:
            raise DegeneracyError("reference mass exceeds 1; margin too small")
        bump = _bump_profile(k)

        def rho0_fn(m):
            return ref.profile(m) + deficit * bump(m)

        collar_t = np.geomspace(1e-6, 1.0, collar_t_nodes)
        collar_t[-1] = 1.0
        collar_targets = ref.integral(collar_t)
        for shared in (collar_t, collar_targets):  # every collar map holds them
            shared.flags.writeable = False

    return TransportFamily(
        domain=fam.domain, fam=fam, mode=mode, v=v, grid_n=grid_n, steps=steps,
        k=k, tol_push=tol_push, tol_solver=tol_solver, tol_mass=tol_mass,
        ref=ref, rho0_fn=rho0_fn, collar_t=collar_t, collar_targets=collar_targets,
    )


# ---------------------------------------------------------------------------
# pushforward evaluation


def _fine_mesh(n_fine, lo=0.0, hi=1.0):
    core = np.linspace(lo, hi, n_fine + 1)
    tail = lo + (hi - lo) * np.geomspace(1e-7, 1e-2, 160)
    return np.unique(np.concatenate([core, tail]))


def pushforward_density_1d(map_fn, mu_density_fn, n_fine=2 ** 13):
    """Exact monotone change of variables for the 1D pushforward density.

    The pushforward CDF at the image points equals the source CDF at the
    mesh (no approximation beyond quadrature of the source density); the
    density is the derivative of the monotone CDF interpolant.
    """
    mesh = _fine_mesh(n_fine)
    y = np.asarray(map_fn(mesh), dtype=float)
    dy = np.diff(y)
    if np.any(dy < -1e-12):
        bad = int(np.argmin(dy))
        raise ResolutionError(
            f"1D pushforward needs a strictly increasing map; violated near m={mesh[bad]:g}"
        )
    # merge ties below root-finding resolution (maps degenerating at the
    # boundary can collapse neighbouring images to the same double)
    keep = np.concatenate([[True], dy > 1e-15])
    mesh = mesh[keep]
    y = y[keep]
    mu = np.asarray(mu_density_fn(mesh), dtype=float)
    cdf = np.concatenate([[0.0], np.cumsum(np.diff(mesh) * (mu[1:] + mu[:-1]) / 2.0)])
    total = cdf[-1]
    if not total > 0:
        raise DegeneracyError("source density has no mass")
    cdf /= total
    out_nodes = np.linspace(y[0], y[-1], 2 ** 12 + 1)
    nu = Pchip(y, cdf).derivative()(out_nodes)
    return out_nodes, np.maximum(nu, 0.0)


def _sobol_net_2d(m):
    """The first 2**m points of the unscrambled 2-D Sobol' net (Sobol' 1967) in
    Gray-code order, as scipy's ``qmc.Sobol(d=2, scramble=False)`` gives them.

    30-bit direction numbers (Joe & Kuo 2008): axis 0 is van der Corput,
    axis 1 has m_k = m_{k-1} ^ (m_{k-1} << 1) with m_1 = 1.
    """
    v = np.empty((m, 2), dtype=np.uint32)
    mk = 1
    for k in range(1, m + 1):
        v[k - 1] = 1 << (30 - k), mk << (30 - k)
        mk ^= mk << 1
    q = np.zeros((1, 2), dtype=np.uint32)
    for j in range(m):  # Gray code: point 2**j + i is v_j ^ point 2**j - 1 - i
        q = np.concatenate([q, q[::-1] ^ v[j]])
    return q * 2.0 ** -30


def pushforward_histogram_2d(map_fn, domain, n_samples=2 ** 20, bins=64):
    """Quasi-random sample pushforward on a 2D domain with uniform reference.

    Pushes the first n_samples points of the unscrambled Sobol' net (Sobol'
    1967, direction numbers of Joe & Kuo 2008) through the map and deposits
    cloud-in-cell tent weights of the images on the cell-centre lattice,
    which keeps the quasi-random integrand continuous and therefore
    converges much faster than indicator counting.  Returns the bin
    probabilities and the sample count.
    """
    pts = _sobol_net_2d(math.ceil(math.log2(max(n_samples, 2))))[:n_samples]
    L = domain.circumference
    points = np.stack([pts[:, 0] * L, pts[:, 1]], axis=-1)
    imgs = np.asarray(map_fn(points), dtype=float)
    return {"probs": _cic_deposit(imgs, bins, L) / n_samples, "n_samples": int(n_samples)}


def _cic_deposit(imgs, bins, L, weights=None):
    """Tent-weight deposit on the cell-centre lattice.

    Periodic wrap along the circle axis; tents clamped at the bounded-axis
    ends so the weights still sum to one per sample.
    """
    ha = L / bins
    ht = 1.0 / bins
    w = np.ones(len(imgs)) if weights is None else np.asarray(weights, dtype=float)
    ra = imgs[:, 0] / ha - 0.5
    ia = np.floor(ra).astype(np.intp)
    fa = ra - ia
    ia0 = ia % bins
    ia1 = (ia + 1) % bins
    rt = np.clip(imgs[:, 1] / ht - 0.5, 0.0, bins - 1.0)
    it = np.clip(np.floor(rt).astype(np.intp), 0, bins - 2)
    ft = rt - it
    # one bincount over the four corners in turn: each bin adds its terms in
    # the order of four np.add.at calls, one a corner, from 0.0
    flat = np.concatenate([ia0 * bins + it, ia0 * bins + it + 1,
                           ia1 * bins + it, ia1 * bins + it + 1])
    terms = np.concatenate([w * (1 - fa) * (1 - ft), w * (1 - fa) * ft,
                            w * fa * (1 - ft), w * fa * ft])
    return np.bincount(flat, weights=terms, minlength=bins * bins).reshape(bins, bins)


def binned_target_2d(density_fn, domain, bins=64, oversample=8):
    """Tent-binned cell masses of a 2D density, by midpoint-lattice quadrature.

    Uses the same weight functions as the sample deposit, so the
    comparison against a sampled pushforward is apples to apples.
    """
    L = domain.circumference
    n = bins * oversample
    a = (np.arange(n) + 0.5) * (L / n)
    t = (np.arange(n) + 0.5) * (1.0 / n)
    aa, tt = np.meshgrid(a, t, indexing="ij")
    vals = np.asarray(density_fn(aa, tt), dtype=float).reshape(-1)
    pts = np.stack([aa.reshape(-1), tt.reshape(-1)], axis=-1)
    cell_area = (L / n) * (1.0 / n)
    return _cic_deposit(pts, bins, L, weights=vals * cell_area)


# ---------------------------------------------------------------------------
# uniform C^k probes


@dataclass
class CkReport:
    k: int
    sups: dict
    richardson_stable: dict
    stable_fraction: dict


def _ck_probes(x_range, x_grid, j):
    """(x, h) of each order-j Richardson probe: the x of x_grid that are interior."""
    lo, hi = x_range
    for x in np.asarray(x_grid, dtype=float):
        h = probe_step(x, (lo, hi), j, 0.25, abs(x) or hi - lo)
        if h is not None:
            yield x, h


def _probe_images(map_family, x_grids, k, points):
    """x -> T_x(points) at every difference node of the order-1..k probes of
    ``x_grids``, from one ``images`` query of the distinct nodes."""
    nodes = {}
    for x_grid in x_grids:
        for j in range(1, k + 1):
            for x, h in _ck_probes(map_family.x_range, x_grid, j):
                for step in (h, h / 2):
                    for node in difference_nodes(x, j, step):
                        nodes.setdefault(float(node), node)
    table = dict(zip(nodes, map_family.images(list(nodes.values()), points)))
    return lambda x: table[float(x)]


def _ck_report(images, map_family, x_grid, k):
    """The CkReport of the order-1..k probes of x_grid, read through images(x).  Periodic
    image components are unwrapped to within half a period of the first difference
    node's, so an image that crosses the seam is no jump of one period."""
    circles = [(i, ax.length) for i, ax in enumerate(default_grid(map_family.domain, 2).axes)
               if ax.periodic]

    def magnitude(x, j, h):
        def unwrapped(node, first=images(difference_nodes(x, j, h)[0])):
            img = images(node).copy() if circles else images(node)
            for i, period in circles:
                img[:, i] -= period * np.round((img[:, i] - first[:, i]) / period)
            return img
        # maps into 2D domains: the euclidean norm of the differenced components
        d = central_difference(unwrapped, x, j, h)
        return np.linalg.norm(d, axis=-1) if d.ndim == 2 else d

    sups = {}
    stable = {}
    frac = {}
    for j in range(1, k + 1):
        best = 0.0
        n_stable = 0
        n_tot = 0
        for x, h in _ck_probes(map_family.x_range, x_grid, j):
            d_h = magnitude(x, j, h)
            mags = np.abs(magnitude(x, j, h / 2))
            best = max(best, float(mags.max()))  # a NaN in mags leaves best as it was
            ratio_ok = richardson_stable(d_h, mags, 1e-9)
            n_stable += int(np.sum(ratio_ok))
            n_tot += ratio_ok.size
        sups[j] = best
        stable[j] = bool(n_tot > 0 and n_stable == n_tot)
        frac[j] = (n_stable / n_tot) if n_tot else 1.0
    return CkReport(k=k, sups=sups, richardson_stable=stable, stable_fraction=frac)


def estimate_uniform_Ck(map_family, m_grid, x_grid, k=1):
    """Finite-difference sups of |d^j/dx^j T_x(m)| over (m, x), j = 1..k.

    Each probe is computed at steps h and h/2 (Richardson pair); a pair
    whose magnitudes differ by more than a factor 2 marks the probe
    unstable.  Divergence is a finding for the caller, not an error.
    """
    images = _probe_images(map_family, [x_grid], k, np.asarray(m_grid, dtype=float))
    return _ck_report(images, map_family, x_grid, k)


@dataclass
class FloorScanReport:
    floors: list
    sups: dict       # order -> list per floor
    growths: dict    # order -> consecutive ratios
    verdict: str     # STABLE | UNBOUNDED-SUSPECT
    threshold: float
    reports: list

    def to_dict(self):
        return {
            "floors": self.floors,
            "sups": {str(j): v for j, v in self.sups.items()},
            "growths": {str(j): v for j, v in self.growths.items()},
            "verdict": self.verdict,
            "threshold": self.threshold,
        }


def make_x_grid(x_range, floor_mode, m_floor, n=10, pad_fraction=0.05):
    """Probe grid over the parameter range for the C^k scan.

    ``fixed`` pads the range and spaces nodes evenly; ``match`` adds
    log-spaced nodes approaching 0 at the scale m_floor^(3/2), which is
    where parameter-derivative blow-up concentrates for boundary-degenerate
    families.
    """
    lo, hi = x_range
    pad = pad_fraction * (hi - lo)
    nodes = list(np.linspace(lo + pad, hi - pad, n))
    if floor_mode == "match" and lo <= 0.0 <= hi:
        x_floor = max(m_floor, 1e-12) ** 1.5
        upper = 0.45 * max(abs(lo), abs(hi))
        if x_floor < upper:
            extra = np.geomspace(x_floor, upper, 8)
            nodes += [v for v in extra if lo < v < hi]
            nodes += [-v for v in extra if lo < -v < hi]
    return np.array(sorted(set(nodes)))


def ck_floor_scan(map_family, floors, k=1, floor_mode="fixed", m_per_floor=25,
                  growth_threshold=2.0, x_nodes=10):
    """C^k sups under m-grid floor refinement; the blow-up dichotomy probe.

    UNBOUNDED-SUSPECT when every refinement grows some order's sup by at
    least the threshold; STABLE otherwise.  Every difference node of every
    floor and order is planned and queried once, in one ``images`` query at
    the union of the floors' m grids; each floor reads its own rows.
    """
    if len(floors) < 2:
        raise ConfigurationError("floor scan needs at least two floors")
    x_grids = [make_x_grid(map_family.x_range, floor_mode, floor, n=x_nodes)
               for floor in floors]
    domain = map_family.domain
    m_grids = []
    for floor in floors:
        ts = np.geomspace(floor, 1.0, m_per_floor)
        if domain.dim == 2:
            a_nodes = np.linspace(0.0, domain.circumference, 5)[:-1]
            aa, tt = np.meshgrid(a_nodes, ts, indexing="ij")
            m_grids.append(np.stack([aa.reshape(-1), tt.reshape(-1)], axis=-1))
        else:
            m_grids.append(ts)
    images = _probe_images(map_family, x_grids, k, np.concatenate(m_grids))
    ends = np.cumsum([0] + [len(m_grid) for m_grid in m_grids])
    sups = {j: [] for j in range(1, k + 1)}
    reports = []
    for x_grid, lo, hi in zip(x_grids, ends[:-1], ends[1:]):
        rep = _ck_report(lambda x, rows=slice(lo, hi): images(x)[rows], map_family, x_grid, k)
        reports.append(rep)
        for j in range(1, k + 1):
            sups[j].append(rep.sups[j])
    growths = {}
    suspect = False
    for j in range(1, k + 1):
        seq = sups[j]
        g = [seq[i + 1] / seq[i] if seq[i] > 1e-12 else 1.0 for i in range(len(seq) - 1)]
        growths[j] = g
        if g and all(r >= growth_threshold for r in g):
            suspect = True
    return FloorScanReport(
        floors=[float(f) for f in floors], sups=sups, growths=growths,
        verdict="UNBOUNDED-SUSPECT" if suspect else "STABLE",
        threshold=growth_threshold, reports=reports,
    )


# ---------------------------------------------------------------------------
# quantile transports (direct rearrangement representations)


class QuantileTransport:
    """Monotone rearrangement transport from a fixed family member.

    T_x = F_x^{-1} o F_ref, with F_ref either given or the CDF of the
    family member at ref_x, and F_x^{-1} from the mass table of rho(x, .).
    Used where the interior-flow pipeline needs a positive floor the family
    does not have.
    """

    def __init__(self, fam, ref_x=None, ref_cdf=None):
        self.fam = fam
        self.domain = fam.domain
        if ref_cdf is None:
            if ref_x is None:
                raise ConfigurationError("provide ref_x or ref_cdf")
            ref = fam.mass_table(float(ref_x))
            ref_cdf = lambda m: ref.cdf(m) / ref.total
        self.ref_cdf = ref_cdf

    @property
    def x_range(self):
        return self.fam.x_range

    def images(self, xs, points):
        """[T_x(points) for x in xs]."""
        return [self.map_values(x, points) for x in xs]

    def map_values(self, x, points):
        m = np.atleast_1d(np.asarray(points, dtype=float))
        ps = np.clip(np.asarray(self.ref_cdf(m), dtype=float), 0.0, 1.0)
        table = self.fam.mass_table(x)
        out = table.invert(ps * table.total)
        return out if np.ndim(points) else float(out[0])


# ---------------------------------------------------------------------------
# random map samples


@dataclass
class RandomMapSample:
    """One drawn seed point with its parameter-to-image map handle."""

    omega: object
    _family: object

    def map(self, x):
        return self._family.map_values(x, np.atleast_1d(np.asarray(self.omega)))[0]


def sample_random_maps(tf, count, seed=0):
    """Draw seed points from the reference measure; return map handles.

    Uses a counter-based Philox stream keyed by the seed, so draws are
    reproducible and splittable across tasks.  1D draws go through the
    reference inverse CDF; 2D (uniform reference) scales raw uniforms.
    """
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    if tf.domain.dim == 1:
        u = gen.random(count)
        omegas = tf.reference_quantile(u)
        return [RandomMapSample(float(w), tf) for w in omegas]
    u = gen.random((count, 2))
    pts = np.stack([u[:, 0] * tf.domain.circumference, u[:, 1]], axis=-1)
    return [RandomMapSample(p, tf) for p in pts]

