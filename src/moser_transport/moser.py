"""Interior flow coupling for families bounded below.

Pipeline per parameter value: assemble the compatible right-hand side
rho_x - rho_0, solve the Neumann-Poisson problem -Lap(u) = rhs with zero
normal derivative and zero mean, form the time-dependent velocity
V_t = grad(u) / (rho_0 + t (rho_x - rho_0)), and integrate the flow ODE
from t=0 to t=1 with classical fixed-step RK4.  The time-one map pushes
the reference density to the target density.

Discretisation is second-order: P1 stiffness matrices (mirror-reflection
Neumann closure on bounded axes, periodic wrap on circles) and trapezoid /
uniform lumped quadrature.  M^-1 K is diagonalised exactly by DCT-I on
bounded axes and FFT on periodic ones, so the Poisson solve is one direct
transform pair.  RK4 runs once per build, over the grid nodes; map queries
interpolate the node images (PCHIP in 1D, bilinear displacement in 2D).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft, sparse
from scipy.interpolate import PchipInterpolator

from .errors import DegeneracyError, IntegrationError, MassMismatchError, SolverError
from .geometry import Grid


def _stiffness_1d(axis):
    n, h = axis.n, axis.spacing
    main = np.full(n, 2.0 / h)
    off = np.full(n - 1, -1.0 / h)
    K = sparse.diags([off, main, off], offsets=(-1, 0, 1), format="lil")
    if axis.periodic:
        K[0, -1] = K[-1, 0] = -1.0 / h
    else:
        K[0, 0] = K[-1, -1] = 1.0 / h
    return K.tocsr()


def stiffness(grid):
    """Symmetric PSD stiffness operator; nullspace is the constants."""
    if grid.dim == 1:
        return _stiffness_1d(grid.axes[0])
    Ka = _stiffness_1d(grid.axes[0])
    Kt = _stiffness_1d(grid.axes[1])
    Ma = sparse.diags(grid.axes[0].weights)
    Mt = sparse.diags(grid.axes[1].weights)
    return (sparse.kron(Ka, Mt) + sparse.kron(Ma, Kt)).tocsr()


@dataclass
class PotentialField:
    """Discrete solution u of the Neumann-Poisson problem on a grid."""

    grid: Grid
    values: np.ndarray
    residual: float
    iterations: int

    @property
    def mean_abs(self):
        """|integral of u| with the grid quadrature; ~0 by construction."""
        return abs(self.grid.integrate(self.values))


def assemble_rhs(rho_x_values, rho0_values, grid, tol_mass=1e-4):
    """Compatible right-hand side rho_x - rho_0, mean-corrected.

    Raises MassMismatchError when the discrete masses differ by more than
    tol_mass; the correction afterwards removes the (small) residual mean
    so the Neumann problem is exactly compatible in the discrete sense.
    """
    rho_x_values = np.asarray(rho_x_values, dtype=float)
    rho0_values = np.asarray(rho0_values, dtype=float)
    mx = grid.integrate(rho_x_values)
    m0 = grid.integrate(rho0_values)
    if abs(mx - m0) > tol_mass:
        raise MassMismatchError(
            f"density masses differ: {mx!r} vs {m0!r} (tolerance {tol_mass:g})"
        )
    rhs = rho_x_values - rho0_values
    volume = grid.integrate(np.ones_like(rhs))
    return rhs - grid.integrate(rhs) / volume


def _eigenvalues(grid):
    """Eigenvalues of M^-1 K in the DCT-I (bounded) / FFT (periodic) basis.

    The constant mode's eigenvalue 0 is replaced by inf, so dividing by
    these sets that mode to zero.
    """
    lam = 0.0
    for i, ax in enumerate(grid.axes):
        n, h = ax.n, ax.spacing
        k = np.arange(n)
        angle = 2 * np.pi * k / n if ax.periodic else np.pi * k / (n - 1)
        shape = [1] * grid.dim
        shape[i] = n
        lam = lam + ((2.0 - 2.0 * np.cos(angle)) / h ** 2).reshape(shape)
    lam[(0,) * grid.dim] = np.inf
    return lam


def _spectral_solve(grid, lam, f):
    """u with M^-1 K u = f, f's constant mode dropped."""
    bounded = [i for i, ax in enumerate(grid.axes) if not ax.periodic]
    periodic = [i for i, ax in enumerate(grid.axes) if ax.periodic]
    c = f
    for i in bounded:
        c = sp_fft.dct(c, type=1, axis=i)
    if periodic:
        c = sp_fft.fftn(c, axes=periodic)
    c = c / lam
    if periodic:
        c = sp_fft.ifftn(c, axes=periodic).real
    for i in bounded:
        c = sp_fft.idct(c, type=1, axis=i)
    return c


def solve_neumann_poisson(rhs_values, grid, tol=1e-10):
    """Direct spectral solve of K u = M rhs orthogonal to the constants.

    M^-1 K is the mirror-closed (bounded axes) or periodic second
    difference on each axis, diagonalised by DCT-I and FFT respectively,
    so one transform pair solves the system.  The returned field has zero
    quadrature mean; ``residual`` is the true relative residual
    ||b - K u|| / ||b||.  One refinement solve on the residual is applied
    when it exceeds tol; SolverError is raised if that does not suffice.
    """
    rhs = np.asarray(rhs_values, dtype=float).reshape(grid.shape)
    w = grid.weight_field()
    b = w * rhs
    b = b - b.mean()
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return PotentialField(grid=grid, values=np.zeros(grid.shape), residual=0.0,
                              iterations=0)

    K = stiffness(grid)
    lam = _eigenvalues(grid)
    volume = grid.integrate(np.ones(grid.shape))
    u = np.zeros(grid.shape)
    r = b
    for iterations in (1, 2):
        u = u + _spectral_solve(grid, lam, r / w)
        u = u - grid.integrate(u) / volume
        r = b - (K @ u.reshape(-1)).reshape(grid.shape)
        residual = float(np.linalg.norm(r)) / bnorm
        if residual <= tol:
            break
    else:
        raise SolverError(
            f"spectral Neumann-Poisson solve left relative residual {residual:.3e} "
            f"above tol={tol:g} after one refinement"
        )
    return PotentialField(grid=grid, values=u, residual=residual, iterations=iterations)


def gradient(grid, values):
    """Second-order gradient; normal components zeroed at boundary nodes.

    Zeroing is consistent with the homogeneous Neumann condition the
    potential satisfies and keeps the induced velocity boundary-parallel.
    """
    values = np.asarray(values, dtype=float)
    comps = []
    for i, ax in enumerate(grid.axes):
        h = ax.spacing
        if ax.periodic:
            comp = (np.roll(values, -1, axis=i) - np.roll(values, 1, axis=i)) / (2 * h)
        else:
            comp = np.gradient(values, h, axis=i)
            ends = [slice(None)] * values.ndim
            ends[i] = [0, -1]
            comp[tuple(ends)] = 0.0
        comps.append(comp)
    return tuple(comps)


def _cell(ax, c):
    """Neighbouring node indices and fraction of coordinates c on one axis."""
    rel = (c - ax.lo) / ax.spacing
    if ax.periodic:
        i = np.floor(rel).astype(np.intp)
        return i % ax.n, (i + 1) % ax.n, rel - i
    i = np.clip(np.floor(rel).astype(np.intp), 0, ax.n - 2)
    return i, i + 1, np.clip(rel - i, 0.0, 1.0)


def _bilinear(grid, F, points):
    """Bilinear interpolation at (..., 2) points of node data F[ia, it, k]."""
    ia0, ia1, fa = _cell(grid.axes[0], points[..., 0])
    it0, it1, ft = _cell(grid.axes[1], points[..., 1])
    fa, ft = fa[..., None], ft[..., None]
    return (
        F[ia0, it0] * (1 - fa) * (1 - ft)
        + F[ia0, it1] * (1 - fa) * ft
        + F[ia1, it0] * fa * (1 - ft)
        + F[ia1, it1] * fa * ft
    )


@dataclass
class VelocityField:
    """Velocity snapshot at a fixed deformation time (grid arrays)."""

    grid: Grid
    time: float
    components: tuple


class VelocityProvider:
    """Evaluates V_t(p) = grad u (p) / (rho0(p) + t (rho_x(p) - rho0(p))).

    Gradient and densities are interpolated multilinearly from their grid
    samples; the time dependence enters only through the denominator, so a
    single potential solve serves all deformation times.
    """

    def __init__(self, grid, potential, rho0_values, rhox_values, c_min):
        self.grid = grid
        self.grad = gradient(grid, potential.values)
        self.rho0 = np.asarray(rho0_values, dtype=float)
        self.rhox = np.asarray(rhox_values, dtype=float)
        self.c_min = float(c_min)
        for t_end in (0.0, 1.0):
            eta = self.rho0 + t_end * (self.rhox - self.rho0)
            if np.min(eta) < self.c_min:
                idx = np.unravel_index(int(np.argmin(eta)), eta.shape)
                coords = tuple(float(grid.axes[i].nodes[idx[i]]) for i in range(grid.dim))
                raise DegeneracyError(
                    f"interpolated density {np.min(eta):.3e} below floor {self.c_min:.3e} "
                    f"at node {coords} (t={t_end:g})"
                )
        # all fields gathered together per interpolation query
        self._fields = np.stack([*self.grad, self.rho0, self.rhox], axis=-1)

    def __call__(self, t, points):
        if self.grid.dim == 1:
            nodes = self.grid.nodes(0)
            g, r0, rx = (np.interp(points, nodes, f)
                         for f in (self.grad[0], self.rho0, self.rhox))
            return g / (r0 + t * (rx - r0))
        vals = _bilinear(self.grid, self._fields, points)
        eta = vals[..., 2] + t * (vals[..., 3] - vals[..., 2])
        return vals[..., :2] / eta[..., None]

    def snapshot(self, t):
        eta = self.rho0 + t * (self.rhox - self.rho0)
        comps = tuple(g / eta for g in self.grad)
        return VelocityField(grid=self.grid, time=float(t), components=comps)


def _clamp_points(grid, pts, slack=None, counter=None):
    """Wrap periodic coordinates and clamp bounded ones onto the grid.

    A bounded coordinate more than ``slack`` outside the grid (default one
    cell) raises IntegrationError; clamps of more than 1e-12 are counted
    in ``counter[0]`` when a counter is given.
    """
    pts = np.array(pts, dtype=float)
    cols = pts.reshape(-1, grid.dim)
    for i, ax in enumerate(grid.axes):
        c = cols[:, i]
        if ax.periodic:
            cols[:, i] = ax.lo + (c - ax.lo) % ax.length
            continue
        lo, hi = ax.lo, ax.lo + ax.length
        over = np.maximum(lo - c, c - hi)
        allowed = ax.spacing if slack is None else slack
        if np.any(over > allowed):
            raise IntegrationError(
                f"point {float(c[np.argmax(over)]):.6g} lies {float(np.max(over)):.3e} "
                f"outside [{lo:g}, {hi:g}] on axis {i} (allowed {allowed:.3e})"
            )
        if counter is not None:
            counter[0] += int(np.sum(over > 1e-12))
        cols[:, i] = np.clip(c, lo, hi)
    return pts


def integrate_flow(provider, points, steps=256):
    """Classical RK4 over deformation time with fixed step 1/steps.

    Returns (end points, clamp event count).  Builds run it over the grid
    nodes; it also serves as the oracle for MoserMap.evaluate.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    grid = provider.grid
    pts = np.array(points, dtype=float)
    dt = 1.0 / steps
    counter = [0]

    def clamp(p):
        return _clamp_points(grid, p, counter=counter)

    for k in range(steps):
        t = k * dt
        p0 = pts
        k1 = provider(t, p0)
        k2 = provider(t + dt / 2, clamp(p0 + dt / 2 * k1))
        k3 = provider(t + dt / 2, clamp(p0 + dt / 2 * k2))
        k4 = provider(t + dt, clamp(p0 + dt * k3))
        pts = clamp(p0 + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    return pts, counter[0]


@dataclass
class MoserMap:
    """Time-one flow map for one parameter value.

    Queries interpolate the RK4 images of the grid nodes: PCHIP in 1D,
    which keeps the map strictly monotone and inside the interval, and
    the bilinear node displacement in 2D.
    """

    x: float
    grid: Grid
    provider: VelocityProvider
    steps: int
    node_images: np.ndarray
    clamp_events: int
    interpolant: object = field(repr=False)  # PchipInterpolator (1D) or displacement (2D)

    def evaluate(self, points):
        """Map points inside the grid; more than 1e-12 outside raises IntegrationError."""
        pts = _clamp_points(self.grid, points, slack=1e-12)
        if self.grid.dim == 1:
            # PCHIP through monotone data stays within it; the clip only removes rounding
            return np.clip(self.interpolant(pts), self.node_images[0], self.node_images[-1])
        # bounded coordinates are convex combinations of node images; the clamp is rounding
        return _clamp_points(self.grid, pts + _bilinear(self.grid, self.interpolant, pts),
                             slack=1e-12)

    def __call__(self, points):
        return self.evaluate(points)

    def is_monotone(self):
        """Sorted 1D nodes must map to sorted images (no crossing trajectories)."""
        if self.grid.dim != 1:
            raise ValueError("monotonicity check is a 1D property")
        return bool(np.all(np.diff(self.node_images) > 0))


def _node_displacement(grid, seeds, images):
    """Node displacement with circle components unwrapped to (-L/2, L/2].

    A component beyond L/4 cannot be told apart from its wrap-around
    partner reliably, so it raises IntegrationError.
    """
    disp = (images - seeds).reshape(*grid.shape, grid.dim)
    for i, ax in enumerate(grid.axes):
        if not ax.periodic:
            continue
        d = disp[..., i]
        d -= ax.length * np.ceil(d / ax.length - 0.5)
        worst = float(np.max(np.abs(d)))
        if worst > ax.length / 4:
            raise IntegrationError(
                f"node displacement {worst:.3e} on periodic axis {i} exceeds a quarter "
                f"period ({ax.length / 4:.3e}); the interpolated map would be ambiguous"
            )
    return disp


def moser_map_from_values(rho0_values, rhox_values, grid, x=0.0, steps=256,
                          tol=1e-10, tol_mass=1e-4, c_floor=None):
    """Flow map between two positive grid densities of equal mass."""
    rho0_values = np.asarray(rho0_values, dtype=float)
    rhox_values = np.asarray(rhox_values, dtype=float)
    measured = min(float(rho0_values.min()), float(rhox_values.min()))
    if measured <= 0:
        raise DegeneracyError(f"densities must be positive on the grid (min {measured:.3e})")
    c_min = 0.9 * measured if c_floor is None else c_floor
    rhs = assemble_rhs(rhox_values, rho0_values, grid, tol_mass=tol_mass)
    potential = solve_neumann_poisson(rhs, grid, tol=tol)
    provider = VelocityProvider(grid, potential, rho0_values, rhox_values, c_min)
    if grid.dim == 1:
        seeds = grid.nodes(0)
    else:
        aa, tt = grid.meshes()
        seeds = np.stack([aa.reshape(-1), tt.reshape(-1)], axis=-1)
    images, clamps = integrate_flow(provider, seeds, steps=steps)
    if grid.dim == 1:
        interpolant = PchipInterpolator(seeds, images, extrapolate=False)
    else:
        interpolant = _node_displacement(grid, seeds, images)
    return MoserMap(x=float(x), grid=grid, provider=provider, steps=steps,
                    node_images=images, clamp_events=clamps,
                    interpolant=interpolant), potential


def moser_map(fam, rho0, x, grid, steps=256, tol=1e-10, tol_mass=1e-4):
    """Flow map pushing the reference density rho0 to the family member at x.

    ``rho0`` may be a callable over domain points or a grid array.  Both
    densities must be bounded below by a positive constant on the grid.
    """
    if grid.dim == 1:
        nodes = grid.nodes(0)
        rhox_values = np.asarray(fam.fn(x, nodes), dtype=float)
        rho0_values = rho0(nodes) if callable(rho0) else np.asarray(rho0, dtype=float)
    else:
        aa, tt = grid.meshes()
        rhox_values = np.asarray(fam.fn(x, aa, tt), dtype=float)
        rho0_values = rho0(aa, tt) if callable(rho0) else np.asarray(rho0, dtype=float)
    mm, _ = moser_map_from_values(
        rho0_values, rhox_values, grid, x=x, steps=steps, tol=tol, tol_mass=tol_mass
    )
    return mm
