"""Interior flow coupling for families bounded below.

Pipeline per parameter value: assemble the compatible right-hand side
rho_x - rho_0, solve the Neumann-Poisson problem -Lap(u) = rhs with zero
normal derivative and zero mean, form the time-dependent velocity
V_t = grad(u) / (rho_0 + t (rho_x - rho_0)), and integrate the flow ODE
from t=0 to t=1 with classical fixed-step RK4.  The time-one map pushes
the reference density to the target density.

Discretisation is second-order: a P1 stiffness flux stencil (mirror-reflection
Neumann closure on bounded axes, periodic wrap on circles) and trapezoid /
uniform lumped quadrature.  M^-1 K is diagonalised exactly by DCT-I on
bounded axes and FFT on periodic ones, so the Poisson solve is one direct
transform pair.  Both come from numpy's real FFT: DCT-I is the real FFT
of the even extension, and a periodic axis takes a real FFT and its
Hermitian fill.  On the interval and the cylinder this is scipy.fft's
arithmetic bit for bit; on the torus (two periodic axes) scipy fills the
self-conjugate columns in its own way, so the two differ in the last bit
(about 5e-16 relative).  RK4 runs once per build, over the grid nodes,
through one multilinear interpolator; map queries interpolate the node
images (PCHIP in 1D, the multilinear node displacement in 2D).

``moser_map_from_values`` is the one build path.  It takes a plan: one or
more parameter values whose densities are known up front, and returns one
MoserMap per value, each carrying its potential.  Each value gets its own
mass balance, Poisson solve and velocity floor.  In 1D one RK4 sweep then
runs over the node seeds of every value, stacked side by side by
``VelocityProvider.stack``; each block of seeds reads its own value's node
data through an index offset, so its arithmetic, and its images bit for
bit, are those of a sweep on its own.  2D runs one sweep per value: its
node data outgrows the cache once stacked, which made a stacked sweep
slower.  ``TransportFamily.prefetch`` makes these plans, so its caches are
full before any worker thread reads them.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, IntegrationError, MassMismatchError, SolverError
from .geometry import Grid, Pchip


def apply_stiffness(grid, u):
    """K u for the P1 stiffness K, as the flux stencil (u[i+1] - u[i]) / h.

    Bounded axes close with zero flux across their ends (the mirror
    Neumann closure), periodic axes wrap; in 2D each axis's term carries
    the other axis's quadrature weights.  K is symmetric PSD and its
    nullspace is the constants.
    """
    out = np.zeros(grid.shape)
    for i, ax in enumerate(grid.axes):
        if ax.periodic:
            flux = (np.roll(u, -1, axis=i) - u) / ax.spacing
            term = np.roll(flux, 1, axis=i) - flux
        else:  # repeating the end values makes the end fluxes zero
            du = np.diff(u, axis=i, prepend=u.take([0], axis=i), append=u.take([-1], axis=i))
            term = -np.diff(du / ax.spacing, axis=i)
        if grid.dim == 2:
            other = grid.axes[1 - i].weights
            term = term * (other if i == 0 else other[:, None])
        out += term
    return out


@dataclass
class PotentialField:
    """Discrete solution u of the Neumann-Poisson problem on a grid."""

    grid: Grid
    values: np.ndarray
    residual: float
    iterations: int


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


def _dct1(c, axis, norm=None):
    """DCT-I along ``axis``: the real FFT of the even extension, real part.

    ``norm="forward"`` scales by 1 / (2 (n - 1)), which makes it the inverse.
    This is scipy.fft's DCT-I arithmetic, bit for bit: both run pocketfft's
    real FFT on the same extension.
    """
    mirror = [slice(None)] * c.ndim
    mirror[axis] = slice(-2, 0, -1)
    even = np.concatenate([c, c[tuple(mirror)]], axis=axis)
    return np.fft.rfft(even, axis=axis, norm=norm).real


def _fft_real(c, axes):
    """fftn of real ``c`` over ``axes``.

    A real FFT along the last axis, complex FFTs of that half spectrum along
    the others, and the Hermitian fill X[-k] = conj(X[k]) for the rest.  Over
    one axis this is scipy.fft's arithmetic bit for bit.
    """
    last = axes[-1]
    half = np.fft.rfft(c, axis=last)
    for ax in axes[:-1]:
        half = np.fft.fft(half, axis=ax)
    n = c.shape[last]
    rest = np.conj(half.take(range((n - 1) // 2, 0, -1), axis=last))
    for ax in axes[:-1]:
        rest = np.roll(np.flip(rest, axis=ax), 1, axis=ax)
    return np.concatenate([half, rest], axis=last)


def _spectral_solve(grid, lam, f):
    """u with M^-1 K u = f, f's constant mode dropped."""
    bounded = [i for i, ax in enumerate(grid.axes) if not ax.periodic]
    periodic = [i for i, ax in enumerate(grid.axes) if ax.periodic]
    c = f
    for i in bounded:
        c = _dct1(c, i)
    if periodic:
        c = _fft_real(c, periodic)
    c = c / lam
    if periodic:
        # numpy transforms the listed axes last first: reversed, they run in scipy's order
        c = np.fft.ifftn(c, axes=periodic[::-1]).real
    for i in bounded:
        c = _dct1(c, i, norm="forward")
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

    lam = _eigenvalues(grid)
    volume = grid.integrate(np.ones(grid.shape))
    u = np.zeros(grid.shape)
    r = b
    for iterations in (1, 2):
        u = u + _spectral_solve(grid, lam, r / w)
        u = u - grid.integrate(u) / volume
        r = b - apply_stiffness(grid, u)
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


_CORNERS = np.array([[0], [1]], dtype=np.intp)


def _multilinear(grid, F, points, offset=None):
    """Interpolate fields-major node data F (nf, n_nodes) at (N,) or (N, 2) points.

    Returns (nf, N).  Cell and fraction follow from the uniform spacing;
    periodic axes wrap, bounded axes hold their end values outside the grid.
    ``offset`` (one entry per point) is added to the flat node index, so F
    may hold the node data of several same-shaped grids side by side.
    """
    pts = points.reshape(-1, grid.dim)
    flat, fracs, stride = None, [], 1
    for i in reversed(range(grid.dim)):
        ax = grid.axes[i]
        rel = (pts[:, i] - ax.lo) / ax.spacing
        if ax.periodic:
            cell = np.floor(rel)
            corner = cell.astype(np.intp) + _CORNERS
            if i > 0:  # take(mode="wrap") below wraps the leading axis
                corner %= ax.n
        else:
            np.minimum(np.maximum(rel, 0.0, out=rel), ax.n - 1, out=rel)
            cell = np.minimum(rel.astype(np.intp), ax.n - 2)
            corner = cell + _CORNERS
        fracs.append(rel - cell)
        # the corner pair of axis i on its own axis of a (2,) * dim + (N,) index
        corner = corner.reshape((1,) * i + (2,) + (1,) * (grid.dim - 1 - i) + (-1,))
        flat = corner if flat is None else flat + corner * stride
        stride *= ax.n
    if offset is not None:
        flat += offset
    vals = F.take(flat, axis=1, mode="wrap")
    for frac in reversed(fracs):
        # in place: fresh temporaries of this size cost more than the arithmetic
        lerp = vals[:, 1] - vals[:, 0]
        lerp *= frac
        lerp += vals[:, 0]
        vals = lerp
    return vals


class VelocityProvider:
    """Evaluates V_t(p) = grad u (p) / (rho0(p) + t (rho_x(p) - rho0(p))).

    Gradient and densities are interpolated multilinearly from their grid
    samples; the time dependence enters only through the denominator, so a
    single potential solve serves all deformation times.  ``node_data``
    holds grad u, rho0 and rho_x - rho0 fields-major; ``offset``, set only
    on a stacked provider, is added to each point's flat node index.
    """

    def __init__(self, grid, potential, rho0_values, rhox_values, c_min):
        self.grid = grid
        rho0 = np.asarray(rho0_values, dtype=float)
        drho = np.asarray(rhox_values, dtype=float) - rho0
        self.c_min = float(c_min)
        for t_end in (0.0, 1.0):
            eta = rho0 + t_end * drho
            if np.min(eta) < self.c_min:
                idx = np.unravel_index(int(np.argmin(eta)), eta.shape)
                coords = tuple(float(grid.axes[i].nodes[idx[i]]) for i in range(grid.dim))
                raise DegeneracyError(
                    f"interpolated density {np.min(eta):.3e} below floor {self.c_min:.3e} "
                    f"at node {coords} (t={t_end:g})"
                )
        fields = np.stack([*gradient(grid, potential.values), rho0, drho])
        self.node_data = fields.reshape(grid.dim + 2, -1)
        self.offset = None

    @classmethod
    def stack(cls, providers):
        """The providers of one grid as one provider over their node seeds, side by side.

        Point block b (one point per grid node) reads provider b's node data,
        with the same arithmetic per point as that provider.  The grid's
        leading axis must be bounded: ``_multilinear`` wraps a periodic one
        over the whole node array, which would cross into the next block.
        """
        if providers[0].grid.axes[0].periodic:
            raise ValueError("stacked providers need a bounded leading axis; a periodic "
                             "one would wrap into the neighbouring block")
        stacked = copy.copy(providers[0])
        n = stacked.node_data.shape[1]
        stacked.node_data = np.concatenate([p.node_data for p in providers], axis=1)
        stacked.offset = np.repeat(np.arange(len(providers)) * n, n)
        return stacked

    def __call__(self, t, points):
        dim = self.grid.dim
        vals = _multilinear(self.grid, self.node_data, points, self.offset)
        v = vals[:dim] / (vals[dim] + t * vals[dim + 1])
        return (v[0] if dim == 1 else v.T).reshape(np.shape(points))

    def snapshot(self, t):
        """The velocity components at deformation time t, as grid arrays."""
        *grad, rho0, drho = self.node_data.reshape(self.grid.dim + 2, *self.grid.shape)
        eta = rho0 + t * drho
        return tuple(g / eta for g in grad)


def _clamp_bounded(grid, pts, slack=None, counter=None):
    """Clamp bounded coordinates onto the grid; no copy when all lie on it.

    One more than ``slack`` (default one cell) outside raises IntegrationError,
    which carries the offending point's index; clamps of more than 1e-12 are
    added to ``counter`` (one entry per point) if given.
    """
    cols = pts.reshape(-1, grid.dim)
    for i, ax in enumerate(grid.axes):
        c = cols[:, i]
        lo, hi = ax.lo, ax.lo + ax.length
        if ax.periodic or (lo <= c.min(initial=lo) and c.max(initial=hi) <= hi):
            continue
        over = np.maximum(lo - c, c - hi)
        allowed = ax.spacing if slack is None else slack
        if np.any(over > allowed):
            worst = int(np.argmax(over))
            raise IntegrationError(
                f"point {float(c[worst]):.6g} lies {float(over[worst]):.3e} "
                f"outside [{lo:g}, {hi:g}] on axis {i} (allowed {allowed:.3e})",
                point=worst,
            )
        if counter is not None:
            counter += over > 1e-12
        pts = pts.copy()
        cols = pts.reshape(-1, grid.dim)
        cols[:, i] = np.clip(c, lo, hi)
    return pts


def _wrap_periodic(grid, pts):
    """Periodic coordinates wrapped into [lo, lo + length)."""
    cols = np.array(pts, dtype=float).reshape(-1, grid.dim)
    for i, ax in enumerate(grid.axes):
        if ax.periodic:
            cols[:, i] = ax.lo + (cols[:, i] - ax.lo) % ax.length
    return cols.reshape(np.shape(pts))


def integrate_flow(provider, points, steps=256, clamps=None):
    """Classical RK4 over deformation time with fixed step 1/steps.

    Returns (end points, clamp event count); periodic coordinates are
    wrapped once at the end.  ``clamps`` (an int array, one entry per
    point), if given, receives each point's clamp events.  Builds run it
    over the grid nodes; it also serves as the oracle for MoserMap.evaluate.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    grid = provider.grid
    pts = np.array(points, dtype=float)
    dt = 1.0 / steps
    counter = np.zeros(pts.size // grid.dim, dtype=np.intp)

    def clamp(p):
        return _clamp_bounded(grid, p, counter=counter)

    for k in range(steps):
        t = k * dt
        p0 = pts
        k1 = provider(t, p0)
        k2 = provider(t + dt / 2, clamp(p0 + dt / 2 * k1))
        k3 = provider(t + dt / 2, clamp(p0 + dt / 2 * k2))
        k4 = provider(t + dt, clamp(p0 + dt * k3))
        pts = clamp(p0 + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    if clamps is not None:
        clamps += counter
    return _wrap_periodic(grid, pts), int(counter.sum())


@dataclass
class MoserMap:
    """Time-one flow map for one parameter value.

    Queries interpolate the RK4 images of the grid nodes: PCHIP in 1D,
    which keeps the map strictly monotone and inside the interval, and
    the multilinear node displacement in 2D.
    """

    x: float
    grid: Grid
    potential: PotentialField
    provider: VelocityProvider
    steps: int
    node_images: np.ndarray
    clamp_events: int
    interpolant: object = field(repr=False)  # PCHIP (1D) or fields-major displacement (2D)

    def evaluate(self, points):
        """Map points inside the grid; more than 1e-12 outside raises IntegrationError."""
        pts = _clamp_bounded(self.grid, np.asarray(points, dtype=float), slack=1e-12)
        if self.grid.dim == 1:
            # PCHIP through monotone data stays within it; the clip only removes rounding
            return np.clip(self.interpolant(pts), self.node_images[0], self.node_images[-1])
        # bounded coordinates are convex combinations of node images; the clamp is rounding
        moved = pts + _multilinear(self.grid, self.interpolant, pts).T.reshape(pts.shape)
        return _wrap_periodic(self.grid, _clamp_bounded(self.grid, moved, slack=1e-12))

    def is_monotone(self):
        """Sorted 1D nodes must map to sorted images (no crossing trajectories)."""
        if self.grid.dim != 1:
            raise ValueError("monotonicity check is a 1D property")
        return bool(np.all(np.diff(self.node_images) > 0))


def _node_displacement(grid, seeds, images):
    """Fields-major node displacement (dim, n_nodes), circles unwrapped to (-L/2, L/2].

    A component beyond L/4 cannot be told apart from its wrap-around
    partner reliably, so it raises IntegrationError.
    """
    disp = (images - seeds).T.copy()
    for i, ax in enumerate(grid.axes):
        if not ax.periodic:
            continue
        d = disp[i]
        d -= ax.length * np.ceil(d / ax.length - 0.5)
        worst = float(np.max(np.abs(d)))
        if worst > ax.length / 4:
            raise IntegrationError(
                f"node displacement {worst:.3e} on periodic axis {i} exceeds a quarter "
                f"period ({ax.length / 4:.3e}); the interpolated map would be ambiguous"
            )
    return disp


def _stage_error(exc, stage, x):
    return type(exc)(f"{stage} at x={float(x)!r}: {exc}")


def _flow_setup(rho0_values, rhox_values, grid, x, tol, tol_mass, c_floor):
    """Mass balance, Poisson solve and velocity floor for one x: (potential, provider)."""
    rhox_values = np.asarray(rhox_values, dtype=float)
    measured = min(float(rho0_values.min()), float(rhox_values.min()))
    if measured <= 0:
        raise DegeneracyError(f"densities must be positive on the grid at x={float(x)!r} "
                              f"(min {measured:.3e})")
    c_min = 0.9 * measured if c_floor is None else c_floor
    stage = "mass balance"
    try:
        rhs = assemble_rhs(rhox_values, rho0_values, grid, tol_mass=tol_mass)
        stage = "Poisson solve"
        potential = solve_neumann_poisson(rhs, grid, tol=tol)
        stage = "velocity floor"
        return potential, VelocityProvider(grid, potential, rho0_values, rhox_values, c_min)
    except (MassMismatchError, SolverError, DegeneracyError) as exc:
        raise _stage_error(exc, stage, x) from exc


def _sweep(grid, providers, xs, seeds, steps):
    """(node images, clamp events) per x: one stacked RK4 sweep in 1D, one per x in 2D."""
    if grid.dim == 2:
        out = []
        for provider, x in zip(providers, xs):
            try:
                out.append(integrate_flow(provider, seeds, steps=steps))
            except IntegrationError as exc:
                raise _stage_error(exc, "RK4 sweep", x) from exc
        return out
    n = seeds.size
    clamps = np.zeros(n * len(providers), dtype=np.intp)
    try:
        images, _ = integrate_flow(VelocityProvider.stack(providers),
                                   np.tile(seeds, len(providers)), steps=steps, clamps=clamps)
    except IntegrationError as exc:
        raise _stage_error(exc, "RK4 sweep", xs[exc.point // n]) from exc
    return list(zip(images.reshape(-1, n), clamps.reshape(-1, n).sum(axis=1)))


def moser_map_from_values(rho0_values, rhox_values, grid, xs, steps=256,
                          tol=1e-10, tol_mass=1e-4, c_floor=None):
    """Flow maps of a plan: one MoserMap per value of ``xs``, in plan order.

    ``rhox_values`` holds one grid density per value, each positive and of
    the mass of ``rho0_values``; the maps are built as the module docstring
    describes.  Errors name their stage and the x they belong to; the first
    failing value stops the plan.
    """
    rho0_values = np.asarray(rho0_values, dtype=float)
    setups = [_flow_setup(rho0_values, rhox, grid, x, tol, tol_mass, c_floor)
              for x, rhox in zip(xs, rhox_values)]
    providers = [provider for _, provider in setups]
    seeds = (grid.nodes(0) if grid.dim == 1
             else np.stack([c.reshape(-1) for c in grid.meshes()], axis=-1))
    built = []
    for x, (potential, provider), (images, clamps) in zip(
            xs, setups, _sweep(grid, providers, xs, seeds, steps)):
        try:
            interpolant = (Pchip(seeds, images, extrapolate=False) if grid.dim == 1
                           else _node_displacement(grid, seeds, images))
        except IntegrationError as exc:
            raise _stage_error(exc, "node displacement", x) from exc
        built.append(MoserMap(x=float(x), grid=grid, potential=potential, provider=provider,
                              steps=steps, node_images=images, clamp_events=int(clamps),
                              interpolant=interpolant))
    return built


def moser_map(fam, rho0, x, grid, steps=256, tol=1e-10, tol_mass=1e-4):
    """Flow map pushing the reference density rho0 to the family member at x.

    ``rho0`` may be a callable over domain points or a grid array.  Both
    densities must be bounded below by a positive constant on the grid.
    """
    coords = grid.meshes()
    rho0_values = rho0(*coords) if callable(rho0) else rho0
    [mm] = moser_map_from_values(rho0_values, [fam.fn(x, *coords)], grid, [x], steps=steps,
                                 tol=tol, tol_mass=tol_mass)
    return mm
