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
bounded axes and FFT on periodic ones, both from numpy's real FFT
(``_dct1``, ``_fft_real``), so the Poisson solve is one direct transform
pair.  RK4 runs over grid nodes, never over query points, through one
multilinear interpolator; map queries interpolate the node images (PCHIP
in 1D, the multilinear node displacement in 2D).  The interpolator reads
difference rows (``_difference_rows``), built per sweep or 2D query, never stored.

``moser_map_from_values`` is the one build path.  It takes a plan: one or
more parameter values whose densities are known up front, and optionally
the points the maps will be queried at.  It returns one MoserMap per
value, each carrying its potential.  Each value gets its own mass balance,
Poisson solve and velocity floor.  RK4 then sweeps the node seeds of
several values at once (``_sweep``, about ``_SWEEP_POINTS`` points a
sweep), side by side: each block reads its own value's node data through
an index offset (``VelocityProvider.stack``).  The seeds are only the
nodes the planned points read (``_reads``), and such a partial map raises
for a query that reads any other node.  RK4 moves each point on its own,
so an image is the same bit for bit whichever sweep computed it.  A map
never changes once built.
"""

import copy
import math
from dataclasses import dataclass

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
    one axis this is scipy.fft's arithmetic bit for bit; over two (the torus)
    scipy fills the self-conjugate columns its own way, about 5e-16 relative apart.
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
    bnorm = math.sqrt(float(np.sum(b * b)))  # no BLAS call: its threads cost more than the sum
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
        residual = math.sqrt(float(np.sum(r * r))) / bnorm
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


def _axis_constants(grid):
    """(lo, spacing, n, periodic) of each axis, as ``_lookup`` reads them."""
    return tuple((ax.lo, ax.spacing, ax.n, ax.periodic) for ax in grid.axes)


def _next(grid, axis):
    """Each node's flat neighbour up ``axis``: wrapped on a circle, held at a bounded end."""
    ax = grid.axes[axis]
    up = np.arange(1, ax.n + 1)
    up[-1] = 0 if ax.periodic else ax.n - 1
    return np.arange(math.prod(grid.shape)).reshape(grid.shape).take(up, axis=axis).ravel()


def _lookup(axes, points, next1=None):
    """(index, fracs): the flat index of each (N,) or (N, 2) point's lower cell node, or
    in 2D with ``next1 = _next(grid, 1)`` the (2, N) pair of it and the node up axis 1,
    and the fraction on each axis.  Periodic axes wrap and bounded ones hold their ends,
    so every index lies in [0, n_nodes) and an offset moves it into another block."""
    pts = points.reshape(-1, len(axes))
    index, fracs = None, []
    for i, (lo, spacing, n, periodic) in enumerate(axes):
        rel = (pts[:, i] - lo) / spacing
        if periodic:
            cell = np.floor(rel)
            lower = cell.astype(np.intp)
            lower %= n
        else:
            np.minimum(np.maximum(rel, 0.0, out=rel), n - 1, out=rel)
            cell = lower = np.minimum(rel.astype(np.intp), n - 2)
        fracs.append(rel - cell)
        index = lower if index is None else index * n + lower
    return (index if next1 is None else np.stack([index, next1.take(index)])), fracs


def _difference_rows(grid, blocks):
    """Fields-major node data blocks (nf, n_nodes) of one grid side by side, over their
    differences F[up] - F to the node up axis 0 (``_next``): (2 nf, n_blocks n_nodes)."""
    nf = len(blocks[0])
    rows = np.empty((2 * nf, len(blocks) * blocks[0].shape[1]))
    f, d = (half.reshape(nf, len(blocks), -1) for half in np.split(rows, 2))
    np.concatenate(blocks, axis=1, out=rows[:nf])
    f.take(_next(grid, 0), axis=2, out=d, mode="clip")
    d -= f
    return rows


def _interpolate(rows, index, fracs):
    """``_difference_rows`` interpolated at the cells of ``_lookup``: (nf, N).  The lerp
    along axis 0 is D f0 + F, the arithmetic of (F1 - F0) f0 + F0."""
    vals = rows.take(index, axis=1)
    nf = len(rows) // 2
    lerp = vals[nf:]
    # in place: fresh temporaries of this size cost more than the arithmetic
    lerp *= fracs[0]
    lerp += vals[:nf]
    if len(fracs) == 2:
        low = lerp[:, 0]
        lerp = lerp[:, 1] - low
        lerp *= fracs[1]
        lerp += low
    return lerp


def _reads(grid, points):
    """The flat indices of the nodes a map query at (N,) or (N, 2) ``points`` reads.

    In 2D: the four corners of each point's cell (``_lookup``).  In 1D: each
    point's PCHIP cell i reads only nodes i - 1 ... i + 2, and
    ``MoserMap.evaluate`` clips to the two end nodes.
    """
    if grid.dim == 2:
        pair, _ = _lookup(_axis_constants(grid), points, _next(grid, 1))
        return np.concatenate([pair, _next(grid, 0).take(pair)])
    n = grid.axes[0].n
    cell = np.clip(np.searchsorted(grid.nodes(0), np.ravel(points), side="right") - 1, 0, n - 2)
    stencil = np.clip(cell + np.arange(-1, 3)[:, None], 0, n - 1)
    return np.concatenate([stencil.ravel(), [0, n - 1]])


class VelocityProvider:
    """Evaluates V_t(p) = grad u (p) / (rho0(p) + t (rho_x(p) - rho0(p))).

    Gradient and densities are interpolated multilinearly from their grid
    samples; the time dependence enters only through the denominator, so a
    single potential solve serves all deformation times.  ``node_data``
    holds grad u, rho0 and rho_x - rho0 fields-major.  ``stack`` builds the
    difference rows of a sweep, which no provider stores (called unstacked, a
    provider builds its own for the call).
    """

    rows = None

    def __init__(self, grid, potential, rho0_values, rhox_values, c_min):
        self.grid = grid
        self.axes = _axis_constants(grid)
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

    @classmethod
    def stack(cls, providers, n_seeds):
        """The velocity of one sweep over blocks of ``n_seeds`` points side by side: block
        b reads provider b's difference rows through an offset of b node counts, with
        that provider's arithmetic per point."""
        stacked = copy.copy(providers[0])
        grid, n, k = stacked.grid, stacked.node_data.shape[1], len(providers)
        stacked.rows = _difference_rows(grid, [p.node_data for p in providers])
        stacked.next1 = _next(grid, 1) if grid.dim == 2 else None
        stacked.offset = np.repeat(np.arange(k) * n, n_seeds) if k > 1 else None
        return stacked

    def __call__(self, t, points):
        if self.rows is None:
            return self.stack([self], None)(t, points)
        dim = self.grid.dim
        index, fracs = _lookup(self.axes, points, self.next1)
        if self.offset is not None:
            index += self.offset
        vals = _interpolate(self.rows, index, fracs)
        v = vals[:dim]
        v /= vals[dim] + t * vals[dim + 1]
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
        if not np.all(over <= allowed):  # a NaN coordinate fails too
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


@dataclass(eq=False)
class MoserMap:
    """Time-one flow map for one parameter value.

    Queries interpolate the RK4 images of the grid nodes: PCHIP in 1D,
    which keeps the map strictly monotone and inside the interval, and
    the multilinear node displacement in 2D.

    A map may hold only the nodes its plan's points read: ``done`` marks them
    (None when it holds all), the others hold their own positions, and a query
    that reads one, or ``node_images``, raises IntegrationError.  ``clamp_events``
    counts the clamps of the nodes it holds.  A map never changes once built,
    which the caches rely on.
    """

    x: float
    grid: Grid
    potential: PotentialField
    provider: VelocityProvider
    _images: np.ndarray
    interpolant: object  # PCHIP (1D) or fields-major displacement (2D)
    clamp_events: int
    done: np.ndarray = None

    def _require(self, nodes=slice(None)):
        """Raise IntegrationError unless the flat ``nodes`` were integrated."""
        if self.done is not None and not self.done[nodes].all():
            raise IntegrationError(f"query at x={self.x!r}: reads grid nodes that this "
                                   f"map's plan never integrated")

    @property
    def node_images(self):
        """RK4 images of all grid nodes, (n,) in 1D or (n_nodes, 2) in 2D."""
        self._require()
        return self._images

    def evaluate(self, points):
        """Map points inside the grid; a point that is not finite, or that lies more
        than 1e-12 outside, raises IntegrationError."""
        pts = np.asarray(points, dtype=float)
        if not np.isfinite(pts).all():
            rows = pts.reshape(-1, self.grid.dim)
            bad = int(np.argmin(np.isfinite(rows).all(axis=1)))
            raise IntegrationError(f"query at x={self.x!r}: point {rows[bad].tolist()} is not "
                                   f"finite", point=bad)
        pts = _clamp_bounded(self.grid, pts, slack=1e-12)
        if self.done is not None:  # a complete map reads every node
            self._require(_reads(self.grid, pts))
        if self.grid.dim == 1:
            # PCHIP through monotone data stays within it; the clip only removes rounding
            return np.clip(self.interpolant(pts), self._images[0], self._images[-1])
        # bounded coordinates are convex combinations of node images; the clamp is rounding
        disp = _interpolate(_difference_rows(self.grid, [self.interpolant]),
                            *_lookup(self.provider.axes, pts, _next(self.grid, 1)))
        moved = pts + disp.T.reshape(pts.shape)
        return _wrap_periodic(self.grid, _clamp_bounded(self.grid, moved, slack=1e-12))


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
        worst = float(np.max(np.abs(d), initial=0.0))
        if worst > ax.length / 4:
            raise IntegrationError(
                f"node displacement {worst:.3e} on periodic axis {i} exceeds a quarter "
                f"period ({ax.length / 4:.3e}); the interpolated map would be ambiguous"
            )
    return disp


def _stage_error(exc, stage, x):
    return type(exc)(f"{stage} at x={float(x)!r}: {exc}")


def _flow_setup(rho0_values, rhox_values, grid, x, tol, tol_mass):
    """Mass balance, Poisson solve and velocity floor for one x: (potential, provider)."""
    rhox_values = np.asarray(rhox_values, dtype=float)
    measured = float(np.minimum(rho0_values.min(), rhox_values.min()))  # NaN if either has one
    if not measured > 0:
        raise DegeneracyError(f"densities must be positive on the grid at x={float(x)!r} "
                              f"(min {measured:.3e})")
    c_min = 0.9 * measured
    stage = "mass balance"
    try:
        rhs = assemble_rhs(rhox_values, rho0_values, grid, tol_mass=tol_mass)
        stage = "Poisson solve"
        potential = solve_neumann_poisson(rhs, grid, tol=tol)
        stage = "velocity floor"
        return potential, VelocityProvider(grid, potential, rho0_values, rhox_values, c_min)
    except (MassMismatchError, SolverError, DegeneracyError) as exc:
        raise _stage_error(exc, stage, x) from exc


# Points per stacked RK4 sweep: enough to spread each step's fixed cost, few enough
# to keep its temporaries small (4,096 raised the 48^2 cylinder scan's peak RSS 5 %).
_SWEEP_POINTS = 2048


def _sweep(grid, providers, xs, seeds, steps):
    """(images of ``seeds``, clamp events) per x, from stacked RK4 sweeps in plan order.

    Each sweep stacks ``max(1, _SWEEP_POINTS // len(seeds))`` values.  An
    IntegrationError stops at the first chunk that raises it and names the
    x of the point that raised it.
    """
    m, out = len(seeds), []
    per = max(1, _SWEEP_POINTS // max(m, 1))
    for start in range(0, len(providers), per):
        chunk = providers[start:start + per]
        k = len(chunk)
        clamps = np.zeros(m * k, dtype=np.intp)
        try:
            images, _ = integrate_flow(VelocityProvider.stack(chunk, m),
                                       np.concatenate([seeds] * k), steps=steps, clamps=clamps)
        except IntegrationError as exc:
            raise _stage_error(exc, "RK4 sweep", xs[start + exc.point // m]) from exc
        out += zip(np.split(images, k), clamps.reshape(k, m).sum(axis=1))
    return out


def moser_map_from_values(rho0_values, rhox_values, grid, xs, steps=256,
                          tol=1e-10, tol_mass=1e-4, points=None):
    """Flow maps of a plan: one MoserMap per value of ``xs``, in plan order.

    ``rhox_values`` holds one grid density per value, each positive and of
    the mass of ``rho0_values``; the maps integrate only the nodes that
    ``points`` read (every node when None), as the module docstring says.
    Errors name their stage and x.  A plan stops at its first failing setup,
    else at its first failing sweep, naming the value whose point left the
    grid first (in a chunk, not necessarily its first failing value), else,
    in 2D, at its first failing node displacement.
    """
    rho0_values = np.asarray(rho0_values, dtype=float)
    setups = [_flow_setup(rho0_values, rhox, grid, x, tol, tol_mass)
              for x, rhox in zip(xs, rhox_values)]
    done = np.full(rho0_values.size, points is None)
    if points is not None:
        done[_reads(grid, np.asarray(points, dtype=float))] = True
    todo = np.flatnonzero(done)
    nodes = np.stack(grid.meshes(), axis=-1).reshape(done.size, -1).squeeze()  # (n,) in 1D
    built = []
    for x, (potential, provider), (images, clamps) in zip(
            xs, setups, _sweep(grid, [pv for _, pv in setups], xs, nodes[todo], steps)):
        held = nodes.copy()  # a node no planned point reads holds its own position
        held[todo] = images
        if grid.dim == 1:
            interpolant = Pchip(nodes, held, extrapolate=False)
        else:
            try:
                interpolant = _node_displacement(grid, nodes, held)
            except IntegrationError as exc:
                raise _stage_error(exc, "node displacement", x) from exc
        built.append(MoserMap(float(x), grid, potential, provider, held, interpolant,
                              int(clamps), None if done.all() else done))
    return built
