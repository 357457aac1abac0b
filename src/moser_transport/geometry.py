"""Model domains, grids, and the boundary collar parametrisation.

Three flat model domains are supported:

* ``interval``  -- [0, 1] with boundary {0, 1};
* ``cylinder``  -- S^1_L x [0, 1] (flat metric, circumference L > 0) with two
  boundary circles at t = 0 and t = 1;
* ``torus``     -- S^1 x S^1 (unit periods, no boundary).

The collar chart Q(a, t) maps (boundary coordinate, inward coordinate) pairs
into the domain, restricts to the identity at t = 0 and has unit Jacobian on
all flat domains.  The collar depth is normalised to 1, so for the interval
the chart from one side covers the whole domain; charts from distinct sides
overlap, and injectivity holds per side.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NoCollarError

INTERVAL = "interval"
CYLINDER = "cylinder"
TORUS = "torus"

_KINDS = (INTERVAL, CYLINDER, TORUS)


@dataclass(frozen=True)
class Domain:
    """A validated model domain.  Immutable; safe to share between tasks."""

    kind: str
    circumference: float = 1.0

    @property
    def dim(self):
        return 1 if self.kind == INTERVAL else 2

    @property
    def has_boundary(self):
        return self.kind != TORUS

    @property
    def boundary_sides(self):
        """Side identifiers: 0 is the t=0 component, 1 the t=1 component."""
        return (0, 1) if self.has_boundary else ()

    @property
    def volume(self):
        if self.kind == INTERVAL:
            return 1.0
        if self.kind == CYLINDER:
            return self.circumference
        return 1.0


def make_domain(kind, circumference=1.0):
    """Validate a domain descriptor and return the Domain.

    Raises ConfigurationError for unsupported kinds or a non-positive
    cylinder circumference.
    """
    if kind not in _KINDS:
        raise ConfigurationError(f"unsupported domain kind {kind!r}; expected one of {_KINDS}")
    if kind == CYLINDER and not circumference > 0:
        raise ConfigurationError(f"cylinder circumference must be > 0, got {circumference}")
    if kind != CYLINDER:
        circumference = 1.0
    return Domain(kind=kind, circumference=float(circumference))


def _check_collar_args(domain, t):
    if not domain.has_boundary:
        raise NoCollarError(f"domain {domain.kind!r} has no boundary, hence no collar")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t > 1):
        raise ConfigurationError("collar coordinate t must lie in [0, 1]")
    return t


def _interval_side(a, side):
    if side is None:
        side = int(round(float(a)))
    if side not in (0, 1):
        raise ConfigurationError(f"interval boundary coordinate must be 0 or 1, got {a}")
    return side


def collar_chart(domain, a, t, side=None):
    """Map collar coordinates (a, t) to a point of the domain.

    For the interval, ``a`` itself names the boundary point (0 or 1).  For
    the cylinder ``a`` is the circle coordinate and ``side`` selects the
    boundary circle (default 0, the t=0 circle).  At t=0 the chart is the
    identity on the boundary.
    """
    t = _check_collar_args(domain, t)
    if domain.kind == INTERVAL:
        side = _interval_side(a, side)
        return t if side == 0 else 1.0 - t
    a = np.asarray(a, dtype=float) % domain.circumference
    side = 0 if side is None else side
    if side not in (0, 1):
        raise ConfigurationError(f"cylinder boundary side must be 0 or 1, got {side}")
    return (a, t) if side == 0 else (a, 1.0 - t)


@dataclass(frozen=True)
class Axis:
    """One grid axis: n nodes starting at lo, periodic axes wrap at lo+length."""

    n: int
    lo: float
    length: float
    periodic: bool

    @property
    def spacing(self):
        return self.length / self.n if self.periodic else self.length / (self.n - 1)

    @property
    def nodes(self):
        if self.periodic:
            return self.lo + self.spacing * np.arange(self.n)
        return np.linspace(self.lo, self.lo + self.length, self.n)

    @property
    def weights(self):
        """Quadrature weights: uniform for periodic axes, trapezoid otherwise."""
        if self.periodic:
            return np.full(self.n, self.spacing)
        w = np.full(self.n, self.spacing)
        w[0] = w[-1] = 0.5 * self.spacing
        return w


@dataclass(frozen=True)
class Grid:
    """Tensor-product grid over one or two axes.

    Node counts that are powers of two interact best with the refinement
    studies, but any n >= 2 per axis is accepted.
    """

    axes: tuple

    @property
    def dim(self):
        return len(self.axes)

    @property
    def shape(self):
        return tuple(ax.n for ax in self.axes)

    def nodes(self, i=0):
        return self.axes[i].nodes

    def meshes(self):
        arrays = [ax.nodes for ax in self.axes]
        return np.meshgrid(*arrays, indexing="ij")

    def weight_field(self):
        if self.dim == 1:
            return self.axes[0].weights
        return np.multiply.outer(self.axes[0].weights, self.axes[1].weights)

    def integrate(self, field):
        """Discrete integral of a node field with the grid's quadrature weights."""
        return float(np.sum(self.weight_field() * np.asarray(field)))

    def boundary_mask(self):
        """True at nodes on the domain boundary (non-periodic axis endpoints)."""
        mask = np.zeros(self.shape, dtype=bool)
        for i, ax in enumerate(self.axes):
            if ax.periodic:
                continue
            index = [slice(None)] * self.dim
            index[i] = 0
            mask[tuple(index)] = True
            index[i] = -1
            mask[tuple(index)] = True
        return mask


def interval_grid(n, lo=0.0, hi=1.0):
    if n < 2:
        raise ConfigurationError("interval grid needs at least 2 nodes")
    return Grid(axes=(Axis(n=int(n), lo=float(lo), length=float(hi - lo), periodic=False),))


def cylinder_grid(na, nt, circumference=1.0, t_lo=0.0, t_hi=1.0):
    if na < 2 or nt < 2:
        raise ConfigurationError("cylinder grid needs at least 2 nodes per axis")
    return Grid(
        axes=(
            Axis(n=int(na), lo=0.0, length=float(circumference), periodic=True),
            Axis(n=int(nt), lo=float(t_lo), length=float(t_hi - t_lo), periodic=False),
        )
    )


def torus_grid(n1, n2):
    if n1 < 2 or n2 < 2:
        raise ConfigurationError("torus grid needs at least 2 nodes per axis")
    return Grid(
        axes=(
            Axis(n=int(n1), lo=0.0, length=1.0, periodic=True),
            Axis(n=int(n2), lo=0.0, length=1.0, periodic=True),
        )
    )


def default_grid(domain, n):
    """Grid matching the domain with n nodes per axis."""
    if domain.kind == INTERVAL:
        return interval_grid(n)
    if domain.kind == CYLINDER:
        return cylinder_grid(n, n, circumference=domain.circumference)
    return torus_grid(n, n)
