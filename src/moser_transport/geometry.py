"""Model domains, grids, and PCHIP.

Three flat model domains are supported:

* ``interval``  -- [0, 1] with boundary {0, 1};
* ``cylinder``  -- S^1_L x [0, 1] (flat metric, circumference L > 0) with two
  boundary circles at t = 0 and t = 1;
* ``torus``     -- S^1 x S^1 (unit periods, no boundary).

The collar stage works on the interval only, from the boundary point m = 0,
where its coordinate t is m itself.

``Pchip`` is the monotone cubic interpolant that the 1D Moser map, the
log-log reference profile and the pushforward CDF share.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

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
    def volume(self):
        return self.circumference if self.kind == CYLINDER else 1.0


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


def interval_grid(n, lo=0.0, hi=1.0):
    if n < 2:
        raise ConfigurationError("interval grid needs at least 2 nodes")
    return Grid(axes=(Axis(n=int(n), lo=float(lo), length=float(hi - lo), periodic=False),))


def cylinder_grid(na, nt, circumference=1.0):
    if na < 2 or nt < 2:
        raise ConfigurationError("cylinder grid needs at least 2 nodes per axis")
    return Grid(
        axes=(
            Axis(n=int(na), lo=0.0, length=float(circumference), periodic=True),
            Axis(n=int(nt), lo=0.0, length=1.0, periodic=False),
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


class Pchip:
    """Monotone piecewise cubic Hermite interpolant of 1D data (Fritsch & Butland).

    Reproduces scipy's ``PchipInterpolator`` bit for bit: its weighted
    harmonic-mean interior slopes (0 where the data turn or are flat) and
    one-sided three-point end slopes, the power-basis coefficients of
    ``CubicHermiteSpline``, and ``PPoly``'s evaluation
    ``c3 + c2 s + c1 (s s) + c0 ((s s) s)`` with s = q - x[i] on the
    interval x[i] <= q < x[i + 1] (the last one closed; the end intervals
    extend outwards).  Queries outside [x[0], x[-1]] give NaN unless
    ``extrapolate``.
    """

    def __init__(self, x, y, extrapolate=True):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        h = np.diff(x)
        if x.ndim != 1 or x.size < 2 or y.shape != x.shape or not np.all(h > 0):
            raise ValueError("Pchip needs at least 2 strictly increasing knots and one "
                             "value per knot")
        m = np.diff(y) / h
        d = np.full_like(y, m[0])  # two knots: the chord
        if x.size > 2:
            w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                mean = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
            d[1:-1] = np.where(flat, 0.0, mean)
            d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x, self.extrapolate = x, bool(extrapolate)
        self.c = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])
        self.c[-1] += 0.0  # PPoly's sum starts from +0.0, which turns -0.0 into +0.0

    def derivative(self):
        """The first derivative, a piecewise quadratic with the same knots."""
        out = copy.copy(self)
        out.c = self.c[:-1] * np.arange(len(self.c) - 1, 0, -1.0)[:, None]
        out.c[-1] += 0.0
        return out

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        flat = q.ravel()
        x, c = self.x, self.c
        pick = _interval_picker(x, flat)
        s = flat - pick(x[:-1])
        out = pick(c[-2])
        out *= s
        out += pick(c[-1])
        z = s
        for row in c[-3::-1]:
            z = z * s
            term = pick(row)
            term *= z
            out += term
        if not (self.extrapolate or x[0] <= flat.min(initial=np.inf)
                and flat.max(initial=-np.inf) <= x[-1]):
            out[(flat < x[0]) | (flat > x[-1])] = np.nan
        return out.reshape(q.shape)


def _interval_picker(x, q):
    """A function that takes a row of per-interval values to its value at each query.

    The interval of a query is searchsorted(x, q, side="right") - 1, clipped
    to the first and last intervals.
    """
    if q.size > 2 * x.size and np.all(q[1:] >= q[:-1]):
        # sorted queries, as quadrature nodes come: counting them per interval
        # takes one search per knot, far fewer than one search per query
        first = np.searchsorted(q, x, side="left")
        counts = np.diff(first)
        counts[0] += first[0]
        counts[-1] += q.size - first[-1]
        return lambda row: np.repeat(row, counts)
    i = np.searchsorted(x, q, side="right")
    i -= 1
    np.clip(i, 0, x.size - 2, out=i)
    return lambda row: row.take(i)


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, held to the data's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d
