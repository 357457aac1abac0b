"""Closed-form oracles shared by several test modules.

``CDF`` holds the cumulative mass int_0^m rho(x, s) ds of the four builtins
that have one in closed form; ``CDF["h_power"]`` takes the builtin's alpha.
``DENSITY`` holds the one-line formulas of the example1 and example2 hand
evaluators, with every power taken by pow.  ``tent_axis_weights`` integrates
the tent weight functions of the 2D pushforward deposit along one axis, and
``cic_deposit_add_at`` is that deposit as four np.add.at calls, one a corner.
``CornerVelocity`` is the RK4 velocity of stacked providers as a gather of
every cell corner computes it (``corners``, ``blend``), and ``corner_query``
the 2D map query in the same arithmetic: the oracles of the difference-row
interpolation of ``moser``.
"""

import numpy as np

from moser_transport.density import _ex2_oscillatory_mass, symmetric_beta


def _affine_cdf(x, m):
    m = np.asarray(m, dtype=float)
    return m + x * (m ** 2 - m)


def _example1_cdf(x, m):
    m = np.asarray(m, dtype=float)
    return x * x * m * m + (1 - x * x) * m ** 5


def _h_power_cdf(x, m, alpha=2.0):
    # (1 + x m/2) m^a over its mass 1/(a+1) + x/(2(a+2))
    m, a = np.asarray(m, dtype=float), float(alpha)
    return (m ** (a + 1) / (a + 1) + x * (m ** (a + 2) / (2 * (a + 2)))) / (
        1.0 / (a + 1) + x * (0.5 / (a + 2)))


CDF = {
    "constant": lambda x, m: np.asarray(m, dtype=float),
    "affine": _affine_cdf,
    "example1": _example1_cdf,
    "h_power": _h_power_cdf,
}


def _example1_density(x, m):
    m = np.asarray(m, dtype=float)
    return 2 * x * x * m + 5 * (1 - x * x) * m ** 4


def _example2_density(x, m, k=2):
    q = k + 1
    m = np.asarray(m, dtype=float)
    osc = np.zeros_like(m)
    pos = m > 0
    osc[pos] = np.sin(1.0 / m[pos]) ** 2
    sigma = np.where((m >= 0.5) & (m <= 1.0), np.maximum(4.0 * (m - 0.5) * (1.0 - m), 0.0) ** q,
                     0.0)
    c_of_x = (1.0 - (2.0 + x) * _ex2_oscillatory_mass() - 1.0 / 31.0) / (0.5 * symmetric_beta(q))
    with np.errstate(under="ignore"):
        return (2.0 + x) * m ** 5 * osc + m ** 30 + c_of_x * sigma


DENSITY = {"example1": _example1_density, "example2": _example2_density}


def tent_axis_weights(bins, periodic, omega, fine_n=2 ** 15):
    """1D integrals of the tent weight functions against 1 and cos(omega s).

    Tent j is centred on cell centre (j + 1/2) / bins of [0, 1]: periodic
    tents wrap, bounded ones are clamped at the ends so they still sum to
    one.  Trapezoid rule on fine_n cells.
    """
    h = 1.0 / bins
    fine = np.linspace(0.0, 1.0, fine_n + 1)
    w0, w1 = [], []
    for j in range(bins):
        if periodic:
            d = np.abs(((fine - (j + 0.5) * h) + 0.5) % 1.0 - 0.5)
            w = np.maximum(0.0, 1.0 - d / h)
        else:
            r = np.clip(fine / h - 0.5, 0.0, bins - 1.0)
            i0 = np.clip(np.floor(r), 0, bins - 2)
            f = r - i0
            w = np.where(i0 == j, 1.0 - f, np.where(i0 + 1 == j, f, 0.0))
        w0.append(np.trapezoid(w, fine))
        w1.append(np.trapezoid(w * np.cos(omega * fine), fine))
    return np.array(w0), np.array(w1)


def cic_deposit_add_at(imgs, bins, L, weights=None):
    """The tent-weight deposit of ``transport._cic_deposit``, one np.add.at a corner."""
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
    counts = np.zeros((bins, bins))
    np.add.at(counts, (ia0, it), w * (1 - fa) * (1 - ft))
    np.add.at(counts, (ia0, it + 1), w * (1 - fa) * ft)
    np.add.at(counts, (ia1, it), w * fa * (1 - ft))
    np.add.at(counts, (ia1, it + 1), w * fa * ft)
    return counts


_CORNERS = np.array([[0], [1]], dtype=np.intp)


def corners(grid, points):
    """(flat, fracs): the flat node indices, (2,) * dim + (N,), and the per-axis
    fractions that multilinear interpolation at (N,) or (N, 2) points reads.

    Cell and fraction follow from the uniform spacing; periodic axes wrap,
    bounded axes hold their end values outside the grid.
    """
    pts = points.reshape(-1, grid.dim)
    flat, fracs, stride = None, [], 1
    for i in reversed(range(grid.dim)):
        ax = grid.axes[i]
        rel = (pts[:, i] - ax.lo) / ax.spacing
        if ax.periodic:
            cell = np.floor(rel)
            lower = cell.astype(np.intp)
            lower %= ax.n  # one wrap a point: the upper corner is lower + 1 or 0
            corner = lower + _CORNERS
            np.copyto(corner[1], 0, where=corner[1] == ax.n)
        else:
            np.minimum(np.maximum(rel, 0.0, out=rel), ax.n - 1, out=rel)
            cell = np.minimum(rel.astype(np.intp), ax.n - 2)
            corner = cell + _CORNERS
        fracs.append(rel - cell)
        # the corner pair of axis i on its own axis of a (2,) * dim + (N,) index
        corner = corner.reshape((1,) * i + (2,) + (1,) * (grid.dim - 1 - i) + (-1,))
        flat = corner if flat is None else flat + corner * stride
        stride *= ax.n
    return flat, fracs


def blend(F, flat, fracs):
    """Fields-major node data F (nf, n_nodes) blended over the corners of ``corners``: (nf, N)."""
    vals = F.take(flat, axis=1)
    for frac in reversed(fracs):
        lerp = vals[:, 1] - vals[:, 0]
        lerp *= frac
        lerp += vals[:, 0]
        vals = lerp
    return vals


class CornerVelocity:
    """V_t of ``providers`` (``moser.VelocityProvider``) over blocks of ``n_seeds``
    points side by side, from their node data blended over every cell corner."""

    def __init__(self, providers, n_seeds):
        self.grid = providers[0].grid
        self.node_data = np.concatenate([p.node_data for p in providers], axis=1)
        n = providers[0].node_data.shape[1]
        self.offset = np.repeat(np.arange(len(providers)) * n, n_seeds)

    def __call__(self, t, points):
        dim = self.grid.dim
        flat, fracs = corners(self.grid, points)
        flat += self.offset
        vals = blend(self.node_data, flat, fracs)
        v = vals[:dim] / (vals[dim] + t * vals[dim + 1])
        return (v[0] if dim == 1 else v.T).reshape(np.shape(points))


def corner_query(grid, displacement, points):
    """The multilinear displacement query of a 2D map at points on the grid, unwrapped:
    points plus ``displacement`` (2, n_nodes) blended over every cell corner."""
    return points + blend(displacement, *corners(grid, points)).T.reshape(points.shape)
