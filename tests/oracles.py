"""Closed-form oracles shared by several test modules.

``CDF`` holds the cumulative mass int_0^m rho(x, s) ds of the four builtins
that have one in closed form; ``CDF["h_power"]`` takes the builtin's alpha.
``DENSITY`` holds the one-line formulas of the example1 and example2 hand
evaluators, with every power taken by pow.  ``tent_axis_weights`` integrates
the tent weight functions of the 2D pushforward deposit along one axis, and
``cic_deposit_add_at`` is that deposit as four np.add.at calls, one a corner.
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
