"""Panel-based Gauss-Legendre quadrature over the circle.

Used for integrating piecewise-smooth functions of an angle whose
breakpoints are known analytically: a uniform base grid is refined by the
breakpoints and each panel gets a fixed-order Gauss rule, which is exact to
machine precision for the trigonometric pieces that arise here.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import TWO_PI, reduce_phase


def panel_nodes(breakpoints, *, n_base: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights covering [0, 2*pi).

    Panel edges are the union of an ``n_base``-cell uniform grid and the
    given breakpoints (reduced mod 2*pi).  Returns flat arrays (nodes,
    weights); the weights sum to 2*pi.
    """
    if n_base < 1:
        raise ValueError("n_base must be positive")
    edges = np.linspace(0.0, TWO_PI, n_base + 1)
    pts = np.array([reduce_phase(b) for b in breakpoints], dtype=float)
    edges = np.union1d(edges, pts)
    lo, hi = edges[:-1], edges[1:]
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    xg, wg = leggauss(order)
    mid = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    nodes = mid[:, None] + half[:, None] * xg[None, :]
    weights = half[:, None] * wg[None, :]
    return nodes.ravel(), weights.ravel()
