"""Adaptive Gauss-Kronrod quadrature and fixed Gauss-Legendre panels.

The integrands in this package (reciprocal damping, damping itself,
exponentially weighted tails, scan weights) are smooth and mostly monotone,
so a bisection-refined G7/K15 rule converges fast and gives a cheap,
reliable error estimate per panel.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureNonconvergence",
    "gauss_kronrod_panel",
    "integrate_adaptive",
    "gauss_legendre_nodes",
]


class QuadratureNonconvergence(RuntimeError):
    """Raised when adaptive refinement exhausts its panel budget."""


# G7/K15 nodes on [-1, 1]; the 7 Gauss nodes are a subset of the 15 Kronrod
# nodes, so one evaluation sweep yields both estimates.
_KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GAUSS_WEIGHTS = np.array([
    0.0, 0.129484966168870, 0.0,
    0.279705391489277, 0.0, 0.381830050505119,
    0.0, 0.417959183673469,
    0.0, 0.381830050505119, 0.0,
    0.279705391489277, 0.0, 0.129484966168870,
    0.0,
])


def gauss_kronrod_panel(f: Callable, a, b):
    """K15 panels on [a, b]. Returns (integral, |K15 - G7|).

    ``a`` and ``b`` are scalars or arrays of one shape, one panel per pair,
    and both results take that shape.  ``f`` must accept an array of
    abscissae of shape ``a.shape + (15,)`` and return the values.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    if getattr(half, "ndim", 0):  # array endpoints: abscissae along a new last axis
        x = mid[..., None] + half[..., None] * _KRONROD_NODES
    else:
        x = mid + half * _KRONROD_NODES
    # an overflowing integrand yields inf or nan here, for the caller's
    # finiteness checks to report
    with np.errstate(all="ignore"):
        y = np.asarray(f(x), dtype=float)
        k15 = half * np.vecdot(y, _KRONROD_WEIGHTS)
        g7 = half * np.vecdot(y, _GAUSS_WEIGHTS)
        return k15, abs(k15 - g7)


def _sharpened(diff):
    """The K15 error estimate from the gap |K15 - G7|, elementwise.

    The gap over-estimates the K15 error, so it is sharpened to
    min(diff, (200 diff)**1.5).  The power only wins below
    diff = 1/200**3 = 1.25e-7, so it is taken below 2e-7 alone (the margin
    keeps rounding near 1.25e-7 from changing the pick), where it cannot
    overflow.  A zero or NaN gap gives 0.
    """
    if np.ndim(diff):
        small = (diff > 0.0) & (diff < 2e-7)
        out = np.where(diff > 0.0, diff, 0.0)
        out[small] = np.minimum(diff[small], (200.0 * diff[small]) ** 1.5)
        return out
    if not diff > 0.0:
        return 0.0
    return min(diff, (200.0 * diff) ** 1.5) if diff < 2e-7 else diff


def _sharpened_panel(f: Callable, a: float, b: float) -> tuple[float, float]:
    """One K15 panel with its error estimate sharpened."""
    val, diff = gauss_kronrod_panel(f, a, b)
    return float(val), _sharpened(float(diff))


def integrate_adaptive(
    f: Callable,
    a,
    b,
    *,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
    max_panels: int = 2000,
):
    """Adaptive bisection with G7/K15 panels.

    Stops when the summed panel error drops below
    ``max(abs_tol, rel_tol * |integral|)``; always splits the worst panel.
    Raises :class:`QuadratureNonconvergence` if the panel budget runs out.
    ``a`` and ``b`` are scalars or arrays of one shape, one integral per
    pair: the first panels of an array are one batched call, and only the
    intervals whose first panel misses the tolerance are refined, each as
    its scalar call.
    """
    if np.ndim(a) or np.ndim(b):
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        val, diff = gauss_kronrod_panel(f, lo, hi)
        val[lo == hi] = 0.0
        missed = _sharpened(diff) > np.maximum(abs_tol, rel_tol * np.abs(val))
        for i in zip(*np.nonzero(missed)):
            val[i] = integrate_adaptive(f, float(lo[i]), float(hi[i]), abs_tol=abs_tol,
                                        rel_tol=rel_tol, max_panels=max_panels)
        return np.where(b < a, -val, val)
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    val, err = _sharpened_panel(f, a, b)
    # heap of (-error, left, right, value) so the worst panel pops first
    heap = [(-err, a, b, val)]
    total = val
    total_err = err
    while total_err > max(abs_tol, rel_tol * abs(total)):
        if len(heap) >= max_panels:
            raise QuadratureNonconvergence(
                f"quadrature on [{a:g}, {b:g}] did not reach tolerance "
                f"{rel_tol:g} after {max_panels} panels (error {total_err:g})"
            )
        neg_err, left, right, old_val = heapq.heappop(heap)
        mid = 0.5 * (left + right)
        v1, e1 = _sharpened_panel(f, left, mid)
        v2, e2 = _sharpened_panel(f, mid, right)
        total += v1 + v2 - old_val
        total_err += e1 + e2 - (-neg_err)
        heapq.heappush(heap, (-e1, left, mid, v1))
        heapq.heappush(heap, (-e2, mid, right, v2))
    return sign * total


def gauss_legendre_nodes(a: float, b: float, panels: int, order: int = 8):
    """Composite Gauss-Legendre nodes and weights on [a, b].

    Returns flat arrays (nodes, weights) covering ``panels`` equal panels
    with ``order`` points each; exact for polynomials of degree 2*order-1
    per panel.
    """
    xi, wi = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    lefts = edges[:-1]
    halves = 0.5 * (edges[1:] - lefts)
    mids = lefts + halves
    nodes = (mids[:, None] + halves[:, None] * xi[None, :]).ravel()
    weights = (halves[:, None] * wi[None, :]).ravel()
    return nodes, weights
