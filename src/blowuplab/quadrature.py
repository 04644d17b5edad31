"""Adaptive Gauss-Kronrod quadrature and fixed Gauss-Legendre panels.

The integrands in this package (reciprocal damping, damping itself,
exponentially weighted tails, scan weights) are smooth and mostly monotone,
so a bisection-refined G7/K15 rule converges fast and gives a cheap,
reliable error estimate per panel.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureNonconvergence",
    "gauss_kronrod_panel",
    "kronrod_sums",
    "integrate_adaptive",
    "gauss_legendre_nodes",
]


class QuadratureNonconvergence(RuntimeError):
    """Raised when adaptive refinement exhausts its panel budget."""


_MAX_PANELS = 2000  # panel budget of each integral of integrate_adaptive


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


def kronrod_sums(y, half):
    """(K15, |K15 - G7|) of panels of half-widths ``half`` from their values ``y`` at the nodes."""
    k15 = half * np.vecdot(y, _KRONROD_WEIGHTS)
    return k15, abs(k15 - half * np.vecdot(y, _GAUSS_WEIGHTS))


def gauss_kronrod_panel(f: Callable, a, b):
    """K15 panels on [a, b]. Returns (integral, |K15 - G7|).

    ``a`` and ``b`` are scalars or arrays of one shape, one panel per pair,
    and both results take that shape.  ``f`` must accept an array of
    abscissae of shape ``a.shape + (15,)`` and return the values.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    # abscissae along a new last axis
    x = np.asarray(mid)[..., None] + np.asarray(half)[..., None] * _KRONROD_NODES
    # an overflowing integrand yields inf or nan here, for the caller's
    # finiteness checks to report
    with np.errstate(all="ignore"):
        return kronrod_sums(np.asarray(f(x), dtype=float), half)


def _sharpened(diff):
    """The K15 error estimates from the gaps |K15 - G7|, an array.

    The gap over-estimates the K15 error, so it is sharpened to
    min(diff, (200 diff)**1.5).  The power only wins below
    diff = 1/200**3 = 1.25e-7, so it is taken below 2e-7 alone (the margin
    keeps rounding near 1.25e-7 from changing the pick), where it cannot
    overflow.  A zero or NaN gap gives 0.  The power is libm's, element by
    element: numpy's vectorized power can round differently in the last bit,
    and these estimates decide which panel splits next.
    """
    small = (diff > 0.0) & (diff < 2e-7)
    out = np.where(diff > 0.0, diff, 0.0)
    out[small] = [min(d, (200.0 * d) ** 1.5) for d in diff[small].tolist()]
    return out


def integrate_adaptive(
    f: Callable,
    a,
    b,
    *,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
    args: tuple = (),
):
    """Adaptive bisection with G7/K15 panels.

    Stops when the summed panel error drops below
    ``max(abs_tol, rel_tol * |integral|)``; always splits the worst panel.
    Raises :class:`QuadratureNonconvergence` once an integral takes ``_MAX_PANELS`` panels.
    ``a`` and ``b`` are scalars (the result is a float) or arrays of one
    shape, one integral per pair.  The integrals are refined in lockstep:
    each round splits the worst panel of every integral still open and
    evaluates all the new halves in one call of ``f``, which takes an array
    of abscissae of shape (panels, 15), for scalar endpoints too.  Each
    integral keeps its own heap of panels, so its splits, sums and error
    estimates, and its result bit for bit, are those it takes alone.
    ``args`` are arrays of that shape, one entry per integral; ``f`` is
    then called as ``f(x, *args)`` with the entries of each panel's integral.
    """
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    a = np.broadcast_to(np.asarray(a, dtype=float), shape).ravel()
    b = np.broadcast_to(np.asarray(b, dtype=float), shape).ravel()
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    args = [np.broadcast_to(arg, shape).ravel() for arg in args]

    def panels_of(rows, left, right):
        return gauss_kronrod_panel(lambda x: f(x, *(arg[rows] for arg in args)), left, right)

    total, diff = panels_of(np.arange(lo.size), lo, hi)
    empty = lo == hi
    total[empty], diff[empty] = 0.0, 0.0
    total_err = _sharpened(diff)
    open_ = np.arange(lo.size)
    # per integral, a heap of (-error, left, right, value): the worst panel pops first
    heaps = [[panel] for panel in zip((-total_err).tolist(), lo.tolist(), hi.tolist(),
                                      total.tolist())]
    for panels in itertools.count(1):
        # fmax, as Python's max, takes abs_tol over a NaN integral
        missed = total_err[open_] > np.fmax(abs_tol, rel_tol * np.abs(total[open_]))
        open_ = open_[missed]
        if not open_.size:
            break
        if panels >= _MAX_PANELS:
            i = open_[0]
            raise QuadratureNonconvergence(
                f"quadrature on [{lo[i]:g}, {hi[i]:g}] did not reach tolerance "
                f"{rel_tol:g} after {_MAX_PANELS} panels (error {total_err[i]:g})"
            )
        neg_err, left, right, old_val = np.array([heapq.heappop(heaps[i]) for i in open_.tolist()]).T
        mid = 0.5 * (left + right)
        val, diff = panels_of(np.concatenate((open_, open_)),
                              np.concatenate((left, mid)), np.concatenate((mid, right)))
        err = _sharpened(diff)
        n = open_.size
        total[open_] += val[:n] + val[n:] - old_val
        total_err[open_] += err[:n] + err[n:] - (-neg_err)
        halves = (zip((-err[:n]).tolist(), left.tolist(), mid.tolist(), val[:n].tolist()),
                  zip((-err[n:]).tolist(), mid.tolist(), right.tolist(), val[n:].tolist()))
        for i, first, second in zip(open_.tolist(), *halves):
            heapq.heappush(heaps[i], first)
            heapq.heappush(heaps[i], second)
    out = np.where(b < a, -total, total).reshape(shape)
    return out if shape else float(out)


def gauss_legendre_nodes(a: float, b: float, panels: int):
    """Composite Gauss-Legendre nodes and weights on [a, b].

    Returns flat arrays (nodes, weights) covering ``panels`` equal panels
    with 8 points each; exact for polynomials of degree 15 per panel.
    """
    xi, wi = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(a, b, panels + 1)
    lefts = edges[:-1]
    halves = 0.5 * (edges[1:] - lefts)
    mids = lefts + halves
    nodes = (mids[:, None] + halves[:, None] * xi[None, :]).ravel()
    weights = (halves[:, None] * wi[None, :]).ravel()
    return nodes, weights
