"""Accumulated damping functions and admissibility diagnostics.

Computes, for a damping law b(t):

  B(t)      accumulated reciprocal damping, integral of 1/b on [0, t]
  A(s)      inverse of B, by safeguarded Newton steps in a table cell
  beta(t)   exp(-integral of b on [0, t])
  Gamma(t)  integral of beta on [t, infinity)
  g(t)      Gamma(t) / beta(t), the multiplier that removes the zero-order
            term from the adjoint damped-wave operator
  bhat1     1 / Gamma(0), the weight of u0 in the data sign condition

Gamma and g are evaluated through the factored form

  g(t) = int_t^inf exp(-int_t^tau b) dtau

which is O(1/b) in size, so everything is computed to *relative* accuracy
even where beta underflows.  The improper tail is closed with the
first-order estimate (1/b)/(1 + b'/b^2) at a far point T, which is exact
for pure power-law damping and whose contribution is damped by
exp(-int_t^T b); T is pushed out until the estimate stabilizes.  The
finite stretches are adaptive exponential cells (:func:`_phi_cells`),
resolved many at once: a table's cells in one call, an array read's bridges
in one call, each call one walk over the split trees of all its cells.  A
panel evaluates b once, at its 15 Kronrod nodes, and takes int b up to
each node from those values by a spectral integration matrix; it stands
only if the K15-G7 gaps of both its integral and of int b are small.  It
places its nodes as offsets from its cell's left end, so a cell
narrow against t is resolved to the accuracy of its width, not of t.  The
increments of B and log beta, and the scan's integrals of g, refine many
integrals in lockstep (:func:`integrate_adaptive` with array endpoints).
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial import legendre

from .coeffs import DampingModel
from .quadrature import (
    _GAUSS_WEIGHTS,
    _KRONROD_NODES,
    _KRONROD_WEIGHTS,
    QuadratureNonconvergence,
    gauss_kronrod_panel,
    integrate_adaptive,
)

__all__ = [
    "AuxTable",
    "HypothesisReport",
    "EquivalenceReport",
    "TabulationError",
    "TailNonconvergence",
    "TableRangeError",
    "build_aux_table",
    "compute_B",
    "compute_beta",
    "compute_Gamma",
    "compute_bhat1",
    "check_hypothesis",
    "verify_equivalences",
]

DEFAULT_QUAD_TOL = 1e-10
DEFAULT_MARGIN = 0.05  # of check_hypothesis and ``check --margin``
POINTS_PER_DECADE = 64
T_MIN = 1e-3         # first positive node of a table's grid


class TailNonconvergence(RuntimeError):
    """The improper tail of Gamma failed its decay test within the horizon.

    For the catalog families this happens exactly when the damping is not
    admissible (beta fails to be integrable)."""


class TabulationError(ArithmeticError):
    """A built table fails its checks: B and log beta finite, B increasing,
    log beta decreasing, g positive."""


class TableRangeError(ValueError):
    """Query outside the tabulated horizon; rebuild with a larger one."""


# ---------------------------------------------------------------------------
# exponential cells

_DEPTH = 48          # split limit of a cell's tree
_CHUNK = 1024        # panels per batched evaluation of b; bounds a round's transients
# panels one cell may take: about ten times the heaviest cell seen (107
# panels, in the tests, the benchmark at seeds 0-2 and 200 random aux
# tables), far below the 2**48 leaves of a cell that never settles; such a
# cell fails after about 43 kB of tree nodes, at 42 bytes a node
_CELL_PANELS = 1 << 10
_OFFSETS = 1.0 + _KRONROD_NODES  # Kronrod nodes on [0, 2]
_TAIL_CELLS = 800    # outward cells of a tail march before it gives up


def _spectral_integration_matrix(nodes):
    """S[i, j] = int_{-1}^{x_i} l_j, with l_j the Lagrange basis on ``nodes``.

    S @ f integrates the interpolant of the values f from -1 up to each
    node (spectral integration, Greengard, SIAM J. Numer. Anal. 28, 1991).
    """
    vander = legendre.legvander(nodes, nodes.size - 1)
    basis = np.linalg.solve(vander, np.eye(nodes.size))  # column j: l_j in P_k
    return legendre.legval(nodes, legendre.legint(basis, lbnd=-1)).T


_INTEGRATE_TO_NODES = _spectral_integration_matrix(_KRONROD_NODES)


def _exp_panels(bfun, t0, t1):
    """K15 panels of tau -> exp(-int_{t0}^{tau} b) on the cells [t0, t1].

    ``t0`` and ``t1`` are 1-d arrays.  Returns the arrays (q, err, ib, gap,
    E): the integral, its error estimate, ib = int_{t0}^{t1} b, the
    K15-G7 gap of ib, and E = exp(-ib).  b is evaluated once per panel, at
    its 15 Kronrod nodes, placed as offsets from t0 and added to it only
    where b is evaluated.  The integral of b up to each node is the
    spectral integration matrix applied to those 15 values, so one call to
    ``bfun`` feeds a chunk of ``_CHUNK`` cells.  A non-finite panel (b
    overflowing, say) raises ``FloatingPointError``.
    """
    out = np.empty((4, t0.size))
    with np.errstate(all="ignore"):
        for s in range(0, t0.size, _CHUNK):
            a = t0[s:s + _CHUNK]
            half = 0.5 * (t1[s:s + _CHUNK] - a)
            # nodes as offsets from a: taken at absolute times, their
            # rounding would floor the error estimate of a cell only a few
            # ulps of t wide above tol
            vals = np.asarray(bfun(a[:, None] + half[:, None] * _OFFSETS), dtype=float)
            # one vecdot of one shape per node, so a panel's sums do not
            # depend on its batch
            cum = half[:, None] * np.vecdot(vals[:, None, :], _INTEGRATE_TO_NODES)
            weights_at_nodes = np.exp(-cum)
            ib = half * np.vecdot(vals, _KRONROD_WEIGHTS)
            ib_g7 = half * np.vecdot(vals, _GAUSS_WEIGHTS)
            k15 = half * np.vecdot(weights_at_nodes, _KRONROD_WEIGHTS)
            g7 = half * np.vecdot(weights_at_nodes, _GAUSS_WEIGHTS)
            out[:, s:s + _CHUNK] = k15, np.abs(k15 - g7), ib, np.abs(ib - ib_g7)
    q, err, ib, gap = out
    if not (np.isfinite(q).all() and np.isfinite(ib).all()):
        i = int(np.argmin(np.isfinite(q) & np.isfinite(ib)))
        raise FloatingPointError(f"non-finite damping integral on [{t0[i]:g}, {t1[i]:g}]")
    # libm's exp: numpy's vectorized exp can round E differently in the
    # last bit, which would move every tabulated g
    E = np.fromiter(map(math.exp, -ib), float, ib.size)
    return q, err, ib, gap, E


def _settled(q, err, ib, gap, tol: float):
    """Cells whose panel stands: few e-folds and small error estimates.

    A cell holding more than a few e-folds of damping hides the decay layer
    from the Kronrod nodes, so it is split whatever its error estimate.
    The K15-G7 gap of int b must stay within tol too: the 15 nodes that
    carry the inner integrals cannot see a b they do not resolve, and such
    a b can leave the q estimate small.
    """
    return (ib <= 3.0) & (err <= tol * np.maximum(np.abs(q), 1e-300)) & (gap <= tol)


def _phi_cells(bfun, t0, t1, tol: float):
    """Adaptive exponential cells [t0, t1], elementwise over arrays.

    Returns the arrays (q, E), of the shape of ``t0``, with
    q = int_{t0}^{t1} exp(-int_{t0}^{tau} b) dtau and E = exp(-int_{t0}^{t1} b).
    A cell whose K15 panel does not stand (see :func:`_settled`) is halved,
    and q composes exactly: q = q_left + E_left * q_right.
    The exponentially dead right half is pruned when
    E_left * width_right <= tol * q_left, through the bound
    q_right <= width_right.  E is the cell's own panel value: the damping
    mass is layer-free and accurate.  Each panel evaluates b at its 15
    Kronrod nodes alone, placed as offsets from the cell's left end (see
    :func:`_exp_panels`); a b those nodes do not resolve splits the cell
    through the K15-G7 gap of int b.

    The panels, splits and prunes are those of a depth-first recursion over
    each cell, but all the cells of a call are walked together, in one walk
    of one batched panel evaluation per round (see :func:`_walk`).  The walk
    keeps every panel of the call, 42 bytes each.  A cell that takes
    more than ``_CELL_PANELS`` panels raises ``QuadratureNonconvergence``,
    in any batch exactly as alone, so a cell that never settles fails after
    about 43 kB of its own nodes; so does a cell with a piece whose panel
    still does not stand after ``_DEPTH`` halvings, where the rounding of t
    floors its error estimate above tol (far horizons against 1/b).  A
    non-finite panel raises ``FloatingPointError``.
    """
    shape = np.shape(t0)
    t0 = np.ravel(np.asarray(t0, dtype=float))
    t1 = np.ravel(np.asarray(t1, dtype=float))
    q, err, ib, gap, E = _exp_panels(bfun, t0, t1)
    open_ = np.flatnonzero(~_settled(q, err, ib, gap, tol))
    if open_.size:
        q[open_] = _walk(bfun, t0[open_], t1[open_], E[open_], q[open_], tol)
    return q.reshape(shape), E.reshape(shape)


class _Tree:
    """Split trees of the cells of one walk, one ``array.array`` column a field.

    A node holds the right end b of its cell, its own E = exp(-int b) over
    the cell, its q (the panel's, then its subtree's once composed), the
    links to its parent and halves (-1 for none), its root, its remaining
    depth and whether its q is final: 42 bytes of doubles, C ints and signed
    chars, which :meth:`add` appends.  The roots are the first nodes.  Nodes
    are never dropped: the tree holds every panel of its walk.
    """

    def __init__(self):
        self.b, self.E, self.Q = array("d"), array("d"), array("d")
        self.up, self.left, self.right, self.root = array("i"), array("i"), array("i"), array("i")
        self.depth, self.finished = array("b"), array("b")

    def add(self, b, E, Q, up, root, depth, finished):
        """Append nodes without halves, from arrays; returns the index of the first."""
        start, no_half = len(self.b), array("i", [-1]) * len(b)
        for column, values in ((self.b, b), (self.E, E), (self.Q, Q), (self.up, up),
                               (self.left, no_half), (self.right, no_half), (self.root, root),
                               (self.depth, depth), (self.finished, finished)):
            column.frombytes(np.asarray(values, column.typecode).tobytes())
        return start


def _walk(bfun, a, b, E, Q, tol: float):
    """The composed q of the root cells [a, b], whose own panels (E, Q) do not stand.

    Each round evaluates, in one batched call, the left halves of all the
    nodes whose panels did not stand in the round before and the right
    halves that fell due.  A right half falls due as soon as its left
    sibling's panel shows that the prune test must fail
    (E_left * width_right > 2 tol width_left, while q_left <= width_left),
    and otherwise once the left subtree's q is composed and the test fails.
    A right half that the exact test prunes after all is dropped, so the
    result never depends on the schedule.
    """
    # a round's parents with their roots and depths: first the nl nodes to
    # split, with their cells [lo, hi], then the nodes whose right half
    # [lo, hi] is due; an early right half is evaluated in the round of its
    # left sibling's first half, before that subtree can compose
    nodes, lo, hi, depth, nl = np.arange(a.size), a, b, np.full(a.size, _DEPTH), a.size
    root, panels, tree = nodes, np.ones(a.size, np.int64), _Tree()
    tree.add(b, E, Q, np.full(a.size, -1), root, depth, np.zeros(a.size, bool))
    while nodes.size:
        t1 = np.concatenate((0.5 * (lo[:nl] + hi[:nl]), hi[nl:]))
        panels += np.bincount(root, minlength=a.size)
        if panels.max() > _CELL_PANELS:
            i = int(np.argmax(panels))
            raise QuadratureNonconvergence(
                f"exponential cell [{a[i]:g}, {b[i]:g}] did not resolve "
                f"within {_CELL_PANELS} panels")
        q, err, ib, gap, E = _exp_panels(bfun, lo, t1)
        settled = _settled(q, err, ib, gap, tol)
        stuck = ~settled & (depth <= 1)
        if stuck.any():
            i = root[np.argmax(stuck)]
            raise QuadratureNonconvergence(
                f"exponential cell [{a[i]:g}, {b[i]:g}] did not resolve "
                f"within {_DEPTH} halvings")
        start = tree.add(t1, E, q, nodes, root, depth - 1, settled)
        for kid, parent in enumerate(nodes.tolist(), start):
            (tree.left if kid < start + nl else tree.right)[parent] = kid
        # left halves, still splitting, whose sibling cannot be pruned
        width_l, width_r = t1[:nl] - lo[:nl], hi[:nl] - t1[:nl]
        early = ~settled[:nl] & (E[:nl] * width_r > tol * np.maximum(2.0 * width_l, 1e-300))
        due = _compose(tree, start + np.flatnonzero(settled), tol)
        # the new nodes that split, then the right halves now due: the early
        # ones from this round's rows, the composed ones from the tree
        split = ~settled
        nodes = np.concatenate((start + np.flatnonzero(split), nodes[:nl][early],
                                np.array(due, int)))
        lo = np.concatenate((lo[split], t1[:nl][early], [tree.b[tree.left[p]] for p in due]))
        hi = np.concatenate((t1[split], hi[:nl][early], [tree.b[p] for p in due]))
        root = np.concatenate((root[split], root[:nl][early],
                               np.array([tree.root[p] for p in due], int)))
        depth = np.concatenate((depth[split] - 1, depth[:nl][early],
                                np.array([tree.depth[p] for p in due], int)))
        nl = np.count_nonzero(split)
    return tree.Q[:a.size]


def _compose(tree: _Tree, nodes, tol: float):
    """Carry the q of finished nodes up their trees.

    Returns the nodes whose left half is now composed and whose right half
    falls due because the prune test fails.
    """
    up, left, right, finished = tree.up, tree.left, tree.right, tree.finished
    b, E, Q = tree.b, tree.E, tree.Q
    due = []
    for node in nodes.tolist():
        while (parent := up[node]) >= 0:
            l, r = left[parent], right[parent]
            if node == l:
                if E[l] * (b[parent] - b[l]) <= tol * max(Q[l], 1e-300):
                    Q[parent] = Q[l]
                    right[parent] = -1  # drops a right half started early
                elif r < 0:
                    due.append(parent)
                    break
                elif finished[r]:
                    Q[parent] = Q[l] + E[l] * Q[r]
                else:
                    break
            elif node == r and finished[l]:
                Q[parent] = Q[l] + E[l] * Q[r]
            else:  # the left half is still open, or a dropped right half
                break
            finished[parent] = True
            node = parent
    return due


def _tail_ends(model: DampingModel, start: float):
    """Right ends of the outward cells of the tail march from ``start``.

    A cell [T, T_next] is at least 0.5/b(start) and 0.35 T long.  A b(start)
    out of range (which the cells' panels then report) gives no warning.
    """
    with np.errstate(all="ignore"):
        step = float(0.5 / np.float64(model.b(start)))
    T = start
    for _ in range(_TAIL_CELLS):
        T = T + max(step, 0.35 * T)
        yield T


def _g_tail(model: DampingModel, start: float, tol: float, first=None) -> float:
    """g(start) = int_start^inf exp(-int_start^tau b) dtau.

    Marches geometrically growing cells outward (:func:`_tail_ends`),
    closing with the quasi-stationary estimate (1/b)/(1 + b'/b^2); stops
    once the running total is stable to ``tol`` over several consecutive
    extensions.  ``first`` is the (q, E) of the first cell when the caller
    has resolved it, with :func:`_phi_cells` at ``tol * 0.1``.
    """
    bfun = model.b
    accumulated = 0.0
    damping_factor = 1.0
    T = start
    estimate = None
    stable = 0
    for T_next in _tail_ends(model, start):
        q, E = first if first is not None else _phi_cells(bfun, T, T_next, tol * 0.1)
        first = None
        accumulated += damping_factor * float(q)
        damping_factor *= float(E)
        T = T_next
        bT = float(model.b(T))
        try:
            correction = 1.0 + float(model.db(T)) / bT**2
        except (OverflowError, ZeroDivisionError) as exc:
            raise FloatingPointError(
                f"tail of g at T = {T:g}: b(T)**2 is out of floating-point range "
                f"for b(T) = {bT:g}"
            ) from exc
        if damping_factor == 0.0:
            return accumulated
        if correction > 0.0:
            new_estimate = accumulated + damping_factor / (bT * correction)
            if estimate is not None and abs(new_estimate - estimate) <= tol * abs(new_estimate):
                stable += 1
                if stable >= 3:
                    return new_estimate
            else:
                stable = 0
            estimate = new_estimate
        else:
            estimate, stable = None, 0
    raise TailNonconvergence(
        "tail of the beta integral did not stabilize; the damping law "
        "appears inadmissible (beta is not integrable)"
    )


# ---------------------------------------------------------------------------
# standalone operations


def compute_B(model: DampingModel, t: float, tol: float = DEFAULT_QUAD_TOL) -> float:
    """B(t): adaptive quadrature of 1/b over [0, t]."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return integrate_adaptive(lambda x: 1.0 / model.b(x), 0.0, t,
                              abs_tol=tol, rel_tol=tol)


def compute_beta(model: DampingModel, t: float) -> float:
    """beta(t) = exp(-int_0^t b), relative accuracy ~ ``DEFAULT_QUAD_TOL``."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    integral = integrate_adaptive(model.b, 0.0, t, abs_tol=0.1 * DEFAULT_QUAD_TOL, rel_tol=0.0)
    return math.exp(-integral)


def compute_Gamma(model: DampingModel, t: float) -> float:
    """Gamma(t) = int_t^inf beta, via the factored tail march.

    Computed as beta(t) * g(t) so the result keeps relative accuracy even
    where beta is exponentially small.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    return compute_beta(model, t) * _g_tail(model, t, DEFAULT_QUAD_TOL)


def compute_bhat1(model: DampingModel) -> float:
    """Reciprocal total mass of beta: 1 / Gamma(0)."""
    return 1.0 / _g_tail(model, 0.0, DEFAULT_QUAD_TOL)


# ---------------------------------------------------------------------------
# the table


def _like_query(values):
    """A float for a scalar query, the array of the query's shape otherwise."""
    return float(values) if np.ndim(values) == 0 else values


@dataclass(frozen=True)
class AuxTable:
    """Cached samples of B, log beta and g on a fixed time grid.

    Queries between grid points are closed with one local quadrature panel
    against the nearest grid value, so lookups inherit the build accuracy
    (about 1e-10 relative) instead of an interpolation error.  Every
    read takes a scalar (and returns a float) or an array of times (and
    returns an array of its shape); the B and log beta bridges of an array
    are one batched panel call, its g bridges one batched set of adaptive
    exponential cells (:func:`_phi_cells`), and each element equals its
    scalar read bit for bit.
    """

    model: DampingModel
    grid: np.ndarray
    B_vals: np.ndarray
    log_beta_vals: np.ndarray
    g_vals: np.ndarray

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    @property
    def bhat1(self) -> float:
        return 1.0 / float(self.g_vals[0])

    @functools.cached_property
    def B_unit_shift(self) -> float:
        """B(1), the regularizing shift for speed/forcing laws."""
        return self.B_at(1.0)

    @property
    def beta_vals(self) -> np.ndarray:
        return np.exp(self.log_beta_vals)

    @property
    def Gamma_vals(self) -> np.ndarray:
        return np.exp(self.log_beta_vals) * self.g_vals

    def _locate(self, t):
        """Checked query times as an array, with each one's bridging node.

        The bridging node is the first grid node at or above the time.
        """
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise ValueError("t must be finite")
        if np.any(t < 0):
            raise ValueError("t must be nonnegative")
        if np.any(t > self.horizon):
            raise TableRangeError(
                f"t = {np.max(t):g} beyond tabulated horizon {self.horizon:g}"
            )
        return t, np.searchsorted(self.grid, t, side="left")

    def B_at(self, t):
        t, i = self._locate(t)
        back, _ = gauss_kronrod_panel(lambda x: 1.0 / self.model.b(x), t, self.grid[i])
        return _like_query(self.B_vals[i] - back)

    def log_beta_at(self, t):
        t, i = self._locate(t)
        back, _ = gauss_kronrod_panel(self.model.b, t, self.grid[i])
        return _like_query(self.log_beta_vals[i] + back)

    def beta_at(self, t):
        return _like_query(np.exp(self.log_beta_at(t)))

    def g_at(self, t):
        t, i = self._locate(t)
        q, E = _phi_cells(self.model.b, t, self.grid[i], DEFAULT_QUAD_TOL)
        return _like_query(q + E * self.g_vals[i])

    def dg_at(self, t):
        return _like_query(self.g_at(t) * self.model.b(t) - 1.0)

    def Gamma_at(self, t):
        return self.beta_at(t) * self.g_at(t)

    def invert_B(self, s: float) -> float:
        """A(s): the time t with B(t) = s, by safeguarded Newton steps in its table cell.

        B' = 1/b is exact, so a step is t <- t - (B(t) - s) b(t).  The steps
        start from the cell's left end where b rises (B concave) and from its
        right end otherwise, the side from which they approach A(s) without
        overshooting.  Each residual's sign shrinks the cell's bracket, a step
        leaving the bracket bisects it instead, and a step of at most
        1e-14 max(1, t) ends the search; 100 steps without one raise
        :class:`QuadratureNonconvergence`.
        """
        if not math.isfinite(s):
            raise ValueError("s must be finite")
        if s < 0:
            raise ValueError("s must be nonnegative")
        if s == 0:
            return 0.0
        if s > self.B_vals[-1]:
            raise TableRangeError(
                f"s = {s:g} beyond tabulated range B(horizon) = {self.B_vals[-1]:g}"
            )
        i = int(np.searchsorted(self.B_vals, s))
        lo, hi = float(self.grid[i - 1]), float(self.grid[i])
        j = i - 1 if self.B_vals[i] != s and self.model.db(hi) > 0 else i
        t, residual = float(self.grid[j]), float(self.B_vals[j]) - s
        for _ in range(100):
            if residual == 0:
                return t
            lo, hi = (lo, t) if residual > 0 else (t, hi)
            step = t - residual * float(self.model.b(t))
            step = step if lo <= step <= hi else 0.5 * (lo + hi)
            if abs(step - t) <= 1e-14 * max(1.0, t):
                return step
            t, residual = step, self.B_at(step) - s
        raise QuadratureNonconvergence(f"A({s:g}): no convergence in 100 Newton steps")


def build_aux_table(model: DampingModel, horizon: float) -> AuxTable:
    """Tabulate B, log beta and g on a log-spaced grid over [0, horizon].

    The grid is 0, then ``POINTS_PER_DECADE`` nodes a decade from ``T_MIN``.

    g is filled right to left by the exact cell recurrence
    g(t_i) = q_i + E_i * g(t_{i+1}), seeded by the stabilized tail value at
    the horizon, so per-cell quadrature errors are the only error source.
    The increments of B and log beta take one batched K15 panel per cell,
    refined by :func:`integrate_adaptive` only where that panel misses its
    tolerance; the cells' (q_i, E_i) and those of the first cell of the
    tail march are one :func:`_phi_cells` call.  A table failing its checks
    raises :class:`TabulationError`.
    """
    if not math.isfinite(horizon):
        raise ValueError("horizon must be finite")
    if horizon < 1:
        raise ValueError(f"horizon {horizon:g} is below 1: every table reads B(1)")
    if not math.isfinite(horizon / T_MIN):
        raise ValueError(f"horizon {horizon:g} is too large: horizon / t_min must be finite, "
                         f"so the horizon must stay below {T_MIN * np.finfo(float).max:.4g}")
    decades = math.log10(horizon / T_MIN)
    count = max(2, int(math.ceil(decades * POINTS_PER_DECADE)))
    grid = np.concatenate(([0.0], np.geomspace(T_MIN, horizon, count)))
    grid[-1] = horizon

    bfun = model.b
    lo, hi = grid[:-1], grid[1:]
    tol = DEFAULT_QUAD_TOL
    adaptive = dict(abs_tol=tol * 1e-3, rel_tol=tol * 0.1)
    dB = integrate_adaptive(lambda x: 1.0 / bfun(x), lo, hi, **adaptive)
    # a first panel of b within tol stands as it is
    dI, gap = gauss_kronrod_panel(bfun, lo, hi)
    refine = gap > tol * np.maximum(1.0, np.abs(dI))
    dI[refine] = integrate_adaptive(bfun, lo[refine], hi[refine], **adaptive)
    # the first cell of the tail march from the horizon rides along
    tail_end = next(_tail_ends(model, horizon))
    q_cells, E_cells = _phi_cells(bfun, np.append(lo, horizon), np.append(hi, tail_end), tol * 0.1)

    with np.errstate(over="ignore"):
        B_vals = np.concatenate(([0.0], np.cumsum(dB)))
        log_beta = np.concatenate(([0.0], -np.cumsum(dI)))
    for name, vals in (("B", B_vals), ("log beta", log_beta)):
        if not np.all(np.isfinite(vals)):
            t = grid[np.argmin(np.isfinite(vals))]
            raise TabulationError(f"{name} leaves the floating-point range at t = {t:g}")

    g_vals = np.empty(len(grid))
    g_vals[-1] = _g_tail(model, horizon, tol, first=(q_cells[-1], E_cells[-1]))
    for i in range(len(grid) - 2, -1, -1):
        g_vals[i] = q_cells[i] + E_cells[i] * g_vals[i + 1]

    if not (np.all(np.diff(B_vals) > 0) and np.all(np.diff(log_beta) < 0)):
        raise TabulationError("tabulation lost monotonicity; damping law invalid")
    if not np.all(g_vals > 0):
        raise TabulationError("nonpositive multiplier values in table")

    return AuxTable(
        model=model,
        grid=grid,
        B_vals=B_vals,
        log_beta_vals=log_beta,
        g_vals=g_vals,
    )


# ---------------------------------------------------------------------------
# admissibility diagnostics


@dataclass(frozen=True)
class HypothesisReport:
    """Tail-window estimates of the damping admissibility conditions.

    Finite sampling cannot certify liminf/limsup statements, so the report
    separates the numerical verdicts (window extrema vs. a margin) from the
    exact closed-form admissibility of the catalog families.
    """

    liminf_est: float        # tail min of b'/b^2, against the > -1 condition
    limsup_est: float        # tail max of t b'/b, against the < 1 condition
    tb_liminf: float         # tail min of t*b(t); should exceed 1
    growth_m: float          # smallest m >= 0 with b'/b <= m/t on the tail
    growth_M: float          # smallest M >= 0 with b'/b >= -M/t on the tail
    eps_lower: float         # tail min of (b^2 + b')/b^2
    C_upper: float           # tail max of (b^2 + b')/b^2
    abs_ratio_C: float       # tail max of |b'|/b^2
    passes_liminf: bool
    passes_limsup: bool
    admissible: bool
    inconclusive: bool       # tail extrema still drifting across windows
    analytic: Optional[bool]  # exact closed-form verdict for catalog families
    margin: float
    horizon: float


def check_hypothesis(model: DampingModel, horizon: float,
                     margin: float = DEFAULT_MARGIN) -> HypothesisReport:
    """Sample the admissibility ratios up to ``horizon`` and report verdicts.

    The liminf/limsup estimates are extrema over the last decade
    [horizon/10, horizon]; drift relative to the preceding decade marks the
    report inconclusive.  ``margin`` must lie in [0, 1).
    """
    if not math.isfinite(horizon):
        raise ValueError("horizon must be finite")
    if horizon < 100:
        raise ValueError("horizon must be at least 100")
    if not math.isfinite(margin):
        raise ValueError("margin must be finite")
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"margin {margin:g} must lie in [0, 1)")
    count = max(16, int(math.log10(horizon) * POINTS_PER_DECADE))
    ts = np.geomspace(1.0, horizon, count)
    with np.errstate(over="ignore"):
        b = np.asarray(model.b(ts), dtype=float)
        tb = ts * b
    bad = np.flatnonzero(~((b > 0.0) & np.isfinite(tb)))    # nan fails b > 0
    if len(bad):
        i = bad[0]
        value = f"t*b(t) = {tb[i]:g}" if 0.0 < b[i] < math.inf else f"b(t) = {b[i]:g}"
        raise FloatingPointError(
            f"{value} at t = {ts[i]:g} leaves the floating-point range; lower the horizon")
    db = np.asarray(model.db(ts), dtype=float)
    ratio1 = (db / b) / b                   # liminf target > -1; b**2 can leave the range
    ratio2 = ts * db / b                    # limsup target < 1

    tail = ts >= horizon / 10.0
    prev = (ts >= horizon / 100.0) & ~tail

    liminf_est = float(np.min(ratio1[tail]))
    limsup_est = float(np.max(ratio2[tail]))
    drift = max(
        abs(liminf_est - float(np.min(ratio1[prev]))),
        abs(limsup_est - float(np.max(ratio2[prev]))),
    )
    correction = 1.0 + ratio1[tail]
    report = HypothesisReport(
        liminf_est=liminf_est,
        limsup_est=limsup_est,
        tb_liminf=float(np.min(tb[tail])),
        growth_m=max(0.0, float(np.max(ratio2[tail]))),
        growth_M=max(0.0, -float(np.min(ratio2[tail]))),
        eps_lower=float(np.min(correction)),
        C_upper=float(np.max(correction)),
        abs_ratio_C=float(np.max(np.abs(ratio1[tail]))),
        passes_liminf=liminf_est > -1.0 + margin,
        passes_limsup=limsup_est < 1.0 - margin,
        admissible=(liminf_est > -1.0 + margin) and (limsup_est < 1.0 - margin),
        inconclusive=drift > margin,
        analytic=model.analytically_admissible,
        margin=margin,
        horizon=horizon,
    )
    return report


_EXPONENT_SLACK = 0.05  # of the dilation bounds in verify_equivalences


@dataclass(frozen=True)
class EquivalenceReport:
    """Measured two-sided comparability ratios and dilation checks."""

    gamma_ratio_min: float   # range of Gamma * b / beta over the grid
    gamma_ratio_max: float
    B_ratio_min: float       # range of B * b / t over the grid (t > 0)
    B_ratio_max: float
    fitted_m: float
    fitted_M: float
    scaling_rows: list = field(default_factory=list)
    b_scaling_ok: bool = True
    B_scaling_ok: bool = True


def verify_equivalences(aux: AuxTable, horizon: float) -> EquivalenceReport:
    """Measure Gamma*b/beta and B*b/t plus the dilation-ratio bounds.

    For lam in {2, 4, 8} and tail times t the ratios b(lam t)/b(t) and
    B(lam t)/B(t) are checked against the power bounds implied by the
    fitted growth exponents, with ``_EXPONENT_SLACK`` of slack in the exponent.
    """
    if horizon > aux.horizon:
        raise TableRangeError("horizon beyond tabulated range")
    mask = aux.grid <= horizon
    ts = aux.grid[mask]
    b = np.asarray(aux.model.b(ts), dtype=float)
    gb = aux.g_vals[mask] * b
    pos = ts > 0
    Bbt = aux.B_vals[mask][pos] * b[pos] / ts[pos]

    tail_ts = ts[ts >= horizon / 10.0]
    db_tail = np.asarray(aux.model.db(tail_ts), dtype=float)
    b_tail = np.asarray(aux.model.b(tail_ts), dtype=float)
    tr = tail_ts * db_tail / b_tail
    fitted_m = max(0.0, float(np.max(tr)))
    fitted_M = max(0.0, -float(np.min(tr)))

    rows = []
    b_ok = True
    B_ok = True
    for lam in (2.0, 4.0, 8.0):
        t_samples = np.geomspace(horizon / 10.0, horizon / lam, 16)
        b_ratio = np.asarray(aux.model.b(lam * t_samples) / aux.model.b(t_samples), float)
        B_ratio = aux.B_at(lam * t_samples) / aux.B_at(t_samples)
        lo, hi = lam ** (-fitted_M - _EXPONENT_SLACK), lam ** (fitted_m + _EXPONENT_SLACK)
        ok_b = bool(np.all((b_ratio >= lo) & (b_ratio <= hi)))
        expo = np.log(B_ratio) / np.log(lam)
        ok_B = bool(np.all((expo >= 1.0 - fitted_m - _EXPONENT_SLACK)
                           & (expo <= 1.0 + fitted_M + _EXPONENT_SLACK)))
        rows.append({
            "lam": lam,
            "b_ratio_min": float(np.min(b_ratio)),
            "b_ratio_max": float(np.max(b_ratio)),
            "B_exponent_min": float(np.min(expo)),
            "B_exponent_max": float(np.max(expo)),
            "b_ok": ok_b,
            "B_ok": ok_B,
        })
        b_ok &= ok_b
        B_ok &= ok_B

    return EquivalenceReport(
        gamma_ratio_min=float(np.min(gb)),
        gamma_ratio_max=float(np.max(gb)),
        B_ratio_min=float(np.min(Bbt)),
        B_ratio_max=float(np.max(Bbt)),
        fitted_m=fitted_m,
        fitted_M=fitted_M,
        scaling_rows=rows,
        b_scaling_ok=b_ok,
        B_scaling_ok=B_ok,
    )
