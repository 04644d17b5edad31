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
quasi-stationary estimate g^ = (1/b)/(1 + b'/b^2) at a far point T, which
is exact for constant and kappa = 1 power-law damping and whose
contribution is damped by exp(-int_t^T b); T is pushed out until the
estimate stabilizes.  The finite stretches are exponential cells
(:func:`_phi_cells`), resolved many at once: a table's cells in one call,
an array read's bridges in one call.  A cell of at least 3 e-folds over
which b is steady closes in one step, q = h(t0) - E h(t1), with an
estimate h of g of the first or second order in eps = b'/b^2, the ratio
the paper's hypothesis bounds, and a relative error of at most the
largest residual of h over the cell (:func:`_closure`); every other open
cell is adaptive, resolved by a depth-first recursion on its own stack,
all of them in one walk.  A
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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial import legendre

from .coeffs import DampingModel
from .quadrature import (
    _KRONROD_NODES,
    QuadratureNonconvergence,
    gauss_kronrod_panel,
    integrate_adaptive,
    kronrod_sums,
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
    log beta decreasing, g finite and positive."""


class TableRangeError(ValueError):
    """Query outside the tabulated horizon; rebuild with a larger one."""


# ---------------------------------------------------------------------------
# exponential cells

_DEPTH = 48          # halvings of a cell, and rows of its stack of pending splits
_CHUNK = 1024        # panels per batched evaluation of b; bounds a round's transients
# panels one cell may take, two a split: about nine times the heaviest cell
# seen (119 panels in the tests, in a table whose cells all walk; 67 in the
# benchmark at seeds 0-2), far below
# the 2**48 leaves of a cell that never settles; such a cell fails after
# 511 splits, its stack holding at most 48 of them, about 200 bytes each
_CELL_PANELS = 1 << 10
_OFFSETS = 1.0 + _KRONROD_NODES  # Kronrod nodes on [0, 2]
_TAIL_CELLS = 800    # outward cells of a tail march before it gives up
_STEADY_MARGIN = 0.5  # least 1 + b'/b^2 in a closed cell: g^ stays within 2 ulps


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
            out[:, s:s + _CHUNK] = (*kronrod_sums(weights_at_nodes, half),
                                    *kronrod_sums(vals, half))
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


def _closes(residual, h0, h1, E, gap, steady, tol: float):
    """The test of a closure h whose residual at each cell's points is
    ``residual``, h0 = h(t0) and h1 = h(t1): (closes, q), q = h0 - E h1."""
    q = h0 - E * h1
    bound = np.max(np.abs(residual), axis=1) * q + E * gap * h1
    return np.isfinite(residual).all(axis=1) & steady & (q > 0.0) & (bound <= tol * q), q


def _closure(model: DampingModel, t0, t1, E, gap, tol: float):
    """The quasi-stationary closure of the cells [t0, t1]: (closes, q).

    The multiplier solves g = (1 + g')/b.  For an estimate h of it with
    h' = b h - 1 + r, the derivative of -h exp(-int_{t0}^{tau} b) is
    exp(-int_{t0}^{tau} b) (1 - r), so q^ = h(t0) - E h(t1) misses
    q = int_{t0}^{t1} exp(-int_{t0}^{tau} b) dtau by at most max|r| q.
    With eps = b'/b^2, c = b''/b^3 and d = b'''/b^4 there are two orders:

    1. h1 = (1/b)/(1 + eps), r = rho = (2 eps^2 - c)/(1 + eps)^2, which
       vanishes for constant b and for kappa = 1;
    2. h2 = (1 - eps + 3 eps^2 - c)/b, r = r2 = 10 eps c - d - 15 eps^3.
       For a power law r2 = kappa (2 kappa - 1)(3 kappa - 2) x^3 with
       x = 1/(b (1 + t)), against rho of order x^2; it vanishes for
       kappa = 1/2, where g = h2 = sqrt(1 + t)/mu + 1/(2 mu^2).

    A cell closes where r is finite and 1 + eps >= ``_STEADY_MARGIN`` at
    its two ends and its 15 Kronrod nodes, and where q^ > 0 and
    max|r| q^ + E gap h(t1) <= tol q^: the second term bounds what the
    K15-G7 gap of int b leaves uncertain in E.  Order 1 is tried first, and
    order 2, which reads b''', only on the cells order 1 refuses, so a cell
    order 1 closes keeps its bits.
    """
    half = 0.5 * (t1 - t0)
    t = np.column_stack((t0, t0[:, None] + half[:, None] * _OFFSETS, t1))
    with np.errstate(all="ignore"):
        b = np.asarray(model.b(t), dtype=float)
        eps = np.asarray(model.db(t), dtype=float) / b / b   # b**2 can leave the range
        c = np.asarray(model.d2b(t), dtype=float) / b / b / b
        steady = (1.0 + eps >= _STEADY_MARGIN).all(axis=1)
        rho = (2.0 * eps * eps - c) / (1.0 + eps) ** 2
        h0, h1 = (1.0 / (b[:, i] * (1.0 + eps[:, i])) for i in (0, -1))
        closes, q = _closes(rho, h0, h1, E, gap, steady, tol)
        refused = np.flatnonzero(~closes)
        if refused.size:
            b, eps, c = b[refused], eps[refused], c[refused]
            d = np.asarray(model.d3b(t[refused]), dtype=float) / b / b / b / b
            r2 = 10.0 * eps * c - d - 15.0 * eps * eps * eps
            h0, h1 = ((1.0 - eps[:, i] + 3.0 * eps[:, i] * eps[:, i] - c[:, i]) / b[:, i]
                      for i in (0, -1))
            closes[refused], q[refused] = _closes(r2, h0, h1, E[refused], gap[refused],
                                                  steady[refused], tol)
    return closes, q


def _phi_cells(model: DampingModel, t0, t1, tol: float):
    """Adaptive exponential cells [t0, t1], elementwise over arrays.

    Returns the arrays (q, E), of the shape of ``t0``, with
    q = int_{t0}^{t1} exp(-int_{t0}^{tau} b) dtau and E = exp(-int_{t0}^{t1} b).
    A cell whose K15 panel stands (see :func:`_settled`) keeps it.  A cell
    whose panel does not stand and holds at least 3 e-folds of damping
    closes in one step where b is steady over it (:func:`_closure`): its q
    is h(t0) - E h(t1), off by at most max|r| q, with h = g^ and r = rho of
    order (b'/b^2)^2 and b''/b^3, the ratios the paper's hypothesis bounds,
    or, where that bound is too loose, with the second-order h2 and its r2,
    of order (b'/b^2)^3 and b'''/b^4.  Every other cell is halved, and q
    composes exactly: q = q_left + E_left * q_right.
    The exponentially dead right half is pruned when
    E_left * width_right <= tol * q_left, through the bound
    q_right <= width_right.  E is the cell's own panel value: the damping
    mass is layer-free and accurate.  Each panel evaluates b at its 15
    Kronrod nodes alone, placed as offsets from the cell's left end (see
    :func:`_exp_panels`); a b those nodes do not resolve splits the cell
    through the K15-G7 gap of int b.

    The panels, splits and prunes are those of a depth-first recursion over
    each cell that evaluates both halves of a node when it splits it, but
    all the cells of a call are walked together, in one walk of one batched
    panel evaluation per round (see :func:`_walk`).  The walk keeps each
    cell's stack of at most ``_DEPTH`` pending splits, about 200 bytes a
    split, and drops every panel once composed or pruned.  A cell that
    takes more than ``_CELL_PANELS`` panels, two a split, raises
    ``QuadratureNonconvergence``, in any batch exactly as alone; so does a
    cell with a needed piece whose panel still does not stand after
    ``_DEPTH`` halvings, where the rounding of t floors its error estimate
    above tol (far horizons against 1/b, in a b both closures refuse).  A
    pruned right half never raises.  A non-finite panel raises
    ``FloatingPointError``.
    """
    shape = np.shape(t0)
    t0 = np.ravel(np.asarray(t0, dtype=float))
    t1 = np.ravel(np.asarray(t1, dtype=float))
    q, err, ib, gap, E = _exp_panels(model.b, t0, t1)
    open_ = ~_settled(q, err, ib, gap, tol)
    candidates = np.flatnonzero(open_ & (ib >= 3.0))
    if candidates.size:
        closes, q_closed = _closure(model, t0[candidates], t1[candidates], E[candidates],
                                     gap[candidates], tol)
        q[candidates[closes]] = q_closed[closes]
        open_[candidates[closes]] = False
    walked = np.flatnonzero(open_)
    if walked.size:
        q[walked] = _walk(model.b, t0[walked], t1[walked], tol)
    return q.reshape(shape), E.reshape(shape)


def _walk(bfun, a, b, tol: float):
    """The composed q of the root cells [a, b], whose own panels do not stand.

    Each cell runs the depth-first recursion on its own stack of at most
    ``_DEPTH`` pending splits, and each round is one batched panel call over
    the next split of every open cell, so every open cell has taken
    1 + 2 * rounds panels.  A split evaluates both halves of its node.  The
    left half composes first, split in turn if its panel does not stand;
    then the prune test either drops the right half's panel or composes it,
    q = q_left + E_left * q_right, splitting it first if its panel does not
    stand.  The composition runs in the recursion's order, so q is the
    recursion's to the bit, in any batch as alone.
    """
    def unresolved(cell, within):
        return QuadratureNonconvergence(
            f"exponential cell [{a[cell]:g}, {b[cell]:g}] did not resolve within {within}")

    q, stacks = np.empty(a.size), [[] for _ in range(a.size)]
    nodes, rounds = list(zip(range(a.size), a.tolist(), b.tolist())), 0  # (cell, lo, hi) to split
    while nodes:
        cells, lo, hi = zip(*nodes)
        deep = [cell for cell in cells if len(stacks[cell]) == _DEPTH]
        if deep:
            raise unresolved(deep[0], f"{_DEPTH} halvings")
        rounds += 1
        if 1 + 2 * rounds > _CELL_PANELS:
            raise unresolved(cells[0], f"{_CELL_PANELS} panels")
        left, right, n = np.array(lo), np.array(hi), len(cells)
        centre = 0.5 * (left + right)
        qs, err, ib, gap, E = _exp_panels(bfun, np.concatenate((left, centre)),
                                          np.concatenate((centre, right)))
        ok = _settled(qs, err, ib, gap, tol).tolist()
        # a stack row per pending split: the right half [mid, end], its
        # panel's q and whether that stands, the left half's E, the prune
        # test's bound E_left * width_right, and the left half's composed q
        # once the split waits on its right half
        splits = zip(cells, lo, centre.tolist(), hi, qs[:n].tolist(), ok, qs[n:].tolist(), ok[n:],
                     E[:n].tolist(), (E[:n] * (right - centre)).tolist())
        nodes = []
        for cell, start, mid, end, value, stands_l, q_r, stands_r, E_l, bound in splits:
            stack = stacks[cell]
            stack.append((mid, end, q_r, stands_r, E_l, bound, None))
            if not stands_l:
                nodes.append((cell, start, mid))
                continue
            while stack:  # carry the composed q down the stack
                mid, end, q_r, stands_r, E_l, bound, q_l = stack[-1]
                if q_l is not None:
                    value = q_l + E_l * value
                elif bound > tol * max(value, 1e-300):  # not pruned
                    if not stands_r:
                        stack[-1] = (mid, end, q_r, stands_r, E_l, bound, value)
                        nodes.append((cell, mid, end))
                        break
                    value = value + E_l * q_r
                stack.pop()
            else:
                q[cell] = value
    return q


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
    has resolved it, with :func:`_phi_cells` at ``tol * 0.1``.  A cell over
    which b is steady closes with that same estimate (:func:`_closure`), so
    for b = 1 the march returns g = 1 exactly from any start, 1e18 included.
    """
    accumulated = 0.0
    damping_factor = 1.0
    T = start
    estimate = None
    stable = 0
    for T_next in _tail_ends(model, start):
        q, E = first if first is not None else _phi_cells(model, T, T_next, tol * 0.1)
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
        q, E = _phi_cells(self.model, t, self.grid[i], DEFAULT_QUAD_TOL)
        return _like_query(q + E * self.g_vals[i])

    def dg_at(self, t):
        return _like_query(self.g_at(t) * self.model.b(t) - 1.0)

    def Gamma_at(self, t):
        return self.beta_at(t) * self.g_at(t)

    def invert_B(self, s):
        """A(s): the time t with B(t) = s, by safeguarded Newton steps in its table cell.

        B' = 1/b is exact, so a step is t <- t - (B(t) - s) b(t).  The steps
        start from the cell's left end where b rises (B concave) and from its
        right end otherwise, the side from which they approach A(s) without
        overshooting.  Each residual's sign shrinks the cell's bracket, a step
        leaving the bracket bisects it instead, and a step of at most
        1e-14 max(1, t) ends the search; 100 steps without one raise
        :class:`QuadratureNonconvergence`.  Like every read, it takes a scalar
        (and returns a float) or an array: the searches of an array run in
        lockstep, each round one array read of b and of B over the searches
        still open, so each element equals its scalar call bit for bit.
        """
        s = np.asarray(s, dtype=float)
        if not np.all(np.isfinite(s)):
            raise ValueError("s must be finite")
        if np.any(s < 0):
            raise ValueError("s must be nonnegative")
        if np.any(s > self.B_vals[-1]):
            raise TableRangeError(
                f"s = {np.max(s):g} beyond tabulated range B(horizon) = {self.B_vals[-1]:g}"
            )
        out = np.zeros(s.shape)         # A(0) = 0
        open_ = np.flatnonzero(s > 0)   # flat positions of the searches still open
        if not open_.size:
            return _like_query(out)
        goal = s.ravel()[open_]
        i = np.searchsorted(self.B_vals, goal)
        lo, hi = self.grid[i - 1], self.grid[i]
        j = np.where((self.B_vals[i] != goal) & (self.model.db(hi) > 0), i - 1, i)
        t, residual = self.grid[j], self.B_vals[j] - goal
        for _ in range(100):
            above = residual > 0
            lo, hi = np.where(above, lo, t), np.where(above, t, hi)
            step = t - residual * self.model.b(t)
            step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
            # a residual of 0 steps by 0: the search ends at t
            ended = np.abs(step - t) <= 1e-14 * np.maximum(1.0, t)
            out.flat[open_[ended]] = step[ended]
            open_, goal, step, lo, hi = (v[~ended] for v in (open_, goal, step, lo, hi))
            if not open_.size:
                return _like_query(out)
            t, residual = step, self.B_at(step) - goal
        raise QuadratureNonconvergence(f"A({goal[0]:g}): no convergence in 100 Newton steps")


def build_aux_table(model: DampingModel, horizon: float) -> AuxTable:
    """Tabulate B, log beta and g on a log-spaced grid over [0, horizon].

    The grid is 0, then ``POINTS_PER_DECADE`` nodes a decade from ``T_MIN``.

    g is filled right to left by the exact cell recurrence
    g(t_i) = q_i + E_i * g(t_{i+1}), seeded by the stabilized tail value at
    the horizon, so per-cell quadrature errors are the only error source.
    The increments of B and log beta are one :func:`integrate_adaptive`
    call each over all the cells, under one tolerance: a cell's first K15
    panel stands where it meets it.  The cells' (q_i, E_i) and those of
    the first cell of the tail march are one :func:`_phi_cells` call.  A
    table failing its checks raises :class:`TabulationError`.
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
    dI = integrate_adaptive(bfun, lo, hi, **adaptive)
    # the first cell of the tail march from the horizon rides along
    tail_end = next(_tail_ends(model, horizon))
    q_cells, E_cells = _phi_cells(model, np.append(lo, horizon), np.append(hi, tail_end), tol * 0.1)

    with np.errstate(over="ignore"):
        B_vals = np.concatenate(([0.0], np.cumsum(dB)))
        log_beta = np.concatenate(([0.0], -np.cumsum(dI)))
    for name, vals in (("B", B_vals), ("log beta", log_beta)):
        if not np.all(np.isfinite(vals)):
            t = grid[np.argmin(np.isfinite(vals))]
            raise TabulationError(f"{name} leaves the floating-point range at t = {t:g}")

    # the recurrence on Python floats: the same IEEE operations as on numpy
    # scalars, without their per-element overhead
    g = _g_tail(model, horizon, tol, first=(q_cells[-1], E_cells[-1]))
    g_rev = [g]
    for q, E in zip(q_cells[-2::-1].tolist(), E_cells[-2::-1].tolist()):
        g = q + E * g
        g_rev.append(g)
    g_vals = np.array(g_rev[::-1])

    if not (np.all(np.diff(B_vals) > 0) and np.all(np.diff(log_beta) < 0)):
        raise TabulationError("tabulation lost monotonicity; damping law invalid")
    if not np.all(np.isfinite(g_vals)):
        t = grid[np.argmin(np.isfinite(g_vals))]
        raise TabulationError(f"g is not finite at t = {t:g}")
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
