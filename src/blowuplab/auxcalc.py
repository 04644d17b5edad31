"""Accumulated damping functions and admissibility diagnostics.

Computes, for a damping law b(t):

  B(t)      accumulated reciprocal damping, integral of 1/b on [0, t]
  A(s)      inverse of B, by bracketed root finding on a monotone table
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
exp(-int_t^T b); T is pushed out until the estimate stabilizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .coeffs import DampingModel
from .quadrature import (
    _GAUSS_WEIGHTS,
    _KRONROD_NODES,
    _KRONROD_WEIGHTS,
    gauss_kronrod_panel,
    integrate_adaptive,
)

__all__ = [
    "AuxTable",
    "HypothesisReport",
    "EquivalenceReport",
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
POINTS_PER_DECADE = 64


class TailNonconvergence(RuntimeError):
    """The improper tail of Gamma failed its decay test within the horizon.

    For the catalog families this happens exactly when the damping is not
    admissible (beta fails to be integrable)."""


class TableRangeError(ValueError):
    """Query outside the tabulated horizon; rebuild with a larger one."""


# ---------------------------------------------------------------------------
# panel primitives


def _exp_weighted_panel(bfun, t0: float, t1: float):
    """One K15 panel of tau -> exp(-int_{t0}^{tau} b) on [t0, t1].

    Returns (integral, error estimate, int_{t0}^{t1} b).  The inner
    accumulations run over the sub-panels between consecutive Kronrod
    nodes, so a single vectorized call to ``bfun`` feeds everything.
    """
    half = 0.5 * (t1 - t0)
    nodes = 0.5 * (t0 + t1) + half * _KRONROD_NODES
    breaks = np.concatenate(([t0], nodes, [t1]))
    lefts, rights = breaks[:-1], breaks[1:]
    sub_half = 0.5 * (rights - lefts)
    sub_mid = 0.5 * (lefts + rights)
    grid = sub_mid[:, None] + sub_half[:, None] * _KRONROD_NODES[None, :]
    vals = np.asarray(bfun(grid.ravel()), dtype=float).reshape(grid.shape)
    sub_ints = sub_half * (vals @ _KRONROD_WEIGHTS)
    cum = np.cumsum(sub_ints)
    weights_at_nodes = np.exp(-cum[:-1])
    k15 = half * float(np.dot(_KRONROD_WEIGHTS, weights_at_nodes))
    g7 = half * float(np.dot(_GAUSS_WEIGHTS, weights_at_nodes))
    return k15, abs(k15 - g7), float(cum[-1])


def _phi_cell(bfun, t0: float, t1: float, tol: float, depth: int = 48):
    """Adaptive version of :func:`_exp_weighted_panel`.

    Returns (q, E) with q = int_{t0}^{t1} exp(-int_{t0}^{tau} b) dtau and
    E = exp(-int_{t0}^{t1} b); splitting uses the exact composition rule
    q = q_left + E_left * q_right, E = E_left * E_right.

    A cell holding more than a few e-folds of damping hides the decay layer
    from the Kronrod nodes, so such cells are split regardless of the error
    estimate; the exponentially dead right remainder is pruned through the
    bound q_right <= width.  A non-finite panel (b overflowing, say)
    raises ``FloatingPointError``.
    """
    q, err, ib = _exp_weighted_panel(bfun, t0, t1)
    if not (math.isfinite(q) and math.isfinite(ib)):
        raise FloatingPointError(f"non-finite damping integral on [{t0:g}, {t1:g}]")
    E = math.exp(-ib)  # the damping mass itself is layer-free and accurate
    if (ib <= 3.0 and err <= tol * max(abs(q), 1e-300)) or depth <= 0:
        return q, E
    mid = 0.5 * (t0 + t1)
    q_l, e_l = _phi_cell(bfun, t0, mid, tol, depth - 1)
    if e_l * (t1 - mid) <= tol * max(q_l, 1e-300):
        return q_l, E
    q_r, _ = _phi_cell(bfun, mid, t1, tol, depth - 1)
    return q_l + e_l * q_r, E


def _g_tail(model: DampingModel, start: float, tol: float, max_cells: int = 800) -> float:
    """g(start) = int_start^inf exp(-int_start^tau b) dtau.

    Marches geometrically growing cells outward, closing with the
    quasi-stationary estimate (1/b)/(1 + b'/b^2); stops once the running
    total is stable to ``tol`` over several consecutive extensions.
    """
    bfun = model.b
    accumulated = 0.0
    damping_factor = 1.0
    T = start
    step = 0.5 / float(model.b(start))
    estimate = None
    stable = 0
    for _ in range(max_cells):
        T_next = T + max(step, 0.35 * T)
        q, E = _phi_cell(bfun, T, T_next, tol * 0.1)
        accumulated += damping_factor * q
        damping_factor *= E
        T = T_next
        bT = float(model.b(T))
        correction = 1.0 + float(model.db(T)) / bT**2
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
    if t == 0:
        return 0.0
    return integrate_adaptive(lambda x: 1.0 / model.b(x), 0.0, t,
                              abs_tol=tol, rel_tol=tol)


def compute_beta(model: DampingModel, t: float, tol: float = DEFAULT_QUAD_TOL) -> float:
    """beta(t) = exp(-int_0^t b), relative accuracy ~ tol."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 1.0
    integral = integrate_adaptive(model.b, 0.0, t, abs_tol=0.1 * tol, rel_tol=0.0)
    return math.exp(-integral)


def compute_Gamma(model: DampingModel, t: float, tol: float = DEFAULT_QUAD_TOL) -> float:
    """Gamma(t) = int_t^inf beta, via the factored tail march.

    Computed as beta(t) * g(t) so the result keeps relative accuracy even
    where beta is exponentially small.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    return compute_beta(model, t, tol) * _g_tail(model, t, tol)


def compute_bhat1(model: DampingModel, tol: float = DEFAULT_QUAD_TOL) -> float:
    """Reciprocal total mass of beta: 1 / Gamma(0)."""
    return 1.0 / _g_tail(model, 0.0, tol)


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
    (about ``quad_tol`` relative) instead of an interpolation error.  Every
    read takes a scalar (and returns a float) or an array of times (and
    returns an array of its shape); the B and log beta bridges of an array
    are one batched panel call.
    """

    model: DampingModel
    grid: np.ndarray
    B_vals: np.ndarray
    log_beta_vals: np.ndarray
    g_vals: np.ndarray
    bhat1: float
    quad_tol: float
    B_unit_shift: float  # B(1), the regularizing shift for speed/forcing laws

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

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
        cells = [_phi_cell(self.model.b, float(t0), float(t1), self.quad_tol)
                 for t0, t1 in zip(t.flat, self.grid[i].flat)]
        cells = np.reshape(cells, t.shape + (2,))
        return _like_query(cells[..., 0] + cells[..., 1] * self.g_vals[i])

    def dg_at(self, t):
        return _like_query(self.g_at(t) * self.model.b(t) - 1.0)

    def Gamma_at(self, t):
        return self.beta_at(t) * self.g_at(t)

    def invert_B(self, s: float) -> float:
        """A(s): the time t with B(t) = s, to |B(A(s)) - s| <= quad_tol."""
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
        lo = float(self.grid[i - 1]) if i > 0 else 0.0
        hi = float(self.grid[i])
        if self.B_vals[i] == s:
            return hi
        root = brentq(lambda t: self.B_at(t) - s, lo, hi,
                      xtol=1e-14 * max(1.0, hi), rtol=8.881784197001252e-16)
        return float(root)


def build_aux_table(
    model: DampingModel,
    horizon: float,
    quad_tol: float = DEFAULT_QUAD_TOL,
    points_per_decade: int = POINTS_PER_DECADE,
    t_min: float = 1e-3,
) -> AuxTable:
    """Tabulate B, log beta and g on a log-spaced grid over [0, horizon].

    g is filled right to left by the exact cell recurrence
    g(t_i) = q_i + E_i * g(t_{i+1}), seeded by the stabilized tail value at
    the horizon, so per-cell quadrature errors are the only error source.
    """
    if not math.isfinite(horizon):
        raise ValueError("horizon must be finite")
    if horizon <= 10 * t_min:
        raise ValueError("horizon too small for the tabulation grid")
    decades = math.log10(horizon / t_min)
    count = max(2, int(math.ceil(decades * points_per_decade)))
    grid = np.concatenate(([0.0], np.geomspace(t_min, horizon, count)))
    grid[-1] = horizon

    bfun = model.b
    n_cells = len(grid) - 1
    dB = np.empty(n_cells)
    dI = np.empty(n_cells)
    q_cells = np.empty(n_cells)
    E_cells = np.empty(n_cells)
    for i in range(n_cells):
        t0, t1 = float(grid[i]), float(grid[i + 1])
        dB[i] = integrate_adaptive(lambda x: 1.0 / bfun(x), t0, t1,
                                   abs_tol=quad_tol * 1e-3, rel_tol=quad_tol * 0.1)
        val, err = gauss_kronrod_panel(bfun, t0, t1)
        if err > quad_tol * max(1.0, abs(val)):
            val = integrate_adaptive(bfun, t0, t1, abs_tol=quad_tol * 1e-3,
                                     rel_tol=quad_tol * 0.1)
        dI[i] = val
        q_cells[i], E_cells[i] = _phi_cell(bfun, t0, t1, quad_tol * 0.1)

    B_vals = np.concatenate(([0.0], np.cumsum(dB)))
    log_beta = np.concatenate(([0.0], -np.cumsum(dI)))

    g_vals = np.empty(len(grid))
    g_vals[-1] = _g_tail(model, horizon, quad_tol)
    for i in range(n_cells - 1, -1, -1):
        g_vals[i] = q_cells[i] + E_cells[i] * g_vals[i + 1]

    if not (np.all(np.diff(B_vals) > 0) and np.all(np.diff(log_beta) < 0)):
        raise RuntimeError("tabulation lost monotonicity; damping law invalid")
    if not np.all(g_vals > 0):
        raise RuntimeError("nonpositive multiplier values in table")

    table = AuxTable(
        model=model,
        grid=grid,
        B_vals=B_vals,
        log_beta_vals=log_beta,
        g_vals=g_vals,
        bhat1=1.0 / float(g_vals[0]),
        quad_tol=quad_tol,
        B_unit_shift=0.0,
    )
    object.__setattr__(table, "B_unit_shift", table.B_at(1.0))
    return table


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


def check_hypothesis(
    model: DampingModel,
    horizon: float,
    margin: float = 0.05,
    points_per_decade: int = POINTS_PER_DECADE,
) -> HypothesisReport:
    """Sample the admissibility ratios up to ``horizon`` and report verdicts.

    The liminf/limsup estimates are extrema over the last decade
    [horizon/10, horizon]; drift relative to the preceding decade marks the
    report inconclusive.
    """
    if not math.isfinite(horizon):
        raise ValueError("horizon must be finite")
    if horizon < 100:
        raise ValueError("horizon must be at least 100")
    count = max(16, int(math.log10(horizon) * points_per_decade))
    ts = np.geomspace(1.0, horizon, count)
    b = np.asarray(model.b(ts), dtype=float)
    db = np.asarray(model.db(ts), dtype=float)
    ratio1 = db / b**2                      # liminf target > -1
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
        tb_liminf=float(np.min((ts * b)[tail])),
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


def verify_equivalences(aux: AuxTable, horizon: float, margin: float = 0.05) -> EquivalenceReport:
    """Measure Gamma*b/beta and B*b/t plus the dilation-ratio bounds.

    For lam in {2, 4, 8} and tail times t the ratios b(lam t)/b(t) and
    B(lam t)/B(t) are checked against the power bounds implied by the
    fitted growth exponents (with ``margin`` of slack in the exponent).
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
        lo, hi = lam ** (-fitted_M - margin), lam ** (fitted_m + margin)
        ok_b = bool(np.all((b_ratio >= lo) & (b_ratio <= hi)))
        expo = np.log(B_ratio) / np.log(lam)
        ok_B = bool(np.all((expo >= 1.0 - fitted_m - margin) & (expo <= 1.0 + fitted_M + margin)))
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
