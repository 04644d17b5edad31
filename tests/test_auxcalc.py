"""Auxiliary damping functions against closed forms; admissibility checks.

Closed-form oracles used here:
  constant mu:  B = t/mu, beta = exp(-mu t), Gamma = exp(-mu t)/mu, g = 1/mu
  power kappa=1, mu>1:  beta = (1+t)^(-mu), Gamma = (1+t)^(1-mu)/(mu-1)
  power kappa=1/2, mu=1:  Gamma = (sqrt(1+t) + 1/2) exp(2 - 2 sqrt(1+t))
  power kappa=-1/2, mu=1: Gamma = (2/3)^(1/3) e^(2/3) GammaUpper(2/3, (2/3)(1+t)^(3/2))
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import gammaincc, gamma as gamma_fn

from blowuplab import auxcalc
from blowuplab.auxcalc import (
    TableRangeError,
    TabulationError,
    TailNonconvergence,
    build_aux_table,
    check_hypothesis,
    compute_B,
    compute_Gamma,
    compute_beta,
    compute_bhat1,
    verify_equivalences,
)
from blowuplab.coeffs import DampingModel, Perturbation
from blowuplab.quadrature import (
    _GAUSS_WEIGHTS,
    _KRONROD_NODES,
    _KRONROD_WEIGHTS,
    QuadratureNonconvergence,
)


def gamma_powerlaw_half(t: float) -> float:
    s = math.sqrt(1.0 + t)
    return (s + 0.5) * math.exp(2.0 - 2.0 * s)


def gamma_powerlaw_minus_half(t: float) -> float:
    u0 = (1.0 + t) ** 1.5
    return ((2.0 / 3.0) ** (1.0 / 3.0) * math.exp(2.0 / 3.0)
            * gammaincc(2.0 / 3.0, 2.0 * u0 / 3.0) * gamma_fn(2.0 / 3.0))


# -- accumulated reciprocal damping -------------------------------------------

def test_compute_B_closed_forms():
    assert abs(compute_B(DampingModel.constant(2.0), 3.0) - 1.5) < 1e-10
    got = compute_B(DampingModel.power_law(1.0, 0.5), 3.0)
    assert abs(got - 14.0 / 3.0) < 1e-9


def test_compute_B_growth_rate():
    """B(t)/t^(1+kappa) stays in a fixed bracket across four decades."""
    m = DampingModel.power_law(1.0, 0.5)
    for t in (10.0, 100.0, 1e3, 1e4):
        ratio = compute_B(m, t) / t**1.5
        assert 0.6 < ratio < 0.8, (t, ratio)


def test_invert_B_simple():
    aux1 = build_aux_table(DampingModel.constant(1.0), 20.0)
    assert abs(aux1.invert_B(7.0) - 7.0) < 1e-10
    aux2 = build_aux_table(DampingModel.constant(2.0), 20.0)
    assert abs(aux2.invert_B(1.5) - 3.0) < 1e-10


def test_invert_B_at_zero_is_zero():
    assert build_aux_table(DampingModel.constant(2.0), 20.0).invert_B(0.0) == 0.0


def test_invert_B_power_law(aux_powerlaw_half):
    # closed-form inverse (1 + 1.5 s)^(2/3) - 1 gives 3 at s = 14/3
    got = aux_powerlaw_half.invert_B(14.0 / 3.0)
    assert abs(got - 3.0) < 1e-8


def test_invert_B_round_trip(aux_powerlaw_half):
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.0, 250.0, 100):
        s = aux_powerlaw_half.B_at(float(t))
        back = aux_powerlaw_half.invert_B(s)
        assert abs(back - t) <= 1e-6 * (1.0 + t)


@pytest.mark.parametrize("model, starts_left", [
    # b = sqrt(1+t) rises, so B is concave: Newton steps from a cell's right
    # end would overshoot to the left and could leave the cell, so they start
    # from its left end
    (DampingModel.power_law(1.0, -0.5), True),
    # b falls at the right end of every cell tested: B is convex there
    (DampingModel.perturbed_power(1.0, 0.5, Perturbation("sin", 0.25)), False),
])
def test_invert_B_round_trips_inside_its_cell(model, starts_left, monkeypatch):
    """|B(A(s)) - s| <= 1e-13 max(1, s), with A(s) in the cell that brackets s,
    by Newton steps alone from the end where they cannot overshoot.  One
    lockstep call searches every seventh cell; the cells are disjoint, so
    each element's evaluations are the points read inside its cell."""
    table = build_aux_table(model, 1e3)
    read_B = auxcalc.AuxTable.B_at
    evaluations = []

    def recording_B_at(self, t):
        value = read_B(self, t)
        evaluations.extend(zip(np.ravel(t).tolist(), np.ravel(value).tolist()))
        return value

    monkeypatch.setattr(auxcalc.AuxTable, "B_at", recording_B_at)
    cells = np.arange(1, len(table.grid), 7)
    lo, hi = table.grid[cells - 1], table.grid[cells]
    assert np.array_equal(table.invert_B(table.B_vals[cells]), hi)
    bisections = 0
    for fraction in (1e-9, 0.3, 0.999999):
        s = table.B_vals[cells - 1] + fraction * (table.B_vals[cells] - table.B_vals[cells - 1])
        evaluations.clear()
        t = table.invert_B(s)
        assert np.all((lo <= t) & (t <= hi))
        assert np.all(np.abs(read_B(table, t) - s) <= 1e-13 * np.maximum(1.0, s)), fraction
        # the first cell whose right end is at or above a point holds it
        owners = np.searchsorted(hi, [x for x, _ in evaluations])
        assert all(lo[k] <= x for k, (x, _) in zip(owners, evaluations))
        for k, (i, target) in enumerate(zip(cells, s.tolist())):
            # a point that is not the Newton step from the point before it is a bisection
            j = i - 1 if starts_left else i
            previous = (float(table.grid[j]), float(table.B_vals[j]))
            for point in (p for owner, p in zip(owners, evaluations) if owner == k):
                b = model.b(np.array([previous[0]])).item()     # b of a lockstep round
                bisections += point[0] != previous[0] - (previous[1] - target) * b
                previous = point
    assert bisections == 0


def test_invert_B_raises_after_its_step_cap(aux_powerlaw_half, monkeypatch):
    """Newton steps that keep crawling end in QuadratureNonconvergence, not a hang."""
    s = 10.0
    # every residual moves t up by 2e-14 max(1, t): inside the bracket, above the stop
    monkeypatch.setattr(auxcalc.AuxTable, "B_at",
                        lambda self, t: s - 2e-14 * np.maximum(1.0, t) / self.model.b(t))
    with pytest.raises(QuadratureNonconvergence, match="100 Newton steps"):
        aux_powerlaw_half.invert_B(s)


INVERTED = [
    DampingModel.constant(2.0),
    DampingModel.power_law(1.0, 0.5),
    DampingModel.power_law(1.0, -0.5),
    DampingModel.perturbed_power(1.0, 0.5, Perturbation("log", 1.0)),
    DampingModel.perturbed_power(1.0, -0.3, Perturbation("sin", 0.5)),
]


def _reference_invert_B(table, s: float) -> float:
    """A(s) by one search's loop of safeguarded Newton steps on floats, b
    read as a one-row array, as a lockstep round reads it."""
    if s == 0:
        return 0.0
    i = int(np.searchsorted(table.B_vals, s))
    lo, hi = float(table.grid[i - 1]), float(table.grid[i])
    j = i - 1 if table.B_vals[i] != s and table.model.db(hi) > 0 else i
    t, residual = float(table.grid[j]), float(table.B_vals[j]) - s
    for _ in range(100):
        if residual == 0:
            return t
        lo, hi = (lo, t) if residual > 0 else (t, hi)
        step = t - residual * table.model.b(np.array([t])).item()
        step = step if lo <= step <= hi else 0.5 * (lo + hi)
        if abs(step - t) <= 1e-14 * max(1.0, t):
            return step
        t, residual = step, table.B_at(step) - s
    raise AssertionError(f"A({s:g}) did not converge")


@pytest.mark.parametrize("model", INVERTED, ids=lambda m: f"{m.kind}-{m.kappa}")
def test_invert_B_array_equals_its_scalar_calls(model):
    """The lockstep searches of an array give each element its scalar call's
    bits, and the one-search loop's: a random s inside every cell, s = 0
    and every s = B(grid[i])."""
    table = build_aux_table(model, 1e3)
    rng = np.random.default_rng(3)
    inside = table.B_vals[:-1] + rng.uniform(0.0, 1.0, len(table.grid) - 1) * np.diff(table.B_vals)
    s = np.concatenate((inside, table.B_vals, [0.0]))     # B_vals[0] = 0 too
    rng.shuffle(s)
    got = table.invert_B(s.reshape(-1, 2))
    assert got.shape == (len(s) // 2, 2)
    assert np.array_equal(got.ravel(), [table.invert_B(x) for x in s.tolist()])
    assert np.array_equal(got.ravel(), [_reference_invert_B(table, x) for x in s.tolist()])
    assert isinstance(table.invert_B(float(s[0])), float)


@pytest.mark.parametrize("bad, error", [
    (math.nan, ValueError), (-1.0, ValueError), (math.inf, ValueError), (2.0, TableRangeError),
])
def test_invert_B_array_raises_as_its_scalar_call(aux_const1, bad, error):
    """One bad element fails the whole array with its scalar call's error."""
    bad = bad * aux_const1.B_vals[-1] if error is TableRangeError else bad
    with pytest.raises(error) as scalar:
        aux_const1.invert_B(bad)
    with pytest.raises(error) as array:
        aux_const1.invert_B(np.array([1.0, bad, 0.0]))
    assert str(array.value) == str(scalar.value)


def test_invert_B_out_of_range(aux_powerlaw_half):
    with pytest.raises(TableRangeError):
        aux_powerlaw_half.invert_B(aux_powerlaw_half.B_vals[-1] * 1.01)


# -- decay factor and its tail integral ---------------------------------------

def test_compute_beta_closed_forms():
    assert compute_beta(DampingModel.power_law(1.0, 0.3), 0.0) == 1.0
    assert abs(compute_beta(DampingModel.constant(1.0), 2.0) - math.exp(-2.0)) < 1e-10
    got = compute_beta(DampingModel.power_law(2.0, 1.0), 9.0)
    assert abs(got - 0.01) < 1e-10


def test_compute_Gamma_closed_forms():
    assert abs(compute_Gamma(DampingModel.constant(1.0), 0.0) - 1.0) < 1e-10
    got = compute_Gamma(DampingModel.constant(3.0), 1.0)
    assert abs(got - math.exp(-3.0) / 3.0) < 1e-12
    assert abs(compute_Gamma(DampingModel.power_law(2.0, 1.0), 0.0) - 1.0) < 1e-9


def test_compute_Gamma_incomplete_gamma_oracle():
    m = DampingModel.power_law(1.0, -0.5)
    for t in (0.0, 1.0, 10.0):
        want = gamma_powerlaw_minus_half(t)
        got = compute_Gamma(m, t)
        assert abs(got - want) <= 1e-10 * want, t


def test_compute_bhat1():
    assert abs(compute_bhat1(DampingModel.constant(2.0)) - 2.0) < 1e-10
    assert abs(compute_bhat1(DampingModel.power_law(2.0, 1.0)) - 1.0) < 1e-9
    # Gamma(0) = 3/2 exactly for the square-root decay family
    v = compute_bhat1(DampingModel.power_law(1.0, 0.5))
    assert abs(v * 1.5 - 1.0) <= 1e-8


def test_tail_nonconvergence_for_inadmissible():
    with pytest.raises(TailNonconvergence):
        compute_Gamma(DampingModel.power_law(0.5, 1.0), 0.0)


# -- the multiplier g ----------------------------------------------------------

def test_g_constant_family(aux_const1):
    for t in (0.0, 1.0, 30.0):
        assert abs(aux_const1.g_at(t) - 1.0) < 1e-10
    aux2 = build_aux_table(DampingModel.constant(2.0), 20.0)
    assert abs(aux2.g_at(5.0) - 0.5) < 1e-10


def test_g_constant_family_over_a_long_table():
    """Constant damping: g = 1/mu at every node and read of a table to 1e7,
    where cells are many ulps of t narrower than t itself."""
    for mu in (1.0, 0.97, 1e-3, 1e4):
        aux = build_aux_table(DampingModel.constant(mu), 1e7)
        assert np.max(np.abs(aux.g_vals * mu - 1.0)) < 1e-12
        t = np.geomspace(1e-4, 1e7, 200)
        assert np.max(np.abs(aux.g_at(t) * mu - 1.0)) < 1e-11


def test_g_growing_damping_at_large_times():
    """b = sqrt(1 + t) to horizon 1e6 against the closed form
    g = (2/3)**(1/3) e**v GammaUpper(2/3, v), v = (2/3)(1 + t)**1.5, at 1e-10."""
    mpmath = pytest.importorskip("mpmath")
    aux = build_aux_table(DampingModel.power_law(1.0, -0.5), 1e6)
    with mpmath.workdps(40):
        def g_exact(t):
            v = mpmath.mpf(2) / 3 * (1 + mpmath.mpf(t)) ** mpmath.mpf(1.5)
            third = mpmath.mpf(1) / 3
            return float((2 * third) ** third * mpmath.exp(v) * mpmath.gammainc(2 * third, v))
        exact = np.array([g_exact(t) for t in aux.grid])
    assert np.max(np.abs(aux.g_vals / exact - 1.0)) < 1e-10


def test_g_at_zero_is_reciprocal_mass(aux_powerlaw_half):
    assert abs(aux_powerlaw_half.g_at(0.0) * aux_powerlaw_half.bhat1 - 1.0) < 1e-12


def test_g_ode_residual(aux_powerlaw_half):
    """-g' + g b = 1 with g' from centered differences of Gamma/beta."""
    h = 1e-4
    worst = 0.0
    for t in np.linspace(h, 50.0, 120):
        gp = (aux_powerlaw_half.Gamma_at(t + h) / aux_powerlaw_half.beta_at(t + h)
              - aux_powerlaw_half.Gamma_at(t - h) / aux_powerlaw_half.beta_at(t - h)) / (2 * h)
        g = aux_powerlaw_half.g_at(t)
        b = float(aux_powerlaw_half.model.b(t))
        worst = max(worst, abs(-gp + g * b - 1.0))
    assert worst <= 1e-6, worst


def test_dg_identity(aux_powerlaw_half):
    t = 3.0
    g = aux_powerlaw_half.g_at(t)
    b = float(aux_powerlaw_half.model.b(t))
    assert aux_powerlaw_half.dg_at(t) == g * b - 1.0


# -- table invariants ----------------------------------------------------------

CATALOG = [
    DampingModel.constant(0.5),
    DampingModel.constant(1.0),
    DampingModel.constant(2.0),
    DampingModel.power_law(1.0, 0.5),
    DampingModel.power_law(1.0, -0.5),
]


@pytest.mark.parametrize("model", CATALOG, ids=lambda m: f"{m.kind}-{m.mu}-{m.kappa}")
def test_table_monotonicity_and_anchors(model):
    aux = build_aux_table(model, 200.0)
    assert aux.B_vals[0] == 0.0
    assert np.all(np.diff(aux.B_vals) > 0)
    assert aux.beta_vals[0] == 1.0
    assert np.all(np.diff(aux.log_beta_vals) < 0)
    log_gamma = aux.log_beta_vals + np.log(aux.g_vals)
    assert np.all(np.diff(log_gamma) < 0)
    assert np.all(aux.g_vals > 0)
    assert abs(aux.Gamma_vals[0] * aux.bhat1 - 1.0) <= auxcalc.DEFAULT_QUAD_TOL * 10


@pytest.mark.parametrize("model", CATALOG, ids=lambda m: f"{m.kind}-{m.mu}-{m.kappa}")
def test_beta_over_b_vanishes(model):
    aux = build_aux_table(model, 200.0)
    early = aux.beta_at(1.0) / float(model.b(1.0))
    late = aux.beta_at(200.0) / float(model.b(200.0))
    assert late <= 1e-3 * early


@pytest.mark.parametrize("model", CATALOG, ids=lambda m: f"{m.kind}-{m.mu}-{m.kappa}")
def test_time_weighted_damping_tail(model):
    horizon = 200.0
    ts = np.linspace(horizon / 2.0, horizon, 50)
    assert np.min(ts * np.asarray(model.b(ts))) > 1.0


def test_table_range_errors(aux_const1):
    with pytest.raises(TableRangeError):
        aux_const1.g_at(aux_const1.horizon * 2.0)
    with pytest.raises(ValueError):
        aux_const1.B_at(-1.0)


@pytest.mark.parametrize("read", ["B_at", "log_beta_at", "beta_at", "g_at", "dg_at", "Gamma_at"])
def test_nan_queries_raise_value_error(aux_const1, read):
    with pytest.raises(ValueError, match="finite"):
        getattr(aux_const1, read)(math.nan)
    with pytest.raises(ValueError, match="finite"):
        getattr(aux_const1, read)(np.array([1.0, math.nan]))


def test_invert_B_rejects_nan(aux_const1):
    with pytest.raises(ValueError, match="finite"):
        aux_const1.invert_B(math.nan)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_array_reads_match_scalar_reads(aux_powerlaw_half, data):
    """Array reads keep the query's shape and agree with reads point by point.

    A batched bridge may round its panel sum differently, so B and log beta
    agree to 1e-15 of the bridging node's table value; g agrees exactly.
    """
    aux = aux_powerlaw_half
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=4), label="shape")
    times = st.one_of(st.floats(0.0, aux.horizon),
                      st.sampled_from([float(t) for t in aux.grid]))
    t = data.draw(hnp.arrays(float, shape, elements=times), label="t")
    node = np.searchsorted(aux.grid, t)
    for read, table in ((aux.B_at, aux.B_vals), (aux.log_beta_at, aux.log_beta_vals)):
        batch = read(t)
        single = np.reshape([read(float(x)) for x in t.flat], t.shape)
        assert batch.shape == t.shape
        assert np.all(np.abs(batch - single) <= 1e-15 * np.abs(table[node]))
    g = aux.g_at(t)
    assert g.shape == t.shape
    assert np.array_equal(g, np.reshape([aux.g_at(float(x)) for x in t.flat], t.shape))


def test_scalar_reads_return_floats(aux_powerlaw_half):
    for read in ("B_at", "log_beta_at", "beta_at", "g_at", "dg_at", "Gamma_at"):
        assert type(getattr(aux_powerlaw_half, read)(3.0)) is float, read


def test_nonfinite_horizon_rejected():
    model = DampingModel.constant(1.0)
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            build_aux_table(model, horizon)
        with pytest.raises(ValueError, match="finite"):
            check_hypothesis(model, horizon)


def test_overflowing_damping_is_a_numerical_failure():
    """b = 1e308 sqrt(1+t) overflows at once; the build stops instead of recursing."""
    with pytest.raises(FloatingPointError):
        build_aux_table(DampingModel.power_law(1e308, -0.5), 100.0)


def test_failed_table_checks_are_numerical_failures(monkeypatch):
    """The table checks raise TabulationError, an ArithmeticError (exit 3).
    A tail value of inf gives g = inf in every row, which g_at(50) would
    otherwise read."""
    assert issubclass(TabulationError, ArithmeticError)

    class NegativeNearZero:
        """b = -1 on the first grid cell: B decreases there."""

        def b(self, t):
            return np.where(np.asarray(t) < 1e-3, -1.0, 1.0)

        def db(self, t):
            return np.zeros_like(np.asarray(t, dtype=float))

        d2b = d3b = db

    with pytest.raises(TabulationError, match="monotonicity"):
        build_aux_table(NegativeNearZero(), 10.0)
    monkeypatch.setattr(auxcalc, "_g_tail", lambda model, start, tol, first: -1.0)
    with pytest.raises(TabulationError, match="nonpositive"):
        build_aux_table(DampingModel.constant(1.0), 10.0)
    monkeypatch.setattr(auxcalc, "_g_tail", lambda model, start, tol, first: math.inf)
    with pytest.raises(TabulationError, match="g is not finite at t = 0"):
        build_aux_table(DampingModel.constant(1.0), 100.0)


@pytest.mark.parametrize("model, horizon, walks", [
    (DampingModel.constant(1.0), 300.0, False),
    (DampingModel.power_law(1.0, -0.5), 1e4, True),
    (DampingModel.perturbed_power(1.0, -0.3, Perturbation("sin", 0.5)), 1e3, True),
])
def test_g_recurrence_is_the_numpy_scalar_recurrence(model, horizon, walks, monkeypatch):
    """The table's g is, byte for byte, g_i = q_i + E_i g_{i+1} run on
    np.float64 scalars over the grid cells' (q, E), from the tail value."""
    walked = []
    walk = auxcalc._walk
    monkeypatch.setattr(auxcalc, "_walk", lambda bfun, a, b, tol: walked.append(a.size)
                        or walk(bfun, a, b, tol))
    table = build_aux_table(model, horizon)
    assert bool(walked) == walks
    tol = auxcalc.DEFAULT_QUAD_TOL
    q, E = auxcalc._phi_cells(model, table.grid[:-1], table.grid[1:], tol * 0.1)
    g = [np.float64(auxcalc._g_tail(model, horizon, tol))]
    for q_i, E_i in zip(q[::-1], E[::-1]):
        g.append(q_i + E_i * g[-1])
    assert table.g_vals.tobytes() == np.array(g[::-1]).tobytes()


# -- the batched exponential cell ----------------------------------------------

def _reference_panel(bfun, t0, t1):
    """One K15 panel of tau -> exp(-int_{t0}^{tau} b), scalar: (q, err, ib, gap).

    b is evaluated at the 15 Kronrod nodes, as offsets from t0 added only
    where b is evaluated; the integral of b up to each node is one dot
    product of its row of the spectral integration matrix."""
    half = 0.5 * (t1 - t0)
    vals = np.asarray(bfun(t0 + half * (1.0 + _KRONROD_NODES)), dtype=float)
    S = auxcalc._INTEGRATE_TO_NODES
    cum = half * np.array([np.dot(vals, S[i]) for i in range(15)])
    weights_at_nodes = np.exp(-cum)
    ib = half * float(np.dot(vals, _KRONROD_WEIGHTS))
    ib_g7 = half * float(np.dot(vals, _GAUSS_WEIGHTS))
    k15 = half * float(np.dot(weights_at_nodes, _KRONROD_WEIGHTS))
    g7 = half * float(np.dot(weights_at_nodes, _GAUSS_WEIGHTS))
    return k15, abs(k15 - g7), ib, abs(ib - ib_g7)


def _reference_closure(model, t0, t1, E, gap, tol):
    """The closed q of the cell [t0, t1], or None where both orders refuse it.

    b, b' and b'' are evaluated at the cell's ends and 15 Kronrod nodes,
    and b''' there too when order 1 refuses.  With eps = b'/b^2,
    c = b''/b^3 and d = b'''/b^4 at each point, order 1 takes
    h = 1/(b (1 + eps)) and r = (2 eps^2 - c)/(1 + eps)^2, order 2
    h = (1 - eps + 3 eps^2 - c)/b and r = 10 eps c - d - 15 eps^3.  An
    order closes the cell to q = h(t0) - E h(t1) when every 1 + eps >= 1/2,
    every r is finite, q > 0 and max|r| q + E gap h(t1) <= tol q."""
    half = 0.5 * (t1 - t0)
    t = np.concatenate(([t0], t0 + half * (1.0 + _KRONROD_NODES), [t1]))

    def closed(r, h):
        q = h[0] - E * h[-1]
        if (all(math.isfinite(x) for x in r) and q > 0.0
                and max(abs(x) for x in r) * q + E * gap * h[-1] <= tol * q):
            return q
        return None

    with np.errstate(all="ignore"):
        b, db, d2b = (np.asarray(f(t), dtype=float) for f in (model.b, model.db, model.d2b))
        eps = [db[i] / b[i] / b[i] for i in range(17)]
        c = [d2b[i] / b[i] / b[i] / b[i] for i in range(17)]
        if not all(1.0 + e >= 0.5 for e in eps):
            return None
        q = closed([(2.0 * e * e - ci) / (1.0 + e) ** 2 for e, ci in zip(eps, c)],
                   [1.0 / (b[i] * (1.0 + eps[i])) for i in (0, -1)])
        if q is not None:
            return q
        d3b = np.asarray(model.d3b(t), dtype=float)
        d = [d3b[i] / b[i] / b[i] / b[i] / b[i] for i in range(17)]
        return closed([10.0 * e * ci - di - 15.0 * e * e * e for e, ci, di in zip(eps, c, d)],
                      [(1.0 - eps[i] + 3.0 * eps[i] * eps[i] - c[i]) / b[i] for i in (0, -1)])


def _reference_cell(model, t0, t1, tol, points, depth=48, panel=None):
    """The depth-first cell recursion, the closure tried at its root: (q, E).

    A split evaluates both halves' panels before it recurses into the left
    one, and passes each half its panel; a right half that the prune test
    drops is evaluated all the same.  Counts the points b is evaluated at in
    ``points``: 15 a panel, 17 a closure test."""
    root = panel is None
    if root:
        points[0] += 15
        panel = _reference_panel(model.b, t0, t1)
    q, err, ib, gap = panel
    E = math.exp(-ib)
    if (ib <= 3.0 and err <= tol * max(abs(q), 1e-300) and gap <= tol) or depth <= 0:
        return q, E
    if root and ib >= 3.0:
        points[0] += 17
        closed = _reference_closure(model, t0, t1, E, gap, tol)
        if closed is not None:
            return closed, E
    mid = 0.5 * (t0 + t1)
    points[0] += 30
    left, right = _reference_panel(model.b, t0, mid), _reference_panel(model.b, mid, t1)
    q_l, e_l = _reference_cell(model, t0, mid, tol, points, depth - 1, left)
    if e_l * (t1 - mid) <= tol * max(q_l, 1e-300):
        return q_l, E
    q_r, _ = _reference_cell(model, mid, t1, tol, points, depth - 1, right)
    return q_l + e_l * q_r, E


def _law(bfun):
    """A bare damping function as a model whose derivatives are NaN: no
    cell of it closes, every open one walks."""
    nan = lambda t: np.full(np.shape(t), np.nan)
    return SimpleNamespace(b=bfun, db=nan, d2b=nan, d3b=nan)


class _CountingDamping:
    """A damping law that counts the points it is evaluated at."""

    def __init__(self, model):
        self.model, self.points = model, 0

    def b(self, t):
        self.points += np.size(t)
        return self.model.b(t)

    def db(self, t):
        return self.model.db(t)

    def d2b(self, t):
        return self.model.d2b(t)

    def d3b(self, t):
        return self.model.d3b(t)


@pytest.mark.parametrize("model, horizon", [
    (DampingModel.constant(1.0), 1e4),
    (DampingModel.power_law(1.0, 0.5), 1e4),
    (DampingModel.power_law(1.0, -0.5), 3e3),
    (DampingModel.power_law(2.0, 1.0), 1e4),
    (DampingModel.perturbed_power(1.0, -0.3, Perturbation("sin", 0.5)), 1e3),
], ids=["constant", "kappa=0.5", "kappa=-0.5", "kappa=1", "perturbed"])
def test_phi_cells_make_the_recursions_panels(model, horizon):
    """Batched cells evaluate the recursion's panels and closure tests and
    agree in q and E.

    Each panel evaluates b at its 15 Kronrod nodes, each closure test at a
    cell's ends and nodes; the cells are a table's cells and the bridging
    cells of 64 reads.
    """
    aux = build_aux_table(model, horizon)
    t = np.geomspace(1e-4, horizon, 64)
    cells = [(aux.grid[:-1], aux.grid[1:], auxcalc.DEFAULT_QUAD_TOL * 0.1),
             (t, aux.grid[np.searchsorted(aux.grid, t)], auxcalc.DEFAULT_QUAD_TOL)]
    for t0, t1, tol in cells:
        counting = _CountingDamping(model)
        q, E = auxcalc._phi_cells(counting, t0, t1, tol)
        points = [0]
        ref = np.array([_reference_cell(model, float(a), float(b), tol, points)
                        for a, b in zip(t0, t1)])
        assert counting.points == points[0]
        assert np.array_equal(q, ref[:, 0]) and np.array_equal(E, ref[:, 1])


def test_integration_matrix_integrates_polynomials_to_each_node():
    """S integrates x**k, k = 0..14, from -1 to every Kronrod node."""
    x = _KRONROD_NODES
    for k in range(15):
        exact = (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        got = np.vecdot((x ** k)[None, :], auxcalc._INTEGRATE_TO_NODES)
        assert np.max(np.abs(got - exact)) <= 1e-15, k


def test_unresolved_damping_splits_a_cell_whose_q_stands():
    """b = 1 + 1e-6 noise on [0, 1e-3]: the first panel's q estimate stands
    (gap 1.6e-12 q, tol 1e-11), but its gap of int b (5.4e-11) does not,
    because the 15 nodes do not resolve b; the cell splits."""
    rng = np.random.default_rng(0)
    noisy = lambda t: 1.0 + 1e-6 * rng.uniform(0.0, 1.0, np.shape(t))
    tol, t0, t1 = 1e-11, np.array([0.0]), np.array([1e-3])
    q, err, ib, gap, _ = auxcalc._exp_panels(noisy, t0, t1)
    assert err[0] <= tol * q[0] and ib[0] <= 3.0 and gap[0] > tol
    rng = np.random.default_rng(0)
    counting = _CountingDamping(_law(noisy))
    auxcalc._phi_cells(counting, t0, t1, tol)
    assert counting.points > 15


def test_walk_rounds_and_chunks_leave_results_unchanged(monkeypatch):
    """Tiny panel chunks change how a round's panels are batched, not the
    panels or the bits."""
    model = DampingModel.power_law(1.0, -0.5)
    t = np.geomspace(1e-3, 1e3, 97).reshape(1, 97)
    panels, exp_panels = [], auxcalc._exp_panels
    monkeypatch.setattr(auxcalc, "_exp_panels",
                        lambda bfun, a, b: panels.append(a.size) or exp_panels(bfun, a, b))
    want = build_aux_table(model, 1e3)
    g = want.g_at(t)
    counted, panels[:] = sum(panels), []
    monkeypatch.setattr(auxcalc, "_CHUNK", 3)
    got = build_aux_table(model, 1e3)
    for field in ("B_vals", "log_beta_vals", "g_vals"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert np.array_equal(want.g_at(t), g)
    assert sum(panels) == counted


def test_unresolvable_cells_stop_at_the_panel_limit():
    """Seeded noise for b never settles a panel, so the cell would split
    toward 2**48 leaves; the walk stops at the panel limit and names the
    root cell that failed."""
    rng = np.random.default_rng(0)
    noise = lambda t: rng.uniform(1.0, 2.0, np.shape(t))
    limit = auxcalc._CELL_PANELS
    with pytest.raises(QuadratureNonconvergence,
                       match=rf"cell \[0, 1\] did not resolve within {limit} panels"):
        auxcalc._phi_cells(_law(noise), np.array([0.0, 1e-3, 1.0]), np.array([1.0, 1e-3, 2.0]),
                           1e-11)
    # b = 10 on [0, 1] (10 e-folds, and not closed: its b' is NaN) splits
    # that cell, which resolves; the noise cell walked after it is the one named
    steep_then_noise = _law(lambda t: np.where(t < 1.0, 10.0, noise(t)))
    with pytest.raises(QuadratureNonconvergence,
                       match=rf"cell \[1, 2\] did not resolve within {limit} panels"):
        auxcalc._phi_cells(steep_then_noise, np.array([0.0, 1.0]), np.array([1.0, 2.0]), 1e-11)


_WALK_MEMORY = """
import resource
from types import SimpleNamespace
import numpy as np
from blowuplab import auxcalc
from blowuplab.quadrature import QuadratureNonconvergence

rng = np.random.default_rng(0)
nan = lambda t: np.full(np.shape(t), np.nan)
noise = SimpleNamespace(b=lambda t: rng.uniform(1.0, 2.0, np.shape(t)), db=nan, d2b=nan,
                        d3b=nan)
t0 = np.arange(600.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    auxcalc._phi_cells(noise, t0, t0 + 1.0, 1e-11)
    message = "resolved"
except QuadratureNonconvergence as exc:
    message = str(exc)
print(1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before), message)
"""


def test_walk_memory_does_not_grow_with_its_panels():
    """600 noise cells walk in lockstep until each has taken the panel
    limit, over 600 000 panels in all; the walk keeps only each cell's
    stack of pending splits, so the peak resident size of a fresh process
    grows by far less than the 26 MB that holding those panels at 42
    bytes each would take (about 5 MB; the shared split tree grew it by
    about 64 MB)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _WALK_MEMORY], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    growth, message = proc.stdout.split(maxsplit=1)
    assert re.match(r"exponential cell \[0, 1\] did not resolve", message)
    assert int(growth) < 16e6


@pytest.mark.parametrize("model, horizon", [
    (DampingModel.constant(1.0), 300.0),
    (DampingModel.power_law(1.0, 0.5), 300.0),
    (DampingModel.power_law(1.0, -0.5), 1e4),
    (DampingModel.perturbed_power(1.0, -0.3, Perturbation("sin", 0.5)), 1e3),
])
def test_table_tail_equals_the_march_alone(model, horizon):
    """The table resolves the tail's first cell in its own walk; g at the
    horizon is still the tail march's value alone, bit for bit."""
    table = build_aux_table(model, horizon)
    assert table.g_vals[-1] == auxcalc._g_tail(model, horizon, auxcalc.DEFAULT_QUAD_TOL)


def test_g_tail_closes_constant_damping_at_far_horizons():
    """For b = 1, where g = 1, every cell of the tail closes: g^ = 1 and
    q = 1 - E, so g = 1 exactly, also at 1e18, where the rounding of t
    keeps halved pieces from standing (the walk returned 0.0619 there, and
    later stopped at the depth limit)."""
    model = DampingModel.constant(1.0)
    assert abs(auxcalc._g_tail(model, 1e15, 1e-10) - 1.0) < 1e-14
    assert auxcalc._g_tail(model, 1e18, 1e-10) == 1.0


def test_g_tail_stops_at_the_depth_limit():
    """b = 1 + sin(t)/2 is not steady (rho of order 1), so the closure
    refuses its cells; at 1e18 pieces of the first one do not stand after
    48 halvings, and the tail raises instead of drifting."""
    law = SimpleNamespace(b=lambda t: 1.0 + 0.5 * np.sin(t), db=lambda t: 0.5 * np.cos(t),
                          d2b=lambda t: -0.5 * np.sin(t), d3b=lambda t: -0.5 * np.cos(t))
    assert 0.5 < auxcalc._g_tail(law, 1e3, 1e-10) < 2.0
    with pytest.raises(QuadratureNonconvergence,
                       match=r"cell \[1e\+18, 1\.35e\+18\] did not resolve within 48 halvings"):
        auxcalc._g_tail(law, 1e18, 1e-10)


def test_cells_resolve_together_exactly_when_alone(monkeypatch):
    """The panel limit holds per cell, not per batch: a table's heaviest
    cells walked together, with many times the largest one's panel count
    between them, resolve under that count, bit for bit as each alone, and
    fail one panel below it, as that cell alone does.  The cells are the
    last ones of a table of b = sqrt(1 + t) to 1e3, walked through a law
    that never closes: the second-order closure takes them (|r2| is at
    most 4e-13 there)."""
    model = DampingModel.power_law(1.0, -0.5)
    aux = build_aux_table(model, 1e3)
    walked = _law(model.b)
    t0, t1, tol = aux.grid[-9:-1], aux.grid[-8:], auxcalc.DEFAULT_QUAD_TOL * 0.1
    sizes, exp_panels = [], auxcalc._exp_panels
    with monkeypatch.context() as patch:
        patch.setattr(auxcalc, "_exp_panels",
                      lambda bfun, a, b: sizes.append(a.size) or exp_panels(bfun, a, b))
        panels = []
        for a, b in zip(t0, t1):
            sizes.clear()
            auxcalc._phi_cells(walked, a, b, tol)
            panels.append(sum(sizes))
    heaviest = int(np.argmax(panels))
    assert panels[heaviest] > 50 and sum(panels) > 4 * panels[heaviest]
    monkeypatch.setattr(auxcalc, "_CELL_PANELS", panels[heaviest])
    q, E = auxcalc._phi_cells(walked, t0, t1, tol)
    alone = np.array([auxcalc._phi_cells(walked, a, b, tol) for a, b in zip(t0, t1)])
    assert np.array_equal(q, alone[:, 0]) and np.array_equal(E, alone[:, 1])
    t = np.geomspace(1e-3, 1e3, 97)
    assert np.array_equal(aux.g_at(t), [aux.g_at(x) for x in t])
    monkeypatch.setattr(auxcalc, "_CELL_PANELS", panels[heaviest] - 1)
    for a, b in ((t0, t1), (t0[heaviest], t1[heaviest])):
        with pytest.raises(QuadratureNonconvergence, match="did not resolve"):
            auxcalc._phi_cells(walked, a, b, tol)


# -- the closure of steady cells --------------------------------------------------

def _rho(model, t):
    """rho = (2 eps^2 - b''/b^3)/(1 + eps)^2, eps = b'/b^2: the closure's relative error."""
    b = model.b(t)
    eps = model.db(t) / b / b
    return (2.0 * eps * eps - model.d2b(t) / b**3) / (1.0 + eps) ** 2


def _r2(model, t):
    """r2 = 10 eps c - d - 15 eps^3, with eps = b'/b^2, c = b''/b^3 and
    d = b'''/b^4: the second-order closure's relative error."""
    b = model.b(t)
    eps = model.db(t) / b / b
    c = model.d2b(t) / b**3
    return 10.0 * eps * c - model.d3b(t) / b**4 - 15.0 * eps**3


def _cell(t0):
    """The table cell of 1/64 decade from t0, as arrays (t0, t1)."""
    t0 = np.array([t0])
    t1 = t0 * 10.0 ** (1.0 / auxcalc.POINTS_PER_DECADE)
    return t0, t1


@pytest.mark.parametrize("mu", [2.0, 3.0, 0.1])
def test_closed_constant_cell_is_exact(mu):
    """For constant b, rho = 0 and g^ = 1/mu: a cell of 20 e-folds closes
    to 1/mu - E/mu."""
    model = DampingModel.constant(mu)
    q, E = auxcalc._phi_cells(model, np.array([10.0]), np.array([10.0 + 20.0 / mu]), 1e-11)
    assert E[0] == pytest.approx(math.exp(-20.0), rel=1e-13)
    assert q[0] == pytest.approx(1.0 / mu - E[0] / mu, rel=2e-16, abs=0.0)


@pytest.mark.parametrize("model, t0", [
    (DampingModel.power_law(1.0, -0.5), 1e3),
    (DampingModel.power_law(1.0, -0.9), 1e3),
    (DampingModel.perturbed_power(1.0, -0.3, Perturbation("sin", 0.5)), 1e4),
], ids=["kappa=-0.5", "kappa=-0.9", "perturbed"])
def test_closed_cell_misses_the_walk_by_rho(model, t0):
    """A closed cell's relative error against a 1e-14 walk is rho(t0) to a
    factor of 2: the bound max|rho| q is tight for slowly varying b."""
    t0, t1 = _cell(t0)
    _, _, _, gap, E = auxcalc._exp_panels(model.b, t0, t1)
    closes, q = auxcalc._closure(model, t0, t1, E, gap, 1.0)
    walked, _ = auxcalc._phi_cells(_law(model.b), t0, t1, 1e-14)
    assert closes[0]
    ratio = abs(q[0] - walked[0]) / walked[0] / abs(_rho(model, t0[0]))
    assert 0.5 <= ratio <= 2.0


def test_closure_refuses_cells_where_rho_exceeds_the_tolerance():
    """For b = (1 + t)^(-0.3) at 1e3 the cell holds 4.6 e-folds,
    rho = -1.3e-5 and r2 = 6.6e-8: both orders of the closure refuse it,
    and it walks, bit for bit as a law that never closes."""
    model = DampingModel.power_law(1.0, 0.3)
    t0, t1 = _cell(1e3)
    q_panel, _, ib, gap, E = auxcalc._exp_panels(model.b, t0, t1)
    assert ib[0] >= 3.0 and abs(_rho(model, t0[0]) + 1.33e-5) < 1e-7
    assert abs(_r2(model, t0[0]) - 6.6e-8) < 1e-9
    for tol in (1e-11, 1e-10):
        closes, _ = auxcalc._closure(model, t0, t1, E, gap, tol)
        assert not closes[0]
        assert np.array_equal(auxcalc._phi_cells(model, t0, t1, tol),
                              auxcalc._phi_cells(_law(model.b), t0, t1, tol))


@pytest.mark.parametrize("model, t0", [
    (DampingModel.power_law(1.0, -0.9), 100.0),
    (DampingModel.power_law(1.0, -0.5), 300.0),
    (DampingModel.power_law(1.0, 0.3), 3e4),
    (DampingModel.perturbed_power(1.0, 0.5, Perturbation("log", 1.0)), 1e4),
    (DampingModel.perturbed_power(1.0, -0.5, Perturbation("log", 1.0)), 100.0),
    (DampingModel.perturbed_power(1.0, -0.3, Perturbation("sin", 0.5)), 500.0),
    (DampingModel.perturbed_power(1.0, 0.5, Perturbation("sin", 0.25)), 2e5),
], ids=["kappa=-0.9", "kappa=-0.5", "kappa=0.3", "log", "log-growing", "sin", "sin-decaying"])
def test_second_order_cell_misses_the_walk_by_r2(model, t0):
    """A cell whose rho exceeds the tolerance, so that order 1 refuses it,
    closes at order 2, and misses a 1e-14 walk by at most max|r2| q over
    its ends and Kronrod nodes, and by at least half that: the bound is
    tight.  (For constant b and kappa = 1, rho = 0 and order 1 closes every
    steady cell.)"""
    tol = 1e-10
    t0, t1 = _cell(t0)
    points = np.concatenate((t0, t0 + 0.5 * (t1 - t0) * (1.0 + _KRONROD_NODES), t1))
    _, _, _, gap, E = auxcalc._exp_panels(model.b, t0, t1)
    closes, q = auxcalc._closure(model, t0, t1, E, gap, tol)
    walked, _ = auxcalc._phi_cells(_law(model.b), t0, t1, 1e-14)
    r2 = np.max(np.abs(_r2(model, points)))
    assert np.max(np.abs(_rho(model, points))) > tol and closes[0]
    assert 1e-11 < r2 < tol
    assert 0.5 * r2 * q[0] <= abs(q[0] - walked[0]) <= r2 * q[0] + 1e-14 * walked[0]


@pytest.mark.parametrize("mu", [1.0, 2.0])
def test_kappa_half_table_is_the_closed_form(mu):
    """For b = mu/sqrt(1 + t), r2 = 0 and g = h2 = sqrt(1 + t)/mu + 1/(2 mu^2):
    a table to 1e6 matches it to 1e-13 (order 1 alone left 2.9e-13 at mu = 2)."""
    table = build_aux_table(DampingModel.power_law(mu, 0.5), 1e6)
    exact = np.sqrt(1.0 + table.grid) / mu + 0.5 / mu**2
    assert np.max(np.abs(table.g_vals / exact - 1.0)) <= 1e-13


# -- hypothesis checker ---------------------------------------------------------

def test_check_hypothesis_constant():
    rep = check_hypothesis(DampingModel.constant(1.0), 1e4)
    assert abs(rep.liminf_est) < 1e-12 and abs(rep.limsup_est) < 1e-12
    assert rep.admissible and rep.passes_liminf and rep.passes_limsup
    assert not rep.inconclusive


def test_check_hypothesis_borderline_fail():
    rep = check_hypothesis(DampingModel.power_law(0.5, 1.0), 1e5)
    assert abs(rep.liminf_est - (-2.0)) < 1e-3
    assert not rep.passes_liminf and not rep.admissible
    assert rep.analytic is False


def test_check_hypothesis_borderline_pass():
    rep = check_hypothesis(DampingModel.power_law(2.0, 1.0), 1e5)
    assert abs(rep.liminf_est - (-0.5)) < 1e-3
    assert rep.admissible and rep.analytic is True


def test_check_hypothesis_reports_growth_constants():
    rep = check_hypothesis(DampingModel.power_law(1.0, 0.5), 1e5)
    assert 0.45 < rep.growth_M < 0.55         # t b'/b -> -0.5
    assert rep.growth_m == 0.0
    assert rep.tb_liminf > 1.0
    assert 0.9 < rep.eps_lower <= rep.C_upper < 1.1
    assert rep.abs_ratio_C < 0.01


def test_check_hypothesis_horizon_validation():
    with pytest.raises(ValueError):
        check_hypothesis(DampingModel.constant(1.0), 50.0)


def test_check_hypothesis_perturbed_families():
    """Slowly varying factors leave the asymptotic admissibility intact."""
    from blowuplab.coeffs import Perturbation

    log_pert = DampingModel.perturbed_power(1.0, 0.5, Perturbation("log", 1.0))
    sin_pert = DampingModel.perturbed_power(1.0, 0.5, Perturbation("sin", 0.25))
    for model in (log_pert, sin_pert):
        rep = check_hypothesis(model, 1e6)
        assert rep.admissible, model
        assert abs(rep.limsup_est - (-0.5)) < 0.1, model


def test_perturbed_table_builds_and_inverts():
    from blowuplab.coeffs import Perturbation

    model = DampingModel.perturbed_power(1.0, 0.5, Perturbation("log", 1.0))
    aux = build_aux_table(model, 100.0)
    assert np.all(np.diff(aux.B_vals) > 0)
    t = aux.invert_B(aux.B_at(17.0))
    assert abs(t - 17.0) < 1e-8
    assert abs(aux.Gamma_at(0.0) * aux.bhat1 - 1.0) < 1e-9


# -- comparability ratios --------------------------------------------------------

def test_equivalences_constant_exact(aux_const1):
    rep = verify_equivalences(aux_const1, 300.0)
    assert abs(rep.gamma_ratio_min - 1.0) < 1e-8
    assert abs(rep.gamma_ratio_max - 1.0) < 1e-8
    assert abs(rep.B_ratio_min - 1.0) < 1e-8
    assert abs(rep.B_ratio_max - 1.0) < 1e-8
    assert rep.b_scaling_ok and rep.B_scaling_ok


def test_equivalences_power_law(aux_powerlaw_half):
    rep = verify_equivalences(aux_powerlaw_half, 300.0)
    mask = aux_powerlaw_half.grid >= 10.0
    ratios = (aux_powerlaw_half.g_vals[mask]
              * np.asarray(aux_powerlaw_half.model.b(aux_powerlaw_half.grid[mask])))
    assert np.all(ratios >= 0.5) and np.all(ratios <= 1.5)
    assert rep.b_scaling_ok and rep.B_scaling_ok
    assert 0.45 < rep.fitted_M < 0.55


def test_equivalences_scaling_rows(aux_powerlaw_half):
    rep = verify_equivalences(aux_powerlaw_half, 300.0)
    lams = [row["lam"] for row in rep.scaling_rows]
    assert lams == [2.0, 4.0, 8.0]
    for row in rep.scaling_rows:
        # b decays like t^(-1/2): the dilation ratio hugs lam^(-1/2)
        assert row["b_ratio_min"] >= row["lam"] ** (-0.55)
        assert row["b_ratio_max"] <= 1.0
        # B grows like t^(3/2)
        assert 1.35 < row["B_exponent_min"] <= row["B_exponent_max"] < 1.55


def test_equivalences_horizon_check(aux_const1):
    with pytest.raises(TableRangeError):
        verify_equivalences(aux_const1, aux_const1.horizon * 10.0)
