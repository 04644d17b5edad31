"""Scaling functionals: coefficients, shell integrals, growth scan, residuals."""

import math

import numpy as np
import pytest

from blowuplab.auxcalc import AuxTable, build_aux_table, compute_B
from blowuplab.coeffs import DampingModel, ProblemSpec
from blowuplab.functional import (
    BOUNDED_TOL,
    GROWING_TOL,
    G_alpha,
    H_alpha,
    ManufacturedSolution,
    MultiIndex,
    NonintegrableSingularity,
    SupportEscape,
    data_functional,
    dstar_coefficients,
    predicted_slope,
    scan_condition,
    scan_horizon,
    time_estimate_better,
    weak_residual,
)
from blowuplab.testfn import ScalingFamily

from conftest import unit_problem


@pytest.fixture(scope="module")
def family_unit(aux_const1_scan):
    return ScalingFamily(n=1, d=2.0, aux=aux_const1_scan)


# -- adjoint coefficients ---------------------------------------------------------

def test_dstar_constant_family(aux_const1):
    spec = unit_problem(2.0)
    c = dstar_coefficients(spec, aux_const1, 3.0)
    assert abs(c.time2 - 1.0) < 1e-10
    assert abs(c.laplacian - (-1.0)) < 1e-10
    # g b - 2 = -1 for unit constant damping; |g' - 1| = |1 - g'| = 1
    assert abs(c.time1 - (-1.0)) < 1e-10
    assert abs(abs(c.time1) - 1.0) < 1e-10


def test_dstar_no_zero_order(aux_powerlaw_half):
    spec = ProblemSpec(n=2, alpha=0.25, gamma=0.5, delta=0.0, p=2.0,
                       damping=aux_powerlaw_half.model)
    rng = np.random.default_rng(99)
    for t in rng.uniform(0.0, 200.0, 100):
        c = dstar_coefficients(spec, aux_powerlaw_half, float(t))
        assert c.zero_order == 0.0


def test_dstar_time_coefficient_bounded(aux_powerlaw_half):
    """|1 - g'| = |2 - g b| stays below 2 + max(g b) along the table."""
    spec = ProblemSpec(n=1, alpha=0.0, gamma=0.0, delta=0.0, p=2.0,
                       damping=aux_powerlaw_half.model)
    gb = aux_powerlaw_half.g_vals * np.asarray(
        aux_powerlaw_half.model.b(aux_powerlaw_half.grid))
    bound = 2.0 + float(np.max(gb))
    for t in np.geomspace(0.01, 200.0, 40):
        c = dstar_coefficients(spec, aux_powerlaw_half, float(t))
        assert abs(c.time1) <= bound


# -- inverse scale products ---------------------------------------------------------

def test_H_alpha_values(family_unit):
    R = 10.0
    assert abs(H_alpha(family_unit, R, MultiIndex.space2(1)) - 1e-2) < 1e-12
    assert abs(H_alpha(family_unit, R, MultiIndex.time1(1)) - 1e-2) < 1e-10
    assert abs(H_alpha(family_unit, R, MultiIndex.time2(1)) - 1e-4) < 1e-12


def test_multi_index_validation():
    with pytest.raises(ValueError):
        MultiIndex(0, (0,))
    with pytest.raises(ValueError):
        MultiIndex(2, (1,))
    assert MultiIndex.space2(3).label == "2e_space"
    assert MultiIndex(1, (1, 0)).label == "(1,(1, 0))"


# -- shell integrals -----------------------------------------------------------------

def test_G_alpha_nonintegrable(family_unit):
    spec = unit_problem(2.0, delta=2.0)  # delta (p'-1) = 2 >= n = 1
    with pytest.raises(NonintegrableSingularity):
        G_alpha(spec, family_unit.aux, [8.0], family_unit.F0([8.0]), [MultiIndex.space2(1)])


def test_G_alpha_time_condition():
    spec = ProblemSpec(n=1, alpha=0.5, gamma=0.5, delta=0.0, p=1.5,
                       damping=DampingModel.constant(1.0))
    aux = build_aux_table(spec.damping, 200.0)
    fam = ScalingFamily(n=1, d=2.0 / (1.0 - spec.alpha), aux=aux)
    with pytest.raises(NonintegrableSingularity):
        G_alpha(spec, aux, [2.0], fam.F0([2.0]), [MultiIndex.space2(1)])


def test_G_alpha_nonnegative_and_unused_index(family_unit):
    spec = unit_problem(3.0)
    aux, F0 = family_unit.aux, family_unit.F0([8.0])
    assert G_alpha(spec, aux, [8.0], F0, [MultiIndex.space2(1)])[0][0] >= 0.0
    assert G_alpha(spec, aux, [8.0], F0, [MultiIndex(1, (1,))]) == [[0.0]]


def test_G_alpha_cubic_growth(family_unit):
    """Unit coefficients in one space dimension: the shell integral grows like R^3."""
    spec = unit_problem(3.0)
    Rs = np.array([8.0, 16.0, 32.0, 64.0])
    Gs = np.array(G_alpha(spec, family_unit.aux, Rs, family_unit.F0(Rs), [MultiIndex.space2(1)])[0])
    slope = np.polyfit(np.log(Rs), np.log(Gs), 1)[0]
    assert abs(slope - 3.0) <= 0.05


@pytest.mark.parametrize("method", ["radial", "box"])
def test_G_alpha_ladder_matches_one_scale_calls(family_unit, method):
    """A ladder's values equal those of its one-scale ladders bit for bit."""
    spec = unit_problem(3.0)
    Rs = [8.0, 16.0, 32.0, 64.0]
    for idx in (MultiIndex.time2(1), MultiIndex.time1(1), MultiIndex.space2(1)):
        ladder = G_alpha(spec, family_unit.aux, Rs, family_unit.F0(Rs), [idx], method=method)[0]
        assert ladder == [G_alpha(spec, family_unit.aux, [R], family_unit.F0([R]), [idx],
                                  method=method)[0][0]
                          for R in Rs]


@pytest.mark.parametrize("method", ["radial", "box"])
@pytest.mark.parametrize("n, damping", [(1, DampingModel.constant(1.0)),
                                        (2, DampingModel.power_law(1.0, 0.5))])
def test_G_alpha_indices_match_one_index_calls(n, damping, method):
    """All the indices of one call equal their one-index calls bit for bit,
    though their time integrals run in lockstep and share table reads."""
    spec = ProblemSpec(n=n, alpha=0.25, gamma=0.5, delta=0.25, p=5.0, damping=damping)
    d = 2.0 / (1.0 - spec.alpha)
    Rs = [2.0, 4.0, 8.0, 16.0]
    aux = build_aux_table(damping, scan_horizon(damping, Rs[-1] ** d * 1.05))
    fam = ScalingFamily(n=n, d=d, aux=aux)
    indices = [MultiIndex.time2(n), MultiIndex(1, (1,) + (0,) * (n - 1)),
               MultiIndex.time1(n), MultiIndex.space2(n)]
    F0 = fam.F0(Rs)
    ladders = G_alpha(spec, aux, Rs, F0, indices, method=method)
    assert ladders == [G_alpha(spec, aux, Rs, F0, [idx], method=method)[0] for idx in indices]
    assert ladders[1] == [0.0] * len(Rs)
    assert all(G > 0.0 for k in (0, 2, 3) for G in ladders[k])


def test_G_alpha_box_matches_radial_rate():
    """Exact-box quadrature reproduces the radial-surrogate growth rate (n = 2)."""
    spec = ProblemSpec(n=2, alpha=0.0, gamma=0.0, delta=0.5, p=3.0,
                       damping=DampingModel.constant(1.0))
    aux = build_aux_table(spec.damping, 1200.0)
    fam = ScalingFamily(n=2, d=2.0, aux=aux)
    Rs = np.array([4.0, 8.0, 16.0, 32.0])
    for idx in (MultiIndex.space2(2), MultiIndex.time2(2)):
        g_rad = np.array(G_alpha(spec, aux, Rs, fam.F0(Rs), [idx], method="radial")[0])
        g_box = np.array(G_alpha(spec, aux, Rs, fam.F0(Rs), [idx], method="box")[0])
        s_rad = np.polyfit(np.log(Rs), np.log(g_rad), 1)[0]
        s_box = np.polyfit(np.log(Rs), np.log(g_box), 1)[0]
        assert abs(s_rad - s_box) < 0.02, idx.label
        # constants differ by a bounded geometry factor only
        ratio = g_box / g_rad
        assert np.max(ratio) / np.min(ratio) < 1.1


# -- predicted exponents ----------------------------------------------------------------

def test_predicted_slope_critical_cases():
    assert abs(predicted_slope(unit_problem(3.0), MultiIndex.space2(1))) < 1e-12
    assert abs(predicted_slope(unit_problem(3.0), MultiIndex.time1(1))) < 1e-12
    assert abs(predicted_slope(unit_problem(2.0, n=2), MultiIndex.space2(2))) < 1e-12
    assert abs(predicted_slope(unit_problem(2.0, n=2), MultiIndex.time1(2))) < 1e-12


def test_predicted_slope_sign_law():
    """Negative below the critical power, zero at it, positive above."""
    from blowuplab.exponents import p_crit_damped
    for n in (1, 2, 3):
        for alpha in (0.0, 0.5):
            for gamma in (0.0, 0.5):
                rep = p_crit_damped(n, alpha, gamma, 0.0)
                for dp, sign in ((-0.2, -1), (0.0, 0), (0.2, 1)):
                    p = rep.p_crit + dp
                    if p <= rep.p_min:
                        continue
                    spec = ProblemSpec(n=n, alpha=alpha, gamma=gamma, delta=0.0,
                                       p=p, damping=DampingModel.constant(1.0))
                    slope = predicted_slope(spec, MultiIndex.space2(n))
                    if sign == 0:
                        assert abs(slope) < 1e-12, (n, alpha, gamma)
                    else:
                        assert slope * sign > 0.0, (n, alpha, gamma, dp)


def test_predicted_slopes_calibrated_equal():
    """The time-scale exponent d = 2/(1-alpha) equalizes both first-order bounds."""
    for alpha in (0.0, 0.25, 0.5):
        for gamma in (0.0, 0.5, 1.0):
            for n in (1, 2, 3):
                rep_p = 1.0 + 2.5 * (1.0 + gamma) / (n * (1.0 - alpha))  # > p_min
                spec = ProblemSpec(n=n, alpha=alpha, gamma=gamma, delta=0.0,
                                   p=rep_p, damping=DampingModel.constant(1.0))
                a = predicted_slope(spec, MultiIndex.time1(n))
                b = predicted_slope(spec, MultiIndex.space2(n))
                assert a == b, (alpha, gamma, n)


def test_time_estimate_flag():
    assert time_estimate_better(unit_problem(2.0))
    spec = ProblemSpec(n=1, alpha=0.0, gamma=0.0, delta=0.0, p=2.0,
                       damping=DampingModel.power_law(2.0, 1.0))
    assert time_estimate_better(spec)  # growth exponent 2: equality case


# -- the scan ----------------------------------------------------------------------------

def test_scan_condition_classifies(aux_const1_scan):
    Rs = [8.0, 16.0, 32.0, 64.0]
    expected = {3.0: ("bounded", 0.0), 4.0: ("growing", 0.25), 2.0: ("bounded", -0.5)}
    for p, (verdict, slope) in expected.items():
        res = scan_condition(unit_problem(p), Rs, aux=aux_const1_scan)
        assert res.overall == verdict, p
        assert abs(res.fitted["2e_space"] - slope) <= 0.05
        assert abs(res.fitted["e0"] - slope) <= 0.05
        assert abs(res.predicted["2e_space"] - slope) < 1e-12
        assert res.time2_better


def test_scan_between_the_tolerances_is_inconclusive(aux_const1_scan):
    """p = 3.1 for b = 1, n = 1: the first-order slopes are 3/p' - 2 = 0.032, between
    BOUNDED_TOL and GROWING_TOL, and no index grows."""
    res = scan_condition(unit_problem(3.1), [8.0, 16.0, 32.0, 64.0], aux=aux_const1_scan)
    assert res.verdicts == {"2e0": "bounded", "e0": "inconclusive", "2e_space": "inconclusive"}
    assert res.overall == "inconclusive"
    for label in ("e0", "2e_space"):
        assert BOUNDED_TOL < res.fitted[label] < GROWING_TOL


def test_scan_rows_sorted_and_finite(aux_const1_scan):
    res = scan_condition(unit_problem(3.0), [8.0, 16.0, 32.0, 64.0], aux=aux_const1_scan)
    for label, rows in res.rows.items():
        Rs = [row[0] for row in rows]
        assert Rs == sorted(Rs)
        assert all(np.isfinite(row[3]) for row in rows), label
    assert res.d == 2.0


def test_scan_inverts_its_ladder_in_lockstep_and_H_is_H_alpha(monkeypatch):
    """F0 of a six-scale ladder is one lockstep inversion, for G and H alike;
    each H equals H_alpha's bit for bit."""
    spec = ProblemSpec(n=2, alpha=0.0, gamma=0.0, delta=0.0, p=2.5,
                       damping=DampingModel.power_law(1.0, 0.5))
    Rs = [8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
    aux = build_aux_table(spec.damping, scan_horizon(spec.damping, 256.0**2 * 1.05))
    invert = AuxTable.invert_B
    shapes = []

    def counting(self, s):
        shapes.append(np.shape(s))
        return invert(self, s)

    monkeypatch.setattr(AuxTable, "invert_B", counting)
    res = scan_condition(spec, Rs, aux=aux)
    assert shapes == [(6,)]
    family = ScalingFamily(spec.n, res.d, aux)
    for idx in (MultiIndex.time2(2), MultiIndex.time1(2), MultiIndex.space2(2)):
        assert [row[1] for row in res.rows[idx.label]] == [H_alpha(family, R, idx) for R in Rs]


def test_scan_validation(aux_const1_scan):
    with pytest.raises(ValueError):
        scan_condition(unit_problem(3.0), [8.0, 16.0, 32.0], aux=aux_const1_scan)
    with pytest.raises(ValueError):
        scan_condition(unit_problem(1.2, delta=1.0), [8.0, 16.0, 32.0, 64.0],
                       aux=aux_const1_scan)  # p below the lower threshold


# -- weak-form identity -------------------------------------------------------------------

@pytest.fixture(scope="module")
def aux_short():
    return build_aux_table(DampingModel.constant(1.0), 20.0)


def test_weak_residual_zero_solution(aux_short):
    res = weak_residual(ManufacturedSolution.zero(), unit_problem(2.0), aux_short,
                        panels=8)
    assert res == 0.0


def test_weak_residual_manufactured(aux_short):
    res = weak_residual(ManufacturedSolution.decaying_cosine(), unit_problem(2.0),
                        aux_short, panels=64)
    assert res <= 1e-6


def test_weak_residual_refines_by_four(aux_short):
    sol = ManufacturedSolution.decaying_cosine()
    spec = unit_problem(2.0)
    values = [weak_residual(sol, spec, aux_short, panels=pp)
              for pp in (8, 16, 32, 64)]
    for coarse, fine in zip(values, values[1:]):
        assert coarse / fine >= 4.0, values


def test_weak_residual_support_escape(aux_short):
    with pytest.raises(SupportEscape):
        weak_residual(ManufacturedSolution.zero(), unit_problem(2.0), aux_short,
                      domain=(2.0, 4.0))


def test_weak_residual_needs_one_dimension(aux_short):
    with pytest.raises(ValueError):
        weak_residual(ManufacturedSolution.zero(), unit_problem(2.0, n=2), aux_short)


# -- data functional ------------------------------------------------------------------------

def gaussian(amplitude: float, width: float = 1.0):
    return lambda r: amplitude * np.exp(-((np.asarray(r, float) / width) ** 2))


def zero_profile(r):
    return np.zeros_like(np.asarray(r, float))


def test_data_functional_unit_mass():
    unit_mass = gaussian(1.0 / math.sqrt(math.pi))
    got = data_functional(zero_profile, unit_mass, DampingModel.constant(1.0), n=1)
    assert abs(got - 1.0) < 1e-12


def test_data_functional_cancellation():
    u0 = gaussian(1.0)
    u1 = gaussian(-2.0)   # u1 = -bhat1 u0 pointwise for mu = 2
    got = data_functional(u0, u1, DampingModel.constant(2.0), n=1)
    assert abs(got) < 1e-12


def test_data_functional_masses():
    # unit-mass u0, mass -1 u1: the weight mu = 2 tips the balance to +1
    u0 = gaussian(1.0 / math.sqrt(math.pi))
    u1 = gaussian(-1.0 / math.sqrt(math.pi))
    got = data_functional(u0, u1, DampingModel.constant(2.0), n=1)
    assert abs(got - 1.0) < 1e-10


def test_data_functional_linearity():
    m = DampingModel.constant(1.0)
    bh = 1.0
    u0a, u1a = gaussian(0.7, 1.3), gaussian(-0.2, 0.8)
    u0b, u1b = gaussian(-0.4, 2.0), gaussian(1.1, 1.1)
    fa = data_functional(u0a, u1a, m, n=2, bhat1=bh)
    fb = data_functional(u0b, u1b, m, n=2, bhat1=bh)
    mix0 = lambda r: 2.0 * u0a(r) + 3.0 * u0b(r)
    mix1 = lambda r: 2.0 * u1a(r) + 3.0 * u1b(r)
    fmix = data_functional(mix0, mix1, m, n=2, bhat1=bh)
    assert abs(fmix - (2.0 * fa + 3.0 * fb)) < 1e-10 * max(1.0, abs(fmix))


@pytest.mark.parametrize("model, s_max", [
    (DampingModel.constant(1.0), 700.0),
    (DampingModel.power_law(1.0, 0.5), 5e4),
    (DampingModel.power_law(1.0, -0.5), 30.0),
    (DampingModel.power_law(3.0, -0.9), 1e3),
])
def test_scan_horizon_is_the_first_doubling_that_reaches(model, s_max):
    """The horizon is the first T0 * 2**k, T0 = max(2, s_max b(0)), with
    B(T) >= s_max, as doubling T one step at a time finds it."""
    T = max(2.0, s_max * float(model.b(0.0)))
    while compute_B(model, T, 1e-8) < s_max:
        T *= 2.0
    assert scan_horizon(model, s_max) == T


def test_scan_horizon_beyond_the_float_range_is_rejected():
    """B grows like t**0.05 here, so B(T) = 1e30 needs T far past 1e308."""
    with pytest.raises(ValueError, match="shorten the scale ladder"):
        scan_horizon(DampingModel.power_law(1e-6, -0.95), 1e30)
