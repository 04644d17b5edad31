"""Radial solver: blow-up detection, decay, scheme verification."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from blowuplab.auxcalc import build_aux_table
from blowuplab.coeffs import DampingModel, ProblemSpec
from blowuplab.functional import sphere_area
from blowuplab.simulator import (
    CflViolation,
    GaussianData,
    SimSpec,
    _ENERGY_BUDGET,
    _WINDOW_BLOCK,
    _march,
    convergence_test,
    detect_blowup,
    run,
    sweep_p,
    time_order_ratio,
)

from conftest import unit_problem


def blowup_spec(p: float, J: int = 1200, amplitude: float = 5.0) -> SimSpec:
    return SimSpec(
        problem=unit_problem(p),
        r_max=60.0, J=J, T_max=50.0,
        u1=GaussianData(amplitude, 1.0),
    )


# -- crossing detector ------------------------------------------------------------

def test_detect_blowup_never_crossed():
    times = np.arange(100) * 0.1
    assert detect_blowup(times, np.ones(100), 1e6) is None


def test_detect_blowup_exponential_trace():
    times = np.arange(0.0, 3.0, 0.1)
    trace = np.exp(times)
    t_star = detect_blowup(times, trace, math.exp(2.0))
    assert abs(t_star - 2.0) <= 0.1


def test_detect_blowup_threshold_below_first_sample():
    times = np.array([1.0, 2.0, 3.0])
    trace = np.array([5.0, 6.0, 7.0])
    assert detect_blowup(times, trace, 2.0) == 1.0


# -- basic orbits -----------------------------------------------------------------

def test_zero_data_survives():
    out = run(SimSpec(problem=unit_problem(1.5), r_max=60.0, J=600, T_max=20.0))
    assert out.verdict == "survived"
    assert float(np.max(out.sup_norms)) == 0.0


def test_blowup_below_critical_power():
    out = run(blowup_spec(1.5))
    assert out.verdict == "blowup"
    assert out.t_star is not None and out.t_star < 50.0
    assert np.all(np.diff(out.times) > 0)
    assert out.t_star <= out.times[-1]


def test_blowup_time_stable_under_mesh_halving():
    coarse = run(blowup_spec(1.5, J=1200))
    fine = run(blowup_spec(1.5, J=2400))
    assert coarse.verdict == fine.verdict == "blowup"
    assert abs(coarse.t_star - fine.t_star) <= 0.1 * coarse.t_star


def test_blowup_threshold_insensitive():
    """Reading the same trace at thresholds 1e6 and 1e8 moves t* by < 2%."""
    spec = SimSpec(problem=unit_problem(1.5), r_max=60.0, J=1200, T_max=50.0,
                   u1=GaussianData(5.0, 1.0), blowup_threshold=1e8)
    out = run(spec)
    t_low = detect_blowup(out.times, out.sup_norms, 1e6)
    t_high = detect_blowup(out.times, out.sup_norms, 1e8)
    assert t_low is not None and t_high is not None
    assert abs(t_high - t_low) <= 0.02 * t_low


def test_linear_run_decays_in_closed_box():
    spec = SimSpec(problem=unit_problem(1.5), r_max=8.0, J=400, T_max=200.0,
                   u1=GaussianData(5.0, 1.0), nonlinearity=0.0,
                   allow_boundary_reflections=True)
    out = run(spec)
    assert out.verdict == "survived"
    peak = float(np.max(out.sup_norms))
    assert out.sup_norms[-1] <= 1e-3 * peak
    assert out.energies[-1] <= 1e-3 * float(np.max(out.energies))


def test_linearity_of_the_scheme():
    """With the power term off, doubling the data doubles the field pointwise."""
    base = SimSpec(problem=unit_problem(1.5), r_max=30.0, J=300, T_max=10.0,
                   u1=GaussianData(1.0, 1.0), nonlinearity=0.0)
    twice = SimSpec(problem=unit_problem(1.5), r_max=30.0, J=300, T_max=10.0,
                    u1=GaussianData(2.0, 1.0), nonlinearity=0.0)
    u1 = run(base).final_u
    u2 = run(twice).final_u
    scale = float(np.max(np.abs(u1)))
    assert np.max(np.abs(u2 - 2.0 * u1)) <= 1e-10 * scale


def test_domain_of_dependence():
    """Signals stay inside the light cone up to a few cells of stencil width."""
    spec = SimSpec(problem=unit_problem(1.5), r_max=20.0, J=800, T_max=3.0,
                   u1=GaussianData(1.0, 0.4), nonlinearity=0.0)
    out = run(spec)
    r0 = spec.u1.effective_radius()
    cone = r0 + 1.0 * spec.T_max + 5 * out.dr
    beyond = out.r > cone
    assert np.max(np.abs(out.final_u[beyond])) <= 1e-10


# -- setup validation ----------------------------------------------------------------

def test_support_check_rejects_small_domain():
    with pytest.raises(ValueError, match="boundary"):
        run(SimSpec(problem=unit_problem(1.5), r_max=10.0, J=100, T_max=50.0,
                    u1=GaussianData(5.0, 1.0)))


def test_cfl_violation():
    spec = SimSpec(problem=unit_problem(1.5), r_max=10.0, J=100, T_max=1.0,
                   dt=1.0, allow_boundary_reflections=True)
    with pytest.raises(CflViolation):
        run(spec)


def test_delta_must_be_nonnegative():
    prob = ProblemSpec(n=1, alpha=0.0, gamma=0.0, delta=-0.5, p=2.0,
                       damping=DampingModel.constant(1.0))
    with pytest.raises(ValueError, match="delta"):
        SimSpec(problem=prob, r_max=10.0, J=100, T_max=1.0)


@pytest.mark.parametrize("field, value", [
    ("r_max", math.inf), ("T_max", math.nan), ("dt", 0.0), ("dt", math.nan),
    ("blowup_threshold", math.inf), ("nonlinearity", math.nan),
])
def test_sim_spec_rejects_nonfinite_and_nonpositive_dt(field, value):
    with pytest.raises(ValueError, match=field):
        replace(blowup_spec(1.5), **{field: value})


@pytest.mark.parametrize("amplitude, width", [(math.nan, 1.0), (1.0, math.inf)])
def test_gaussian_data_rejects_nonfinite(amplitude, width):
    with pytest.raises(ValueError, match="must be finite"):
        GaussianData(amplitude, width)


def test_sim_spec_round_trip():
    spec = blowup_spec(1.5)
    assert SimSpec.from_dict(spec.to_dict()) == spec


# -- sweeps ---------------------------------------------------------------------------

def test_sweep_all_blow_up():
    rows = sweep_p(blowup_spec(1.5, J=600), [1.2, 1.5, 2.0])
    assert [row["verdict"] for row in rows] == ["blowup"] * 3
    assert all(row["t_star"] < 50.0 for row in rows)
    # at this amplitude the orbit lives above 1, where a larger power forces
    # harder: the lifespan shrinks as p grows
    t_stars = [row["t_star"] for row in rows]
    assert t_stars[0] > t_stars[1] > t_stars[2]


def test_sweep_zero_amplitude_warns_and_survives():
    spec = SimSpec(problem=unit_problem(1.5), r_max=60.0, J=300, T_max=5.0)
    with pytest.warns(UserWarning, match="not positive"):
        rows = sweep_p(spec, [1.2, 1.5])
    assert all(row["verdict"] == "survived" for row in rows)


def test_sweep_doubling_amplitude_shortens_lifespan():
    slow = sweep_p(blowup_spec(1.5, J=600, amplitude=5.0), [1.5])[0]
    fast = sweep_p(blowup_spec(1.5, J=600, amplitude=10.0), [1.5])[0]
    assert fast["t_star"] < slow["t_star"]


def test_sweep_rows_equal_single_runs():
    """Each row of a batch reproduces its single run bit for bit."""
    cases = [
        # across p_C = 2 at n = 2; p = 2.0 is the row a column of exponents would move
        (SimSpec(problem=unit_problem(2.0, n=2), r_max=60.0, J=300, T_max=50.0,
                 u1=GaussianData(1.0, 1.0)),
         [1.3, 1.6, 2.0, 2.6, 3.5], ["blowup", "blowup", "survived", "survived", "survived"],
         [False] * 5),
        # every row overflows before it reaches the threshold
        (SimSpec(problem=unit_problem(3.0), r_max=60.0, J=300, T_max=30.0,
                 u1=GaussianData(5.0, 1.0), blowup_threshold=1e300),
         [1.3, 2.0, 3.0, 5.0], ["blowup"] * 4, [True] * 4),
    ]
    for spec, p_list, verdicts, overflows in cases:
        aux = build_aux_table(spec.problem.damping, max(2.0, spec.T_max) * 1.01)
        singles = [run(replace(spec, problem=replace(spec.problem, p=p)), aux) for p in p_list]
        rows = sweep_p(spec, p_list, aux)
        assert rows == [{"p": p, "verdict": oc.verdict, "t_star": oc.t_star}
                        for p, oc in zip(p_list, singles)]
        assert [row["verdict"] for row in rows] == verdicts
        assert [oc.hard_overflow for oc in singles] == overflows
        for batch, single in zip(_march(spec, aux, p_list, with_energy=False), singles):
            assert batch.t_star == single.t_star
            assert batch.hard_overflow == single.hard_overflow
            assert np.array_equal(batch.times, single.times)
            assert np.array_equal(batch.sup_norms, single.sup_norms, equal_nan=True)
            assert np.array_equal(batch.final_u, single.final_u, equal_nan=True)


# -- one-row array reference (alpha = gamma = 0) ------------------------------------------

def _reference_laplacian(u, dr, n):
    lap = np.empty_like(u)
    r = np.arange(1, len(u) - 1) * dr
    u_rr = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dr**2
    u_r = (u[2:] - u[:-2]) / (2.0 * dr)
    lap[1:-1] = u_rr + (n - 1) / r * u_r
    lap[0] = 2.0 * n * (u[1] - u[0]) / dr**2
    lap[-1] = 0.0
    return lap


def _reference_traces(spec, dt, steps):
    """Sup norms, energies and final field from the per-step array formulas.

    Energy is np.gradient + np.trapezoid on every step; a and the forcing
    time factor are the constants c_a and c_f.
    """
    prob = spec.problem
    n, dr = prob.n, spec.dr
    ts = np.arange(steps + 1) * dt
    b = np.asarray(prob.damping.b(ts), float)
    r = np.arange(spec.J + 1) * dr
    rpow = r ** (n - 1)
    fspace = r**prob.delta

    def source(u):
        return spec.nonlinearity * prob.c_f * fspace * np.abs(u) ** prob.p

    def energy(v, u):
        u_r = np.gradient(u, dr)
        dens = 0.5 * v**2 + 0.5 * prob.c_a * u_r**2
        return sphere_area(n) * float(np.trapezoid(dens * rpow, dx=dr))

    u_prev = spec.u0(r)
    u_prev[-1] = 0.0
    v0 = spec.u1(r)
    v0[-1] = 0.0
    accel0 = prob.c_a * _reference_laplacian(u_prev, dr, n) - b[0] * v0 + source(u_prev)
    u = u_prev + dt * v0 + 0.5 * dt**2 * accel0
    u[-1] = 0.0
    sups, energies = [float(np.max(np.abs(u_prev)))], [energy(v0, u_prev)]
    for m in range(1, steps + 1):
        sups.append(float(np.max(np.abs(u))))
        energies.append(energy((u - u_prev) / dt, u))
        if m == steps:
            break
        bh = 0.5 * dt * b[m]
        u_next = (2.0 * u - (1.0 - bh) * u_prev
                  + dt**2 * (prob.c_a * _reference_laplacian(u, dr, n) + source(u))) / (1.0 + bh)
        u_next[-1] = 0.0
        u_prev, u = u, u_next
    return np.array(sups), np.array(energies), u


REFERENCE_SPECS = {
    "n2": SimSpec(problem=unit_problem(3.0, n=2), r_max=30.0, J=200, T_max=10.0,
                  u1=GaussianData(1.0, 1.0)),
    "n3-delta-powerlaw": SimSpec(
        problem=ProblemSpec(n=3, alpha=0.0, gamma=0.0, delta=0.5, p=1.5,
                            damping=DampingModel.power_law(1.0, 0.5)),
        r_max=10.0, J=160, T_max=6.0, u0=GaussianData(0.5, 1.0),
        u1=GaussianData(1.0, 0.7), nonlinearity=-0.5, allow_boundary_reflections=True),
    # overflows at step 235, inside the second chunk of energies
    "overflow-mid-chunk": SimSpec(problem=unit_problem(3.0), r_max=30.0, J=200, T_max=20.0,
                                  u1=GaussianData(1.0, 1.0), blowup_threshold=1e308),
    # no exact zeros: the window is the whole grid from the start
    "no-zeros": SimSpec(problem=unit_problem(2.0, n=2), r_max=10.0, J=120, T_max=5.0,
                        u0=GaussianData(-0.5, 10.0), u1=GaussianData(1.0, 10.0),
                        allow_boundary_reflections=True),
    # blows up while the window is narrower than the grid; u0 < 0 leaves -0.0
    # past its support
    "narrow-support": SimSpec(problem=unit_problem(2.0, n=2), r_max=60.0, J=300, T_max=10.0,
                              u0=GaussianData(-0.5, 0.5), u1=GaussianData(10.0, 0.5)),
    # a large amplitude cuts the data off at 1e-173, so the support grows by one
    # column a step, as fast as the stencil allows
    "sharp-front": SimSpec(problem=unit_problem(2.0), r_max=60.0, J=300, T_max=20.0,
                           u1=GaussianData(1e150, 0.5), nonlinearity=0.0,
                           blowup_threshold=1e200),
    # closed box: the support starts near r = 8.2 and reaches the wall mid-run
    "support-reaches-wall": SimSpec(
        problem=ProblemSpec(n=3, alpha=0.0, gamma=0.0, delta=0.0, p=2.5,
                            damping=DampingModel.power_law(1.0, 0.5)),
        r_max=20.0, J=160, T_max=15.0, u0=GaussianData(-0.2, 0.3),
        u1=GaussianData(1.0, 0.3), allow_boundary_reflections=True),
}


@pytest.mark.parametrize("spec", list(REFERENCE_SPECS.values()), ids=list(REFERENCE_SPECS))
def test_run_matches_array_reference_bitwise(spec):
    out = run(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        sups, energies, final = _reference_traces(spec, out.dt, len(out.times) - 1)
    assert np.array_equal(out.sup_norms, sups)
    assert np.array_equal(out.energies, energies, equal_nan=True)
    # bit patterns, so that a -0.0 in place of +0.0 would show
    assert np.array_equal(out.final_u.view(np.int64), final.view(np.int64))


def test_reference_specs_reach_the_window_edges():
    """The bitwise specs above reach the cases the support window must get right."""
    spec = REFERENCE_SPECS["overflow-mid-chunk"]
    out = run(spec)
    chunk = max(2, _ENERGY_BUDGET // (spec.J + 1)) - 1    # energies per flush
    steps = len(out.times) - 1
    assert out.hard_overflow and steps > chunk and steps % chunk != 0
    assert not np.isfinite(out.energies[-1])

    spec = REFERENCE_SPECS["narrow-support"]
    out = run(spec)
    assert out.verdict == "blowup" and np.count_nonzero(out.final_u) < spec.J - _WINDOW_BLOCK

    spec = REFERENCE_SPECS["sharp-front"]
    r = np.arange(spec.J + 1) * spec.dr
    out = run(spec)
    # one more column every leapfrog step after the Taylor start
    assert np.count_nonzero(out.final_u) == np.count_nonzero(spec.u1(r)) + len(out.times) - 2

    spec = REFERENCE_SPECS["no-zeros"]
    r = np.arange(spec.J + 1) * spec.dr
    assert np.all(spec.u0(r) != 0.0) and np.all(spec.u1(r) != 0.0)

    spec = REFERENCE_SPECS["support-reaches-wall"]
    r = np.arange(spec.J + 1) * spec.dr
    assert np.count_nonzero(spec.u1(r)) < spec.J // 2
    assert run(spec).final_u[-2] != 0.0


# -- manufactured verification -----------------------------------------------------------

def test_convergence_second_order():
    report = convergence_test(unit_problem(1.5))
    assert abs(report["observed_order"] - 2.0) <= 0.2
    assert report["errors"][0] > report["errors"][1] > report["errors"][2]


def test_convergence_with_varying_coefficients():
    prob = ProblemSpec(n=2, alpha=0.25, gamma=0.0, delta=0.0, p=2.0,
                       damping=DampingModel.power_law(1.0, 0.5))
    report = convergence_test(prob)
    assert abs(report["observed_order"] - 2.0) <= 0.2


def test_time_step_refinement_ratio():
    ratio = time_order_ratio(unit_problem(1.5))
    assert 3.0 <= ratio <= 5.0
