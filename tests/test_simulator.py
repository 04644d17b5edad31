"""Radial solver: blow-up detection, decay, scheme verification."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from blowuplab.auxcalc import build_aux_table
from blowuplab.coeffs import DampingModel, Perturbation, ProblemSpec, eval_a
from blowuplab.functional import sphere_area
from blowuplab.quadrature import gauss_kronrod_panel
from blowuplab.simulator import (
    CflViolation,
    GaussianData,
    SimSpec,
    _ENERGY_BUDGET,
    _PANEL_CHUNK,
    _SWEEP_ROWS,
    _WINDOW_BLOCK,
    _Stencil,
    _coefficients,
    _march,
    _stable_dt,
    _time_step,
    _underflow_cut,
    convergence_test,
    detect_blowup,
    run,
    sweep_p,
    time_order_ratio,
)

from conftest import unit_problem


def _batch(spec: SimSpec, aux, p_list):
    """The outcomes of one ``_march`` batch of the powers ``p_list``, with their traces."""
    return _march(spec, aux, p_list, traces=True)


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


@pytest.mark.parametrize("sups, t_star", [
    ([1e5, 5e5, 1.5e6], 1.5),           # interpolated between the samples around the crossing
    ([1.0, math.nan, 1e7], 0.0),        # NaN crosses; a non-finite sample gives the time before
    ([1.0, 5.0, math.inf], 1.0),        # an overflow: the time before it, as the march reports
    ([math.inf, 1.0, 1.0], 0.0),        # at the first sample, its own time
    ([math.nan, 1.0, 1.0], 0.0),
    ([1.0, 1e6, 1.0], 1.0),             # a sample at the threshold crosses it
])
def test_detect_blowup_crossing_rule(sups, t_star):
    assert detect_blowup([0.0, 1.0, 2.0], sups, 1e6) == t_star


def test_verdict_takes_the_crossing_rule_for_an_overflow():
    """An overflowing run's t* is the crossing rule's on its own trace: the step before."""
    spec = REFERENCE_SPECS["overflow-mid-chunk"]
    out = run(spec)
    assert out.hard_overflow and out.verdict == "blowup"
    assert out.t_star == out.times[-2] == detect_blowup(out.times, out.sup_norms,
                                                        spec.blowup_threshold)


def test_data_above_the_threshold_cross_it_at_t0():
    spec = SimSpec(problem=unit_problem(2.0), r_max=30.0, J=200, T_max=5.0,
                   u0=GaussianData(2.0, 1.0), blowup_threshold=1.0)
    out = run(spec)
    assert out.verdict == "blowup" and out.t_star == 0.0


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


def test_cfl_limit_includes_the_horizon_speed():
    """For alpha < 0 the speed grows, so sup a on [0, T_max] is a(T_max);
    the sup over the table nodes below T_max, the former limit, is 0.96%
    too large a step at alpha = -0.5, T_max = 50."""
    prob = ProblemSpec(n=1, alpha=-0.5, gamma=0.0, delta=0.0, p=2.0,
                       damping=DampingModel.power_law(1.0, 0.5))
    spec = SimSpec(problem=prob, r_max=10.0, J=100, T_max=50.0,
                   allow_boundary_reflections=True)
    aux = build_aux_table(prob.damping, max(2.0, spec.T_max) * 1.01)
    a_nodes = eval_a(prob, aux.grid[aux.grid <= spec.T_max], aux)
    old_dt = spec.cfl * spec.dr / math.sqrt(float(np.max(a_nodes)))
    assert old_dt > 1.009 * spec.cfl * spec.dr / math.sqrt(eval_a(prob, spec.T_max, aux))
    with pytest.raises(CflViolation):
        run(replace(spec, dt=old_dt), aux)


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


def test_sim_spec_from_dict_reads_every_key():
    data = {
        "problem": {"n": 1, "alpha": 0.0, "gamma": 0.0, "delta": 0.0, "p": 1.5,
                    "damping": {"kind": "constant", "mu": 1.0, "kappa": 0.0},
                    "c_a": 1.0, "c_f": 1.0},
        "r_max": 60.0, "J": 1200, "T_max": 50.0, "cfl": 0.5, "dt": None,
        "blowup_threshold": 1000000.0,
        "data": {"u0": {"amplitude": 0.0, "width": 1.0},
                 "u1": {"amplitude": 5.0, "width": 1.0}},
        "nonlinearity": 1.0, "allow_boundary_reflections": False,
    }
    assert SimSpec.from_dict(data) == blowup_spec(1.5)


def test_sim_spec_from_dict_absent_and_null_keys_keep_defaults():
    data = {
        "problem": {"n": 1, "alpha": 0.0, "gamma": 0.0, "delta": 0.0, "p": 1.5},
        "r_max": 60.0, "J": 1200.0, "T_max": 50.0, "cfl": None,
        "data": {"u0": None, "u1": {"amplitude": 5.0}},
    }
    assert SimSpec.from_dict(data) == blowup_spec(1.5)
    assert SimSpec.from_dict({**data, "data": None}) == replace(blowup_spec(1.5), u1=GaussianData())


@pytest.mark.parametrize("change, message", [
    ({"J": 64.9}, "J: 64.9 is not an integer"),
    ({"allow_boundary_reflections": "false"},
     "allow_boundary_reflections: 'false' is not true or false"),
    ({"data": 5}, "data: expected a JSON object, got 5"),
    ({"data": {"u1": {"width": -1.0}}}, "data: u1: width must be positive"),
    ({"problem": "x"}, "problem: expected a JSON object, got 'x'"),
    ({"T_max": None}, "missing 1 required positional argument: 'T_max'"),
])
def test_sim_spec_from_dict_names_the_malformed_key(change, message):
    data = {"problem": {"n": 1, "alpha": 0.0, "gamma": 0.0, "delta": 0.0, "p": 1.5},
            "r_max": 60.0, "J": 1200, "T_max": 50.0, **change}
    with pytest.raises(ValueError, match=message):
        SimSpec.from_dict(data)


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
        # weak damping on a short domain: the slowest row reaches the guard cells
        (SimSpec(problem=replace(unit_problem(2.0), damping=DampingModel.constant(0.01)),
                 r_max=10.0, J=24, T_max=5.0, u1=GaussianData(5.0, 0.5)),
         [1.2, 1.5, 2.0, 3.0, 5.0], ["boundary_contaminated"] + ["blowup"] * 4, [False] * 5),
    ]
    for spec, p_list, verdicts, overflows in cases:
        aux = build_aux_table(spec.problem.damping, max(2.0, spec.T_max) * 1.01)
        singles = [run(replace(spec, problem=replace(spec.problem, p=p)), aux) for p in p_list]
        rows = sweep_p(spec, p_list, aux)
        assert rows == [{"p": p, "verdict": oc.verdict, "t_star": oc.t_star}
                        for p, oc in zip(p_list, singles)]
        assert [row["verdict"] for row in rows] == verdicts
        assert [oc.hard_overflow for oc in singles] == overflows
        for batch, single in zip(_batch(spec, aux, p_list), singles):
            assert batch.t_star == single.t_star
            assert batch.hard_overflow == single.hard_overflow
            assert np.array_equal(batch.times, single.times)
            assert np.array_equal(batch.sup_norms, single.sup_norms, equal_nan=True)
            # bit patterns: a single run is a one-row batch
            assert np.array_equal(batch.energies.view(np.int64), single.energies.view(np.int64))
            assert np.array_equal(batch.final_u.view(np.int64), single.final_u.view(np.int64))


# a short run whose powers from 1.1 to about 2 cross the threshold and the rest survive
MANY_POWERS_SPEC = SimSpec(problem=unit_problem(2.0), r_max=20.0, J=200, T_max=1.0,
                           u1=GaussianData(1.0, 1.0), blowup_threshold=0.5)


def test_underflow_cut_runs_once_per_power(monkeypatch):
    """A sweep probes each power's cut once, however many powers it has."""
    calls = []

    def counted(p):
        calls.append(p)
        return _underflow_cut(p)

    monkeypatch.setattr("blowuplab.simulator._underflow_cut", counted)
    powers = list(np.linspace(1.1, 6.0, 1500))
    spec = replace(MANY_POWERS_SPEC, J=64)
    rows = sweep_p(spec, powers)
    assert [row["p"] for row in rows] == powers
    assert sorted(calls) == powers


def test_sweep_forms_one_coefficient_stream_per_batch(monkeypatch):
    """130 powers march in three batches, each on one stream of coefficients from the
    one builder of every march; each row equals its single run."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _coefficients(*args)

    spec = replace(MANY_POWERS_SPEC, J=64)
    aux = build_aux_table(spec.problem.damping, max(2.0, spec.T_max) * 1.01)
    powers = list(np.linspace(1.1, 6.0, 130))
    assert math.ceil(len(powers) / _SWEEP_ROWS) == 3
    monkeypatch.setattr("blowuplab.simulator._coefficients", counted)
    rows = sweep_p(spec, powers, aux)
    assert len(calls) == 3 and all(args == calls[0] for args in calls)
    singles = [run(replace(spec, problem=replace(spec.problem, p=p)), aux) for p in powers]
    assert len(calls) == 3 + len(powers)
    assert rows == [{"p": p, "verdict": oc.verdict, "t_star": oc.t_star}
                    for p, oc in zip(powers, singles)]
    assert {row["verdict"] for row in rows} == {"blowup", "survived"}


def test_sweep_memory_does_not_grow_with_the_powers():
    """A long p_list marches in batches of _SWEEP_ROWS; its rows equal single runs."""
    spec = MANY_POWERS_SPEC
    aux = build_aux_table(spec.problem.damping, max(2.0, spec.T_max) * 1.01)
    peaks, sweeps = [], []
    for count in (_SWEEP_ROWS, 2000):
        tracemalloc.start()
        try:
            sweeps.append(sweep_p(spec, list(np.linspace(1.1, 6.0, count)), aux))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]
    rows = sweeps[1]
    assert {row["verdict"] for row in rows} == {"blowup", "survived"}
    for i in (0, _SWEEP_ROWS - 1, _SWEEP_ROWS, 1000, len(rows) - 1):
        single = run(replace(spec, problem=replace(spec.problem, p=rows[i]["p"])), aux)
        assert rows[i] == {"p": rows[i]["p"], "verdict": single.verdict, "t_star": single.t_star}


def test_sweep_memory_does_not_grow_with_the_steps():
    """A batch of _SWEEP_ROWS rows that reach the horizon holds a chunk of coefficients
    and a few numbers a row, however many steps it takes: four times the steps (2e4 in
    place of 5e3) add under 0.5 MB, mostly the march's block of buffered steps (0.26 MB),
    which is alive when a later chunk is formed but not the first.  Holding the last
    chunk while forming the next added 0.7 MB, and histories of a sup-norm and an edge
    value (16 bytes a row and step) and whole-run coefficients (64 bytes a step) would
    add about 12 MB."""
    spec = SimSpec(problem=unit_problem(2.0), r_max=16.0, J=16, T_max=2.5e3,
                   u0=GaussianData(10.0, 2.0), nonlinearity=0.0, allow_boundary_reflections=True)
    powers = list(np.linspace(1.5, 4.0, _SWEEP_ROWS))
    peaks, sweeps = [], []
    for T_max in (spec.T_max, 4 * spec.T_max):
        aux = build_aux_table(spec.problem.damping, max(2.0, T_max) * 1.01)
        tracemalloc.start()
        try:
            sweeps.append(sweep_p(replace(spec, T_max=T_max), powers, aux))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    steps = round(spec.T_max / (spec.cfl * spec.dr))
    assert steps > _PANEL_CHUNK
    assert peaks[1] - peaks[0] <= 2**19
    assert all({row["verdict"] for row in rows} == {"survived"} for rows in sweeps)


def test_one_stencil_per_march(monkeypatch):
    """A march builds its stencil once, however often its window grows."""
    built = []

    class Counted(_Stencil):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr("blowuplab.simulator._Stencil", Counted)
    spec = REFERENCE_SPECS["sharp-front"]
    out = run(spec)
    r = np.arange(spec.J + 1) * spec.dr
    # the window grew by more than two blocks past the data
    assert np.count_nonzero(out.final_u) > np.count_nonzero(spec.u1(r)) + 2 * _WINDOW_BLOCK
    assert len(built) == 1


def test_step_scalars_per_march_equal_per_step_calls():
    """The four scalars of every step, formed on arrays by ``_coefficients``, equal the
    float formulas of each step bit for bit, the Taylor start's at step 0, for b dt/2
    from about 1e-33 to past 1, where the u_prev coefficient (1 - bh) c is negative."""
    rng = np.random.default_rng(3)
    negative = []
    for damping in (DampingModel.constant(1e3), DampingModel.constant(1e-30),
                    DampingModel.power_law(1.0, 0.5), DampingModel.power_law(2.0, -0.5)):
        prob = ProblemSpec(n=2, alpha=0.25, gamma=0.5, delta=0.0, p=2.0, damping=damping)
        aux = build_aux_table(damping, 20.0)
        for dt in rng.uniform(1e-4, 0.05, 3).tolist():
            expected, scalars = [], []
            for _, a_chunk, b_chunk, _, k in _coefficients(prob, aux, dt, 300, 1.0):
                scalars.append(k)
                for a, b in zip(a_chunk.tolist(), b_chunk.tolist()):
                    bh = 0.5 * dt * b
                    c = 1.0 / (1.0 + bh)
                    expected.append((2.0 * c, (1.0 - bh) * c, dt**2 * a * c, dt**2 * c) if expected
                                    else (1.0, -(1.0 - bh) * dt, 0.5 * dt**2 * a, 0.5 * dt**2))
            scalars = np.concatenate(scalars, axis=1)
            assert np.array_equal(scalars.view(np.int64), np.array(expected).T.view(np.int64))
            negative.append(bool(np.any(scalars[1, 1:] < 0.0)))
    assert any(negative)


def _whole_run_coefficients(prob, aux, dt, steps, nonlinearity):
    """ts, a, b, forcing factor and step scalars of every step at once, with one cumsum of B."""
    ts = np.arange(steps + 1) * dt
    b = np.asarray(prob.damping.b(ts), float)
    dB = np.empty(steps)
    for lo in range(0, steps, _PANEL_CHUNK):
        hi = min(lo + _PANEL_CHUNK, steps)
        dB[lo:hi], _ = gauss_kronrod_panel(lambda x: 1.0 / prob.damping.b(x),
                                           ts[lo:hi], ts[lo + 1:hi + 1])
    B = np.concatenate(([0.0], np.cumsum(dB))) + aux.B_unit_shift
    a = prob.c_a * B ** (-prob.alpha)
    fscale = nonlinearity * (prob.c_f * B**prob.gamma)
    bh = 0.5 * dt * b
    c = 1.0 / (1.0 + bh)
    k = np.array((2.0 * c, (1.0 - bh) * c, dt**2 * a * c, dt**2 * c))
    k[:, 0] = 1.0, -(1.0 - bh[0]) * dt, 0.5 * dt**2 * a[0], 0.5 * dt**2
    return ts, a, b, fscale, k


@pytest.mark.parametrize("damping", [
    DampingModel.power_law(1.0, 0.5),
    DampingModel.perturbed_power(2.0, -0.3, Perturbation("sin", 0.5)),
], ids=["powerlaw", "perturbed"])
def test_coefficient_chunks_equal_the_whole_run(damping):
    """A march of 3 chunks and 5 steps gets, chunk by chunk, the times, a, b, forcing
    factor and step scalars that one cumsum over the whole run gives, bit for bit."""
    prob = ProblemSpec(n=2, alpha=0.25, gamma=0.5, delta=0.0, p=2.0, damping=damping)
    dt, steps = 0.01, 3 * _PANEL_CHUNK + 5
    aux = build_aux_table(damping, steps * dt * 1.01)
    chunks = list(_coefficients(prob, aux, dt, steps, 0.75))
    assert [len(chunk[0]) for chunk in chunks] == [_PANEL_CHUNK] * 3 + [6]
    for part, whole in zip(zip(*chunks), _whole_run_coefficients(prob, aux, dt, steps, 0.75)):
        joined = np.concatenate(part, axis=-1)
        assert np.array_equal(joined.view(np.int64), whole.view(np.int64))


def test_march_that_ends_early_forms_only_the_chunks_it_reached(monkeypatch):
    """A run and a sweep that blow up in the first of three chunks form that chunk alone."""
    formed = []

    def counted(*args):
        for chunk in _coefficients(*args):
            formed.append(len(chunk[0]))
            yield chunk

    spec = SimSpec(problem=unit_problem(3.0), r_max=20.0, J=64, T_max=1300.0,
                   u1=GaussianData(5.0, 1.0), allow_boundary_reflections=True)
    aux = build_aux_table(spec.problem.damping, max(2.0, spec.T_max) * 1.01)
    assert _time_step(spec, aux)[1] > 2 * _PANEL_CHUNK
    monkeypatch.setattr("blowuplab.simulator._coefficients", counted)
    out = run(spec, aux)
    assert out.verdict == "blowup" and len(out.times) < _PANEL_CHUNK
    assert formed == [_PANEL_CHUNK]
    rows = sweep_p(spec, [2.0, 3.0], aux)
    assert [row["verdict"] for row in rows] == ["blowup"] * 2
    assert formed == [_PANEL_CHUNK] * 2


# -- one-row array reference (alpha = gamma = 0) ------------------------------------------

def _reference_rows(J, dr, n):
    """lo, di and up of the radial Laplacian on the columns 0..J-1."""
    inv = 1.0 / dr**2
    radial = (n - 1) / (2.0 * np.arange(1, J)) * inv
    lo = np.concatenate(([0.0], inv - radial))
    di = np.concatenate(([-2.0 * n * inv], np.full(J - 1, -2.0 * inv)))
    up = np.concatenate(([2.0 * n * inv], inv + radial))
    return lo, di, up


def _reference_laplacian(u, dr, n):
    lo, di, up = _reference_rows(len(u) - 1, dr, n)
    lap = np.zeros_like(u)
    lap[:-1] = di * u[:-1] + up * u[1:]
    lap[1:-1] += lo[1:] * u[:-2]
    return lap


def _reference_traces(spec, dt, steps, fields=None):
    """Sup norms, energies and final field from the per-step array formulas.

    Energy is np.gradient + np.trapezoid on every step; a and the forcing
    time factor are the constants c_a and c_f.  A ``fields`` list receives
    the field of every step.
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
    bh = 0.5 * dt * b[0]
    u = (u_prev + (1.0 - bh) * dt * v0 + 0.5 * dt**2 * prob.c_a * _reference_laplacian(u_prev, dr, n)
         + 0.5 * dt**2 * source(u_prev))
    u[-1] = 0.0
    sups, energies = [float(np.max(np.abs(u_prev)))], [energy(v0, u_prev)]
    if fields is not None:
        fields.append(u_prev)
    for m in range(1, steps + 1):
        if fields is not None:
            fields.append(u)
        sups.append(float(np.max(np.abs(u))))
        energies.append(energy((u - u_prev) / dt, u))
        if m == steps:
            break
        bh = 0.5 * dt * b[m]
        c = 1.0 / (1.0 + bh)
        u_next = (2.0 * c * u - (1.0 - bh) * c * u_prev
                  + dt**2 * prob.c_a * c * _reference_laplacian(u, dr, n) + dt**2 * c * source(u))
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
    # a negative nonlinearity on a front whose |u|^p underflows: the skipped
    # source entries are -0.0, as pow's +0.0 times the scale is
    "n1-delta-defocusing": SimSpec(
        problem=ProblemSpec(n=1, alpha=0.0, gamma=0.0, delta=0.5, p=2.5,
                            damping=DampingModel.constant(1.0)),
        r_max=30.0, J=200, T_max=10.0, u1=GaussianData(2.0, 0.5), nonlinearity=-1.0),
    # strong damping, b dt/2 = 2.5: the coefficient (1 - b dt/2) c of u_prev is
    # negative; u0 < 0 leaves -0.0 past a support that stays narrow
    "strong-damping": SimSpec(
        problem=ProblemSpec(n=2, alpha=0.0, gamma=0.0, delta=0.0, p=2.0,
                            damping=DampingModel.constant(50.0)),
        r_max=60.0, J=300, T_max=10.0, u0=GaussianData(-0.5, 0.5), u1=GaussianData(1.0, 0.5)),
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
    chunk = _block_steps(1, spec.J)
    steps = len(out.times) - 1
    assert out.hard_overflow and steps > chunk and steps % chunk != 0
    assert not np.isfinite(out.energies[-1])

    spec = REFERENCE_SPECS["narrow-support"]
    out = run(spec)
    assert out.verdict == "blowup" and np.count_nonzero(out.final_u) < spec.J - _WINDOW_BLOCK

    spec = REFERENCE_SPECS["strong-damping"]
    r = np.arange(spec.J + 1) * spec.dr
    out = run(spec)
    assert 0.5 * out.dt * spec.problem.damping.b(0.0) > 1.0
    assert np.any(np.signbit(spec.u0(r)) & (spec.u0(r) == 0.0))
    assert np.count_nonzero(out.final_u) < spec.J - _WINDOW_BLOCK

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

    # fronts where the source skips pow: nonzero |u| below the underflow cut
    for name in ("n2", "n1-delta-defocusing"):
        spec = REFERENCE_SPECS[name]
        mag = np.abs(run(spec).final_u)
        assert np.any((mag > 0.0) & (mag < _underflow_cut(spec.problem.p)))


# -- blocks of buffered steps ----------------------------------------------------------

def _block_steps(rows, J):
    """Steps that ``_march`` buffers in one full block of a batch of ``rows`` rows."""
    return max(2, _ENERGY_BUDGET // (rows * (J + 1))) - 1


def _rows_equal_single_runs(spec, aux, p_list):
    """Check each row of a ``_march`` batch against its single run, the energies and the
    final field bit for bit; return the single runs."""
    singles = [run(replace(spec, problem=replace(spec.problem, p=p)), aux) for p in p_list]
    for batch, single in zip(_batch(spec, aux, p_list), singles):
        assert (batch.verdict, batch.t_star, batch.hard_overflow) == (
            single.verdict, single.t_star, single.hard_overflow)
        assert np.array_equal(batch.times, single.times)
        assert np.array_equal(batch.sup_norms, single.sup_norms, equal_nan=True)
        assert np.array_equal(batch.energies.view(np.int64), single.energies.view(np.int64))
        assert np.array_equal(batch.final_u.view(np.int64), single.final_u.view(np.int64))
    return singles


def _reference_whole_step(fields, J):
    """First step marched at W = J+1 by the window rule of ``_march``, from one run's fields."""
    def support_end(*rows):
        cols = np.flatnonzero(np.any([row != 0.0 for row in rows], axis=0))
        return int(cols[-1]) + 1 if len(cols) else 0

    end = support_end(fields[1], fields[0])
    width = min(J + 1, end + 2 + _WINDOW_BLOCK)
    if width == J + 1:
        return 1
    rescan = width - end
    for m in range(rescan, len(fields)):
        if m == rescan:
            end = support_end(fields[m], fields[m - 1])
            if end + 2 + _WINDOW_BLOCK // 2 > width:
                width = min(J + 1, end + 2 + _WINDOW_BLOCK)
            if width == J + 1:
                return m
            rescan = m + width - 1 - end
    return None


# a blow-up with no exact zeros in the data: the window is whole from the start,
# so every block of buffered steps has its full length
BLOCK_SPEC = SimSpec(problem=unit_problem(2.0), r_max=10.0, J=400, T_max=30.0,
                     u0=GaussianData(0.5, 10.0), u1=GaussianData(1.0, 10.0),
                     allow_boundary_reflections=True)


@pytest.mark.parametrize("slot", ["first", "middle", "last"])
def test_crossing_at_each_slot_of_a_block(slot):
    """A run that crosses its threshold at the first, a middle or the last step of a block."""
    spec = BLOCK_SPEC
    r = np.arange(spec.J + 1) * spec.dr
    assert np.all(spec.u0(r)[:-1] != 0.0)
    block = _block_steps(1, spec.J)
    target = {"first": 2 * block + 1, "middle": 2 * block + block // 2, "last": 3 * block}[slot]
    full = run(replace(spec, blowup_threshold=1e300))
    assert np.all(np.diff(full.sup_norms[:target + 1]) > 0)
    out = run(replace(spec, blowup_threshold=full.sup_norms[target]))
    assert out.verdict == "blowup" and len(out.times) - 1 == target
    with np.errstate(over="ignore", invalid="ignore"):
        sups, energies, final = _reference_traces(spec, out.dt, target)
    assert np.array_equal(out.sup_norms, sups)
    assert np.array_equal(out.energies, energies)
    assert np.array_equal(out.final_u.view(np.int64), final.view(np.int64))


def test_crossing_at_the_first_step_of_a_chunk():
    """A run that crosses its threshold at the first step of its second chunk of
    coefficients, where the sample before the crossing is the first chunk's last."""
    spec = replace(BLOCK_SPEC, T_max=52.0, u0=GaussianData(0.02, 10.0), u1=GaussianData(0.02, 10.0))
    full = run(replace(spec, blowup_threshold=1e300))
    assert full.verdict == "survived" and np.all(np.diff(full.sup_norms[:_PANEL_CHUNK + 1]) > 0)
    out = run(replace(spec, blowup_threshold=full.sup_norms[_PANEL_CHUNK]))
    assert out.verdict == "blowup" and len(out.times) - 1 == _PANEL_CHUNK
    assert out.t_star == detect_blowup(full.times, full.sup_norms, full.sup_norms[_PANEL_CHUNK])
    sups, energies, final = _reference_traces(spec, out.dt, _PANEL_CHUNK)
    assert np.array_equal(out.sup_norms, sups)
    assert np.array_equal(out.energies, energies)
    assert np.array_equal(out.final_u.view(np.int64), final.view(np.int64))


@pytest.mark.parametrize("nonlinearity", [0.2, 0.05], ids=["crosses-again", "decays"])
def test_data_at_or_above_the_threshold_give_t0(nonlinearity):
    """Data above the threshold give t* = 0 in a run and in every sweep row, and the
    march goes on as before: the field falls below the threshold, then crosses it again
    or reaches the horizon; the run's traces are the per-step reference's."""
    spec = SimSpec(problem=unit_problem(2.0), r_max=60.0, J=300, T_max=30.0,
                   u0=GaussianData(2.0, 1.0), blowup_threshold=1.99, nonlinearity=nonlinearity)
    out = run(spec)
    assert out.verdict == "blowup" and out.t_star == 0.0 and out.sup_norms[1] < 1.99
    sups, energies, final = _reference_traces(spec, out.dt, len(out.times) - 1)
    assert np.array_equal(out.sup_norms, sups)
    assert np.array_equal(out.energies, energies)
    assert np.array_equal(out.final_u.view(np.int64), final.view(np.int64))
    assert (len(out.times) - 1 == round(spec.T_max / out.dt)) == (nonlinearity == 0.05)
    p_list = [1.5, 2.0, 3.0]
    aux = build_aux_table(spec.problem.damping, max(2.0, spec.T_max) * 1.01)
    singles = _rows_equal_single_runs(spec, aux, p_list)
    assert [oc.t_star for oc in singles] == [0.0] * 3
    assert [row["t_star"] for row in sweep_p(spec, p_list, aux)] == [0.0] * 3


def test_rows_crossing_in_one_block_equal_single_runs():
    """Two rows cross at different steps of one block and the row between them survives."""
    spec = replace(BLOCK_SPEC, T_max=5.0)
    p_list = [2.1, 1.3, 2.0]
    aux = build_aux_table(spec.problem.damping, max(2.0, spec.T_max) * 1.01)
    singles = _rows_equal_single_runs(spec, aux, p_list)
    assert [oc.verdict for oc in singles] == ["blowup", "survived", "blowup"]
    first, _, second = (len(oc.times) - 1 for oc in singles)
    block = _block_steps(len(p_list), spec.J)
    assert first < second and (first - 1) // block == (second - 1) // block


def test_window_whole_inside_a_block_with_guard():
    """With the guard on, the edge trace starts where the window becomes whole, inside a
    block; each row's verdict follows from the per-step reference fields."""
    spec = SimSpec(problem=replace(unit_problem(2.0), damping=DampingModel.constant(0.002)),
                   r_max=9.5, J=200, T_max=8.6, u1=GaussianData(4.0, 0.08))
    p_list = [1.5, 2.0, 3.0, 5.0]
    aux = build_aux_table(spec.problem.damping, max(2.0, spec.T_max) * 1.01)
    singles = _rows_equal_single_runs(spec, aux, p_list)
    assert [oc.verdict for oc in singles] == ["blowup"] * 3 + ["boundary_contaminated"]
    guard = min(5, spec.J // 4)
    for p, oc in zip(p_list, singles):
        fields = []
        with np.errstate(over="ignore", invalid="ignore"):
            sups, _, final = _reference_traces(replace(spec, problem=replace(spec.problem, p=p)),
                                               oc.dt, len(oc.times) - 1, fields)
        assert np.array_equal(oc.sup_norms, sups)
        assert np.array_equal(oc.final_u.view(np.int64), final.view(np.int64))
        whole = _reference_whole_step(fields, spec.J)
        assert 1 < whole < len(fields) - 1
        assert all((whole - 1) % _block_steps(rows, spec.J) for rows in (1, len(p_list)))
        edge = np.array([np.max(np.abs(f[-guard - 1:-1])) if m >= whole else 0.0
                         for m, f in enumerate(fields)])
        peak = np.maximum(np.maximum.accumulate(sups), 1e-300)
        contaminated = oc.t_star is None and bool(np.any(edge > 1e-10 * peak))
        assert (oc.verdict == "boundary_contaminated") == contaminated


# -- the three-row Laplacian -------------------------------------------------------------

def _apply_laplacian(st, u):
    """L u of each row through ``step``: the scalars (0, 0, 1, 0) leave k_lap L u alone."""
    return st.step(*st.bind(u, np.zeros_like(u)), None, (0.0, 0.0, 1.0, 0.0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_laplacian_of_r_squared(n):
    # the terms are about J^2 times the result, so J stays small
    J, dr = 32, 0.25
    r = np.arange(J + 1) * dr
    lap = _apply_laplacian(_Stencil(J, dr, n), (r**2)[None])[0]
    assert np.allclose(lap[:-1], 2.0 * n, rtol=1e-12, atol=0.0)
    assert lap[-1] == 0.0


def test_off_diagonal_rows_are_plain_for_n1():
    dr = 0.3
    st = _Stencil(64, dr, 1)
    assert np.array_equal(st.lo[1:], np.full(63, 1.0 / dr**2))
    assert np.array_equal(st.up[1:], np.full(63, 1.0 / dr**2))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_laplacian_matches_the_gradient_form(n):
    """The rows agree with u_rr + (n-1)/r u_r from differences, and 2n (u_1 - u_0)/dr^2 at r = 0."""
    rng = np.random.default_rng(n)
    J, dr = 300, 0.07
    u = rng.normal(size=(3, J + 1))
    st = _Stencil(J, dr, n)
    lap = _apply_laplacian(st, u)
    old = np.zeros_like(u)
    j = np.arange(1, J)
    old[:, 1:-1] = ((u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / dr**2
                    + (n - 1) / (j * dr) * (u[:, 2:] - u[:, :-2]) / (2.0 * dr))
    old[:, 0] = 2.0 * n * (u[:, 1] - u[:, 0]) / dr**2
    # relative to the size of the terms, since the sum can cancel
    terms = np.abs(st.di * u[:, :-1]) + np.abs(st.up * u[:, 1:])
    terms[:, 1:] += np.abs(st.lo[1:] * u[:, :-2])
    assert np.all(np.abs(lap[:, :-1] - old[:, :-1]) <= 1e-13 * terms)
    assert np.all(lap[:, -1] == 0.0)


# -- energies ----------------------------------------------------------------------------

@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_energies_equal_gradient_and_trapezoid(n, rows):
    """The energy of every row of a (steps, rows, J+1) block is np.gradient + np.trapezoid
    of that row alone, bit for bit.  An inf or a NaN in the last column of a row, of u or
    of v, stays in that row's energy: the rows after it in the flat buffer are exact."""
    J, dr, steps = 40, 0.3, 6
    rng = np.random.default_rng(10 * n + rows)
    u = rng.normal(size=(steps, rows, J + 1))
    v = rng.normal(size=(steps, rows, J + 1))
    a = rng.uniform(0.5, 2.0, (steps, 1))
    # each followed in the flat buffer by a clean row
    poisoned = [(0, 0), (2, rows - 1), (4, rows // 2)]
    u[0, 0, -1], u[2, rows - 1, -1], v[4, rows // 2, -1] = np.inf, np.nan, -np.inf
    rpow = (np.arange(J + 1) * dr) ** (n - 1)
    st = _Stencil(J, dr, n)
    with np.errstate(invalid="ignore", over="ignore"):
        got = st.energies(u, v.copy(), a, rpow, np.empty_like(u))
        expected = np.array([[sphere_area(n) * np.trapezoid(
            (0.5 * v[s, i] ** 2 + 0.5 * a[s, 0] * np.gradient(u[s, i], dr) ** 2) * rpow, dx=dr)
            for i in range(rows)] for s in range(steps)])
    assert got.shape == (steps, rows)
    assert not np.isfinite(got[tuple(zip(*poisoned))]).any()
    exact = np.isfinite(expected)
    exact[tuple(zip(*poisoned))] = False
    assert np.count_nonzero(exact) == steps * rows - len(poisoned)
    assert np.array_equal(got[exact].view(np.int64), expected[exact].view(np.int64))


# -- source term: the underflow cut ------------------------------------------------------

# 1e17: np.power(cut, p) is 1e-323, so the boundary must sit exactly at x < cut;
# 1e20: the cut rounds to 1.0
CUT_POWERS = [1.01, 1.2, 1.5, 2.0, 2.5, 3.0, 6.0, 50.0, 1e17, 1e20]


def _mixed_magnitudes(p: float, size: int, rng) -> np.ndarray:
    """|u| values of every input class of pow at power p, shuffled."""
    cut = 2.0 ** (-1076.0 / p)
    near = [cut]
    for _ in range(4):
        near = [np.nextafter(near[0], 0.0)] + near + [np.nextafter(near[-1], np.inf)]
    classes = [
        near,                                               # both sides of the cut
        np.geomspace(5e-324, 2.0**-1022, 40),               # subnormal |u|
        np.geomspace(max(2.0 ** (-1200.0 / p), 5e-324), cut, 40),   # |u|^p underflows
        np.geomspace(2.0 ** (-1074.0 / p), 2.0 ** (-1022.0 / p), 40),   # subnormal |u|^p
        [0.0, 0.0, np.inf, np.nan],
    ]
    mixed = np.concatenate(classes)
    mag = np.concatenate((mixed, rng.uniform(0.0, 4.0, size - len(mixed))))  # ordinary
    rng.shuffle(mag)
    return mag


@pytest.mark.parametrize("delta", [0.0, 0.5])
@pytest.mark.parametrize("scale", [1.5, -0.75])
def test_source_matches_pow_bitwise(scale, delta):
    """Skipping the entries below the cut leaves every bit of the source row."""
    rng = np.random.default_rng(7)
    J = 400
    powers = CUT_POWERS + [1.001]    # 1.001: only 0 is below the cut, nothing is skipped
    st = _Stencil(J, 0.05, 2, delta)
    absu = np.array([_mixed_magnitudes(p, J + 1, rng) for p in powers])
    with np.errstate(all="ignore"):
        src = st.source(absu, powers, [_underflow_cut(p) for p in powers], scale)
        factor = scale if st.fspace is None else scale * st.fspace
        for row, mag, p in zip(src, absu, powers):
            assert np.array_equal(row.view(np.int64), (factor * np.power(mag, p)).view(np.int64))


@pytest.mark.parametrize("p", CUT_POWERS)
def test_pow_underflows_below_the_cut(p):
    cut = 2.0 ** (-1076.0 / p)
    below = np.nextafter(cut, 0.0)
    values = np.append(np.geomspace(5e-324, below, 4096), below)
    assert np.all(values < cut)
    assert not np.power(values, p).view(np.int64).any()    # +0.0 has the bits 0
    assert _underflow_cut(p) == cut


def test_underflow_cut_falls_back_to_no_cut():
    # p near 1: no positive double lies below the cut
    assert _underflow_cut(1.001) == 0.0
    # x^-2 is huge below the cut: the probe fails and nothing is skipped
    assert _underflow_cut(-2.0) == 0.0


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


@pytest.mark.parametrize("prob", [
    ProblemSpec(n=2, alpha=0.25, gamma=0.5, delta=0.0, p=6.0,
                damping=DampingModel.power_law(1.0, 0.5)),
    unit_problem(2.0, alpha=-0.5),
], ids=["time-dependent", "growing-speed"])
def test_manufactured_steps_obey_the_cfl_limit(prob, monkeypatch):
    """The manufactured checks round their step count up, so dt stays within the CFL
    limit; a count rounded to the nearest would exceed it at J = 128 and 256 of the
    first problem (by 0.7%) and at every J of the second (by 0.14%)."""
    dts = []

    def recorded(prob, aux, dt, steps, nonlinearity):
        dts.append(dt)
        return _coefficients(prob, aux, dt, steps, nonlinearity)

    monkeypatch.setattr("blowuplab.simulator._coefficients", recorded)
    convergence_test(prob)
    aux = build_aux_table(prob.damping, 2.02)
    limits = [_stable_dt(prob, aux, 0.5, 8.0 / J, 1.0, None) for J in (64, 128, 256)]
    assert len(dts) == 3
    assert all(dt <= limit for dt, limit in zip(dts, limits))


def test_convergence_forms_no_forcing_factor():
    """The manufactured checks march the linear scheme, so a forcing factor B**gamma
    that overflows (gamma = 2000) is never formed: no warning, and order 2."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = convergence_test(unit_problem(1.5, gamma=2000.0))
    assert abs(report["observed_order"] - 2.0) <= 0.2


def test_time_step_refinement_ratio():
    ratio = time_order_ratio(unit_problem(1.5))
    assert 3.0 <= ratio <= 5.0


def test_time_step_refinement_ratio_with_growing_speed():
    """For alpha < 0 the base step is the CFL limit at a(1), not at c_a."""
    prob = ProblemSpec(n=1, alpha=-0.5, gamma=0.0, delta=0.0, p=2.0,
                       damping=DampingModel.constant(1.0))
    assert 3.0 <= time_order_ratio(prob) <= 5.0
