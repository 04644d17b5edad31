"""Coefficient families: closed forms, derivatives, representatives, JSON."""

import math

import numpy as np
import pytest

from blowuplab.auxcalc import TableRangeError, build_aux_table
from blowuplab.coeffs import (
    DampingModel,
    Perturbation,
    ProblemSpec,
    SingularEvaluation,
    eval_a,
    eval_f,
)

ALL_FAMILIES = [
    DampingModel.constant(2.0),
    DampingModel.power_law(1.0, 1.0),
    DampingModel.power_law(3.0, -0.5),
    DampingModel.power_law(1.0, 0.5),
    DampingModel.perturbed_power(1.0, 0.5, Perturbation("log", 1.5)),
    DampingModel.perturbed_power(1.0, 0.5, Perturbation("sin", 0.25)),
    DampingModel.perturbed_power(2.0, -0.5, Perturbation("log", -2.0)),
    DampingModel.power_law(1.0, -0.9),
    DampingModel.perturbed_power(1.0, -0.3, Perturbation("sin", 0.5)),
]


# -- closed-form values -------------------------------------------------------

def test_eval_b_closed_forms():
    assert DampingModel.constant(2.0).b(7.0) == 2.0
    assert DampingModel.power_law(1.0, 1.0).b(1.0) == 0.5
    assert abs(DampingModel.power_law(3.0, -0.5).b(3.0) - 6.0) < 1e-14


def test_eval_db_closed_forms():
    assert DampingModel.constant(2.0).db(5.0) == 0.0
    assert DampingModel.power_law(1.0, 1.0).db(0.0) == -1.0


def test_borderline_ratio_is_constant():
    """For kappa = 1 the ratio b'/b^2 equals -1/mu at every time."""
    m = DampingModel.power_law(1.0, 1.0)
    for t in (0.0, 1.0, 10.0, 1e4):
        assert abs(m.db(t) / m.b(t) ** 2 + 1.0) < 1e-14


def test_derivative_matches_centered_difference():
    """Analytic b' against a centered difference at 100 random times."""
    rng = np.random.default_rng(20240901)
    ts = rng.uniform(0.0, 100.0, 100)
    for model in ALL_FAMILIES:
        if model.kind == "constant":
            continue
        for t in ts:
            h = 1e-5 * (1.0 + t)
            fd = (model.b(t + h) - model.b(max(t - h, 0.0))) / (
                (t + h) - max(t - h, 0.0))
            an = model.db(t)
            assert abs(fd - an) <= 1e-6 * max(abs(an), 1e-12), (model, t)


def test_second_derivative_matches_centered_difference_of_db():
    """Analytic b'' against a centered difference of b' at 100 random times,
    for every family, constant, power-law, log- and sin-perturbed.  The
    scale |b''| + |b'|/(1 + t) keeps the bound relative where b'' crosses 0."""
    rng = np.random.default_rng(20261020)
    ts = rng.uniform(0.0, 100.0, 100)
    for model in ALL_FAMILIES:
        for t in ts:
            h = 1e-4 * (1.0 + t)
            lo = max(t - h, 0.0)
            fd = (model.db(t + h) - model.db(lo)) / ((t + h) - lo)
            an = model.derivatives(t, 2)[2]
            assert abs(fd - an) <= 1e-6 * (abs(an) + abs(model.db(t)) / (1.0 + t)), (model, t)


def test_third_derivative_matches_centered_difference_of_d2b():
    """Analytic b''' against a centered difference of b'' at 100 random
    times, for the constant law, power laws with kappa in {-0.9, -0.5, 0.5,
    1} and the log and sin perturbations.  The scale |b'''| + |b''|/(1 + t)
    keeps the bound relative where b''' crosses 0."""
    rng = np.random.default_rng(20261021)
    ts = rng.uniform(0.0, 100.0, 100)
    for model in ALL_FAMILIES:
        for t in ts:
            h = 1e-4 * (1.0 + t)
            lo = max(t - h, 0.0)
            d2b = lambda x: model.derivatives(x, 2)[2]
            fd = (d2b(t + h) - d2b(lo)) / ((t + h) - lo)
            an = model.derivatives(t, 3)[3]
            assert abs(fd - an) <= 1e-6 * (abs(an) + abs(d2b(t)) / (1.0 + t)), (model, t)


# the hand-expanded product rules that ``derivatives`` replaced, kept as its bit oracle

def _reference_perturbation(v, t, k):
    """v^(k)(t) by the closed forms written out one order at a time."""
    if v.kind == "log":
        g = v.exponent
        if k == 0:
            return np.log(np.e + t) ** g
        if k == 1:
            return g * np.log(np.e + t) ** (g - 1.0) / (np.e + t)
        L = np.log(np.e + t)
        if k == 2:
            return g * L ** (g - 2.0) * (g - 1.0 - L) / (np.e + t) ** 2
        return (g * L ** (g - 3.0) * ((g - 1.0) * (g - 2.0) - 3.0 * (g - 1.0) * L + 2.0 * L * L)
                / (np.e + t) ** 3)
    s = 1.0 + np.asarray(t, dtype=float)
    a = v.exponent
    if k == 0:
        return 1.0 + s**a * np.sin(s ** (-2.0 * a))
    phase = s ** (-2.0 * a)
    if k == 1:
        return a * s ** (a - 1.0) * np.sin(phase) - 2.0 * a * s ** (-a - 1.0) * np.cos(phase)
    if k == 2:
        sin_factor = a * (a - 1.0) * s ** (a - 2.0) - 4.0 * a * a * s ** (-3.0 * a - 2.0)
        return sin_factor * np.sin(phase) + 2.0 * a * s ** (-a - 2.0) * np.cos(phase)
    sin_factor = (a * (a - 1.0) * (a - 2.0) * s ** (a - 3.0)
                  + 12.0 * a * a * (a + 1.0) * s ** (-3.0 * a - 3.0))
    cos_factor = 8.0 * a**3 * s ** (-5.0 * a - 3.0) - 2.0 * a * (a * a + 2.0) * s ** (-a - 3.0)
    return sin_factor * np.sin(phase) + cos_factor * np.cos(phase)


def _reference_derivative(model, t, k):
    """b^(k)(t) by the product rule written out one order at a time."""
    if k == 0:
        if model.kind == "constant":
            return model.mu * np.ones_like(np.asarray(t, dtype=float))
        base = model.mu * (1.0 + np.asarray(t, dtype=float)) ** (-model.kappa)
        if model.kind == "powerlaw":
            return base
        return base * _reference_perturbation(model.perturbation, t, 0)
    t = np.asarray(t, dtype=float)
    if model.kind == "constant":
        return np.zeros_like(t)
    mu, kappa, v = model.mu, model.kappa, model.perturbation
    base = mu * (1.0 + t) ** (-kappa)
    dbase = -mu * kappa * (1.0 + t) ** (-kappa - 1.0)
    d2base = mu * kappa * (kappa + 1.0) * (1.0 + t) ** (-kappa - 2.0)
    d3base = -mu * kappa * (kappa + 1.0) * (kappa + 2.0) * (1.0 + t) ** (-kappa - 3.0)
    if model.kind == "powerlaw":
        return (dbase, d2base, d3base)[k - 1]
    vs = [_reference_perturbation(v, t, j) for j in range(k + 1)]
    if k == 1:
        return dbase * vs[0] + base * vs[1]
    if k == 2:
        return d2base * vs[0] + 2.0 * dbase * vs[1] + base * vs[2]
    return d3base * vs[0] + 3.0 * d2base * vs[1] + 3.0 * dbase * vs[2] + base * vs[3]


_ORACLE_LAWS = [
    DampingModel.constant(2.0),
    *(DampingModel.power_law(1.7, kappa) for kappa in (-0.9, -0.5, 0.0, 0.3, 0.5, 1.0)),
    DampingModel.perturbed_power(1.3, 0.5, Perturbation("log", 1.5)),
    DampingModel.perturbed_power(2.0, -0.5, Perturbation("log", -2.0)),
    DampingModel.perturbed_power(1.0, 0.5, Perturbation("sin", 0.25)),
    DampingModel.perturbed_power(0.7, -0.3, Perturbation("sin", 1.7)),
]
_ORACLE_TIMES = [0.0, 3.7, np.array([0.0, 1e-3, 0.5, 47.0, 1e5, 1e12]),
                 np.geomspace(1e-3, 1e12, 12).reshape(3, 4)]


def _bits(x):
    return np.asarray(x).view(np.int64)


@pytest.mark.parametrize("model", _ORACLE_LAWS, ids=repr)
@pytest.mark.parametrize("t", _ORACLE_TIMES, ids=["0", "3.7", "1-D", "2-D"])
def test_derivatives_match_the_product_rules_bit_for_bit(model, t):
    """derivatives(t, order)[k] equals the hand-expanded b^(k) in every bit
    and in type, for every order from k to 3, and so do b and db: the
    Leibniz terms are added in the order those formulas add them."""
    for order in range(4):
        got = model.derivatives(t, order)
        assert len(got) == order + 1
        for k in range(order + 1):
            want = _reference_derivative(model, t, k)
            assert type(got[k]) is type(want), (order, k)
            assert np.shape(got[k]) == np.shape(want), (order, k)
            assert np.array_equal(_bits(got[k]), _bits(want)), (order, k)
    for k, read in enumerate((model.b, model.db)):
        want = _reference_derivative(model, t, k)
        assert type(read(t)) is type(want)
        assert np.array_equal(_bits(read(t)), _bits(want))


@pytest.mark.parametrize("model", [
    DampingModel.constant(2.0),
    DampingModel.power_law(1.0, 0.5),
    DampingModel.power_law(1.0, -0.9),
    DampingModel.power_law(1.0, 1.0),
    DampingModel.perturbed_power(1.0, 0.5, Perturbation("log", 1.0)),
    DampingModel.perturbed_power(1.0, -0.5, Perturbation("log", -1.5)),
    DampingModel.perturbed_power(1.0, 0.5, Perturbation("sin", 0.05)),
    DampingModel.perturbed_power(1.0, -0.3, Perturbation("sin", 0.5)),
    DampingModel.perturbed_power(1.0, 0.5, Perturbation("sin", 1.7)),
], ids=repr)
def test_derivatives_match_mpmath(model):
    """b to b''' against mpmath's derivatives of the closed-form b at 50
    digits, at times from 0 to 1e8, each error relative to
    max(|b^(k)|, |b^(k-1)|/(1 + t)), which stays away from 0 where b^(k)
    crosses it."""
    mpmath = pytest.importorskip("mpmath")

    def closed_form(t):
        if model.kind == "constant":
            return mpmath.mpf(model.mu)
        b = model.mu * (1 + t) ** (-mpmath.mpf(model.kappa))
        if model.kind == "powerlaw":
            return b
        a = mpmath.mpf(model.perturbation.exponent)
        if model.perturbation.kind == "log":
            return b * mpmath.log(mpmath.e + t) ** a
        return b * (1 + (1 + t) ** a * mpmath.sin((1 + t) ** (-2 * a)))

    with mpmath.workdps(50):
        for t in (0.0, 1e-3, 0.5, 3.0, 47.0, 1e3, 1e5, 1e8):
            exact = [float(d) for d in mpmath.diffs(closed_form, mpmath.mpf(t), 3)]
            got = model.derivatives(t, 3)
            for k in range(4):
                scale = max(abs(exact[k]), abs(exact[k - 1]) / (1.0 + t) if k else 0.0)
                assert abs(got[k] - exact[k]) <= 1e-12 * scale, (t, k, got[k], exact[k])


def test_power_law_limits_approached_monotonically():
    """b'/b^2 -> 0 and t b'/b -> -kappa, closing in over three decades."""
    for kappa in (0.5, -0.5, 0.9):
        m = DampingModel.power_law(1.0, kappa)
        d_ratio, d_scale = [], []
        for t in (1e3, 1e4, 1e5):
            d_ratio.append(abs(m.db(t) / m.b(t) ** 2 - 0.0))
            d_scale.append(abs(t * m.db(t) / m.b(t) - (-kappa)))
        assert d_ratio[0] > d_ratio[1] > d_ratio[2]
        assert d_scale[0] > d_scale[1] > d_scale[2]


def test_positive_on_sampled_grids():
    ts = np.concatenate(([0.0], np.geomspace(1e-3, 1e6, 400)))
    for model in ALL_FAMILIES:
        assert np.all(model.b(ts) > 0.0), model


# -- representative speed and forcing -----------------------------------------

@pytest.fixture(scope="module")
def aux_unit():
    return build_aux_table(DampingModel.constant(1.0), 50.0)


def test_eval_a_constant_speed(aux_unit):
    spec = ProblemSpec(n=1, alpha=0.0, gamma=0.0, delta=0.0, p=2.0)
    for t in (0.0, 3.0, 17.0):
        assert eval_a(spec, t, aux_unit) == 1.0
        assert type(eval_a(spec, t, aux_unit)) is float
    assert np.array_equal(eval_a(spec, np.array([0.0, 3.0]), aux_unit), [1.0, 1.0])
    # alpha = 0 reads the table like any other alpha
    with pytest.raises(TableRangeError):
        eval_a(spec, 60.0, aux_unit)


def test_eval_a_decaying_speed(aux_unit):
    # B(t) = t for unit damping, so B(4) = 4 and the unit shift is B(1) = 1
    spec = ProblemSpec(n=1, alpha=0.5, gamma=0.0, delta=0.0, p=2.0)
    got = eval_a(spec, 4.0, aux_unit)
    assert abs(got - 5.0 ** (-0.5)) < 1e-10


def test_eval_a_small_alpha_continuity(aux_unit):
    spec0 = ProblemSpec(n=1, alpha=0.0, gamma=0.0, delta=0.0, p=2.0)
    spec1 = ProblemSpec(n=1, alpha=1e-9, gamma=0.0, delta=0.0, p=2.0)
    assert abs(eval_a(spec0, 5.0, aux_unit) - eval_a(spec1, 5.0, aux_unit)) < 1e-7


def test_eval_f_flat(aux_unit):
    spec = ProblemSpec(n=1, alpha=0.0, gamma=0.0, delta=0.0, p=2.0)
    assert eval_f(spec, 2.0, 3.0, aux_unit) == 1.0
    assert eval_f(spec, 0.0, 0.0, aux_unit) == 1.0


def test_eval_f_time_growth(aux_unit):
    # (B(3) + B(1))**gamma = (3 + 1)**1 for unit damping
    spec = ProblemSpec(n=1, alpha=0.0, gamma=1.0, delta=0.0, p=2.0)
    got = eval_f(spec, 3.0, 1.0, aux_unit)
    assert abs(got - 4.0) < 1e-10


def test_eval_f_singular_at_origin(aux_unit):
    spec = ProblemSpec(n=1, alpha=0.0, gamma=0.0, delta=-1.0, p=2.0)
    with pytest.raises(SingularEvaluation):
        eval_f(spec, 1.0, 0.0, aux_unit)


# -- validation and serialization ---------------------------------------------

def test_damping_validation():
    with pytest.raises(ValueError):
        DampingModel.constant(0.0)
    with pytest.raises(ValueError):
        DampingModel.power_law(1.0, 1.5)
    with pytest.raises(ValueError):
        DampingModel.power_law(1.0, -1.0)
    with pytest.raises(ValueError):
        DampingModel.perturbed_power(1.0, 1.0, Perturbation("log", 1.0))
    with pytest.raises(ValueError):
        DampingModel("perturbed", 1.0, 0.5, None)
    with pytest.raises(ValueError):
        Perturbation("sin", -1.0)
    with pytest.raises(ValueError):
        Perturbation("cubic", 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_damping_rejects_nonfinite(value):
    with pytest.raises(ValueError, match="finite"):
        DampingModel.constant(value)
    with pytest.raises(ValueError, match="finite"):
        DampingModel.power_law(value, 0.5)
    with pytest.raises(ValueError, match="finite"):
        Perturbation("log", value)


def test_borderline_admissibility_flags():
    assert DampingModel.power_law(2.0, 1.0).analytically_admissible
    assert not DampingModel.power_law(0.5, 1.0).analytically_admissible
    assert DampingModel.power_law(1.0, 0.99).analytically_admissible
    assert DampingModel.power_law(2.0, 1.0).borderline


def test_problem_spec_validation():
    good = dict(n=1, alpha=0.0, gamma=0.0, delta=0.0, p=2.0)
    ProblemSpec(**good)
    for key, bad in (("alpha", 1.0), ("gamma", -1.0), ("p", 1.0), ("n", 0)):
        with pytest.raises(ValueError):
            ProblemSpec(**{**good, key: bad})
    with pytest.raises(ValueError):
        ProblemSpec(**good, c_a=0.0)
    for key in ("alpha", "gamma", "delta", "p", "c_a", "c_f"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                ProblemSpec(**{**good, key: bad})


def test_from_dict_reads_every_key():
    data = {
        "n": 3, "alpha": 0.25, "gamma": 0.5, "delta": -0.5, "p": 2.5,
        "damping": {"kind": "perturbed", "mu": 1.5, "kappa": 0.5,
                    "perturbation": {"kind": "sin", "exponent": 0.3}},
        "c_a": 2.0, "c_f": 0.5,
    }
    assert ProblemSpec.from_dict(data) == ProblemSpec(
        n=3, alpha=0.25, gamma=0.5, delta=-0.5, p=2.5,
        damping=DampingModel.perturbed_power(1.5, 0.5, Perturbation("sin", 0.3)),
        c_a=2.0, c_f=0.5,
    )
    flat = {"kind": "powerlaw", "mu": 2.0, "kappa": -0.25}
    assert DampingModel.from_dict(flat) == DampingModel.power_law(2.0, -0.25)


def test_from_dict_absent_and_null_keys_keep_defaults():
    data = {"n": 2, "alpha": 0.0, "gamma": 0.0, "delta": 0.0, "p": 2.0,
            "damping": None, "c_f": None}
    assert ProblemSpec.from_dict(data) == ProblemSpec(n=2, alpha=0.0, gamma=0.0, delta=0.0, p=2.0)
    logged = {"kind": "perturbed", "mu": 1.0, "kappa": 0.5,
              "perturbation": {"kind": "log", "exponent": None}}
    assert DampingModel.from_dict(logged) == DampingModel.perturbed_power(
        1.0, 0.5, Perturbation("log", 1.0))
    assert DampingModel.from_dict({"kind": "Constant", "mu": 2.0}) == DampingModel.constant(2.0)


@pytest.mark.parametrize("change, message", [
    ({"n": 2.5}, "n: 2.5 is not an integer"),
    ({"n": True}, "n: True is not an integer"),
    ({"p": None}, "missing 1 required positional argument: 'p'"),
    ({"alpha": "fast"}, "alpha: could not convert"),
    ({"damping": "constant"}, "damping: expected a JSON object, got 'constant'"),
    ({"damping": {"kind": "perturbed", "mu": 1.0, "kappa": 0.5, "perturbation": ["log"]}},
     "damping: perturbation: expected a JSON object"),
    ({"damping": {"mu": 1.0}}, "damping: .*missing 1 required positional argument: 'kind'"),
])
def test_from_dict_names_the_malformed_key(change, message):
    data = {"n": 1, "alpha": 0.0, "gamma": 0.0, "delta": 0.0, "p": 2.0, **change}
    with pytest.raises(ValueError, match=message):
        ProblemSpec.from_dict(data)
