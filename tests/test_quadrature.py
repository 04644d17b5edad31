"""Quadrature engine against closed forms and an independent library route."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from blowuplab import quadrature
from blowuplab.quadrature import (
    QuadratureNonconvergence,
    _sharpened,
    gauss_kronrod_panel,
    gauss_legendre_nodes,
    integrate_adaptive,
)


def test_panel_exact_for_low_degree():
    """A single K15 panel integrates polynomials up to high degree exactly."""
    val, err = gauss_kronrod_panel(lambda x: x**6 - 3 * x**2 + 1, 0.0, 2.0)
    exact = 2.0**7 / 7 - 2.0**3 + 2.0
    assert abs(val - exact) < 1e-13
    assert err < 1e-10


def test_panel_array_endpoints_match_single_panels():
    """Array endpoints give one panel per pair, equal to the scalar calls."""
    f = lambda x: np.exp(-0.3 * x) / (1.0 + x)
    a = np.array([[0.0, 0.5, 2.0], [7.0, 7.0, 1e3]])
    b = np.array([[0.5, 2.0, 7.0], [7.0, 40.0, 1e3 + 1e-3]])
    vals, errs = gauss_kronrod_panel(f, a, b)
    assert vals.shape == errs.shape == a.shape
    # a batched sum may round each 15-term panel sum (K15 and G7) differently
    tol = 32 * np.finfo(float).eps
    for index in np.ndindex(a.shape):
        val, err = gauss_kronrod_panel(f, float(a[index]), float(b[index]))
        assert abs(vals[index] - val) <= tol * abs(val)
        assert abs(errs[index] - err) <= tol * abs(val)
    assert vals[1, 0] == 0.0 and errs[1, 0] == 0.0   # zero-width panel


@pytest.mark.parametrize("f, a, b, exact", [
    (lambda x: np.exp(-x), 0.0, 50.0, 1.0 - math.exp(-50.0)),
    (lambda x: 1.0 / (1.0 + x) ** 2, 0.0, 1e6, 1.0 - 1.0 / (1.0 + 1e6)),
    (lambda x: np.sqrt(x), 0.0, 4.0, 16.0 / 3.0),
    (lambda x: np.sin(x), 0.0, 2 * math.pi, 0.0),
])
def test_adaptive_against_closed_forms(f, a, b, exact):
    got = integrate_adaptive(f, a, b, abs_tol=1e-12, rel_tol=1e-11)
    assert abs(got - exact) < 1e-9 * max(1.0, abs(exact))


def test_adaptive_matches_library_quadrature():
    """Cross-check the engine against an independent adaptive integrator."""
    f = lambda x: np.exp(-0.5 * x) * np.cos(3.0 * x) / (1.0 + x)
    ours = integrate_adaptive(f, 0.0, 20.0, rel_tol=1e-11)
    ref, _ = quad(lambda x: f(np.array([x]))[0], 0.0, 20.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert abs(ours - ref) < 1e-9


def test_orientation_and_empty_interval():
    assert integrate_adaptive(lambda x: x, 1.0, 1.0) == 0.0
    fwd = integrate_adaptive(lambda x: x**2, 0.0, 3.0)
    rev = integrate_adaptive(lambda x: x**2, 3.0, 0.0)
    assert abs(fwd + rev) < 1e-12


def test_nonconvergence_raises(monkeypatch):
    """A genuinely divergent endpoint singularity exhausts the panel budget."""
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 100)
    with pytest.raises(QuadratureNonconvergence):
        integrate_adaptive(lambda x: 1.0 / np.maximum(x, 1e-300), 0.0, 1.0,
                           abs_tol=1e-14, rel_tol=1e-14)


def test_gauss_legendre_panels():
    nodes, weights = gauss_legendre_nodes(0.0, math.pi, panels=8)
    assert abs(float(np.sum(weights * np.sin(nodes))) - 2.0) < 1e-12


# -- lockstep refinement of array calls ------------------------------------------

_WAVE = lambda x: np.exp(-0.5 * x) * np.cos(3.0 * x) / (1.0 + x)


def _alone(f, a, b, **tol):
    """Each interval's scalar result, as an array of the shape of ``a``."""
    return np.array([integrate_adaptive(f, float(lo), float(hi), **tol)
                     for lo, hi in zip(np.ravel(a), np.ravel(b))]).reshape(np.shape(a))


def _refinements(f, a, b, **tol):
    """Splits the scalar call takes: one panel first, then two per split."""
    panels = []
    integrate_adaptive(lambda x: panels.append(len(x)) or f(x), a, b, **tol)
    return (sum(panels) - 1) // 2


def _same_bits(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


def test_lockstep_matches_each_interval_alone():
    """Intervals needing 0, 1 and many splits, refined together, give each
    scalar result bit for bit, in one integrand call per round."""
    a = np.array([[0.0, 0.0], [0.0, 2.0]])
    b = np.array([[1.0, 1.5], [20.0, 60.0]])
    tol = dict(rel_tol=1e-11)
    splits = [_refinements(_WAVE, lo, hi, **tol) for lo, hi in zip(a.ravel(), b.ravel())]
    assert splits[:2] == [0, 1] and min(splits[2:]) > 10
    calls = []
    got = integrate_adaptive(lambda x: calls.append(len(x)) or _WAVE(x), a, b, **tol)
    assert got.shape == a.shape
    assert _same_bits(got, _alone(_WAVE, a, b, **tol))
    assert len(calls) == 1 + max(splits)


def test_lockstep_passes_each_integrals_args():
    """With ``args``, each panel's values come from its own integral's
    entries, and every result equals its one-integral call bit for bit."""
    a = np.array([[0.0, 0.0], [2.0, 0.0]])
    b = np.array([[20.0, 20.0], [60.0, 1.0]])
    rate = np.array([[0.5, 2.0], [0.5, 0.1]])
    f = lambda x, c: np.exp(-c[:, None] * x) * np.cos(3.0 * x) / (1.0 + x)
    got = integrate_adaptive(f, a, b, rel_tol=1e-11, args=(rate,))
    alone = [integrate_adaptive(lambda x: f(x, np.full(len(x), c)), lo, hi, rel_tol=1e-11)
             for lo, hi, c in zip(a.ravel(), b.ravel(), rate.ravel())]
    assert _same_bits(got, np.reshape(alone, a.shape))
    assert got[0, 0] != got[0, 1]


def test_lockstep_empty_and_reversed_intervals():
    """A zero-width interval gives +0.0 and a reversed one the negated
    forward value, in a batch exactly as alone."""
    a = np.array([0.0, 3.0, 20.0, 5.0])
    b = np.array([3.0, 0.0, 0.0, 5.0])
    got = integrate_adaptive(_WAVE, a, b, rel_tol=1e-11)
    assert _same_bits(got, _alone(_WAVE, a, b, rel_tol=1e-11))
    assert _same_bits(got[1], -got[0]) and _same_bits(got[3], 0.0)


def test_lockstep_raises_as_the_failing_interval_alone(monkeypatch):
    """One interval that exhausts the panel budget fails the batch with the
    error it raises alone."""
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 100)
    f = lambda x: 1.0 / np.maximum(x, 1e-300)
    tol = dict(abs_tol=1e-14, rel_tol=1e-14)
    with pytest.raises(QuadratureNonconvergence) as alone:
        integrate_adaptive(f, 0.0, 1.0, **tol)
    with pytest.raises(QuadratureNonconvergence) as batch:
        integrate_adaptive(f, np.array([1.0, 2.0, 0.0]), np.array([2.0, 4.0, 1.0]), **tol)
    assert str(batch.value) == str(alone.value)


def test_sharpened_estimates_are_the_scalar_formula():
    """Each estimate is min(d, (200 d)**1.5) with Python's power, bit for
    bit; numpy's vectorized power can round differently in the last bit."""
    diff = 10.0 ** np.random.default_rng(0).uniform(-20.0, -5.0, 2000)
    want = [min(d, (200.0 * d) ** 1.5) if d < 2e-7 else d for d in diff.tolist()]
    assert _same_bits(_sharpened(diff), np.array(want))
    assert _same_bits(_sharpened(np.array([0.0, np.nan, 1.0])), np.array([0.0, 0.0, 1.0]))
