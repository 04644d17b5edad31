"""Cutoff profiles, rescaled derivatives, box classification."""

import numpy as np
import pytest

from blowuplab.testfn import (
    BumpProfile,
    ScalingFamily,
    box_region,
    bump_eval,
    default_sigma,
    eta_eval,
    power_lemma_check,
    psi_R_deriv,
)

PROF = BumpProfile(sigma=4)


# -- profile values -------------------------------------------------------------

def test_plateau_and_support():
    assert bump_eval(PROF, 0, 0.0) == 1.0
    assert bump_eval(PROF, 0, 0.5) == 1.0
    assert bump_eval(PROF, 1, 0.25) == 0.0
    assert bump_eval(PROF, 2, -0.4) == 0.0
    assert bump_eval(PROF, 0, 1.0) == 0.0
    assert bump_eval(PROF, 0, -1.7) == 0.0
    assert bump_eval(PROF, 1, 1.2) == 0.0


def test_bridge_decreasing_and_even():
    assert 0.0 < bump_eval(PROF, 0, 0.9) < bump_eval(PROF, 0, 0.75) < 1.0
    ys = np.linspace(0.5, 1.0, 200)
    vals = bump_eval(PROF, 0, ys)
    assert np.all(np.diff(vals) <= 0.0)
    assert np.allclose(bump_eval(PROF, 0, -ys), vals)


def test_range_bounds():
    ys = np.linspace(-1.5, 1.5, 1001)
    vals = bump_eval(PROF, 0, ys)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_eta_one_sided():
    assert eta_eval(PROF, 0, 0.1) == 1.0
    assert eta_eval(PROF, 0, 2.0) == 0.0
    assert eta_eval(PROF, 1, 0.75) < 0.0
    assert eta_eval(PROF, 1, 0.0) == 0.0


def test_derivatives_match_finite_differences():
    """Analytic orders 1 and 2 against centered differences away from the edges."""
    ys = np.linspace(0.55, 0.95, 17)
    h = 1e-5
    fd1 = (bump_eval(PROF, 0, ys + h) - bump_eval(PROF, 0, ys - h)) / (2 * h)
    an1 = bump_eval(PROF, 1, ys)
    assert np.max(np.abs(fd1 - an1) / np.abs(an1)) <= 1e-4
    fd2 = (bump_eval(PROF, 1, ys + h) - bump_eval(PROF, 1, ys - h)) / (2 * h)
    an2 = bump_eval(PROF, 2, ys)
    assert np.max(np.abs(fd2 - an2) / np.abs(an2)) <= 1e-4


def test_order_overflow():
    with pytest.raises(ValueError):
        bump_eval(PROF, 3, 0.7)
    with pytest.raises(ValueError):
        eta_eval(PROF, 3, 0.7)


def test_default_sigma():
    # ceil(2 p') + 1 with m = 2: p = 3 gives p' = 1.5 -> 4
    assert default_sigma(3.0) == 4
    assert default_sigma(2.0) == 5


# -- power inequality -------------------------------------------------------------

def test_power_lemma_bounded():
    val = power_lemma_check(PROF, 2.0, 1)
    assert np.isfinite(val) and val < 1e3


def test_power_lemma_second_order():
    val = power_lemma_check(BumpProfile(sigma=8), 2.0, 2)
    assert np.isfinite(val)


def test_power_lemma_precondition():
    with pytest.raises(ValueError):
        power_lemma_check(BumpProfile(sigma=1), 2.0, 1)


# -- rescaled derivatives ----------------------------------------------------------

@pytest.fixture(scope="module")
def family(aux_const1):
    return ScalingFamily(n=2, d=2.0, aux=aux_const1)


def test_scale_vector(family):
    # identity accumulation: F0(R) = R^2
    R = 10.0
    F = family.scales(R)
    assert abs(F[0] - 100.0) < 1e-8
    assert F[1] == F[2] == 10.0


def test_scales_increase_in_R(family):
    Rs = [2.0, 4.0, 8.0, 16.0]
    F0s = [family.F0(R) for R in Rs]
    assert all(a < b for a, b in zip(F0s, F0s[1:]))


def test_psi_plateau_value(family):
    R = 10.0
    point = (3.0, 2.0, -1.0)  # deep inside the inner box [0,50]x[-5,5]^2
    assert psi_R_deriv(family, PROF, (0, 0, 0), point, R) == 1.0
    for alpha in ((1, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 1)):
        assert psi_R_deriv(family, PROF, alpha, point, R) == 0.0


def test_psi_second_derivative_on_shell(family):
    R = 10.0
    point = (1.0, 0.75 * R, 0.0)
    got = psi_R_deriv(family, PROF, (0, 2, 0), point, R)
    want = bump_eval(PROF, 2, 0.75) / R**2
    assert abs(got - want) <= 1e-12 * abs(want)


def test_psi_scaling_identity(family):
    """Derivatives at F(R).y equal the unscaled ones times the scale factors."""
    R = 7.0
    F = family.scales(R)
    rng = np.random.default_rng(11)
    for _ in range(50):
        y = rng.uniform((0.0, -1.1, -1.1), (1.1, 1.1, 1.1))
        alpha = tuple(rng.integers(0, 2, 3))
        if sum(alpha) == 0:
            alpha = (1, 0, 0)
        point = tuple(F * y)
        got = psi_R_deriv(family, PROF, alpha, point, R)
        unscaled = eta_eval(PROF, alpha[0], y[0]) * bump_eval(PROF, alpha[1], y[1]) \
            * bump_eval(PROF, alpha[2], y[2])
        want = unscaled * float(np.prod(F ** (-np.array(alpha))))
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300)


def test_psi_support_properties(family):
    """Zero outside the support box; zero where a derived coordinate is inner."""
    R = 10.0
    rng = np.random.default_rng(23)
    F = family.scales(R)
    for _ in range(100):
        inside = rng.uniform((0.0, -1.0, -1.0), (1.0, 1.0, 1.0))
        # push one coordinate outside
        k = rng.integers(0, 3)
        outside = inside.copy()
        outside[k] = 1.5 if k == 0 else rng.choice([-1.5, 1.5])
        point = tuple(F * outside)
        alpha = (1, 1, 0)
        assert psi_R_deriv(family, PROF, alpha, point, R) == 0.0
        # derivative direction still on its plateau kills the product
        plateau_pt = (0.3 * F[0], 0.3 * F[1], 0.9 * F[2])
        assert psi_R_deriv(family, PROF, (0, 1, 0), plateau_pt, R) == 0.0


def test_psi_range(family):
    R = 5.0
    rng = np.random.default_rng(5)
    F = family.scales(R)
    pts = rng.uniform((-0.2, -1.2, -1.2), (1.2, 1.2, 1.2), (200, 3)) * F
    vals = [psi_R_deriv(family, PROF, (0, 0, 0), tuple(p), R) for p in pts]
    assert all(0.0 <= v <= 1.0 for v in vals)


# -- box classification --------------------------------------------------------------

def test_box_region_tags(family):
    R = 10.0
    F = family.scales(R)
    assert box_region(family, R, (0, 2, 0), (0.0, 0.0, 0.0)) == "sharp"
    assert box_region(family, R, (0, 2, 0), (0.1, 1.5 * F[1], 0.0)) == "outside"
    assert box_region(family, R, (0, 2, 0), (0.1, 0.9 * F[1], 0.0)) == "alpha"
    # inner in the derived direction but outside the inner box elsewhere
    assert box_region(family, R, (0, 2, 0), (0.9 * F[0], 0.1 * F[1], 0.0)) == "shell"
    assert box_region(family, R, (2, 0, 0), (0.9 * F[0], 0.0, 0.0)) == "alpha"
    assert box_region(family, R, (0, 2, 0), (-0.1, 0.0, 0.0)) == "outside"


def test_validation():
    with pytest.raises(ValueError):
        BumpProfile(sigma=0)
