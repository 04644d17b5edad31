"""Exponent catalog: closed forms, orderings, range emptiness."""

import math

import numpy as np
import pytest

from blowuplab.exponents import (
    classic_exponents,
    grushin_tricomi_ranges,
    hardy_ranges,
    meaningful_delta_boundary,
    p_crit_damped,
    p_fujita,
    p_kato,
    p_sobolev,
    p_strauss,
    quasi_homog_range,
    quasi_homog_weight_integrable,
)
from blowuplab.coeffs import DampingModel, ProblemSpec


# -- damped wave range -----------------------------------------------------------

def test_p_crit_damped_flat_coefficients():
    rep = p_crit_damped(1, 0.0, 0.0, 0.0)
    assert rep.p_crit == 3.0 and rep.p_min == 1.0 and rep.meaningful
    rep = p_crit_damped(2, 0.0, 0.0, 0.0)
    assert rep.p_crit == 2.0


def test_p_crit_damped_decaying_speed():
    rep = p_crit_damped(3, 0.5, 0.0, 0.0)
    assert abs(rep.p_crit - 7.0 / 3.0) < 1e-15
    assert rep.p_min == 2.0
    assert rep.meaningful


def test_p_crit_damped_from_spec_fields():
    spec = ProblemSpec(n=2, alpha=0.0, gamma=1.0, delta=0.0, p=2.0,
                       damping=DampingModel.constant(1.0))
    rep = p_crit_damped(spec.n, spec.alpha, spec.gamma, spec.delta)
    assert rep.p_crit == 1.0 + 2.0 * 2.0 / 2.0


def test_p_crit_damped_validation():
    with pytest.raises(ValueError):
        p_crit_damped(1, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        p_crit_damped(1, 0.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        p_crit_damped(0, 0.0, 0.0, 0.0)
    for args in ((math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, math.nan),
                 (-math.inf, 0.0, 0.0), (0.0, 0.0, -math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            p_crit_damped(1, *args)


def test_specialization_to_fujita():
    for n in range(1, 7):
        assert p_crit_damped(n, 0.0, 0.0, 0.0).p_crit == p_fujita(n)


def test_meaningful_boundary_flip():
    rng = np.random.default_rng(314)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        alpha = float(rng.uniform(-1.0, 0.9))
        gamma = float(rng.uniform(-0.9, 1.5))
        d_star = meaningful_delta_boundary(n, alpha, gamma)
        assert p_crit_damped(n, alpha, gamma, d_star + 1e-9).meaningful
        assert not p_crit_damped(n, alpha, gamma, d_star - 1e-9).meaningful


# -- classic thresholds ------------------------------------------------------------

def test_classic_values():
    c2 = classic_exponents(2)
    assert c2.fujita == 2.0 and c2.kato == 3.0
    assert c2.strauss is None and c2.sobolev is None
    c3 = classic_exponents(3)
    assert c3.kato == 2.0 and c3.sobolev == 5.0
    assert abs(c3.strauss - (1.0 + math.sqrt(2.0))) < 1e-12


def test_dimension_errors():
    with pytest.raises(ValueError):
        p_strauss(1)
    with pytest.raises(ValueError):
        p_sobolev(2)
    with pytest.raises(ValueError):
        p_kato(1)


def test_strauss_root_property():
    """(n-1) p^2 - (n+1) p - 2 = 0 at the radical value."""
    for n in range(3, 11):
        p = p_strauss(n - 1)
        assert abs((n - 1) * p**2 - (n + 1) * p - 2.0) < 1e-10, n


def test_threshold_ordering():
    for n in range(3, 11):
        assert p_fujita(n - 1) < p_strauss(n - 1) < p_sobolev(n), n


# -- anisotropic scaling ranges ------------------------------------------------------

def test_quasi_homog_heat():
    # diffusion count: time weight 2, unit space weights, operator weight 2
    for n in (1, 2, 3, 5):
        rep = quasi_homog_range(2.0, 1.0, 1, n, 2.0, 0.0, 0.0)
        assert abs(rep.p_crit - (1.0 + 2.0 / n)) < 1e-15


def test_quasi_homog_wave():
    # equal weights, operator weight 2: the small-amplitude wave threshold
    for n in (2, 3, 4):
        rep = quasi_homog_range(1.0, 1.0, 1, n, 2.0, 0.0, 0.0)
        assert abs(rep.p_crit - p_kato(n)) < 1e-15


def test_quasi_homog_empty_range():
    with pytest.raises(ValueError):
        quasi_homog_range(2.0, 1.0, 1, 3, 6.0, 0.0, 0.0)   # h >= d
    with pytest.raises(ValueError):
        quasi_homog_range(2.0, 1.0, 1, 3, 0.0, 0.0, 0.0)   # h <= -theta


def test_quasi_homog_weight_integrability():
    assert quasi_homog_weight_integrable(1, 3, 0.0, 0.0, 2.0)
    assert not quasi_homog_weight_integrable(1, 3, 3.0, 0.0, 2.0)


# -- degenerate-direction ranges -------------------------------------------------------

def test_tricomi_example():
    rep = grushin_tricomi_ranges(2, 1, 0.5, 0.0, 0.0)
    assert abs(rep.refined.p_crit - 5.0) < 1e-12
    assert rep.refined.p_min == 1.0
    assert rep.refined.meaningful


def test_tricomi_refinement_improves_lower_bound():
    theta = 1.0
    rep = grushin_tricomi_ranges(3, 1, 0.5, theta, 0.0)
    assert rep.coarse.p_min == 1.0 + theta      # [theta]^+ / k with k = 1
    assert rep.refined.p_min == 1.0             # theta = 2 gamma wipes the bracket
    assert rep.refined.p_min < rep.coarse.p_min


def test_wave_with_polynomial_speed():
    # time-degenerate wave in n = 1: translated through N = n + 1
    rep = grushin_tricomi_ranges(2, 1, 1.0, 0.0, 0.0)
    assert abs(rep.refined.p_crit - 3.0) < 1e-12


def test_grushin_admissibility_errors():
    with pytest.raises(ValueError):
        grushin_tricomi_ranges(2, 1, 0.0, 0.0, 0.0)       # N + (N-k) gamma - 2 = 0
    with pytest.raises(ValueError):
        grushin_tricomi_ranges(3, 1, 0.5, -2.5, 0.0)      # theta <= -2


def test_grushin_coarse_only_for_inner_blocks():
    rep = grushin_tricomi_ranges(4, 2, 0.5, 0.0, 0.0)
    assert rep.refined is None
    assert rep.coarse.p_crit > 1.0


# -- inverse-square mass ranges ----------------------------------------------------------

def test_hardy_s_values():
    assert hardy_ranges(3, 0.0).s == 0.0
    rep = hardy_ranges(3, 2.0, m=2)
    assert rep.s == 1.0
    assert abs(rep.mass_range.p_crit - 5.0 / 3.0) < 1e-15


def test_hardy_strict_multiplier_flag():
    assert not hardy_ranges(3, 2.0).strict_multiplier
    assert hardy_ranges(3, 2.5).strict_multiplier


def test_hardy_damped_variant():
    rep = hardy_ranges(3, 2.0, m=2, alpha=0.0, gamma=0.0, delta=0.0)
    assert abs(rep.damped_range.p_crit - 1.5) < 1e-15
    assert rep.damped_range.p_min == 1.0


def test_hardy_monotonicity():
    """s grows with the mass weight; the damped threshold falls."""
    lams = np.linspace(0.0, 10.0, 21)
    s_vals = [hardy_ranges(4, lam).s for lam in lams]
    assert all(a < b for a, b in zip(s_vals, s_vals[1:]))
    uppers = [hardy_ranges(4, lam, alpha=0.0, gamma=0.0, delta=0.0).damped_range.p_crit
              for lam in lams]
    assert all(a > b for a, b in zip(uppers, uppers[1:]))


def test_hardy_validation():
    with pytest.raises(ValueError):
        hardy_ranges(2, 1.0)
    with pytest.raises(ValueError):
        hardy_ranges(3, -1.0)
    with pytest.raises(ValueError):
        hardy_ranges(3, 1.0, alpha=0.5, gamma=None, delta=0.0)
