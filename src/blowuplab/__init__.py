"""Numerical laboratory for damped wave equations with time-dependent
speed and damping: auxiliary damping functions, critical exponent catalog,
boundedness scans of the nonexistence functionals, and radial blow-up runs.
"""

from .coeffs import DampingModel, Perturbation, ProblemSpec, eval_a, eval_f
from .auxcalc import (
    AuxTable,
    build_aux_table,
    check_hypothesis,
    compute_B,
    compute_Gamma,
    compute_beta,
    compute_bhat1,
    verify_equivalences,
)
from .exponents import classic_exponents, grushin_tricomi_ranges, hardy_ranges, p_crit_damped, quasi_homog_range
from .functional import G_alpha, H_alpha, MultiIndex, data_functional, predicted_slope, scan_condition, weak_residual
from .simulator import GaussianData, SimSpec, convergence_test, detect_blowup, run, sweep_p
from .testfn import BumpProfile, ScalingFamily, bump_eval, eta_eval, power_lemma_check, psi_R_deriv

__version__ = "0.1.0"
