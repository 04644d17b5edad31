"""Closed-form critical exponents and admissible ranges.

Every formula here is elementary arithmetic in the problem parameters; the
reports pair a lower threshold p_min with an upper critical value p_crit
and flag whether the range (p_min, p_crit] is nonempty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .coeffs import _require_finite

__all__ = [
    "ExponentReport",
    "ClassicExponents",
    "GrushinReport",
    "HardyReport",
    "positive_part",
    "p_crit_damped",
    "p_fujita",
    "p_kato",
    "p_strauss",
    "p_sobolev",
    "classic_exponents",
    "quasi_homog_range",
    "quasi_homog_weight_integrable",
    "grushin_tricomi_ranges",
    "hardy_ranges",
]


def positive_part(x: float) -> float:
    return max(float(x), 0.0)


@dataclass(frozen=True)
class ExponentReport:
    """An admissible exponent range (p_min, p_crit] with its provenance tag."""

    p_min: float
    p_crit: float
    meaningful: bool
    context: str

    def __post_init__(self):
        if self.meaningful != (self.p_min < self.p_crit):
            raise ValueError("meaningful flag inconsistent with the range")


def p_crit_damped(n: int, alpha: float, gamma: float, delta: float) -> ExponentReport:
    """Critical range for the damped wave with decaying speed and growing forcing.

    p_crit = 1 + 2(1+gamma)/(n(1-alpha)) + delta/n and
    p_min = 1 + max{[gamma+alpha]^+ / (1-alpha), [delta]^+ / n}.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    _require_finite(alpha=alpha, gamma=gamma, delta=delta)
    if not alpha < 1.0:
        raise ValueError("alpha must be less than 1")
    if not gamma > -1.0:
        raise ValueError("gamma must exceed -1")
    p_crit = 1.0 + 2.0 * (1.0 + gamma) / (n * (1.0 - alpha)) + delta / n
    p_min = 1.0 + max(positive_part(gamma + alpha) / (1.0 - alpha),
                      positive_part(delta) / n)
    if not (math.isfinite(p_min) and math.isfinite(p_crit)):
        raise FloatingPointError(f"p_min = {p_min:g} and p_crit = {p_crit:g} must be finite")
    return ExponentReport(p_min, p_crit, p_min < p_crit, "damped-wave")


def meaningful_delta_boundary(n: int, alpha: float, gamma: float) -> float:
    """The delta at which p_min meets p_crit; the range is nonempty above it."""
    return (n * positive_part(gamma + alpha) - 2.0 * (1.0 + gamma)) / (1.0 - alpha)


def p_fujita(n: int) -> float:
    if n < 1:
        raise ValueError("n must be a positive integer")
    return 1.0 + 2.0 / n


def p_kato(n: int) -> float:
    if n < 2:
        raise ValueError("the small-amplitude wave threshold needs n >= 2")
    return 1.0 + 2.0 / (n - 1.0)


def p_strauss(k: int) -> float:
    """Positive root of k p^2 - (k+2) p - 2 = 0, the radical form in k = n-1."""
    if k < 2:
        raise ValueError("the Strauss threshold needs spatial index k >= 2 (n >= 3)")
    half_plus = 0.5 + 1.0 / k
    return half_plus + math.sqrt(half_plus**2 + 2.0 / k)


def p_sobolev(n: int) -> float:
    if n < 3:
        raise ValueError("the large-data wave threshold needs n >= 3")
    return (n + 2.0) / (n - 2.0)


@dataclass(frozen=True)
class ClassicExponents:
    fujita: float
    kato: Optional[float]
    strauss: Optional[float]   # evaluated at spatial index n-1
    sobolev: Optional[float]


def classic_exponents(n: int) -> ClassicExponents:
    """Fujita / Kato / Strauss / Sobolev thresholds in dimension n.

    Entries that require a higher dimension are None; the dedicated
    accessors raise instead.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    return ClassicExponents(
        fujita=p_fujita(n),
        kato=p_kato(n) if n >= 2 else None,
        strauss=p_strauss(n - 1) if n >= 3 else None,
        sobolev=p_sobolev(n) if n >= 3 else None,
    )


def quasi_homog_range(
    d1: float, d2: float, N1: int, N2: int, h: float,
    theta1: float, theta2: float,
) -> ExponentReport:
    """Range for an anisotropically scale-invariant operator of weight h.

    With theta = d1*theta1 + d2*theta2 and d = d1*N1 + d2*N2 the upper bound
    is 1 + (theta + h)/(d - h), valid for h in (-theta, d).  No general
    lower threshold is available; p_min is reported as 1.
    """
    if d1 <= 0 or d2 <= 0:
        raise ValueError("scaling weights d1, d2 must be positive")
    if N1 < 0 or N2 < 0 or N1 + N2 < 1:
        raise ValueError("block dimensions must be nonnegative and nontrivial")
    theta = d1 * theta1 + d2 * theta2
    d = d1 * N1 + d2 * N2
    if not (-theta < h < d):
        raise ValueError(
            f"empty admissible range: h = {h:g} outside (-theta, d) = ({-theta:g}, {d:g})"
        )
    upper = 1.0 + (theta + h) / (d - h)
    return ExponentReport(1.0, upper, upper > 1.0, "quasi-homogeneous")


def quasi_homog_weight_integrable(
    N1: int, N2: int, theta1: float, theta2: float, p: float
) -> bool:
    """Local p'-integrability of the inverse forcing weight (constant symbols).

    |x1|^(-theta1) |x2|^(-theta2) lies in L^{p'}_loc iff theta_j * p' < N_j
    on each block; this is the implicit lower restriction on p.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    pc = p / (p - 1.0)
    ok1 = (theta1 <= 0) or (theta1 * pc < N1)
    ok2 = (theta2 <= 0) or (theta2 * pc < N2)
    return ok1 and ok2


@dataclass(frozen=True)
class GrushinReport:
    coarse: ExponentReport
    refined: Optional[ExponentReport]


def grushin_tricomi_ranges(
    N: int, k: int, gamma: float, theta1: float, theta2: float
) -> GrushinReport:
    """Degenerate-direction operators: coarse range and its sharpened variant.

    The coarse range follows the pure scaling count; for k = 1 the shell
    localization of the degenerate coefficient lowers the threshold to
    1 + [theta - 2 gamma]^+ / (1 + 2 gamma).  Either range may be empty.
    """
    if N < 2 or not (1 <= k <= N - 1):
        raise ValueError("need N >= 2 and 1 <= k <= N-1")
    denom = N + (N - k) * gamma - 2.0
    if denom <= 0:
        raise ValueError(f"dimension count N + (N-k)*gamma - 2 = {denom:g} must be positive")
    numer = 2.0 + theta1 + (1.0 + gamma) * theta2
    if numer <= 0:
        raise ValueError(f"weight count 2 + theta1 + (1+gamma)*theta2 = {numer:g} must be positive")
    lower = 1.0 + max(positive_part(theta1) / k, positive_part(theta2) / (N - k))
    upper = 1.0 + numer / denom
    coarse = ExponentReport(lower, upper, lower < upper, "grushin-coarse")

    refined = None
    if k == 1:
        if theta1 <= -2:
            raise ValueError("theta must exceed -2 in the degenerate direction")
        if 1.0 + 2.0 * gamma <= 0:
            raise ValueError("1 + 2*gamma must be positive for the sharpened range")
        r_lower = 1.0 + positive_part(theta1 - 2.0 * gamma) / (1.0 + 2.0 * gamma)
        r_upper = 1.0 + (theta1 + 2.0) / (N + (N - 1) * gamma - 2.0)
        refined = ExponentReport(r_lower, r_upper, r_lower < r_upper, "grushin-refined")
    return GrushinReport(coarse, refined)


@dataclass(frozen=True)
class HardyReport:
    s: float                       # multiplier exponent from the inverse-square mass
    strict_multiplier: bool        # s > 1, i.e. lambda > n - 1
    mass_range: ExponentReport
    damped_range: Optional[ExponentReport]


def hardy_ranges(
    n: int, lam: float, m: int = 2,
    alpha: Optional[float] = None,
    gamma: Optional[float] = None,
    delta: Optional[float] = None,
) -> HardyReport:
    """Inverse-square mass term: multiplier exponent s and the shifted ranges.

    s(n, lam) = sqrt((n-2)^2/4 + lam) - (n-2)/2.  The m-th order range is
    1 < p <= 1 + 2/(n - 2 + s + 2/m); with damping and coefficient decay the
    threshold shifts to 1 + (2/(n+s)) ((1+gamma)/(1-alpha) + delta/2).
    """
    if n < 3:
        raise ValueError("the mass-term ranges need n >= 3")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if m < 1:
        raise ValueError("m must be a positive integer")
    s = math.sqrt((n - 2.0) ** 2 / 4.0 + lam) - (n - 2.0) / 2.0
    upper = 1.0 + 2.0 / (n - 2.0 + s + 2.0 / m)
    mass_range = ExponentReport(1.0, upper, True, "hardy-mass")

    damped = None
    if alpha is not None or gamma is not None or delta is not None:
        if alpha is None or gamma is None or delta is None:
            raise ValueError("the damped variant needs alpha, gamma and delta together")
        if not alpha < 1.0:
            raise ValueError("alpha must be less than 1")
        if not gamma > -1.0:
            raise ValueError("gamma must exceed -1")
        d_lower = 1.0 + max(positive_part(gamma + alpha) / (1.0 - alpha),
                            positive_part(delta) / (n + s))
        d_upper = 1.0 + (2.0 / (n + s)) * ((1.0 + gamma) / (1.0 - alpha) + delta / 2.0)
        damped = ExponentReport(d_lower, d_upper, d_lower < d_upper, "hardy-damped")
    return HardyReport(s, lam > n - 1.0, mass_range, damped)
