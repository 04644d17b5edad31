"""Smooth cutoff functions, their rescalings and the box geometry.

The one-dimensional profile is 1 on [-1/2, 1/2], 0 outside (-1, 1) and
bridges with the classic exp(-1/s) partition-of-unity sigmoid, raised to an
integer power sigma so that derivative-to-value ratios stay bounded.  The
rescaled product over coordinates, one-sided in time, is the compactly
supported weight driving the nonexistence functionals; boxes come in three
flavors: the full support box, the inner plateau box, and the per-index
shells where derivatives live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .auxcalc import AuxTable

__all__ = [
    "BumpProfile",
    "ScalingFamily",
    "bump_eval",
    "eta_eval",
    "psi_R_deriv",
    "power_lemma_check",
    "box_region",
    "default_sigma",
]


def default_sigma(p: float) -> int:
    """Smallest safe power for exponent p: ceil(2 p') + 1 (second order operator)."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    return int(math.ceil(2.0 * p / (p - 1.0))) + 1


# highest derivative of the profile supplied in closed form
MAX_ORDER = 2


@dataclass(frozen=True)
class BumpProfile:
    """Power of the cutoff profile."""

    sigma: int = 4

    def __post_init__(self):
        if self.sigma < 1 or int(self.sigma) != self.sigma:
            raise ValueError("sigma must be a positive integer")


def _bridge_powers(u, sigma: int):
    """Value and first two u-derivatives of G(u)**sigma on the open bridge.

    G(u) = 1/(1 + exp(z)) with z = 1/(1-u) - 1/u falls smoothly from 1 at u=0
    to 0 at u=1, underflowing to 0 where exp(z) overflows.  Everything is
    G**sigma times polynomial factors, so nothing blows up where G underflows.
    """
    u = np.asarray(u, dtype=float)
    one_m = 1.0 - u
    z = 1.0 / one_m - 1.0 / u
    dz = 1.0 / one_m**2 + 1.0 / u**2
    d2z = 2.0 / one_m**3 - 2.0 / u**3
    with np.errstate(over="ignore"):
        G = 1.0 / (1.0 + np.exp(z))
    Gs = G**sigma
    p0 = Gs
    p1 = -sigma * Gs * (1.0 - G) * dz
    p2 = sigma * Gs * (1.0 - G) * (
        (sigma - 1.0) * (1.0 - G) * dz**2 + (1.0 - 2.0 * G) * dz**2 - d2z
    )
    return p0, p1, p2


def bump_eval(profile: BumpProfile, order: int, y) -> float:
    """order-th derivative of the powered profile at y, the even extension of ``eta_eval``.

    Exactly 1 (order 0) / 0 (order >= 1) on the plateau |y| <= 1/2 and
    exactly 0 for |y| >= 1.
    """
    value = eta_eval(profile, order, np.abs(y))
    if order == 1:
        value = np.where(np.asarray(y) < 0, -value, value)
    return value if np.ndim(y) else float(value)


def eta_eval(profile: BumpProfile, order: int, t) -> float:
    """One-sided time cutoff: 1 on [0, 1/2], 0 on [1, inf), same powered bridge."""
    if order < 0 or order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds max_order {MAX_ORDER}")
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    plateau = t <= 0.5
    if order == 0:
        out[plateau] = 1.0
    bridge = (t > 0.5) & (t < 1.0)
    if np.any(bridge):
        u = 2.0 * t[bridge] - 1.0
        p0, p1, p2 = _bridge_powers(u, profile.sigma)
        out[bridge] = (p0, 2.0 * p1, 4.0 * p2)[order]
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ScalingFamily:
    """Anisotropic box scalings: time F0(R) = A(R**d), space F_i(R) = R.

    ``d`` is the time-scaling exponent matched to the speed decay; A is the
    inverse of the accumulated reciprocal damping, read from the table.
    """

    n: int
    d: float
    aux: AuxTable

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.d <= 0:
            raise ValueError("d must be positive")

    def F0(self, R):
        """A(R**d) for a scalar R (a float) or an array of R, inverted in lockstep.

        R**d is libm's power of each R as a float: numpy's vectorized power
        can round differently in the last bit.
        """
        R = np.asarray(R, dtype=float)
        if np.any(R <= 1):
            raise ValueError("R must exceed 1")
        return self.aux.invert_B(np.reshape([r**self.d for r in R.ravel().tolist()], R.shape))

    def scales(self, R: float) -> np.ndarray:
        return np.array([self.F0(R)] + [float(R)] * self.n)


def psi_R_deriv(
    family: ScalingFamily,
    profile: BumpProfile,
    alpha: Sequence[int],
    point: Sequence[float],
    R: float,
) -> float:
    """Mixed partial of the rescaled product cutoff at (t, x1..xn).

    The product structure turns every derivative into a per-coordinate
    factor (1/F_i)**alpha_i times the unscaled profile derivative at the
    rescaled coordinate.
    """
    alpha = tuple(int(a) for a in alpha)
    point = tuple(float(c) for c in point)
    if len(alpha) != family.n + 1 or len(point) != family.n + 1:
        raise ValueError("alpha and point must have n+1 entries (time first)")
    F = family.scales(R)
    value = 1.0
    t_scaled = point[0] / F[0]
    value *= eta_eval(profile, alpha[0], t_scaled) / F[0] ** alpha[0]
    for i in range(1, family.n + 1):
        value *= bump_eval(profile, alpha[i], point[i] / F[i]) / F[i] ** alpha[i]
    return value


def power_lemma_check(profile: BumpProfile, r: float, alpha_order: int) -> float:
    """Max of |d^k(profile)|**r / profile on 10 000 points of [-1, 1], 0/0 read as 0.

    Finiteness is the content of the inequality; the returned maximum is a
    measured constant with no external target.  Requires
    sigma >= alpha_order * r/(r-1).
    """
    if r <= 1:
        raise ValueError("r must exceed 1")
    if alpha_order < 0 or alpha_order > MAX_ORDER:
        raise ValueError("alpha_order out of range")
    needed = alpha_order * r / (r - 1.0)
    if profile.sigma < needed:
        raise ValueError(
            f"sigma = {profile.sigma} violates sigma >= alpha_order * r' = {needed:g}"
        )
    ys = np.linspace(-1.0, 1.0, 10_000)
    den = bump_eval(profile, 0, ys)
    num = np.abs(bump_eval(profile, alpha_order, ys)) ** r
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    return float(np.max(ratio))


def box_region(
    family: ScalingFamily,
    R: float,
    alpha: Sequence[int],
    point: Sequence[float],
) -> str:
    """Classify a point against the scaled boxes.

    Returns one of "outside", "sharp" (inner plateau box), "alpha" (the
    shell where the alpha-derivative is supported), or "shell" (the rest of
    the support box).  Time uses the one-sided box [0, F0(R)].
    """
    alpha = tuple(int(a) for a in alpha)
    point = tuple(float(c) for c in point)
    if len(alpha) != family.n + 1 or len(point) != family.n + 1:
        raise ValueError("alpha and point must have n+1 entries (time first)")
    F = family.scales(R)
    t = point[0]
    if t < 0 or t > F[0] or any(abs(point[i]) > F[i] for i in range(1, family.n + 1)):
        return "outside"
    in_sharp = t <= F[0] / 2 and all(
        abs(point[i]) <= F[i] / 2 for i in range(1, family.n + 1)
    )
    if in_sharp:
        return "sharp"
    coords = (t,) + point[1:]
    in_alpha = all(
        abs(coords[i]) >= F[i] / 2 for i in range(family.n + 1) if alpha[i] != 0
    )
    if in_alpha and any(a != 0 for a in alpha):
        return "alpha"
    return "shell"
