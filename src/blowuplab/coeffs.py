"""Coefficient families for the damped wave problem.

Damping laws b(t) carry exact analytic first, second and third
derivatives; the propagation speed a(t) and forcing weight f(t, x) are
representative equality versions of the one-sided growth bounds they must
satisfy, built on the accumulated reciprocal damping B(t) supplied by an
auxiliary table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "DampingModel",
    "Perturbation",
    "ProblemSpec",
    "SingularEvaluation",
    "eval_a",
    "eval_f",
]

_KINDS = ("constant", "powerlaw", "perturbed")
_PERTURBATION_KINDS = ("log", "sin")


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


def _number(value) -> float:
    """A JSON number, not a bool or a string, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"could not convert {value!r}: expected a JSON number")
    return float(value)


def _integer(value) -> int:
    """A JSON integer: an integral number, not a bool or a string."""
    if isinstance(value, bool) or not (isinstance(value, (int, float)) and value % 1 == 0):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _boolean(value) -> bool:
    """A JSON ``true`` or ``false``."""
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


def _from_json(cls, d, **readers):
    """``cls`` built from the JSON object ``d``, each key converted by its reader.

    An absent or null key keeps the field's default; a ``ValueError`` names a malformed key.
    """
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {d!r}")
    given = {}
    for key, read in readers.items():
        if d.get(key) is not None:
            try:
                given[key] = read(d[key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{key}: {exc}") from None
    try:
        return cls(**given)
    except TypeError as exc:  # a field without a default was not given
        raise ValueError(str(exc)) from None


class SingularEvaluation(ValueError):
    """Forcing weight evaluated at a non-integrable point (delta < 0, r = 0)."""


@dataclass(frozen=True)
class Perturbation:
    """Slowly varying factor v(t) multiplying a power-law damping.

    Supported shapes:
      - ``log``: v(t) = log(e + t) ** exponent, any real exponent
      - ``sin``: v(t) = 1 + (1 + t)**exponent * sin((1 + t)**(-2*exponent)),
        exponent > 0

    Both satisfy t*v'/v -> 0, so they do not move the asymptotic damping
    profile.
    """

    kind: str
    exponent: float = 1.0

    def __post_init__(self):
        if self.kind not in _PERTURBATION_KINDS:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        _require_finite(exponent=self.exponent)
        if self.kind == "sin" and self.exponent <= 0:
            raise ValueError("sin perturbation requires a positive exponent")

    def value(self, t):
        if self.kind == "log":
            return np.log(np.e + t) ** self.exponent
        s = 1.0 + np.asarray(t, dtype=float)
        a = self.exponent
        return 1.0 + s**a * np.sin(s ** (-2.0 * a))

    def derivative(self, t):
        if self.kind == "log":
            g = self.exponent
            return g * np.log(np.e + t) ** (g - 1.0) / (np.e + t)
        s = 1.0 + np.asarray(t, dtype=float)
        a = self.exponent
        phase = s ** (-2.0 * a)
        return a * s ** (a - 1.0) * np.sin(phase) - 2.0 * a * s ** (-a - 1.0) * np.cos(phase)

    def second_derivative(self, t):
        if self.kind == "log":
            g = self.exponent
            L = np.log(np.e + t)
            return g * L ** (g - 2.0) * (g - 1.0 - L) / (np.e + t) ** 2
        s = 1.0 + np.asarray(t, dtype=float)
        a = self.exponent
        phase = s ** (-2.0 * a)
        sin_factor = a * (a - 1.0) * s ** (a - 2.0) - 4.0 * a * a * s ** (-3.0 * a - 2.0)
        return sin_factor * np.sin(phase) + 2.0 * a * s ** (-a - 2.0) * np.cos(phase)

    def third_derivative(self, t):
        if self.kind == "log":
            g = self.exponent
            L = np.log(np.e + t)
            return (g * L ** (g - 3.0) * ((g - 1.0) * (g - 2.0) - 3.0 * (g - 1.0) * L + 2.0 * L * L)
                    / (np.e + t) ** 3)
        s = 1.0 + np.asarray(t, dtype=float)
        a = self.exponent
        phase = s ** (-2.0 * a)
        sin_factor = (a * (a - 1.0) * (a - 2.0) * s ** (a - 3.0)
                      + 12.0 * a * a * (a + 1.0) * s ** (-3.0 * a - 3.0))
        cos_factor = 8.0 * a**3 * s ** (-5.0 * a - 3.0) - 2.0 * a * (a * a + 2.0) * s ** (-a - 3.0)
        return sin_factor * np.sin(phase) + cos_factor * np.cos(phase)


@dataclass(frozen=True)
class DampingModel:
    """Positive C^3 damping coefficient b(t) with exact first to third derivatives.

    ``constant``: b = mu.  ``powerlaw``: b = mu / (1+t)**kappa with
    kappa in (-1, 1].  ``perturbed``: power law times a catalog
    perturbation, kappa restricted to 0 < |kappa| < 1.
    """

    kind: str
    mu: float
    kappa: float = 0.0
    perturbation: Optional[Perturbation] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown damping kind {self.kind!r}")
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError("mu must be positive and finite")
        if self.kind == "constant":
            object.__setattr__(self, "kappa", 0.0)
        elif not (-1.0 < self.kappa <= 1.0):
            raise ValueError("kappa must lie in (-1, 1]")
        if self.kind == "perturbed":
            if self.perturbation is None:
                raise ValueError("perturbed damping requires a perturbation")
            if not (0.0 < abs(self.kappa) < 1.0):
                raise ValueError("perturbed damping requires 0 < |kappa| < 1")

    @staticmethod
    def constant(mu: float) -> "DampingModel":
        return DampingModel("constant", mu)

    @staticmethod
    def power_law(mu: float, kappa: float) -> "DampingModel":
        return DampingModel("powerlaw", mu, kappa)

    @staticmethod
    def perturbed_power(mu: float, kappa: float, perturbation: Perturbation) -> "DampingModel":
        return DampingModel("perturbed", mu, kappa, perturbation)

    # -- closed-form facts used by the admissibility checker ---------------

    @property
    def borderline(self) -> bool:
        """True when kappa = 1, where admissibility additionally needs mu > 1."""
        return self.kappa == 1.0

    @property
    def analytically_admissible(self) -> bool:
        """Exact limit check: lim b'/b^2 > -1 and lim t b'/b < 1."""
        return not self.borderline or self.mu > 1.0

    @property
    def growth_exponent(self) -> float:
        """Exponent q with B(t) comparable to t**q for large t (q = 1 + kappa)."""
        return 1.0 + self.kappa

    def b(self, t):
        if self.kind == "constant":
            return self.mu * np.ones_like(np.asarray(t, dtype=float))
        base = self.mu * (1.0 + np.asarray(t, dtype=float)) ** (-self.kappa)
        if self.kind == "powerlaw":
            return base
        return base * self.perturbation.value(t)

    def db(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.zeros_like(t)
        base = self.mu * (1.0 + t) ** (-self.kappa)
        dbase = -self.mu * self.kappa * (1.0 + t) ** (-self.kappa - 1.0)
        if self.kind == "powerlaw":
            return dbase
        return dbase * self.perturbation.value(t) + base * self.perturbation.derivative(t)

    def d2b(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.zeros_like(t)
        k = self.kappa
        d2base = self.mu * k * (k + 1.0) * (1.0 + t) ** (-k - 2.0)
        if self.kind == "powerlaw":
            return d2base
        v = self.perturbation
        base = self.mu * (1.0 + t) ** (-k)
        dbase = -self.mu * k * (1.0 + t) ** (-k - 1.0)
        return (d2base * v.value(t) + 2.0 * dbase * v.derivative(t)
                + base * v.second_derivative(t))

    def d3b(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.zeros_like(t)
        k = self.kappa
        d3base = -self.mu * k * (k + 1.0) * (k + 2.0) * (1.0 + t) ** (-k - 3.0)
        if self.kind == "powerlaw":
            return d3base
        v = self.perturbation
        base = self.mu * (1.0 + t) ** (-k)
        dbase = -self.mu * k * (1.0 + t) ** (-k - 1.0)
        d2base = self.mu * k * (k + 1.0) * (1.0 + t) ** (-k - 2.0)
        return (d3base * v.value(t) + 3.0 * d2base * v.derivative(t)
                + 3.0 * dbase * v.second_derivative(t) + base * v.third_derivative(t))

    @staticmethod
    def from_dict(data: dict) -> "DampingModel":
        perturbation = functools.partial(_from_json, Perturbation, kind=str, exponent=_number)
        return _from_json(DampingModel, data, kind=lambda kind: str(kind).lower(), mu=_number,
                          kappa=_number, perturbation=perturbation)


@dataclass(frozen=True)
class ProblemSpec:
    """Full parameter set of the nonexistence analysis.

    alpha < 1 controls the speed decay a(t) ~ B(t)**(-alpha); gamma > -1 and
    delta give the forcing growth f(t,x) ~ B(t)**gamma |x|**delta; c_a, c_f
    are the representative constants standing in for the one-sided bounds.
    """

    n: int
    alpha: float
    gamma: float
    delta: float
    p: float
    damping: DampingModel = field(default_factory=lambda: DampingModel.constant(1.0))
    c_a: float = 1.0
    c_f: float = 1.0

    def __post_init__(self):
        _require_finite(alpha=self.alpha, gamma=self.gamma, delta=self.delta,
                        p=self.p, c_a=self.c_a, c_f=self.c_f)
        if self.n < 1 or int(self.n) != self.n:
            raise ValueError("n must be a positive integer")
        if not self.alpha < 1.0:
            raise ValueError("alpha must be less than 1")
        if not self.gamma > -1.0:
            raise ValueError("gamma must exceed -1")
        if not self.p > 1.0:
            raise ValueError("p must exceed 1")
        if self.c_a <= 0 or self.c_f <= 0:
            raise ValueError("c_a and c_f must be positive")

    @property
    def p_conjugate(self) -> float:
        return self.p / (self.p - 1.0)

    @staticmethod
    def from_dict(data: dict) -> "ProblemSpec":
        return _from_json(ProblemSpec, data, n=_integer, alpha=_number, gamma=_number,
                          delta=_number, p=_number, damping=DampingModel.from_dict, c_a=_number,
                          c_f=_number)


def eval_a(spec: ProblemSpec, t, aux) -> float:
    """Representative speed a(t) = c_a * (B(t) + B0)**(-alpha), B0 = B(1).

    The shift B0 keeps the formula finite at t = 0 when alpha > 0; only the
    large-time growth rate matters downstream, and the shift leaves it
    untouched.  A scalar t gives a float; for alpha = 0 the power is exactly
    1.0, so a = c_a to the bit.
    """
    return spec.c_a * (aux.B_at(t) + aux.B_unit_shift) ** (-spec.alpha)


def eval_f(spec: ProblemSpec, t, r, aux) -> float:
    """Representative forcing weight f = c_f * (B(t) + B0)**gamma * r**delta, B0 = B(1)."""
    scalar = np.ndim(t) == 0 and np.ndim(r) == 0
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ValueError("radius must be nonnegative")
    if spec.delta < 0 and np.any(r_arr == 0):
        raise SingularEvaluation("forcing weight is singular at r = 0 for delta < 0")
    out = spec.c_f * (aux.B_at(t) + aux.B_unit_shift) ** spec.gamma * r_arr**spec.delta
    return float(out) if scalar else out
