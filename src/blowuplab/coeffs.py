"""Coefficient families for the damped wave problem.

Damping laws b(t) carry exact analytic first, second and third
derivatives, all formed by ``DampingModel.derivatives``; the propagation
speed a(t) and forcing weight f(t, x) are representative equality versions
of the one-sided growth bounds they must satisfy, built on the accumulated
reciprocal damping B(t) supplied by an auxiliary table.
"""

from __future__ import annotations

import functools
import math
import operator
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

    def derivatives(self, t, order: int) -> list:
        """[v, v', ..., v^(order)] at t, for order <= 3, each in closed form."""
        t = np.asarray(t, dtype=float)
        a = self.exponent
        if self.kind == "log":
            shifted = np.e + t
            L = np.log(shifted)
            forms = (
                lambda: L**a,
                lambda: a * L ** (a - 1.0) / shifted,
                lambda: a * L ** (a - 2.0) * (a - 1.0 - L) / shifted**2,
                lambda: (a * L ** (a - 3.0) * ((a - 1.0) * (a - 2.0) - 3.0 * (a - 1.0) * L
                                               + 2.0 * L * L) / shifted**3),
            )
        else:
            s = 1.0 + t
            phase = s ** (-2.0 * a)
            sin, cos = np.sin(phase), (np.cos(phase) if order else None)
            forms = (
                lambda: 1.0 + s**a * sin,
                lambda: a * s ** (a - 1.0) * sin - 2.0 * a * s ** (-a - 1.0) * cos,
                lambda: ((a * (a - 1.0) * s ** (a - 2.0)
                          - 4.0 * a * a * s ** (-3.0 * a - 2.0)) * sin
                         + 2.0 * a * s ** (-a - 2.0) * cos),
                lambda: ((a * (a - 1.0) * (a - 2.0) * s ** (a - 3.0)
                          + 12.0 * a * a * (a + 1.0) * s ** (-3.0 * a - 3.0)) * sin
                         + (8.0 * a**3 * s ** (-5.0 * a - 3.0)
                            - 2.0 * a * (a * a + 2.0) * s ** (-a - 3.0)) * cos),
            )
        return [form() for form in forms[:order + 1]]


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

    def derivatives(self, t, order: int) -> list:
        """[b, b', ..., b^(order)] at t, for order <= 3, each in closed form.

        The power law's k-th derivative is c_k (1 + t)**(-kappa - k), with
        c_0 = mu and c_{k+1} = c_k (-kappa - k).  A perturbed law's is
        Leibniz's sum over j = 0..k of C(k, j) base^(k-j) v^(j), added left
        to right, with base the power law and v the perturbation.
        """
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return [self.mu * np.ones_like(t)] + [np.zeros_like(t) for _ in range(order)]
        s, base, coefficient = 1.0 + t, [], self.mu
        for k in range(order + 1):
            base.append(coefficient * s ** (-self.kappa - k))
            coefficient *= -self.kappa - k
        if self.kind == "powerlaw":
            return base
        v = self.perturbation.derivatives(t, order)
        return [functools.reduce(operator.add, (math.comb(k, j) * base[k - j] * v[j]
                                                for j in range(k + 1)))
                for k in range(order + 1)]

    def b(self, t):
        return self.derivatives(t, 0)[0]

    def db(self, t):
        return self.derivatives(t, 1)[1]

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
