"""Scaling functionals of the nonexistence argument and their growth scan.

For each derivative index of the adjoint multiplied operator

    g d_tt  -  g a(t) Laplacian  +  (g' - 1) d_t        (no zero-order term)

the pair H(R) (inverse scale product) and G(R) (weighted shell integral of
the coefficient) is evaluated on growing boxes; the nonexistence mechanism
is exactly the boundedness of H * G**(1/p') in R.  The scan fits log-log
slopes and compares them with the closed-form exponents, which vanish at
the critical power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import exponents as expo
from .auxcalc import AuxTable, build_aux_table, compute_B, compute_bhat1
from .coeffs import DampingModel, ProblemSpec, eval_a
from .quadrature import gauss_legendre_nodes, integrate_adaptive
from .testfn import BumpProfile, ScalingFamily, bump_eval, eta_eval

__all__ = [
    "MultiIndex",
    "DstarCoefficients",
    "ScanResult",
    "NonintegrableSingularity",
    "SupportEscape",
    "dstar_coefficients",
    "H_alpha",
    "G_alpha",
    "predicted_slope",
    "time_estimate_better",
    "scan_condition",
    "scan_horizon",
    "ManufacturedSolution",
    "weak_residual",
    "data_functional",
    "sphere_area",
]

BOUNDED_TOL = 0.02
GROWING_TOL = 0.05
# Gauss points per axis of the exact box quadrature
_BOX_POINTS = 24
# time and space extent of the cutoff in the weak-form residual
_CUTOFF_SCALE = 4.0


class NonintegrableSingularity(ValueError):
    """Shell integral diverges: the exponent conditions (p > p_min) fail."""


class SupportEscape(ValueError):
    """The cutoff support is not compactly contained in the quadrature box."""


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n (2 for n = 1)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class MultiIndex:
    """Derivative index (time order, space orders), total order in [1, 2]."""

    alpha0: int
    space: tuple[int, ...]

    def __post_init__(self):
        if self.alpha0 < 0 or any(a < 0 for a in self.space):
            raise ValueError("orders must be nonnegative")
        if not 1 <= self.order <= 2:
            raise ValueError("total order must be 1 or 2 for the damped wave adjoint")

    @property
    def order(self) -> int:
        return self.alpha0 + sum(self.space)

    @property
    def space_order(self) -> int:
        return sum(self.space)

    @property
    def label(self) -> str:
        if self.alpha0 == 2:
            return "2e0"
        if self.alpha0 == 1 and self.space_order == 0:
            return "e0"
        if self.alpha0 == 0 and self.space_order == 2 and max(self.space) == 2:
            return "2e_space"
        return f"({self.alpha0},{self.space})"

    @staticmethod
    def time2(n: int) -> "MultiIndex":
        return MultiIndex(2, (0,) * n)

    @staticmethod
    def time1(n: int) -> "MultiIndex":
        return MultiIndex(1, (0,) * n)

    @staticmethod
    def space2(n: int) -> "MultiIndex":
        return MultiIndex(0, (2,) + (0,) * (n - 1))


@dataclass(frozen=True)
class DstarCoefficients:
    """Coefficient values of the adjoint multiplied operator at fixed time."""

    time2: float       # multiplies d_tt
    laplacian: float   # multiplies the Laplacian
    time1: float       # multiplies d_t, equals g' - 1 = g b - 2
    zero_order: float  # identically 0: the defining property of the multiplier


def dstar_coefficients(spec: ProblemSpec, aux: AuxTable, t: float) -> DstarCoefficients:
    """Evaluate {g, -g a, g' - 1} at time t (space-independent here)."""
    g = aux.g_at(t)
    b = float(spec.damping.b(t))
    return DstarCoefficients(
        time2=g,
        laplacian=-g * eval_a(spec, t, aux),
        time1=g * b - 2.0,
        zero_order=0.0,
    )


def H_alpha(family: ScalingFamily, R: float, alpha: MultiIndex) -> float:
    """Inverse scale product: F0(R)**(-alpha0) * R**(-(space order))."""
    return family.F0(R) ** (-alpha.alpha0) * float(R) ** (-alpha.space_order)


def _check_integrability(spec: ProblemSpec) -> None:
    pc = spec.p_conjugate
    if spec.delta * (pc - 1.0) >= spec.n:
        raise NonintegrableSingularity(
            f"delta*(p'-1) = {spec.delta * (pc - 1.0):g} >= n = {spec.n}; "
            "the shell integral diverges (p <= p_min)"
        )
    if spec.alpha * pc + spec.gamma * (pc - 1.0) >= 1.0:
        raise NonintegrableSingularity(
            f"alpha*p' + gamma*(p'-1) = {spec.alpha * pc + spec.gamma * (pc - 1.0):g} >= 1; "
            "the accumulated-time integral diverges (p <= p_min)"
        )


def _time_weights(spec: ProblemSpec, aux: AuxTable, alphas: Sequence[MultiIndex]) -> Callable:
    """Integrand of the time parts of the shell integrals of several indices.

    The integrand takes an array of times and, for each time, the position
    of its index in ``alphas``, and returns the array of values.  It reads
    g and B once per distinct time, so times shared between indices cost
    one read.
    """
    pc = spec.p_conjugate
    gpow = -spec.gamma * (pc - 1.0)
    apow = -spec.alpha * pc
    cf = spec.c_f ** (-(pc - 1.0))

    def w(t: np.ndarray, which: np.ndarray):
        nodes, inverse = np.unique(t, return_inverse=True)
        g = aux.g_at(nodes)
        Bs = aux.B_at(nodes) + aux.B_unit_shift
        common = g ** (-(pc - 1.0)) * cf * Bs**gpow
        g, Bs, common = (v[inverse].reshape(t.shape) for v in (g, Bs, common))
        out = np.empty_like(t)
        for k, alpha in enumerate(alphas):
            rows = which == k
            if alpha.alpha0 == 2:
                out[rows] = g[rows] ** pc * common[rows]
            elif alpha.alpha0 == 1:
                out[rows] = (np.abs(g[rows] * spec.damping.b(t[rows]) - 2.0) ** pc
                             * common[rows])
            else:
                out[rows] = (g[rows] * spec.c_a) ** pc * Bs[rows] ** apow * common[rows]
        return out
    return w


def _radial_factor(spec: ProblemSpec, R: float, full_ball: bool) -> float:
    """Closed-form radial integral of |x|^(n-1-delta(p'-1)).

    Over the full ball [0, R] (indices without space derivatives) or the
    shell [R/2, R] where the derivative of the cutoff lives.
    """
    pc = spec.p_conjugate
    q = spec.n - 1.0 - spec.delta * (pc - 1.0)
    lo = 0.0 if full_ball else R / 2.0
    return sphere_area(spec.n) * (R ** (q + 1.0) - lo ** (q + 1.0)) / (q + 1.0)


def G_alpha(
    spec: ProblemSpec,
    family: ScalingFamily,
    Rs: Sequence[float],
    alphas: Sequence[MultiIndex],
    method: str = "radial",
) -> list:
    """Weighted p'-integral of the operator coefficient over its shell, one per scale.

    Returns, for each index in ``alphas``, the list of G(R) for the ladder
    ``Rs``.  ``radial`` replaces the box cross-sections by the matching
    balls (exact for n = 1, same growth rate otherwise); ``box`` does the
    tensor-product quadrature over the exact box regions, available for
    n <= 3.  The time integrals of all the indices and scales are one
    lockstep :func:`integrate_adaptive` call, so each value equals that of
    its one-index, one-scale call bit for bit.
    """
    _check_integrability(spec)
    live = [k for k, alpha in enumerate(alphas) if alpha.label in ("2e0", "e0", "2e_space")]
    ladders = [[0.0] * len(Rs) for _ in alphas]
    if not live:
        return ladders
    F0 = np.array([family.F0(R) for R in Rs])
    t_lo = [F0 / 2.0 if alphas[k].alpha0 > 0 else np.zeros_like(F0) for k in live]
    t_int = integrate_adaptive(_time_weights(spec, family.aux, alphas),
                               np.concatenate(t_lo), np.tile(F0, len(live)),
                               abs_tol=1e-14, rel_tol=1e-9, args=(np.repeat(live, len(Rs)),))

    for k, ts in zip(live, t_int.reshape(len(live), len(Rs)).tolist()):
        alpha = alphas[k]
        if method == "radial":
            x_int = [_radial_factor(spec, R, full_ball=alpha.space_order == 0) for R in Rs]
        elif method == "box":
            x_int = [_box_space_integral(spec, R, alpha) for R in Rs]
        else:
            raise ValueError(f"unknown method {method!r}")
        ladders[k] = [t * x for t, x in zip(ts, x_int)]
    return ladders


def _box_space_integral(spec: ProblemSpec, R: float, alpha: MultiIndex) -> float:
    """|x|^(-delta(p'-1)) over the exact box region, tensor Gauss rule."""
    n = spec.n
    if n > 3:
        raise ValueError("exact box quadrature is limited to n <= 3")
    pc = spec.p_conjugate
    power = -spec.delta * (pc - 1.0)
    axes = []
    for i in range(n):
        if alpha.space_order > 0 and alpha.space[i] != 0:
            nodes, weights = gauss_legendre_nodes(R / 2.0, R, _BOX_POINTS // 2)
        else:
            nodes, weights = gauss_legendre_nodes(0.0, R, _BOX_POINTS)
        axes.append((nodes, weights, 2.0))  # even symmetry per axis
    mesh = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    wmesh = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    radius2 = sum(m**2 for m in mesh)
    integrand = radius2 ** (power / 2.0)
    weight = np.ones_like(radius2)
    for wm in wmesh:
        weight = weight * wm
    sym = float(np.prod([a[2] for a in axes]))
    return sym * float(np.sum(integrand * weight))


def predicted_slope(spec: ProblemSpec, alpha: MultiIndex) -> float:
    """Closed-form log-log growth exponent of H * G**(1/p') for one index.

    Uses d = 2/(1 - alpha); the pure-time index carries the inverse-scale
    factor A(R^d)**(-2), translated into an R power through the damping
    growth exponent.
    """
    n, a, gm, dl = spec.n, spec.alpha, spec.gamma, spec.delta
    d = 2.0 / (1.0 - a)
    pc = spec.p_conjugate
    shared = (n + dl + d * (1.0 + gm)) / pc
    if alpha.label == "2e_space":
        return -2.0 - d * a - d * gm - dl + shared
    if alpha.label == "e0":
        return -d - d * gm - dl + shared
    if alpha.label == "2e0":
        rho = d / spec.damping.growth_exponent
        return -2.0 * rho - d * gm - dl + shared
    raise ValueError(f"no closed-form exponent for index {alpha.label}")


def time_estimate_better(spec: ProblemSpec) -> bool:
    """Whether the pure-time bound decays at least as fast as the mixed one.

    Equivalent to B(t) growing no faster than t^2, true for every admissible
    catalog family (growth exponent 1 + kappa <= 2).
    """
    return 2.0 / spec.damping.growth_exponent >= 1.0


@dataclass(frozen=True)
class ScanResult:
    """Growth scan of the boundedness condition over a ladder of scales R.

    A finite scan is numerical evidence, not a proof; ``verdicts`` come from
    slope thresholds: bounded below +0.02, growing above +0.05, else
    inconclusive.
    """

    d: float
    R_values: tuple
    rows: dict            # label -> list of (R, H, G, product)
    fitted: dict          # label -> least-squares log-log slope (tail half)
    predicted: dict       # label -> closed-form exponent
    verdicts: dict        # label -> "bounded" | "growing" | "inconclusive"
    overall: str
    time2_better: bool
    note: str = "numerical evidence only; boundedness concerns the limit R -> infinity"


def _fit_tail_slope(Rs: np.ndarray, products: np.ndarray) -> float:
    keep = max(2, math.ceil(len(Rs) / 2))
    x = np.log(Rs[-keep:])
    y = np.log(products[-keep:])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def scan_horizon(model: DampingModel, s_max: float) -> float:
    """Smallest horizon T = T0 * 2**k, T0 = max(2, s_max b(0)), with B(T) >= s_max.

    B increases with T, so k is found by doubling it and then bisecting,
    in a few dozen evaluations of B even where T ends near the top of the
    floating-point range.  A ladder that needs T >= 2**1023 raises
    ``ValueError``.
    """
    T0 = max(2.0, s_max * float(model.b(0.0)))
    # the largest k with T0 * 2**k below 2**1023, so that quadrature
    # midpoints 0.5 * (a + b) on [0, T] cannot overflow
    top = 1023 - math.frexp(T0)[1] if math.isfinite(T0) else -1

    def short(k: int) -> bool:
        return k <= top and compute_B(model, math.ldexp(T0, k), 1e-8) < s_max

    lo, hi = -1, 0  # short(lo), unless lo = -1, and not short(hi)
    while short(hi):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if short(mid) else (lo, mid)
    if hi > top:
        raise ValueError(f"B(T) reaches {s_max:g} only at T >= 2**1023; "
                         "shorten the scale ladder")
    return math.ldexp(T0, hi)


def scan_condition(
    spec: ProblemSpec,
    R_list: Sequence[float],
    aux: Optional[AuxTable] = None,
) -> ScanResult:
    """Evaluate H * G**(1/p') on growing boxes and classify the growth.

    A G that is not finite, or a product that is not finite and positive
    (g**p' overflowing, say), raises ``FloatingPointError``.
    """
    Rs = np.asarray(sorted(float(R) for R in R_list))
    if not np.all(np.isfinite(Rs)):
        raise ValueError("R values must be finite")
    if len(Rs) < 4:
        raise ValueError("need at least four scales R")
    if len(np.unique(Rs)) != len(Rs):
        raise ValueError("R values must be distinct")
    report = expo.p_crit_damped(spec.n, spec.alpha, spec.gamma, spec.delta)
    if spec.p <= report.p_min:
        raise ValueError(f"p = {spec.p:g} must exceed p_min = {report.p_min:g}")
    d = 2.0 / (1.0 - spec.alpha)
    if aux is None:
        horizon = scan_horizon(spec.damping, float(Rs[-1]) ** d * 1.05)
        aux = build_aux_table(spec.damping, horizon)
    family = ScalingFamily(spec.n, d, aux)
    pc = spec.p_conjugate

    indices = [MultiIndex.time2(spec.n), MultiIndex.time1(spec.n),
               MultiIndex.space2(spec.n)]
    rows, fitted, predicted, verdicts = {}, {}, {}, {}
    for idx, Gs in zip(indices, G_alpha(spec, family, Rs, indices)):
        Hs = [H_alpha(family, R, idx) for R in Rs]
        data = [(float(R), H, G, H * G ** (1.0 / pc)) for R, H, G in zip(Rs, Hs, Gs)]
        for R, _, G, product in data:
            if not (math.isfinite(G) and math.isfinite(product) and product > 0.0):
                raise FloatingPointError(
                    f"index {idx.label} at R = {R:g}: G = {G:g}, H * G**(1/p') = "
                    f"{product:g}; the scan needs a finite G and a finite positive product")
        rows[idx.label] = data
        products = np.array([row[3] for row in data])
        slope = _fit_tail_slope(Rs, products)
        fitted[idx.label] = slope
        predicted[idx.label] = predicted_slope(spec, idx)
        if slope <= BOUNDED_TOL:
            verdicts[idx.label] = "bounded"
        elif slope >= GROWING_TOL:
            verdicts[idx.label] = "growing"
        else:
            verdicts[idx.label] = "inconclusive"

    if any(v == "growing" for v in verdicts.values()):
        overall = "growing"
    elif all(v == "bounded" for v in verdicts.values()):
        overall = "bounded"
    else:
        overall = "inconclusive"
    return ScanResult(
        d=d, R_values=tuple(Rs), rows=rows, fitted=fitted,
        predicted=predicted, verdicts=verdicts, overall=overall,
        time2_better=time_estimate_better(spec),
    )


# ---------------------------------------------------------------------------
# weak-form residual and the data functional


@dataclass(frozen=True)
class ManufacturedSolution:
    """A smooth one-dimensional sample solution with analytic derivatives."""

    u: Callable
    u_t: Callable
    u_tt: Callable
    u_xx: Callable

    @staticmethod
    def decaying_cosine() -> "ManufacturedSolution":
        """u(t, x) = exp(-t) cos(x)."""
        return ManufacturedSolution(
            u=lambda t, x: np.exp(-t) * np.cos(x),
            u_t=lambda t, x: -np.exp(-t) * np.cos(x),
            u_tt=lambda t, x: np.exp(-t) * np.cos(x),
            u_xx=lambda t, x: -np.exp(-t) * np.cos(x),
        )

    @staticmethod
    def zero() -> "ManufacturedSolution":
        z = lambda t, x: np.zeros(np.broadcast(t, x).shape)
        return ManufacturedSolution(z, z, z, z)


def weak_residual(
    solution: ManufacturedSolution,
    spec: ProblemSpec,
    aux: AuxTable,
    *,
    panels: int = 24,
    domain: Optional[tuple] = None,
) -> float:
    """Defect of the weak-solution identity under a manufactured forcing.

    The forcing is the equation evaluated pointwise on the sample solution,
    so the identity holds exactly and the returned value is pure quadrature
    error; it must fall with the panel count until roundoff.  The test
    function is the default profile's cutoff, reaching t = 4 and |x| = 4;
    ``domain`` (T, X) is the quadrature box [0, T] x [-X, X], by default
    the cutoff's support.
    """
    if spec.n != 1:
        raise ValueError("the weak-form residual is implemented for n = 1")
    profile = BumpProfile()
    scale = _CUTOFF_SCALE
    T_box, X_box = domain if domain is not None else (scale, scale)
    if T_box < scale or X_box < scale:
        raise SupportEscape(
            "cutoff support exceeds the quadrature box; enlarge the domain"
        )

    tn, tw = gauss_legendre_nodes(0.0, T_box, panels)
    xn, xw = gauss_legendre_nodes(-X_box, X_box, panels)
    T, X = np.meshgrid(tn, xn, indexing="ij")
    W = np.outer(tw, xw)

    b = np.asarray(spec.damping.b(tn), dtype=float)[:, None]
    db = np.asarray(spec.damping.db(tn), dtype=float)[:, None]
    a = eval_a(spec, tn, aux)[:, None]

    ts = tn / scale
    eta0 = eta_eval(profile, 0, ts)[:, None]
    eta1 = (eta_eval(profile, 1, ts) / scale)[:, None]
    eta2 = (eta_eval(profile, 2, ts) / scale**2)[:, None]
    xs = xn / scale
    phi0 = bump_eval(profile, 0, xs)[None, :]
    phi2 = (bump_eval(profile, 2, xs) / scale**2)[None, :]

    Phi = eta0 * phi0
    Phi_t = eta1 * phi0
    Phi_tt = eta2 * phi0
    Phi_xx = eta0 * phi2

    u = solution.u(T, X)
    adjoint = Phi_tt - a * Phi_xx - b * Phi_t - db * Phi
    lhs = float(np.sum(W * u * adjoint))

    forcing = solution.u_tt(T, X) - a * solution.u_xx(T, X) + b * solution.u_t(T, X)
    rhs_bulk = float(np.sum(W * forcing * Phi))

    b0 = float(spec.damping.b(0.0))
    u0 = solution.u(0.0, xn)
    u1 = solution.u_t(0.0, xn)
    phi_at0 = bump_eval(profile, 0, xs)
    # eta' vanishes at t = 0 (plateau), so Phi_t(0, x) carries only that factor
    phi_t_at0 = (eta_eval(profile, 1, 0.0) / scale) * phi_at0
    rhs_data = float(np.sum(xw * ((u1 + u0 * b0) * phi_at0 - u0 * phi_t_at0)))

    return abs(lhs - rhs_bulk - rhs_data)


def data_functional(
    u0: Callable,
    u1: Callable,
    model: DampingModel,
    *,
    n: int = 1,
    r_max: float = 12.0,
    bhat1: Optional[float] = None,
) -> float:
    """Signed data mass: integral over R^n of u1 + bhat1 * u0.

    Radial profiles, 64 Gauss-Legendre panels over [0, r_max] with the
    sphere-area weight; positivity is the admissibility hypothesis for the
    nonexistence range.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    w1 = bhat1 if bhat1 is not None else compute_bhat1(model)
    nodes, weights = gauss_legendre_nodes(0.0, r_max, 64)
    vals = np.asarray(u1(nodes), dtype=float) + w1 * np.asarray(u0(nodes), dtype=float)
    return sphere_area(n) * float(np.sum(weights * vals * nodes ** (n - 1)))
