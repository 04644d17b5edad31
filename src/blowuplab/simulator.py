"""Radial finite-difference solver with blow-up detection.

Integrates u_tt - a(t) Lap u + b(t) u_t = f(t,r) |u|^p for radial data with
an explicit leapfrog scheme; the damping term is averaged between time
levels (semi-implicit), the radial Laplacian uses the symmetric ghost cell
at the origin, and homogeneous Dirichlet closes the outer edge.  Runs stop
at a sup-norm threshold (lifespan estimate by interpolation of the
crossing) or at the horizon.  A detected blow-up is numerical evidence of
nonexistence, not a proof, and says nothing about the mechanism.

One kernel, ``_march``, advances a (rows, J+1) batch of fields that share
the grid, the time step and the coefficients: a single run is one row, a
p-sweep is one row per power, and each row equals its single run bit for
bit.

The kernel marches only a support window, the columns [0, W).  Past the
last nonzero column of u and u_prev, u, its Laplacian, |u|^p and the
update are all exactly +0.0 (the coefficients are finite, a > 0 and
1 + b dt/2 > 0), and one step spreads the support by at most one column.
So W stays at least 3 columns past the support, the support is measured
again before it could reach column W-2, and W grows by a block when it
runs short; every column outside the window is exactly what a full-width
march would hold.  Energies are computed in chunks: the full-width rows of
u are buffered and turned into energies in one 2-D pass, with every row
summed over all J pairs, zeros included, because numpy's pairwise sum
groups its terms by the length of the row.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .auxcalc import AuxTable, build_aux_table
from .coeffs import ProblemSpec, _require_finite, eval_a
from .functional import data_functional, sphere_area
from .quadrature import gauss_kronrod_panel, integrate_adaptive

__all__ = [
    "GaussianData",
    "SimSpec",
    "SimOutcome",
    "CflViolation",
    "run",
    "detect_blowup",
    "sweep_p",
    "convergence_test",
    "time_order_ratio",
]


class CflViolation(ValueError):
    """Requested time step exceeds the stability limit of the explicit scheme."""


@dataclass(frozen=True)
class GaussianData:
    """Radial Gaussian profile amplitude * exp(-(r/width)^2)."""

    amplitude: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        _require_finite(amplitude=self.amplitude, width=self.width)
        if self.width <= 0:
            raise ValueError("width must be positive")

    def __call__(self, r):
        return self.amplitude * np.exp(-((np.asarray(r, float) / self.width) ** 2))

    def effective_radius(self, floor: float = 1e-14) -> float:
        """Radius beyond which the profile falls below ``floor``."""
        if self.amplitude == 0.0:
            return 0.0
        return self.width * math.sqrt(max(math.log(abs(self.amplitude) / floor), 0.0))

    def to_dict(self) -> dict:
        return {"amplitude": self.amplitude, "width": self.width}

    @staticmethod
    def from_dict(d: dict) -> "GaussianData":
        return GaussianData(float(d.get("amplitude", 0.0)), float(d.get("width", 1.0)))


@dataclass(frozen=True)
class SimSpec:
    """One radial simulation: problem, grid, horizon, data, thresholds.

    ``allow_boundary_reflections`` switches off the support-containment
    check at setup: decay studies deliberately run in a closed box where
    the reflecting Dirichlet wall plus damping drain the solution.
    """

    problem: ProblemSpec
    r_max: float
    J: int
    T_max: float
    cfl: float = 0.5
    dt: Optional[float] = None
    blowup_threshold: float = 1e6
    u0: GaussianData = field(default_factory=GaussianData)
    u1: GaussianData = field(default_factory=GaussianData)
    nonlinearity: float = 1.0
    allow_boundary_reflections: bool = False

    def __post_init__(self):
        _require_finite(r_max=self.r_max, T_max=self.T_max,
                        blowup_threshold=self.blowup_threshold,
                        nonlinearity=self.nonlinearity)
        if self.r_max <= 0:
            raise ValueError("r_max must be positive")
        if self.J < 16:
            raise ValueError("need at least 16 radial cells")
        if self.T_max <= 0:
            raise ValueError("T_max must be positive")
        if not 0 < self.cfl <= 1:
            raise ValueError("cfl must lie in (0, 1]")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        if self.blowup_threshold <= 0:
            raise ValueError("blowup_threshold must be positive")
        if self.problem.delta < 0:
            raise ValueError("simulation needs delta >= 0 (forcing singular at r = 0)")

    @property
    def dr(self) -> float:
        return self.r_max / self.J

    def to_dict(self) -> dict:
        return {
            "problem": self.problem.to_dict(), "r_max": self.r_max, "J": self.J,
            "T_max": self.T_max, "cfl": self.cfl, "dt": self.dt,
            "blowup_threshold": self.blowup_threshold,
            "data": {"u0": self.u0.to_dict(), "u1": self.u1.to_dict()},
            "nonlinearity": self.nonlinearity,
            "allow_boundary_reflections": self.allow_boundary_reflections,
        }

    @staticmethod
    def from_dict(d: dict) -> "SimSpec":
        data = d.get("data", {})
        return SimSpec(
            problem=ProblemSpec.from_dict(d["problem"]),
            r_max=float(d["r_max"]), J=int(d["J"]), T_max=float(d["T_max"]),
            cfl=float(d.get("cfl", 0.5)),
            dt=(None if d.get("dt") is None else float(d["dt"])),
            blowup_threshold=float(d.get("blowup_threshold", 1e6)),
            u0=GaussianData.from_dict(data.get("u0", {})),
            u1=GaussianData.from_dict(data.get("u1", {})),
            nonlinearity=float(d.get("nonlinearity", 1.0)),
            allow_boundary_reflections=bool(d.get("allow_boundary_reflections", False)),
        )


@dataclass(frozen=True)
class SimOutcome:
    """Verdict plus the sup-norm and energy traces of one run."""

    verdict: str                 # "blowup" | "survived" | "boundary_contaminated"
    t_star: Optional[float]
    hard_overflow: bool
    times: np.ndarray
    sup_norms: np.ndarray
    energies: np.ndarray
    dt: float
    dr: float
    r: np.ndarray                # radial grid
    final_u: np.ndarray          # field at the last completed step
    note: str = "numerical evidence only"


def detect_blowup(times: Sequence[float], sups: Sequence[float], threshold: float) -> Optional[float]:
    """First threshold crossing of a sampled trace, linearly interpolated."""
    times = np.asarray(times, float)
    sups = np.asarray(sups, float)
    above = np.nonzero(sups >= threshold)[0]
    if len(above) == 0:
        return None
    i = int(above[0])
    if i == 0:
        return float(times[0])
    t0, t1 = times[i - 1], times[i]
    s0, s1 = sups[i - 1], sups[i]
    if not np.isfinite(s1) or s1 == s0:
        return float(t1)
    return float(t0 + (threshold - s0) / (s1 - s0) * (t1 - t0))


# elements in the row buffer of the chunked energy pass (256 kB)
_ENERGY_BUDGET = 2**15
# columns by which the support window grows at a time
_WINDOW_BLOCK = 64
# most steps a run may take (the benchmark's longest run takes about 2e4)
_MAX_STEPS = 10**7

# steps whose K15 panels of 1/b are evaluated together (15 nodes per step)
_PANEL_CHUNK = 4096


def _coefficient_arrays(prob: ProblemSpec, aux: AuxTable, steps: int, dt: float):
    """a, b and the forcing time factor at every step time, precomputed."""
    ts = np.arange(steps + 1) * dt
    b = np.asarray(prob.damping.b(ts), float)
    if prob.alpha == 0.0 and prob.gamma == 0.0:
        a = np.full_like(ts, prob.c_a)
        ftime = np.full_like(ts, prob.c_f)
        return ts, a, b, ftime
    # accumulate B across the uniform step grid with one K15 panel per step,
    # a chunk of steps at a time so that the node array stays bounded
    dB = np.empty(steps)
    for lo in range(0, steps, _PANEL_CHUNK):
        hi = min(lo + _PANEL_CHUNK, steps)
        dB[lo:hi], _ = gauss_kronrod_panel(lambda x: 1.0 / prob.damping.b(x),
                                           ts[lo:hi], ts[lo + 1:hi + 1])
    B = np.concatenate(([0.0], np.cumsum(dB))) + aux.B_unit_shift
    a = prob.c_a * B ** (-prob.alpha) if prob.alpha != 0.0 else np.full_like(ts, prob.c_a)
    ftime = prob.c_f * B**prob.gamma if prob.gamma != 0.0 else np.full_like(ts, prob.c_f)
    return ts, a, b, ftime


class _Stencil:
    """Grid constants of the leapfrog update on a (rows, J+1) batch.

    ``_march`` builds one for the width of its support window, so J+1 is
    that width there.

    Each formula runs the same floating-point operations, in the same order,
    as its one-row array expression, so every row of a batch reproduces a
    single run bit for bit.
    """

    def __init__(self, J: int, dr: float, n: int, delta: float = 0.0):
        self.dr = dr
        self.n = n
        self.area = sphere_area(n)
        self.radial = (n - 1) / (np.arange(1, J) * dr)
        self.fspace = (np.arange(J + 1) * dr) ** delta if delta != 0.0 else None

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Rows of (u[j+1] - u[j-1]) / (2 dr) on the interior, shape (rows, J-1)."""
        return (u[:, 2:] - u[:, :-2]) / (2.0 * self.dr)

    def laplacian(self, u: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """u_rr + (n-1)/r u_r with the symmetric ghost cell at the origin.

        At r = 0 the radial term tends to (n-1) u_rr, so the whole operator
        becomes 2n (u_1 - u_0)/dr^2 there.  The outer column is 0; the
        caller imposes the Dirichlet value on the update.  ``grad`` (from
        ``gradient``) is consumed.
        """
        lap = np.empty_like(u)
        inner = lap[:, 1:-1]
        np.multiply(u[:, 1:-1], 2.0, out=inner)
        np.subtract(u[:, 2:], inner, out=inner)
        inner += u[:, :-2]
        inner /= self.dr**2
        grad *= self.radial
        inner += grad
        lap[:, 0] = 2.0 * self.n * (u[:, 1] - u[:, 0]) / self.dr**2
        lap[:, -1] = 0.0
        return lap

    def source(self, absu: np.ndarray, powers: Sequence[float],
               scale: float) -> Optional[np.ndarray]:
        """scale * r^delta * |u|^p, one power per row.

        None when ``scale`` is 0: the source is then exactly zero for a
        finite field.  Each power stays a scalar, as in a single run: numpy
        takes a scalar 2 or 0.5 as a square or a square root, not as pow.
        """
        if scale == 0.0:
            return None
        src = np.empty_like(absu)
        for row, mag, p in zip(src, absu, powers):
            np.power(mag, p, out=row)
        src *= scale if self.fspace is None else scale * self.fspace
        return src

    def start(self, u0, v0, a0, b0, forcing, dt: float) -> np.ndarray:
        """Taylor start u0 + dt v0 + dt^2/2 (a0 Lap u0 - b0 v0 + forcing) of each row."""
        lap0 = self.laplacian(u0, self.gradient(u0))
        accel = a0 * lap0 - b0 * v0
        if forcing is not None:
            accel += forcing
        return u0 + dt * v0 + 0.5 * dt**2 * accel

    def update(self, u_prev, u, lap, forcing, a, b, dt: float) -> np.ndarray:
        """(2u - (1-bh) u_prev + dt^2 (a Lap u + forcing)) / (1+bh), bh = b dt/2.

        ``u_prev`` and ``lap`` are consumed; ``forcing`` None means no
        source term.
        """
        bh = 0.5 * dt * b
        u_next = u * 2.0
        u_prev *= 1.0 - bh
        u_next -= u_prev
        lap *= a
        if forcing is not None:
            lap += forcing
        lap *= dt**2
        u_next += lap
        u_next /= 1.0 + bh
        return u_next

    def energies(self, u, v, a, rpow: Optional[np.ndarray]) -> np.ndarray:
        """Discrete kinetic + elastic energy of each full-width row of ``u``.

        ``v`` holds the velocity rows and ``a`` the wave speed of each row.
        The arithmetic of ``np.gradient(u, dr)`` and ``np.trapezoid(dens *
        rpow, dx=dr)`` for dens = v^2/2 + a u_r^2/2, row by row: each row
        sums its J pairs with numpy's pairwise sum, as a one-row
        ``.sum()`` does.  ``rpow`` None means ones.
        """
        u_r = np.empty_like(u)
        u_r[:, 0] = (u[:, 1] - u[:, 0]) / self.dr
        u_r[:, 1:-1] = self.gradient(u)
        u_r[:, -1] = (u[:, -1] - u[:, -2]) / self.dr
        dens = v * v
        dens *= 0.5
        u_r *= u_r
        u_r *= (0.5 * a)[:, None]
        dens += u_r
        if rpow is not None:
            dens *= rpow
        pairs = dens[:, 1:] + dens[:, :-1]
        pairs *= self.dr
        pairs /= 2.0
        return self.area * pairs.sum(axis=1)


def _time_step(spec: SimSpec, aux: AuxTable) -> tuple[float, int]:
    """The run's dt and step count, after the CFL, step-count and boundary-reach checks."""
    prob = spec.problem
    dr = spec.dr
    # stability limit against the largest wave speed on [0, T_max]
    sup_a = float(np.max(eval_a(prob, aux.grid[aux.grid <= spec.T_max], aux)))
    dt_limit = spec.cfl * dr / math.sqrt(sup_a)
    dt = spec.dt if spec.dt is not None else dt_limit
    if dt > dt_limit * (1.0 + 1e-12):
        raise CflViolation(
            f"dt = {dt:g} exceeds the stability limit {dt_limit:g} "
            f"(cfl * dr / sqrt(sup a))"
        )
    if not spec.T_max <= _MAX_STEPS * dt:
        raise ValueError(
            f"dt = {dt:g} needs {spec.T_max / dt:.4g} steps to reach T_max = "
            f"{spec.T_max:g}, more than the limit of {_MAX_STEPS:g}; "
            "coarsen the grid or shorten T_max"
        )

    if not spec.allow_boundary_reflections:
        if prob.alpha == 0.0:
            front = math.sqrt(prob.c_a) * spec.T_max
        else:
            front = integrate_adaptive(lambda tt: np.sqrt(eval_a(prob, tt, aux)),
                                       0.0, spec.T_max, abs_tol=1e-6, rel_tol=1e-6)
        reach = max(spec.u0.effective_radius(), spec.u1.effective_radius()) + front + 5 * dr
        if reach > spec.r_max:
            raise ValueError(
                f"support may reach the boundary (needs r_max >= {reach:g}); "
                "enlarge the domain or set allow_boundary_reflections"
            )
    return dt, int(math.ceil(spec.T_max / dt))


def _support_end(*fields: np.ndarray) -> int:
    """One past the last column where a row of any of ``fields`` is nonzero."""
    nonzero = np.zeros(fields[0].shape[1], bool)
    for f in fields:
        nonzero |= (f != 0.0).any(axis=0)
    cols = np.flatnonzero(nonzero)
    return int(cols[-1]) + 1 if len(cols) else 0


@np.errstate(over="ignore", invalid="ignore")
def _march(spec: SimSpec, aux: AuxTable, powers: Sequence[float],
           with_energy: bool) -> list[SimOutcome]:
    """Integrate ``spec`` once per power p, all rows in one leapfrog batch.

    The rows share the grid, dt (the CFL limit does not depend on p) and
    the coefficient arrays.  A row leaves the batch at its threshold
    crossing or overflow.  ``with_energy`` records the energy trace of a
    single-row batch; otherwise the outcomes carry an empty one.

    The batch is marched on the columns [0, W) only.  W stays at least 3
    columns past the last nonzero column of u and u_prev (or at J+1): the
    stencil spreads the support by at most one column a step, so the
    support is measured again, and W grown by a block, before it can
    reach column W-2.
    """
    prob = spec.problem
    dt, steps = _time_step(spec, aux)
    ts, a_arr, b_arr, ftime = _coefficient_arrays(prob, aux, steps, dt)
    fscale = spec.nonlinearity * ftime
    # with a non-finite coefficient, 0 * inf would put nan past the support
    for name, values in (("a(t)", a_arr), ("b(t)", b_arr), ("the forcing factor", fscale)):
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            raise FloatingPointError(f"{name} is not finite at t = {ts[bad[0]]:g}")

    dr, J, rows = spec.dr, spec.J, len(powers)
    st = _Stencil(J, dr, prob.n, prob.delta)
    r = np.arange(J + 1) * dr
    rpow = r ** (prob.n - 1) if prob.n > 1 else None
    threshold = spec.blowup_threshold
    guard = 0 if spec.allow_boundary_reflections else max(1, min(5, J // 4))

    u0 = spec.u0(r)
    u0[-1] = 0.0
    v0 = spec.u1(r)
    v0[-1] = 0.0
    u_prev = np.tile(u0, (rows, 1))
    forcing = st.source(np.abs(u_prev), powers, fscale[0])
    u = st.start(u_prev, v0, a_arr[0], b_arr[0], forcing, dt)
    u[:, -1] = 0.0

    sup_hist = np.empty((rows, steps + 1))
    sup_hist[:, 0] = np.max(np.abs(u0))
    peak = sup_hist[:, 0].copy()
    energy_hist = np.empty(steps + 1 if with_energy else 0)
    if with_energy:
        energy_hist[0] = st.energies(u0[None], v0[None], a_arr[:1], rpow)[0]
        # full-width rows of u, +0.0 past the window: row 0 holds step done-1,
        # rows 1..filled the steps from done on, whose energies wait for a flush
        u_rows = np.zeros((max(2, _ENERGY_BUDGET // (J + 1)), J + 1))
        u_rows[0] = u0
        done, filled = 1, 0

        def flush():
            nonlocal done, filled
            u_now = u_rows[1:filled + 1]
            vel = u_now - u_rows[:filled]
            vel /= dt
            energy_hist[done:done + filled] = st.energies(
                u_now, vel, a_arr[done:done + filled], rpow)
            u_rows[0] = u_rows[filled]
            done, filled = done + filled, 0

    active = np.arange(rows)
    last = np.full(rows, steps)
    overflow = np.zeros(rows, bool)
    contaminated = np.zeros(rows, bool)
    t_star: list[Optional[float]] = [None] * rows    # set exactly for blow-up rows
    final = np.zeros((rows, J + 1))                  # +0.0 past the window

    end = _support_end(u, u_prev)
    width = min(J + 1, end + 2 + _WINDOW_BLOCK)
    u, u_prev = u[:, :width].copy(), u_prev[:, :width].copy()
    st = _Stencil(width - 1, dr, prob.n, prob.delta)
    rescan = width - end if width < J + 1 else 0     # 0: the window is whole

    for m in range(1, steps + 1):
        if m == rescan:
            # from this step on the support could reach column width - 2
            end = _support_end(u, u_prev)
            if end + 2 + _WINDOW_BLOCK // 2 > width:
                grow = min(J + 1, end + 2 + _WINDOW_BLOCK) - width
                u, u_prev = (np.pad(f, ((0, 0), (0, grow))) for f in (u, u_prev))  # +0.0
                width += grow
                st = _Stencil(width - 1, dr, prob.n, prob.delta)
            rescan = m + width - 1 - end if width < J + 1 else 0
        absu = np.abs(u)
        sup = absu.max(axis=1)
        sup_hist[active, m] = sup
        if guard:
            np.maximum(peak, sup, out=peak)
            if width == J + 1:
                edge = absu[:, -guard - 1:-1].max(axis=1)
                contaminated[active] |= edge > 1e-10 * np.maximum(peak, 1e-300)
        if with_energy:
            if filled + 1 == len(u_rows):
                flush()
            filled += 1
            u_rows[filled, :width] = u[0]

        below = sup < threshold       # False when crossed, or not a number
        if not below.all():
            for i in np.flatnonzero(~below):
                row = active[i]
                last[row] = m
                final[row, :width] = u[i]
                if np.isfinite(sup[i]):
                    t_star[row] = detect_blowup(ts[: m + 1], sup_hist[row, : m + 1], threshold)
                else:
                    overflow[row] = True
                    t_star[row] = float(ts[m - 1])
            active, u, u_prev, peak = active[below], u[below], u_prev[below], peak[below]
            if not len(active):
                break
            absu = absu[below]
            powers = [p for p, kept in zip(powers, below) if kept]
        if m == steps:
            break

        forcing = st.source(absu, powers, fscale[m])
        lap = st.laplacian(u, st.gradient(u))
        u_next = st.update(u_prev, u, lap, forcing, a_arr[m], b_arr[m], dt)
        u_next[:, -1] = 0.0
        u_prev, u = u, u_next
    if with_energy:
        flush()
    final[active, :width] = u

    return [
        SimOutcome(
            verdict=("blowup" if t_star[i] is not None
                     else "boundary_contaminated" if contaminated[i] else "survived"),
            t_star=t_star[i],
            hard_overflow=bool(overflow[i]),
            times=ts[: last[i] + 1].copy(),
            sup_norms=sup_hist[i, : last[i] + 1].copy(),
            energies=energy_hist[: last[i] + 1].copy(),
            dt=dt,
            dr=dr,
            r=r,
            final_u=final[i],
        )
        for i in range(rows)
    ]


def run(spec: SimSpec, aux: Optional[AuxTable] = None) -> SimOutcome:
    """Integrate one radial problem to blow-up, contamination or the horizon."""
    if aux is None:
        aux = build_aux_table(spec.problem.damping, max(2.0, spec.T_max) * 1.01)
    return _march(spec, aux, [spec.problem.p], with_energy=True)[0]


def sweep_p(
    spec: SimSpec,
    p_list: Sequence[float],
    aux: Optional[AuxTable] = None,
) -> list[dict]:
    """Run the same problem across powers p; rows (p, verdict, t_star).

    All powers march in one batch; each row equals the single ``run`` of
    its power.  Warns (but proceeds) when the data functional is not
    positive: the sign condition is the hypothesis under which
    nonexistence is asserted.
    """
    if aux is None:
        aux = build_aux_table(spec.problem.damping, max(2.0, spec.T_max) * 1.01)
    mass = data_functional(
        spec.u0, spec.u1, spec.problem.damping,
        n=spec.problem.n,
        r_max=max(spec.u0.effective_radius(), spec.u1.effective_radius(), 1.0) + 2.0,
        bhat1=aux.bhat1,
    )
    if mass <= 0:
        warnings.warn(
            f"data functional = {mass:g} is not positive; the nonexistence "
            "range does not apply to this data",
            stacklevel=2,
        )

    # each power passes the same validation as a single run's ProblemSpec
    powers = [replace(spec.problem, p=float(p)).p for p in p_list]
    if not powers:
        return []
    outcomes = _march(spec, aux, powers, with_energy=False)
    return [
        {"p": p, "verdict": oc.verdict, "t_star": oc.t_star}
        for p, oc in zip(powers, outcomes)
    ]


# ---------------------------------------------------------------------------
# manufactured-solution verification


def _manufactured_fields(n: int):
    """u = exp(-t) exp(-r^2) with the exact radial pieces."""
    def u(t, r):
        return np.exp(-t) * np.exp(-(r**2))

    def u_t(t, r):
        return -u(t, r)

    def lap(t, r):
        return (4.0 * r**2 - 2.0 * n) * u(t, r)

    return u, u_t, lap


def _weighted_l2(field: np.ndarray, rpow: np.ndarray, dr: float, n: int) -> float:
    return math.sqrt(sphere_area(n) * float(np.trapezoid(field**2 * rpow, dx=dr)))


def _run_manufactured(
    prob: ProblemSpec, aux: AuxTable, r_max: float, J: int, T_final: float,
    dt: Optional[float] = None, cfl: float = 0.5, return_field: bool = False,
):
    """March the linear scheme against the manufactured source.

    Returns the final-time weighted L2 error against the exact solution, or
    the final field itself when ``return_field`` is set.
    """
    n = prob.n
    dr = r_max / J
    sup_a = float(np.max(eval_a(prob, np.array([0.0, T_final]), aux)))
    dt_limit = cfl * dr / math.sqrt(sup_a)
    dt = dt_limit if dt is None else dt
    if dt > dt_limit * (1.0 + 1e-12):
        raise CflViolation(f"dt = {dt:g} exceeds stability limit {dt_limit:g}")
    steps = max(1, int(round(T_final / dt)))
    dt = T_final / steps

    u_exact, u_t_exact, lap_exact = _manufactured_fields(n)
    ts, a_arr, b_arr, _ = _coefficient_arrays(prob, aux, steps, dt)

    st = _Stencil(J, dr, n)
    r = np.arange(J + 1) * dr
    rpow = r ** (n - 1) if n > 1 else np.ones_like(r)

    def source(m: int):
        t = ts[m]
        return (u_exact(t, r) - a_arr[m] * lap_exact(t, r)
                + b_arr[m] * u_t_exact(t, r))

    u_prev = u_exact(0.0, r)[None]
    u = st.start(u_prev, u_t_exact(0.0, r), a_arr[0], b_arr[0], source(0), dt)
    u[:, -1] = u_exact(dt, r[-1])

    for m in range(1, steps):
        lap = st.laplacian(u, st.gradient(u))
        u_next = st.update(u_prev, u, lap, source(m), a_arr[m], b_arr[m], dt)
        u_next[:, -1] = u_exact(ts[m + 1], r[-1])
        u_prev, u = u, u_next

    if return_field:
        return u[0]
    return _weighted_l2(u[0] - u_exact(T_final, r), rpow, dr, n)


def convergence_test(
    prob: ProblemSpec,
    aux: Optional[AuxTable] = None,
    r_max: float = 8.0,
    J: int = 64,
    T_final: float = 1.0,
) -> dict:
    """Richardson order check of the linear scheme at J, 2J, 4J cells.

    dt scales with dr (fixed CFL number), so the observed order combines
    space and time; both are second order.
    """
    if aux is None:
        aux = build_aux_table(prob.damping, max(2.0, T_final) * 1.01)
    errors = [
        _run_manufactured(prob, aux, r_max, jj, T_final) for jj in (J, 2 * J, 4 * J)
    ]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    return {
        "errors": errors,
        "orders": orders,
        "observed_order": orders[-1],
    }


def time_order_ratio(
    prob: ProblemSpec,
    aux: Optional[AuxTable] = None,
    r_max: float = 8.0,
    J: int = 512,
    T_final: float = 1.0,
) -> float:
    """Error ratio when dt alone is halved on a fine grid (expected near 4).

    The spatial error is frozen by comparing against a small-dt reference
    on the same grid, isolating the quadratic time error.
    """
    if aux is None:
        aux = build_aux_table(prob.damping, max(2.0, T_final) * 1.01)
    dr = r_max / J
    dt0 = 0.5 * dr / math.sqrt(prob.c_a)
    r = np.arange(J + 1) * dr
    rpow = r ** (prob.n - 1) if prob.n > 1 else np.ones_like(r)

    def field_at(dt: float) -> np.ndarray:
        return _run_manufactured(prob, aux, r_max, J, T_final, dt=dt, return_field=True)

    ref = field_at(dt0 / 16.0)
    e1 = _weighted_l2(field_at(dt0) - ref, rpow, dr, prob.n)
    e2 = _weighted_l2(field_at(dt0 / 2.0) - ref, rpow, dr, prob.n)
    return e1 / e2
