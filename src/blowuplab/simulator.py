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
p-sweep is one row per power (at most ``_SWEEP_ROWS`` a batch), and each
row equals its single run bit for bit.  A march holds one chunk of
coefficients and a few numbers a row; only a single run keeps traces.

One step is u+ = ((2c u - (1-bh)c u-) + dt^2 a c L u) + dt^2 c f, with
bh = b dt/2 and c = 1/(1+bh), and L the three-row radial Laplacian of
``_Stencil``, one per march.  The Taylor start is the same step with its
own four scalars, on a copy of v0 in place of u-.  Every march, the
manufactured-solution checks included, takes its times, a, b, forcing
factor and scalars from one builder, ``_coefficients``, which forms them
as arrays, a chunk of steps at a time; numpy's elementwise operations
round as the float ones do.  For each window, ``_Stencil.bind`` holds its
coefficient rows, the shifted views of the two field buffers, which take
turns as u and u-, and the step's work buffers, so that a step is ten
ufunc calls (two more with a source) with no slicing and no temporary.

The kernel marches only a support window, the columns [0, W).  Past the
last nonzero column of u and u_prev, every term of the step is +-0.0
(the coefficients are finite, a > 0 and 1 + b dt/2 > 0).  In
round-to-nearest a sum of zeros is -0.0 only if every term is -0.0, and
the terms 2c u_j and dt^2 a c di_j u_j have opposite signs (c > 0,
dt^2 a c > 0, di_j < 0), whatever the sign of (1-bh)c.  So the update
is +0.0 there, and one step spreads the support by at most one column.
The Dirichlet column gets no L term, so it keeps its +0.0.  The march
starts on the data's support plus two columns, the last set to the +0.0
a full-width start holds there.  The support is measured at step 1 and
again before it could reach column W-2, and W grows by a block when it
runs short, so every column outside the window is exactly what a
full-width march would hold.  The full-width fields of a block of steps
are buffered and turned into sup-norms, guard-cell maxima and energies
in one pass.  The block holds only the rows still marching, so it stays
one contiguous buffer, and the energies take their differences and
trapezoid pairs on it as one flat array, then redo the entries where
two rows meet.  Every energy row is summed over all J pairs, zeros
included, because numpy's pairwise sum groups its terms by the length
of the row.

The source term skips pow on the wave's numerical front, where numpy's
pow is slow.  Below cut(p) = 2^(-1076/p) the exact |u|^p is under a
quarter of the smallest subnormal, so any pow with error under 0.75 ulp
returns +0.0 there, and the source row holds +0.0 without calling it.
numpy's SIMD pow states no error bound that far down, and for p beyond
about 1e15 the rounding of the cut itself can cost the margin, so each
power's cut is kept only after a probe of the same ufunc returns +0.0 on
the largest double below it, a spread down to 5e-324 and 0; otherwise
nothing is skipped.  nan and inf always go through pow.  ``_march`` takes
each power's cut once.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .auxcalc import AuxTable, build_aux_table
from .coeffs import ProblemSpec, _boolean, _from_json, _integer, _number, _require_finite, eval_a
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

    def effective_radius(self) -> float:
        """Radius beyond which the profile falls below 1e-14 of its peak."""
        return self.width * math.sqrt(math.log(1e14)) if self.amplitude != 0.0 else 0.0


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
        if self.J > _MAX_CELLS:
            raise ValueError(f"J = {self.J} is more than the limit of {_MAX_CELLS:g} radial cells")
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

    @staticmethod
    def from_dict(d: dict) -> "SimSpec":
        """A SimSpec from its JSON layout, whose ``data`` block holds u0 and u1."""
        spec = _from_json(SimSpec, d, problem=ProblemSpec.from_dict, r_max=_number, J=_integer,
                          T_max=_number, cfl=_number, dt=_number, blowup_threshold=_number,
                          nonlinearity=_number, allow_boundary_reflections=_boolean)
        profile = functools.partial(_from_json, GaussianData, amplitude=_number, width=_number)
        profiles = functools.partial(_from_json, dict, u0=profile, u1=profile)
        return replace(spec, **_from_json(dict, d, data=profiles).get("data", {}))


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
    """First threshold crossing of a sampled trace, linearly interpolated.

    A sample not below the threshold crosses it, NaN included; a
    non-finite one (an overflow) gives the time of the sample before it.
    """
    times = np.asarray(times, float)
    sups = np.asarray(sups, float)
    above = np.flatnonzero(~(sups < threshold))
    if len(above) == 0:
        return None
    i = int(above[0])
    if i == 0:
        return float(times[0])
    t0, t1 = times[i - 1], times[i]
    s0, s1 = sups[i - 1], sups[i]
    if not np.isfinite(s1):
        return float(t0)
    return float(t0 + (threshold - s0) / (s1 - s0) * (t1 - t0))


# elements in the block buffer of a march (256 kB)
_ENERGY_BUDGET = 2**15
# columns by which the support window grows at a time
_WINDOW_BLOCK = 64
# most steps a run may take (the benchmark's longest run takes about 2e4)
_MAX_STEPS = 10**7
# most radial cells a grid may have (8 MB a field row; the benchmark's finest has 2400)
_MAX_CELLS = 10**6
# most powers of a sweep marched in one batch, so that its memory does not grow with p_list
_SWEEP_ROWS = 64
# entries of a chunk of coefficients, whose steps' K15 panels of 1/b are evaluated together
_PANEL_CHUNK = 4096


def _underflow_cut(p: float) -> float:
    """Magnitude below which ``np.power(x, p)`` is +0.0, or 0.0 for no cut.

    The cut 2^(-1076/p) (see the module docstring) is kept only if the
    same ufunc returns +0.0 on a contiguous array of the largest double
    below it, a geometric spread down to 5e-324, and 0.
    """
    cut = 2.0 ** (-1076.0 / p)
    below = np.nextafter(cut, 0.0)
    if below == 0.0:    # p near 1: only 0 lies below the cut
        return 0.0
    probe = np.append(np.geomspace(below, 5e-324, 63), 0.0)
    with np.errstate(all="ignore"):
        zeros = np.power(probe, p)
    return cut if not zeros.view(np.int64).any() else 0.0


class _Stencil:
    """Grid constants and work buffers of the leapfrog step.

    ``_march`` builds one on the full grid.  ``bind`` takes the rows of
    the columns 0..W-2 for (rows, W) fields, W <= J+1, and sizes the work
    buffers to them.

    The radial Laplacian u_rr + (n-1)/r u_r is held as three coefficient
    rows on the columns 0..J-1: L u_j = (di_j u_j + up_j u_{j+1}) +
    lo_j u_{j-1}, with up_j, lo_j = 1/dr^2 +- (n-1)/(2j dr^2) and di_j =
    -2/dr^2.  At r = 0 the symmetric ghost cell turns the radial term into
    (n-1) u_rr, so row 0 is 2n (u_1 - u_0)/dr^2 and has no lo term.  For
    n = 1 the off-diagonal rows are 1/dr^2 bit for bit.  Column J has no
    row: it is the Dirichlet column.

    Each formula runs the same floating-point operations, in the same order,
    as its one-row array expression, so every row of a batch reproduces a
    single run bit for bit.
    """

    def __init__(self, J: int, dr: float, n: int, delta: float = 0.0):
        self.dr = dr
        self.area = sphere_area(n)
        inv = 1.0 / dr**2
        radial = (n - 1) / (2.0 * np.arange(1, J)) * inv
        self.lo = np.concatenate(([0.0], inv - radial))
        self.di = np.concatenate(([-2.0 * n * inv], np.full(J - 1, -2.0 * inv)))
        self.up = np.concatenate(([2.0 * n * inv], inv + radial))
        self.fspace = (np.arange(J + 1) * dr) ** delta if delta != 0.0 else None

    def bind(self, *fields: np.ndarray) -> list[tuple[np.ndarray, ...]]:
        """Each (rows, W) field with its views [:, :-1], [:, 1:] and [:, :-2], for ``step``.

        Also takes the coefficient rows of their width, as (1, W-1) rows so
        that a one-row batch multiplies arrays of one shape, and sizes the
        step's work buffers to them, so that a step takes no slice and
        makes no temporary.  The step's three products take turns in one
        buffer of the fields' size, each as a contiguous array on its front.
        """
        rows, width = fields[0].shape
        lap = np.empty((rows, width - 1))
        lap_hi = lap[:, 1:]
        work = np.empty_like(fields[0])
        front = work.reshape(-1)
        self._work = (self.di[None, :width - 1], self.up[None, :width - 1],
                      self.lo[None, 1:width - 1], lap, lap_hi,
                      work, front[:lap.size].reshape(lap.shape),
                      front[:lap_hi.size].reshape(lap_hi.shape))
        return [(f, f[:, :-1], f[:, 1:], f[:, :-2]) for f in fields]

    def source(self, u: np.ndarray, powers: Sequence[float], cuts: Sequence[float],
               scale: float) -> Optional[np.ndarray]:
        """scale * r^delta * |u|^p, one power per row.

        None when ``scale`` is 0: the source is then exactly zero for a
        finite field.  Each power stays a scalar, as in a single run: numpy
        takes a scalar 2 or 0.5 as a square or a square root, not as pow.
        pow runs only where |u| >= cut, the power's ``_underflow_cut`` in
        ``cuts``; every other entry is the +0.0 that pow returns there, and
        numpy's pow is slow on such entries.  The mask ``~(mag < cut)``
        sends nan and inf through pow, and the full-row multiply by the
        scale still turns the skipped zeros into -0.0 where the scale is
        negative.  |u| is formed here, only when the scale is nonzero.
        """
        if scale == 0.0:
            return None
        absu = np.abs(u)
        src = np.zeros_like(absu)
        for row, mag, p, cut in zip(src, absu, powers, cuts):
            np.power(mag, p, out=row, where=~(mag < cut))
        src *= scale if self.fspace is None else scale * self.fspace[None, :u.shape[1]]
        return src

    def step(self, u, u_prev, forcing, k) -> np.ndarray:
        """((k_u u - k_prev u_prev) + k_lap L u) + k_src forcing, written into ``u_prev``.

        ``u`` and ``u_prev`` are fields with their views, from ``bind``.
        ``k`` is (k_u, k_prev, k_lap, k_src) of one step of
        ``_coefficients``; for step 0, the Taylor start, ``u_prev`` holds
        v0.  The field of ``u_prev`` is returned, and
        ``forcing`` is consumed; ``forcing`` None means no source term.
        The last column gets no L u term: ``_march`` keeps it +0.0 (see the
        module docstring), and ``_run_manufactured`` sets its boundary value.
        """
        k_u, k_prev, k_lap, k_src = k
        u, u_lo, u_hi, u_lo2 = u
        new, new_lo = u_prev[:2]
        di, up, lo, lap, lap_hi, work, work_lo, work_lo2 = self._work
        np.multiply(u_lo, di, out=lap)
        np.multiply(u_hi, up, out=work_lo)
        lap += work_lo
        np.multiply(u_lo2, lo, out=work_lo2)
        lap_hi += work_lo2
        lap *= k_lap
        new *= -k_prev
        np.multiply(u, k_u, out=work)
        new += work
        new_lo += lap
        if forcing is not None:
            forcing *= k_src
            new += forcing
        return new

    def energies(self, u, v, a, rpow: np.ndarray, u_r: np.ndarray) -> np.ndarray:
        """Discrete kinetic + elastic energy of each full-width row (last axis) of ``u``.

        ``v`` holds the velocity rows and is consumed, ``a`` the wave speed
        of each row, and ``u_r``, of the shape of ``u``, is a work buffer;
        ``u``, ``v`` and ``u_r`` are C-contiguous.  The arithmetic of
        ``np.gradient(u, dr)`` and ``np.trapezoid(dens * rpow, dx=dr)`` for
        dens = v^2/2 + a u_r^2/2, row by row: each row sums its J pairs with
        numpy's pairwise sum, as a one-row ``.sum()`` does.  ``rpow`` is
        r^(n-1) on the grid.

        The central differences and the trapezoid pairs run once on the
        flat buffers, so the entries that straddle two rows are not their
        rows' own: the gradient's columns 0 and J are then redone with
        their one-sided formulas, and the pair at column J is left out of
        the sums.  Every other entry sees the operations of its own row.
        """
        dr = self.dr
        flat, flat_r = u.reshape(-1), u_r.reshape(-1)
        np.subtract(flat[2:], flat[:-2], out=flat_r[1:-1])
        flat_r[1:-1] /= 2.0 * dr
        np.subtract(u[..., 1], u[..., 0], out=u_r[..., 0])
        u_r[..., 0] /= dr
        np.subtract(u[..., -1], u[..., -2], out=u_r[..., -1])
        u_r[..., -1] /= dr
        dens = v
        dens *= v
        dens *= 0.5
        u_r *= u_r
        u_r *= (0.5 * a)[..., None]
        dens += u_r
        dens *= rpow
        flat_d = dens.reshape(-1)
        pairs = np.add(flat_d[1:], flat_d[:-1], out=flat_r[:-1])
        pairs *= dr
        pairs /= 2.0
        return self.area * u_r[..., :-1].sum(axis=-1)


def _stable_dt(prob: ProblemSpec, aux: AuxTable, cfl: float, dr: float, T: float,
               dt: Optional[float]) -> float:
    """``dt``, checked against the CFL limit cfl * dr / sqrt(sup a) on [0, T], or that limit.

    a(t) = c_a (B(t) + B(1))**(-alpha) is monotone in t, so
    sup a = max(a(0), a(T)).  A ``dt`` above the limit raises
    ``CflViolation``; None takes the limit.
    """
    sup_a = float(np.max(eval_a(prob, np.array([0.0, T]), aux)))
    dt_limit = cfl * dr / math.sqrt(sup_a)
    if dt is None:
        return dt_limit
    if dt > dt_limit * (1.0 + 1e-12):
        raise CflViolation(
            f"dt = {dt:g} exceeds the stability limit {dt_limit:g} "
            f"(cfl * dr / sqrt(sup a))"
        )
    return dt


def _time_step(spec: SimSpec, aux: AuxTable) -> tuple[float, int]:
    """The run's dt and step count, after the CFL, step-count and boundary-reach checks."""
    prob = spec.problem
    dr = spec.dr
    dt = _stable_dt(prob, aux, spec.cfl, dr, spec.T_max, spec.dt)
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
    """One past the last column where a row of any of the (rows, W) ``fields`` is nonzero."""
    nonzero = np.zeros(fields[0].shape[1], bool)
    for f in fields:
        nonzero |= (f != 0.0).any(axis=0)
    cols = np.flatnonzero(nonzero)
    return int(cols[-1]) + 1 if len(cols) else 0


@np.errstate(over="ignore", invalid="ignore")
def _coefficients(prob: ProblemSpec, aux: AuxTable, dt: float, steps: int,
                  nonlinearity: float) -> Iterator[tuple]:
    """The coefficients of a march of ``steps`` steps of ``dt``, ``_PANEL_CHUNK`` entries at a time.

    Yields the time, a, b, forcing factor and the four step scalars (rows
    of one array) of the entries 0..steps.  Entry m belongs to the step
    from t_m to t_m+1.  Its scalars are 2c, (1 - bh) c, dt^2 a c and
    dt^2 c, with bh = b dt/2 and c = 1/(1 + bh), except at m = 0: the step
    from t = 0 is the Taylor start u0 + dt v0 + dt^2/2 (a L u0 - b v0 + f),
    whose scalars 1, -(1 - bh) dt, dt^2 a/2 and dt^2/2 take v0 in place of
    u_prev.  B accumulates one K15 panel of 1/b per step; the running sum
    is the first term of each chunk's cumsum, so every entry equals the
    whole run's cumsum.  With ``nonlinearity`` 0 the forcing factor is zero
    and B**gamma is not formed.  A coefficient that is not finite raises
    ``FloatingPointError`` when its chunk is formed.
    """
    B = 0.0
    for lo in range(0, steps + 1, _PANEL_CHUNK):
        # the chunk's times and the end of its last step
        ts = np.arange(lo, min(lo + _PANEL_CHUNK, steps) + 1) * dt
        dB = gauss_kronrod_panel(lambda x: 1.0 / prob.damping.b(x), ts[:-1], ts[1:])[0]
        cum = np.cumsum(np.concatenate(([B], dB)))
        n, B = min(_PANEL_CHUNK, steps + 1 - lo), cum[-1]
        ts, Bs = ts[:n], cum[:n] + aux.B_unit_shift
        b = np.asarray(prob.damping.b(ts), float)
        a = prob.c_a * Bs ** (-prob.alpha)
        fscale = nonlinearity * (prob.c_f * Bs**prob.gamma) if nonlinearity else np.zeros(n)
        # with a non-finite coefficient, 0 * inf would put nan past the support
        for name, values in (("a(t)", a), ("b(t)", b), ("the forcing factor", fscale)):
            bad = np.flatnonzero(~np.isfinite(values))
            if len(bad):
                raise FloatingPointError(f"{name} is not finite at t = {ts[bad[0]]:g}")
        bh = 0.5 * dt * b
        c = 1.0 / (1.0 + bh)
        k = np.array((2.0 * c, (1.0 - bh) * c, dt**2 * a * c, dt**2 * c))
        if not lo:
            k[:, 0] = 1.0, -(1.0 - bh[0]) * dt, 0.5 * dt**2 * a[0], 0.5 * dt**2
        yield ts, a, b, fscale, k
        # so that forming the next chunk does not hold this one too
        del ts, dB, cum, Bs, b, a, fscale, values, bh, c, k


@np.errstate(over="ignore", invalid="ignore")
def _march(spec: SimSpec, aux: AuxTable, powers: Sequence[float],
           traces: bool) -> list[SimOutcome]:
    """Integrate ``spec`` once per power p, all rows in one leapfrog batch.

    The rows share the grid, its one ``_Stencil``, dt (the CFL limit does
    not depend on p) and the coefficients, which ``_coefficients`` forms a
    chunk at a time; the powers' underflow cuts are formed once.  When a
    block of buffered steps is full, at the last step of a chunk or of the
    march and before a window rescan, one pass over the block takes each
    row's sup-norms and, with the guard on and W = J+1, its guard cells'
    max; a block's last step is fixed when the block starts, as chunks and
    rescans start only with a block.  A row keeps its running peak sup,
    its last sample and whether a guard cell ever passed 1e-10 of the
    running peak (at least 1e-300) at its step; with ``traces`` (a
    ``run``) also its sup-norms and energies, and otherwise its outcome
    has empty traces.  A row whose sup is not
    below the threshold (NaN included) at some step of the block ends at
    the first such step, with its field from the buffer, and leaves the
    batch, and the block's buffers are viewed anew on the rows left; its
    later steps are dropped, as rows do not interact.  t* is
    ``detect_blowup`` of the data's sup and the samples at and before a
    row's last step, so data at or above the threshold give t* = 0; a row
    that reaches the horizon without t* but with a guard cell past the
    peak is boundary-contaminated.  A block ends before each rescan of the
    window (see the module docstring), so W follows the rows left in the
    batch and all steps of a block share it.
    """
    prob = spec.problem
    dt, steps = _time_step(spec, aux)
    chunks = _coefficients(prob, aux, dt, steps, spec.nonlinearity)
    _, a_arr, _, fscale, (k_u, k_prev, k_lap, k_src) = next(chunks)
    lo, hi = 0, len(a_arr)      # the entries of the chunk in hand
    cuts = [_underflow_cut(p) for p in powers]

    dr, J, rows = spec.dr, spec.J, len(powers)
    st = _Stencil(J, dr, prob.n, prob.delta)
    r = np.arange(J + 1) * dr
    rpow = r ** (prob.n - 1)
    threshold = spec.blowup_threshold
    guard = 0 if spec.allow_boundary_reflections else max(1, min(5, J // 4))

    u0 = spec.u0(r)[None]
    u0[:, -1] = 0.0
    v0 = spec.u1(r)[None]
    v0[:, -1] = 0.0
    width = min(J + 1, _support_end(u0, v0) + 2)     # the data, the start's spread, a +0.0 column
    # step 0, the Taylor start, takes a copy of v0 in place of u_prev
    u_prev, u = st.bind(np.tile(u0[:, :width], (rows, 1)), np.tile(v0[:, :width], (rows, 1)))
    st.step(u_prev, u, st.source(u_prev[0], powers, cuts, fscale[0]),
            (k_u[0], k_prev[0], k_lap[0], k_src[0]))
    u[0][:, -1] = 0.0

    # full-width fields of the active rows: slots 1..filled hold the steps from
    # done on, slot 0 step done-1 for the energies.  Only slot 0 holds u0, and
    # only until the first block ends; every other field is +0.0 past the
    # window.  So when rows leave, the flat buffers are viewed anew on the rows
    # left, with the same slots, and each column keeps its place in a row.
    depth = max(2, _ENERGY_BUDGET // (rows * (J + 1)))
    buffers = [np.zeros(depth * rows * (J + 1))] + [np.empty(depth * rows * (J + 1))
                                                     for _ in range(2 * traces)]

    def shaped(count: int) -> list[np.ndarray]:
        """The block and, with ``traces``, the energies' two work buffers, on ``count`` rows."""
        return [flat[:depth * count * (J + 1)].reshape(depth, count, J + 1) for flat in buffers]

    block, *work = shaped(rows)
    sup0 = np.max(np.abs(u0))
    sup_hist, energy_hist = np.empty((2, rows, steps + 1 if traces else 0))
    if traces:
        block[0] = u0
        sup_hist[:, 0] = sup0
        energy_hist[:, 0] = st.energies(u0, v0, a_arr[:1], rpow, work[1][0, :1])
    done, filled = 1, 0

    active = np.arange(rows)
    # the running peak and last sample of each active row; a guard cell past the peak, of each row
    peak, sample, hit = np.full(rows, sup0), np.full(rows, sup0), np.zeros(rows, bool)
    final = np.zeros((rows, J + 1))                  # +0.0 past the window
    outcomes = [None] * rows

    def finish(i: int, m: int, before, at) -> None:
        """Row i ends at step m, with the samples ``before`` at m-1 and ``at`` at m."""
        t_star = detect_blowup((0.0, (m - 1) * dt, m * dt), (sup0, before, at), threshold)
        outcomes[i] = SimOutcome(
            verdict=("blowup" if t_star is not None
                     else "boundary_contaminated" if hit[i] else "survived"),
            t_star=t_star, hard_overflow=not np.isfinite(at),
            times=np.arange(m + 1 if traces else 0) * dt, sup_norms=sup_hist[i, :m + 1],
            energies=energy_hist[i, :m + 1], dt=dt, dr=dr, r=r, final_u=final[i])

    slots = block[:, :, :width]     # the window of the active rows
    rescan = 1      # step 1 sizes the window as every later rescan does; 0: the window is whole

    for m in range(1, steps + 1):
        if m == done:
            # a block starts: a chunk and a rescan start only with a block
            if m == hi:
                del a_arr, fscale, k_u, k_prev, k_lap, k_src    # hold one chunk at a time
                _, a_arr, _, fscale, (k_u, k_prev, k_lap, k_src) = next(chunks)
                lo, hi = m, m + len(a_arr)
            if m == rescan:
                # from this step on the support could reach column width - 2
                end = _support_end(u[0], u_prev[0])
                if end + 2 + _WINDOW_BLOCK // 2 > width:
                    grow = min(J + 1, end + 2 + _WINDOW_BLOCK) - width
                    pad = ((0, 0), (0, grow))
                    width += grow
                    u, u_prev = st.bind(np.pad(u[0], pad), np.pad(u_prev[0], pad))    # +0.0
                    slots = block[:, :, :width]
                rescan = m + width - 1 - end if width < J + 1 else 0
            # the block ends when its slots are full, at the last step, with its
            # chunk, and before a rescan, which must see only the rows left
            last = min(done + depth - 2, steps, hi - 1, rescan - 1 if rescan else steps)
        filled += 1
        slots[filled] = u[0]

        if m == last:
            fields = block[1:filled + 1]
            sups = np.abs(fields[:, :, :width]).max(axis=2)
            if traces:
                vel, grad = work
                sup_hist[active, done:done + filled] = sups.T
                v = np.subtract(fields, block[:filled], out=vel[:filled])
                v /= dt
                energy_hist[active, done:done + filled] = st.energies(
                    fields, v, a_arr[done - lo:done - lo + filled, None], rpow, grad[:filled]).T
                block[0] = block[filled]
            if guard and width == J + 1:
                edge = np.abs(fields[:, :, -guard - 1:-1]).max(axis=2)
                # the running peak only raises the bar, so the peak before the block screens
                if (edge > 1e-10 * np.maximum(peak, 1e-300)).any():
                    running = np.maximum.accumulate(np.vstack((peak, sups)))[1:]
                    hit[active] |= (edge > 1e-10 * np.maximum(running, 1e-300)).any(axis=0)
            peak = np.maximum(peak, sups.max(axis=0))
            below = sups < threshold      # False when crossed, or not a number
            if not below.all():
                kept = below.all(axis=0)
                prior = np.vstack((sample, sups))       # the sample before each step's
                # a row ends at its first crossing; its later steps are dropped
                for j in np.flatnonzero(~kept).tolist():
                    first = int(below[:, j].argmin())
                    final[active[j]] = fields[first, j]
                    finish(active[j], done + first, *prior[first:first + 2, j])
                active, peak, sups = active[kept], peak[kept], sups[:, kept]
                if not len(active):     # a single run always ends here
                    break
                u, u_prev = st.bind(u[0][kept], u_prev[0][kept])
                head = block[0, kept]
                block, *work = shaped(len(active))
                block[0] = head
                slots = block[:, :, :width]
                powers, cuts = ([x for x, keep in zip(xs, kept) if keep] for xs in (powers, cuts))
            sample = sups[-1]
            if m == steps:
                final[active, :width] = u[0]
                for i, at in zip(active.tolist(), sample.tolist()):
                    finish(i, m, at, at)
                break
            done, filled = m + 1, 0

        e = m - lo      # the step's entry in the chunk
        forcing = st.source(u[0], powers, cuts, fscale[e])
        st.step(u, u_prev, forcing, (k_u[e], k_prev[e], k_lap[e], k_src[e]))
        u_prev, u = u, u_prev
    return outcomes


def run(spec: SimSpec, aux: Optional[AuxTable] = None) -> SimOutcome:
    """Integrate one radial problem to blow-up, contamination or the horizon."""
    if aux is None:
        aux = build_aux_table(spec.problem.damping, max(2.0, spec.T_max) * 1.01)
    return _march(spec, aux, [spec.problem.p], traces=True)[0]


def sweep_p(
    spec: SimSpec,
    p_list: Sequence[float],
    aux: Optional[AuxTable] = None,
) -> list[dict]:
    """Run the same problem across powers p; rows (p, verdict, t_star).

    The powers march in batches of at most ``_SWEEP_ROWS`` rows, each on
    its own stream of coefficients, and only the rows of a batch are kept,
    so memory grows with neither the powers nor the steps; each row equals
    the single ``run`` of its power.  Warns (but proceeds) when the data
    functional is not positive: the sign condition is the hypothesis under
    which nonexistence is asserted.
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
    rows = []
    for lo in range(0, len(powers), _SWEEP_ROWS):
        batch = powers[lo:lo + _SWEEP_ROWS]
        rows += [{"p": p, "verdict": oc.verdict, "t_star": oc.t_star}
                 for p, oc in zip(batch, _march(spec, aux, batch, traces=False))]
    return rows


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


# the manufactured-solution checks run on r in [0, 8] up to t = 1
_MMS_R_MAX = 8.0
_MMS_T_FINAL = 1.0


def _run_manufactured(prob: ProblemSpec, aux: AuxTable, J: int, dt: Optional[float] = None):
    """March the linear scheme against the manufactured source on J cells.

    ``dt`` None takes the CFL limit at cfl = 0.5.  The step is then
    shortened to divide t = 1 evenly, so it stays within the limit.
    Returns the final field and its weighted L2 error against the exact
    solution.
    """
    n = prob.n
    T_final = _MMS_T_FINAL
    dr = _MMS_R_MAX / J
    dt = _stable_dt(prob, aux, 0.5, dr, T_final, dt)
    steps = math.ceil(T_final / dt)
    dt = T_final / steps
    entries = (entry for ts, a_arr, b_arr, _, k in _coefficients(prob, aux, dt, steps, 0.0)
               for entry in zip(ts, a_arr, b_arr, *k))

    u_exact, u_t_exact, lap_exact = _manufactured_fields(n)
    st = _Stencil(J, dr, n)
    r = np.arange(J + 1) * dr
    rpow = r ** (n - 1)

    # step 0, the Taylor start, takes u_t in place of u_prev
    u, u_prev = st.bind(u_exact(0.0, r)[None], u_t_exact(0.0, r)[None])
    for m, (t, a, b, *k) in zip(range(steps), entries):
        st.step(u, u_prev, u_exact(t, r) - a * lap_exact(t, r) + b * u_t_exact(t, r), k)
        u_prev, u = u, u_prev
        u[0][:, -1] = u_exact((m + 1) * dt, r[-1])

    field = u[0][0]
    return field, _weighted_l2(field - u_exact(T_final, r), rpow, dr, n)


def convergence_test(prob: ProblemSpec) -> dict:
    """Richardson order check of the linear scheme at 64, 128 and 256 cells.

    dt scales with dr (fixed CFL number), so the observed order combines
    space and time; both are second order.
    """
    aux = build_aux_table(prob.damping, max(2.0, _MMS_T_FINAL) * 1.01)
    errors = [_run_manufactured(prob, aux, J)[1] for J in (64, 128, 256)]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    return {
        "errors": errors,
        "orders": orders,
        "observed_order": orders[-1],
    }


def time_order_ratio(prob: ProblemSpec) -> float:
    """Error ratio when dt alone is halved on a 512-cell grid (expected near 4).

    The spatial error is frozen by comparing against a small-dt reference
    on the same grid, isolating the quadratic time error.
    """
    aux = build_aux_table(prob.damping, max(2.0, _MMS_T_FINAL) * 1.01)
    J = 512
    dr = _MMS_R_MAX / J
    dt0 = _stable_dt(prob, aux, 0.5, dr, _MMS_T_FINAL, None)
    r = np.arange(J + 1) * dr
    rpow = r ** (prob.n - 1)

    def field_at(dt: float) -> np.ndarray:
        return _run_manufactured(prob, aux, J, dt=dt)[0]

    ref = field_at(dt0 / 16.0)
    e1 = _weighted_l2(field_at(dt0) - ref, rpow, dr, prob.n)
    e2 = _weighted_l2(field_at(dt0 / 2.0) - ref, rpow, dr, prob.n)
    return e1 / e2
