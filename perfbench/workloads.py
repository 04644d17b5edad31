"""Workload definitions: seeded op lists for the blowuplab CLI and their output gates.

Each workload is a fixed list of ops: ``scan`` (the analysis path) and
``solve`` (the radial solver: the ``sweep`` ops, then the ``evolve`` ops).
An op is one ``blowuplab.cli.dispatch`` call (argv, with JSON configs written
into the work directory) or one call of a public library function.  The seed jitters physical inputs inside narrow
ranges (p offsets around p_C, data amplitude and width, damping scale) so the
cost of a pass stays comparable across seeds; seed 0 is the nominal config
that ``reference_seed0.json`` was recorded from.

Every op carries a gate that checks its output against a closed form or an
analytic property that holds for every seed.  A gate returns
``(name, ok, margin)`` triples; ``margin`` is the distance to the gate's
limit, positive when the gate passes.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_seed0.json"

# tolerances of the acceptance criteria the gates mirror
SLOPE_TOL = 0.05
AUX_REL_TOL = 1e-8
ORDER_TOL = 0.2
DECAY_RATIO = 1e-3


@dataclass
class Op:
    """One unit of work: a CLI invocation or a public-function call."""

    name: str
    command: str                         # subcommand, or the function name
    gate: Callable                       # (OpResult) -> list of (name, ok, margin)
    argv: Optional[list] = None
    out: Optional[Path] = None           # CSV written by the op
    call: Optional[Callable] = None      # () -> value, for library ops


@dataclass
class OpResult:
    rc: int
    stdout: str
    value: object = None


def _rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _floats(rows: list, key: str) -> list:
    return [float(r[key]) for r in rows]


class _Jitter:
    """Uniform offsets from a seeded stream; seed 0 gives the nominal inputs."""

    def __init__(self, workload: str, seed: int):
        self.nominal = seed == 0
        self.rng = random.Random(f"{workload}:{seed}")

    def __call__(self, centre: float, half_width: float) -> float:
        if self.nominal:
            return centre
        return centre + self.rng.uniform(-half_width, half_width)


def _fmt(x: float) -> str:
    return repr(float(x))


def _word_after(text: str, marker: str) -> str:
    """The word following ``marker`` in a verdict line, or '?' when absent."""
    return text.split(marker)[-1].split()[0] if marker in text else "?"


# ---------------------------------------------------------------------------
# scan


def _p_crit(n: int, alpha: float, gamma: float, delta: float) -> float:
    return 1.0 + 2.0 * (1.0 + gamma) / (n * (1.0 - alpha)) + delta / n


def _p_min(n: int, alpha: float, gamma: float, delta: float) -> float:
    return 1.0 + max(max(gamma + alpha, 0.0) / (1.0 - alpha), max(delta, 0.0) / n)


def _first_order_slope(n, alpha, gamma, delta, p) -> float:
    """Closed-form log-log slope shared by the e0 and 2e_space indices."""
    d = 2.0 / (1.0 - alpha)
    pc = p / (p - 1.0)
    return -d * (1.0 + gamma) - delta + (n + delta + d * (1.0 + gamma)) / pc


def _scan_gate(n, alpha, gamma, p, expect):
    def gate(res: OpResult, op: Op):
        rows = _rows(op.out)
        by_label = {r["alpha_tag"]: r for r in rows}
        own = _first_order_slope(n, alpha, gamma, 0.0, p)
        out = [("rows", len(rows) == 18 and all(math.isfinite(float(r["product"])) for r in rows),
                f"{len(rows)} rows")]
        for label in ("e0", "2e_space"):
            fitted = float(by_label[label]["log_slope_fitted"])
            predicted = float(by_label[label]["log_slope_predicted"])
            out.append((f"predicted.{label}", abs(predicted - own) <= 1e-9,
                        f"{1e-9 - abs(predicted - own):.3g}"))
            margin = SLOPE_TOL - abs(fitted - predicted)
            out.append((f"slope.{label}", margin >= 0, f"{margin:.4g}"))
        overall = _word_after(res.stdout, "overall verdict:")
        out.append(("overall", overall == expect, f"{overall} (want {expect})"))
        return out
    return gate


def _scan_op(workdir: Path, tag: str, n: int, p: float, expect: str,
             alpha: float = 0.0, gamma: float = 0.0, damping: tuple = ("constant", 1.0, 0.0)) -> Op:
    kind, mu, kappa = damping
    out = workdir / f"scan-{tag}.csv"
    argv = ["scan", "--n", str(n), "--alpha", _fmt(alpha), "--gamma", _fmt(gamma),
            "--p", _fmt(p), "--damping", kind, "--mu", _fmt(mu), "--kappa", _fmt(kappa),
            "--out", str(out), "--quiet"]
    return Op(f"scan:{tag}", "scan", _scan_gate(n, alpha, gamma, p, expect), argv=argv, out=out)


def _exact_aux(kind: str, mu: float, kappa: float, t: float):
    """Closed-form (B, beta, Gamma, g) for constant and kappa = -0.5 power-law damping."""
    if kind == "constant":
        beta = math.exp(-mu * t)
        return t / mu, beta, beta / mu, 1.0 / mu
    from scipy.special import gamma as gamma_fn, gammaincc
    if kappa != -0.5:
        raise ValueError(f"no closed form for power-law kappa = {kappa}")
    c = mu / 1.5
    B = 2.0 * (math.sqrt(1.0 + t) - 1.0) / mu
    beta = math.exp(-c * ((1.0 + t) ** 1.5 - 1.0))
    Gamma = (math.exp(c) * (2.0 / 3.0) * c ** (-2.0 / 3.0) * gamma_fn(2.0 / 3.0)
             * gammaincc(2.0 / 3.0, c * (1.0 + t) ** 1.5))
    return B, beta, Gamma, (Gamma / beta if beta > 0.0 else math.nan)


def _aux_gate(kind: str, mu: float, kappa: float, horizon: float):
    def gate(res: OpResult, op: Op):
        rows = _rows(op.out)
        worst = 0.0
        compared = 0
        for r in rows:
            t = float(r["t"])
            B, beta, Gamma, g = _exact_aux(kind, mu, kappa, t)
            worst = max(worst, abs(float(r["B"]) - B) / max(B, 1e-12))
            # beta and Gamma underflow far out; compare where both are representable
            if beta > 1e-250 and Gamma > 1e-250:
                compared += 1
                for key, want in (("beta", beta), ("Gamma", Gamma), ("g", g)):
                    worst = max(worst, abs(float(r[key]) - want) / want)
        margin = AUX_REL_TOL - worst
        return [("horizon", float(rows[-1]["t"]) == horizon, rows[-1]["t"]),
                ("closed_form", margin >= 0, f"{margin:.3g} ({compared} full rows)")]
    return gate


def _aux_op(workdir: Path, tag: str, kind: str, mu: float, kappa: float, horizon: float) -> Op:
    out = workdir / f"aux-{tag}.csv"
    argv = ["aux", "--damping", kind, "--mu", _fmt(mu), "--kappa", _fmt(kappa),
            "--horizon", _fmt(horizon), "--out", str(out), "--quiet"]
    return Op(f"aux:{tag}", "aux", _aux_gate(kind, mu, kappa, horizon), argv=argv, out=out)


def _check_gate(res: OpResult, op: Op):
    verdict = _word_after(res.stdout, "verdict:")
    return [("verdict", verdict == "PASS", verdict)]


def _exponents_gate(n, alpha, gamma, delta):
    def gate(res: OpResult, op: Op):
        row = _rows(op.out)[0]
        out = []
        for key, want in (("p_crit", _p_crit(n, alpha, gamma, delta)),
                          ("p_min", _p_min(n, alpha, gamma, delta))):
            err = abs(float(row[key]) - want) / want
            out.append((key, err <= 1e-10, f"{1e-10 - err:.3g}"))
        return out
    return gate


def scan_ops(workdir: Path, seed: int) -> list:
    j = _Jitter("scan", seed)
    ops = [
        # n = 1, b = 1: p_C = 3, straddled below / at / above
        _scan_op(workdir, "n1-below", 1, j(2.0, 0.05), "bounded"),
        _scan_op(workdir, "n1-crit", 1, j(3.0, 0.02), "bounded"),
        _scan_op(workdir, "n1-above", 1, j(4.0, 0.05), "growing"),
        # decaying speed, growing forcing: p_C = 5, d = 8/3, table horizon ~ 5.5e6
        _scan_op(workdir, "alpha-crit", 1, j(5.0, 0.02), "bounded", alpha=0.25, gamma=0.5),
        # n = 2 with power-law damping kappa = 0.5 above p_C = 2
        _scan_op(workdir, "n2-kappa", 2, j(2.5, 0.05), "growing",
                 damping=("powerlaw", 1.0, 0.5)),
        # growing damping: many _phi_cell splits per table cell
        _aux_op(workdir, "kappa-neg", "powerlaw", j(1.0, 0.05), -0.5, 1e5),
        _aux_op(workdir, "const", "constant", j(1.0, 0.05), 0.0, 1e4),
    ]
    mu = j(2.0, 0.1)
    ops.append(Op("check:kappa1", "check", _check_gate,
                  argv=["check", "--damping", "powerlaw", "--mu", _fmt(mu), "--kappa", "1",
                        "--quiet"]))
    n, alpha, gamma, delta = 2, j(0.25, 0.05), j(0.5, 0.1), j(0.5, 0.25)
    out = workdir / "exponents.csv"
    ops.append(Op("exponents:point", "exponents", _exponents_gate(n, alpha, gamma, delta),
                  argv=["exponents", "--n", str(n), "--alpha", _fmt(alpha), "--gamma", _fmt(gamma),
                        "--delta", _fmt(delta), "--out", str(out), "--quiet"], out=out))
    return ops


# ---------------------------------------------------------------------------
# sweep


def _load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _sweep_gate(p_crit: float, large_data: bool, dt: float, seed: int):
    def gate(res: OpResult, op: Op):
        rows = _rows(op.out)
        ps = _floats(rows, "p")
        verdicts = [r["verdict"] for r in rows]
        out = []
        if large_data:
            # large data: every power blows up, and earlier for larger p
            out.append(("all_blowup", all(v == "blowup" for v in verdicts), ",".join(verdicts)))
        else:
            # small data: blow-up exactly below the critical power
            want = ["blowup" if p < p_crit else "survived" for p in ps]
            out.append(("blowup_below_pC", verdicts == want, ",".join(verdicts)))
        tstars = [float(r["t_star"]) for r in rows if r["verdict"] == "blowup"]
        if large_data:
            gaps = [a - b for a, b in zip(tstars, tstars[1:])]
            margin = min(gaps) if gaps else math.inf
            out.append(("tstar_decreasing", margin > 0, f"{margin:.4g}"))
        if seed == 0:
            ref = _load_reference()[op.name]
            ref_verdicts = [r[1] for r in ref]
            out.append(("reference.verdicts", verdicts == ref_verdicts, ",".join(ref_verdicts)))
            diffs = [abs(float(r["t_star"]) - rr[2]) for r, rr in zip(rows, ref)
                     if r["verdict"] == "blowup" and rr[1] == "blowup"]
            margin = dt - max(diffs, default=0.0)
            out.append(("reference.tstar", margin >= 0, f"{margin:.4g}"))
        return out
    return gate


def _sweep_op(workdir: Path, tag: str, seed: int, n: int, amplitude: float, width: float,
              J: int, p_list: list, p_crit: float, large_data: bool) -> Op:
    out = workdir / f"sweep-{tag}.csv"
    r_max = 60.0
    argv = ["sweep", "--n", str(n), "--u1-amplitude", _fmt(amplitude), "--u1-width", _fmt(width),
            "--J", str(J), "--r-max", _fmt(r_max), "--T-max", "50",
            "--p-list", ",".join(_fmt(p) for p in p_list), "--out", str(out), "--quiet"]
    dt = 0.5 * r_max / J  # cfl * dr, constant unit speed
    return Op(f"sweep:{tag}", "sweep", _sweep_gate(p_crit, large_data, dt, seed),
              argv=argv, out=out)


def sweep_ops(workdir: Path, seed: int) -> list:
    j = _Jitter("sweep", seed)
    large = [1.2, 1.35, 1.5, 1.7, 1.9, 2.1, 2.3, 2.5]
    # 1.8 is left out: there t* sits near T_max and flips with the data jitter
    small = [1.2, 1.4, 1.6, 2.2, 2.6, 3.0, 3.5, 4.0]
    return [
        _sweep_op(workdir, "large", seed, 1, j(5.0, 0.25), j(1.0, 0.05), 2400,
                  [j(p, 0.02) for p in large], 3.0, True),
        _sweep_op(workdir, "small", seed, 2, j(1.0, 0.05), j(1.0, 0.05), 1200,
                  [j(p, 0.02) for p in small], 2.0, False),
    ]


# ---------------------------------------------------------------------------
# evolve


def _time_dependent_problem(n: int, p: float) -> dict:
    return {"n": n, "alpha": 0.25, "gamma": 0.5, "delta": 0.0, "p": p,
            "damping": {"kind": "powerlaw", "mu": 1.0, "kappa": 0.5}}


def _decay_gate(res: OpResult, op: Op):
    rows = _rows(op.out)
    sups = _floats(rows, "sup_norm")
    finite = all(math.isfinite(float(r["energy"])) for r in rows)
    ratio = sups[-1] / max(sups)
    margin = DECAY_RATIO - ratio
    verdict = _word_after(res.stdout, "verdict:")
    return [("verdict", verdict == "survived", verdict),
            ("finite", finite and all(math.isfinite(s) for s in sups), f"{len(rows)} rows"),
            ("decay", margin >= 0, f"{margin:.4g}")]


def _survive_gate(T_max: float):
    def gate(res: OpResult, op: Op):
        rows = _rows(op.out)
        last_t = float(rows[-1]["t"])
        finite = all(math.isfinite(float(r["sup_norm"])) and math.isfinite(float(r["energy"]))
                     for r in rows)
        verdict = _word_after(res.stdout, "verdict:")
        return [("verdict", verdict == "survived", verdict),
                ("finite", finite, f"{len(rows)} rows"),
                ("horizon", last_t >= T_max, f"{last_t - T_max:.4g}")]
    return gate


def _order_gate(res: OpResult, op: Op):
    order = float(res.value["observed_order"])
    margin = ORDER_TOL - abs(order - 2.0)
    return [("order", margin >= 0, f"{margin:.4g}")]


def evolve_ops(workdir: Path, seed: int) -> list:
    from blowuplab import simulator
    from blowuplab.coeffs import ProblemSpec

    j = _Jitter("evolve", seed)
    config = {
        "problem": _time_dependent_problem(1, 2.0),
        "r_max": 8.0, "J": 400, "T_max": 200.0, "nonlinearity": 0.0,
        "allow_boundary_reflections": True,
        "data": {"u1": {"amplitude": j(5.0, 0.25), "width": j(1.0, 0.05)}},
    }
    config_path = workdir / "decay.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    decay_out = workdir / "decay.csv"

    p = j(6.0, 0.1)
    nonlinear_out = workdir / "nonlinear.csv"
    nonlinear = ["simulate", "--n", "2", "--p", _fmt(p), "--alpha", "0.25", "--gamma", "0.5",
                 "--damping", "powerlaw", "--mu", "1", "--kappa", "0.5",
                 "--u1-amplitude", _fmt(j(0.5, 0.05)), "--u1-width", _fmt(j(1.0, 0.05)),
                 "--T-max", "50", "--out", str(nonlinear_out), "--quiet"]
    problem = _time_dependent_problem(2, p)
    return [
        Op("simulate:decay", "simulate", _decay_gate,
           argv=["simulate", "--config", str(config_path), "--out", str(decay_out), "--quiet"],
           out=decay_out),
        Op("simulate:nonlinear", "simulate", _survive_gate(50.0), argv=nonlinear, out=nonlinear_out),
        # looked up at call time so a traced pass sees the patched function
        Op("convergence_test", "convergence_test", _order_gate,
           call=lambda: simulator.convergence_test(ProblemSpec.from_dict(problem))),
    ]


def build(workload: str, workdir: Path, seed: int) -> list:
    """Generate the op list (and its input files) for one workload and seed.

    ``solve`` is the lifespan sweeps followed by the full-horizon runs.  They
    share one workload so that each run is long enough to average over the
    host's speed swings (see NOTES.md).
    """
    if workload == "scan":
        return scan_ops(workdir, seed)
    if workload == "solve":
        return sweep_ops(workdir, seed) + evolve_ops(workdir, seed)
    raise ValueError(f"unknown workload {workload!r}")
