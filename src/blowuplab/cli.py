"""Command-line front end: JSON configs in, CSV diagnostics out.

Subcommands: check | aux | exponents | scan | simulate | sweep.  Outputs
are deterministic (fixed quadrature orders, no randomness): identical
configs produce byte-identical CSV.  Exit codes: 0 success, 2 validation
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import warnings
from contextlib import nullcontext
from typing import Iterable, Optional

import numpy as np

from . import auxcalc, exponents, functional, simulator
from .coeffs import DampingModel, ProblemSpec, _from_json, _integer, _number
from .quadrature import QuadratureNonconvergence

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _csv_lines(rows: Iterable) -> Iterable[str]:
    """One CSV line per row, each value through ``_fmt``."""
    return (",".join(_fmt(v) for v in row) + "\n" for row in rows)


def _write_csv(path: Optional[str], header: list[str], lines: Iterable[str], quiet: bool) -> None:
    """Write ``header`` and the ready-made ``lines`` as CSV, one line at a time."""
    sink = open(path, "w", encoding="utf-8", newline="\n") if path else nullcontext(sys.stdout)
    with sink as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)
    if path and not quiet:
        print(f"wrote {path}")


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object, got {cfg!r}")
    return cfg


def _block(cfg: dict, key: str, read, default=None):
    """``read(cfg[key])``, or ``default`` when the key is absent or null; errors name the key."""
    value = _from_json(dict, cfg, **{key: read}).get(key)
    return default if value is None else value


def _list_of(read):
    """Reader of a JSON list that reads each entry with ``read``."""
    def read_list(value) -> list:
        if not isinstance(value, list):
            raise ValueError(f"expected a JSON list, got {value!r}")
        return [read(entry) for entry in value]
    return read_list


# A flag's dest is its key in the config's JSON layout, so ``vars(args)`` is the
# flags' block; a flag left out is None, which keeps the field's default.
def _damping_from_args(args, cfg: dict) -> dict:
    """The ``damping`` block: the config's without ``--damping``, else the flags'."""
    if args.damping is None and cfg.get("damping") is not None:
        return cfg["damping"]
    perturbation = {"kind": args.perturbation, "exponent": args.perturbation_exponent}
    return {**vars(args), "kind": args.damping or "constant",
            "perturbation": perturbation if args.perturbation else None}


def _problem_from_args(args, cfg: dict) -> dict:
    """The ``spec`` block: the config's, else the flags' with the ``damping`` block."""
    if cfg.get("spec") is not None:
        return cfg["spec"]
    return {**vars(args), "damping": _damping_from_args(args, cfg)}


def _sim_spec_from_args(args, cfg: dict) -> simulator.SimSpec:
    """The SimSpec of a config holding ``r_max``, else of the flags with the ``spec`` block."""
    if "r_max" not in cfg:
        cfg = {**vars(args), "problem": _problem_from_args(args, cfg),
               "data": {"u0": {"amplitude": args.u0_amplitude, "width": args.u0_width},
                        "u1": {"amplitude": args.u1_amplitude, "width": args.u1_width}}}
    return simulator.SimSpec.from_dict(cfg)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args, cfg: dict) -> int:
    model = _block({"damping": _damping_from_args(args, cfg)}, "damping", DampingModel.from_dict)
    report = auxcalc.check_hypothesis(model, args.horizon, margin=args.margin)
    rows = [
        ("liminf b'/b^2", report.liminf_est, "> -1", report.passes_liminf),
        ("limsup t b'/b", report.limsup_est, "< 1", report.passes_limsup),
    ]
    if not args.quiet:
        for name, value, target, ok in rows:
            print(f"{name:>16s} = {value: .6f}  (target {target})  "
                  f"{'PASS' if ok else 'FAIL'}")
        print(f"tail min of t*b(t) = {report.tb_liminf:.6f}")
        print(f"growth exponents m = {report.growth_m:.4f}, M = {report.growth_M:.4f}")
        print(f"(b^2+b')/b^2 in [{report.eps_lower:.4f}, {report.C_upper:.4f}]")
        if report.inconclusive:
            print("note: tail extrema still drifting; verdict inconclusive")
        if report.analytic is not None:
            print(f"closed-form admissibility: {report.analytic}")
    verdict = "PASS" if report.admissible else "FAIL"
    print(f"verdict: {verdict} (numerical evidence at horizon {args.horizon:g})")
    return EXIT_OK


def _cmd_aux(args, cfg: dict) -> int:
    model = _block({"damping": _damping_from_args(args, cfg)}, "damping", DampingModel.from_dict)
    table = auxcalc.build_aux_table(model, args.horizon)
    rows = zip(table.grid, table.B_vals, table.beta_vals, table.Gamma_vals, table.g_vals)
    _write_csv(args.out, ["t", "B", "beta", "Gamma", "g"], _csv_lines(rows), args.quiet)
    return EXIT_OK


def _cmd_exponents(args, cfg: dict) -> int:
    grid_point = functools.partial(_from_json, dict, n=_integer, alpha=_number, gamma=_number,
                                   delta=_number)
    grid = _block(cfg, "grid", _list_of(grid_point), [vars(args)])
    rows = []
    for point in grid:
        n = point["n"]
        alpha, gamma, delta = (point.get(key, 0.0) for key in ("alpha", "gamma", "delta"))
        report = exponents.p_crit_damped(n, alpha, gamma, delta)
        classics = exponents.classic_exponents(n)
        rows.append([
            n, alpha, gamma, delta, report.p_min, report.p_crit, report.meaningful,
            classics.fujita, classics.kato, classics.strauss, classics.sobolev,
        ])
    header = ["n", "alpha", "gamma", "delta", "p_min", "p_crit", "meaningful",
              "fujita", "kato", "strauss", "sobolev"]
    _write_csv(args.out, header, _csv_lines(rows), args.quiet)
    if not args.quiet and len(rows) == 1:
        print(f"p_C = {_fmt(rows[0][5])}, p_min = {_fmt(rows[0][4])}")
    return EXIT_OK


def _cmd_scan(args, cfg: dict) -> int:
    spec = _block({"spec": _problem_from_args(args, cfg)}, "spec", ProblemSpec.from_dict)
    R_list = _block(cfg, "R_list", _list_of(_number), [float(x) for x in args.R.split(",")])
    result = functional.scan_condition(spec, R_list)
    rows = []
    for label in ("2e0", "e0", "2e_space"):
        for R, H, G, product in result.rows[label]:
            rows.append([label, R, H, G, product,
                         result.fitted[label], result.predicted[label],
                         result.verdicts[label]])
    header = ["alpha_tag", "R", "H", "G", "product",
              "log_slope_fitted", "log_slope_predicted", "verdict"]
    _write_csv(args.out, header, _csv_lines(rows), args.quiet)
    print(f"overall verdict: {result.overall} ({result.note})")
    return EXIT_OK


def _cmd_simulate(args, cfg: dict) -> int:
    outcome = simulator.run(_sim_spec_from_args(args, cfg))
    times, sups, energies = outcome.times, outcome.sup_norms, outcome.energies
    # the trace ends before the first step whose sup norm overflowed; an
    # energy that alone overflowed is written as an empty field
    finite = np.isfinite(sups)
    kept = len(finite) if finite.all() else int(np.argmin(finite))
    energy_ok = np.isfinite(energies)
    # one format per row, the same "{:.12g}" as _fmt for each float; Python
    # floats format faster than numpy scalars
    row, bare = "{:.12g},{:.12g},{:.12g}\n".format, "{:.12g},{:.12g},\n".format
    columns = (v[:kept].tolist() for v in (times, sups, energies, energy_ok))
    lines = (row(t, s, e) if ok else bare(t, s) for t, s, e, ok in zip(*columns))
    _write_csv(args.out, ["t", "sup_norm", "energy"], lines, args.quiet)
    tstar = f" t* = {_fmt(outcome.t_star)}" if outcome.t_star is not None else ""
    cut = ""
    if not energy_ok[:kept].all():
        first = float(times[np.argmin(energy_ok)])
        cut = f"energy overflowed at t = {_fmt(first)}, left empty where not finite; "
    if kept < len(finite):
        cut += f"sup norm overflowed at t = {_fmt(float(times[kept]))}, trace ends before it; "
    print(f"verdict: {outcome.verdict}{tstar} ({cut}{outcome.note})")
    return EXIT_OK


def _cmd_sweep(args, cfg: dict) -> int:
    spec = _sim_spec_from_args(args, cfg)
    p_list = _block(cfg, "p_list", _list_of(_number), [float(x) for x in args.p_list.split(",")])
    # a warning (data functional not positive) is a plain note, not a source line
    with warnings.catch_warnings(record=True) as notes:
        rows = [[r["p"], r["verdict"], r["t_star"]] for r in simulator.sweep_p(spec, p_list)]
    sys.stderr.writelines(f"note: {note.message}\n" for note in notes)
    _write_csv(args.out, ["p", "verdict", "t_star"], _csv_lines(rows), args.quiet)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.add_argument("--quiet", action="store_true")


def _add_damping(p: argparse.ArgumentParser) -> None:
    p.add_argument("--damping", choices=["constant", "powerlaw", "perturbed"])
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--kappa", type=float)
    p.add_argument("--perturbation", choices=["log", "sin"])
    p.add_argument("--perturbation-exponent", type=float)


def _add_point(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.0)


def _add_problem(p: argparse.ArgumentParser) -> None:
    _add_damping(p)
    _add_point(p)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--c-a", type=float, dest="c_a")
    p.add_argument("--c-f", type=float, dest="c_f")


def _add_sim(p: argparse.ArgumentParser) -> None:
    _add_problem(p)
    p.add_argument("--r-max", type=float, default=60.0, dest="r_max")
    p.add_argument("--J", type=int, default=1200)
    p.add_argument("--T-max", type=float, default=50.0, dest="T_max")
    p.add_argument("--cfl", type=float)
    p.add_argument("--threshold", type=float, dest="blowup_threshold")
    p.add_argument("--u0-amplitude", type=float)
    p.add_argument("--u0-width", type=float)
    p.add_argument("--u1-amplitude", type=float)
    p.add_argument("--u1-width", type=float)
    p.add_argument("--allow-boundary", action="store_const", const=True,
                   dest="allow_boundary_reflections")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, like its subparsers, that reads ``--kappa -1e-3`` as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blowuplab",
        description="critical exponents, boundedness scans and blow-up runs "
                    "for damped waves with time-dependent coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="damping admissibility diagnostics")
    _add_common(p)
    _add_damping(p)
    p.add_argument("--horizon", type=float, default=1e6)
    p.add_argument("--margin", type=float, default=auxcalc.DEFAULT_MARGIN)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("aux", help="dump the auxiliary-function table as CSV")
    _add_common(p)
    _add_damping(p)
    p.add_argument("--horizon", type=float, default=100.0)
    p.set_defaults(func=_cmd_aux)

    p = sub.add_parser("exponents", help="critical exponent catalog")
    _add_common(p)
    _add_point(p)
    p.set_defaults(func=_cmd_exponents)

    p = sub.add_parser("scan", help="boundedness scan of the scale functionals")
    _add_common(p)
    _add_problem(p)
    p.add_argument("--R", default="8,16,32,64,128,256",
                   help="comma-separated scale ladder")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("simulate", help="one radial finite-difference run")
    _add_common(p)
    _add_sim(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="lifespan sweep across powers p")
    _add_common(p)
    _add_sim(p)
    p.add_argument("--p-list", default="1.2,1.5,2.0", dest="p_list")
    p.set_defaults(func=_cmd_sweep)

    return parser


def dispatch(argv: Optional[list[str]] = None) -> int:
    """Parse and execute; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, _load_config(args.config))
    except (QuadratureNonconvergence, auxcalc.TailNonconvergence,
            simulator.CflViolation, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
