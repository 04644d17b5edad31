"""Command-line behavior: outputs, exit codes, determinism, round trips."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blowuplab import auxcalc, simulator
from blowuplab.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, _csv_lines, dispatch
from blowuplab.coeffs import DampingModel, Perturbation
from blowuplab.exponents import p_crit_damped


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_exponents_flat(capsys):
    code = dispatch(["exponents", "--n", "1", "--alpha", "0", "--gamma", "0",
                     "--delta", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "p_C = 3" in out and "p_min = 1" in out


def test_exponents_grid_config(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"grid": [
        {"n": 1}, {"n": 2}, {"n": 3, "alpha": 0.5},
    ]}))
    out_csv = tmp_path / "table.csv"
    code = dispatch(["exponents", "--config", str(cfg), "--out", str(out_csv),
                     "--quiet"])
    assert code == EXIT_OK
    rows = read_csv(out_csv)
    assert [row["p_crit"] for row in rows[:2]] == ["3", "2"]
    assert rows[2]["p_min"] == "2"


@pytest.mark.parametrize("argv", [
    ["check", "--mu", "1e300", "--horizon", "1e300"],
    ["check", "--damping", "powerlaw", "--kappa", "0.5", "--mu", "1e-300", "--horizon", "1e100"],
    # b' is subnormal from t = 6.7e153: liminf b'/b^2 read -1.94 at 1e162, and 0 (PASS) at 1e170
    ["check", "--damping", "powerlaw", "--kappa", "1", "--mu", "1", "--horizon", "1e162"],
    ["check", "--damping", "powerlaw", "--kappa", "1", "--mu", "1", "--horizon", "1e170"],
])
def test_check_where_b_leaves_the_range_is_a_numerical_failure(argv, capsys):
    """t*b overflows, or b underflows to 0, or b' is subnormal: exit 3 naming
    t, with no ratio printed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    assert "t =" in captured.err
    assert not re.search(r"\b(nan|inf)\b", captured.out)


def test_check_borderline_failure(capsys):
    code = dispatch(["check", "--damping", "powerlaw", "--mu", "0.5",
                     "--kappa", "1", "--horizon", "1000", "--quiet"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "FAIL" in out


def test_check_admissible(capsys):
    code = dispatch(["check", "--damping", "powerlaw", "--mu", "2",
                     "--kappa", "1", "--horizon", "1000", "--quiet"])
    assert code == EXIT_OK
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("argv, verdict", [
    (["check", "--mu", "1e-300"], "PASS"),
    (["check", "--mu", "1e300"], "PASS"),
    (["check", "--damping", "powerlaw", "--kappa", "1", "--mu", "1e-200"], "FAIL"),
])
def test_check_at_extreme_damping_scales(argv, verdict, capsys):
    """b**2 leaves the floating-point range where b'/b**2 does not: every
    ratio prints finite, with no numpy warning, and the verdict is the
    closed form's."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = dispatch(argv)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert not re.search(r"\b(nan|inf)\b", out)  # whole words: "liminf" is a row label
    assert f"verdict: {verdict}" in out
    assert f"closed-form admissibility: {verdict == 'PASS'}" in out


def test_aux_dump_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code = dispatch(["aux", "--damping", "powerlaw", "--mu", "1",
                         "--kappa", "0.5", "--horizon", "50", "--out", str(p),
                         "--quiet"])
        assert code == EXIT_OK
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_aux_dump_round_trip(tmp_path, capsys):
    out = tmp_path / "aux.csv"
    dispatch(["aux", "--horizon", "50", "--out", str(out), "--quiet"])
    capsys.readouterr()
    rows = read_csv(out)
    assert list(rows[0]) == ["t", "B", "beta", "Gamma", "g"]
    values = [[float(row[k]) for k in row] for row in rows]
    assert values[0][0] == 0.0 and values[0][2] == 1.0
    assert all(a[1] < b[1] for a, b in zip(values, values[1:]))  # B increasing


@pytest.mark.parametrize("argv, model, horizon, underflows", [
    (["--damping", "powerlaw", "--kappa", "0.5"], DampingModel.power_law(1.0, 0.5), 50.0, False),
    # beta = exp(-2t) is subnormal, then 0, past t = 354
    (["--mu", "2"], DampingModel.constant(2.0), 1e3, True),
])
def test_aux_dump_is_the_csv_lines_of_its_table(argv, model, horizon, underflows, tmp_path, capsys):
    """The columns, formatted a row at a time, give the bytes that _csv_lines
    gives for the table's rows, in rows where beta underflows to 0 too."""
    out = tmp_path / "aux.csv"
    code = dispatch(["aux", *argv, "--horizon", repr(horizon), "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    table = auxcalc.build_aux_table(model, horizon)
    assert (table.beta_vals == 0.0).any() == underflows
    rows = zip(table.grid, table.B_vals, table.beta_vals, table.Gamma_vals, table.g_vals)
    assert out.read_bytes() == ("t,B,beta,Gamma,g\n" + "".join(_csv_lines(rows))).encode()


@pytest.mark.parametrize("argv", [
    ["--damping", "constant", "--mu", "4.96e7", "--horizon", "776"],
    ["--damping", "perturbed", "--mu", "1.68e10", "--kappa", "-0.664", "--horizon", "395",
     "--perturbation", "sin"],
])
def test_aux_through_decay_layers_a_few_ulps_wide(argv, tmp_path, capsys):
    """Decay layers where the rounding of t floors a halved panel's error
    estimate above tol: these builds once split toward depth 48 and took
    169 s and over 6 minutes.  Each now ends, with every g finite and positive."""
    out = tmp_path / "aux.csv"
    assert dispatch(["aux", *argv, "--out", str(out), "--quiet"]) == EXIT_OK
    g = [float(row["g"]) for row in read_csv(out)]
    assert g and all(math.isfinite(x) and x > 0.0 for x in g)


def test_simulate_zero_amplitude(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = dispatch(["simulate", "--p", "1.5", "--T-max", "2", "--r-max", "10",
                     "--J", "64", "--out", str(out), "--quiet"])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    assert "survived" in printed
    rows = read_csv(out)
    assert list(rows[0]) == ["t", "sup_norm", "energy"]
    assert all(float(row["sup_norm"]) == 0.0 for row in rows)


def test_simulate_blowup_from_config(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "problem": {"n": 1, "alpha": 0.0, "gamma": 0.0, "delta": 0.0, "p": 1.5,
                    "damping": {"kind": "constant", "mu": 1.0}},
        "r_max": 60.0, "J": 600, "T_max": 50.0,
        "data": {"u1": {"amplitude": 5.0, "width": 1.0}},
    }))
    out = tmp_path / "trace.csv"
    code = dispatch(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    assert "blowup" in printed and "t*" in printed


def _finite_or_empty(rows):
    return all(value == "" or math.isfinite(float(value)) for row in rows for value in row.values())


def test_simulate_overflow_ends_the_trace(tmp_path, capsys):
    """An overflowing run ends its trace before the first overflowed sup
    norm, writes an energy that overflowed before it as an empty field, and
    its verdict names both times."""
    out = tmp_path / "trace.csv"
    code = dispatch(["simulate", "--u1-amplitude", "50", "--p", "3", "--threshold", "1e308",
                     "--J", "200", "--r-max", "30", "--T-max", "20", "--out", str(out),
                     "--quiet"])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    assert "blowup t* = 0.75" in printed
    assert "energy overflowed at t = 0.75" in printed and "sup norm overflowed at t = 0.825" in printed
    rows = read_csv(out)
    assert rows[-1]["t"] == "0.75" and rows[-1]["energy"] == ""
    assert rows[-2]["t"] == "0.675" and rows[-2]["energy"] != ""
    assert _finite_or_empty(rows)


def test_simulate_energy_overflow_alone_keeps_the_trace(tmp_path, capsys):
    """v0**2/2 overflows at t = 0 while the sup norm stays finite: every row
    with a finite sup norm is written, with an empty energy, and the verdict
    names the time t* that the trace reaches."""
    out = tmp_path / "trace.csv"
    code = dispatch(["simulate", "--u1-amplitude", "1e200", "--threshold", "1e308",
                     "--J", "64", "--r-max", "40", "--T-max", "1", "--out", str(out), "--quiet"])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    assert "blowup t* = 0.3125" in printed and "energy overflowed at t = 0," in printed
    rows = read_csv(out)
    assert [row["t"] for row in rows] == ["0", "0.3125"]
    assert all(row["energy"] == "" for row in rows) and float(rows[-1]["sup_norm"]) > 1e199
    assert _finite_or_empty(rows)


@pytest.mark.parametrize("cfg", [
    # 5001 rows, more than one batch of formatted rows
    {"problem": {"n": 2, "alpha": 0, "gamma": 0, "delta": 0, "p": 2}, "r_max": 8, "J": 200,
     "T_max": 100, "nonlinearity": 0, "allow_boundary_reflections": True,
     "data": {"u1": {"amplitude": 5}}},
    # v0**2/2 overflows at t = 0: every energy is an empty field
    {"problem": {"n": 1, "alpha": 0, "gamma": 0, "delta": 0, "p": 2}, "r_max": 40, "J": 64,
     "T_max": 1, "blowup_threshold": 1e308, "data": {"u1": {"amplitude": 1e200}}},
], ids=["decay", "energy-overflow"])
def test_simulate_csv_is_the_csv_lines_of_its_traces(cfg, tmp_path, capsys):
    """The trace CSV gives the bytes that _csv_lines gives for the run's (t, sup_norm,
    energy) rows before the first sup norm that is not finite, with an energy that is not
    finite as an empty field."""
    path, out = tmp_path / "sim.json", tmp_path / "sim.csv"
    path.write_text(json.dumps(cfg))
    assert dispatch(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
    trace = simulator.run(simulator.SimSpec.from_dict(cfg))
    columns = (trace.times, trace.sup_norms, trace.energies)
    rows = [(t, s, e if math.isfinite(e) else None)
            for t, s, e in zip(*(v.tolist() for v in columns)) if math.isfinite(s)]
    assert len(rows) > 4096 or (len(rows) > 1 and all(e is None for _, _, e in rows))
    assert out.read_bytes() == ("t,sup_norm,energy\n" + "".join(_csv_lines(rows))).encode()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_step_count_is_bounded(command, capsys):
    """c_a = 1e12 needs about 2e9 steps: rejected before any array is allocated."""
    code = dispatch([command, "--c-a", "1e12", "--u1-amplitude", "1", "--quiet"])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "dt = 2.5e-08" in err and "2e+09 steps" in err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_grid_size_is_bounded(command, capsys):
    """A grid of 2e6 cells is rejected, even for a horizon of one step."""
    code = dispatch([command, "--J", "2000000", "--T-max", "1e-9", "--quiet"])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "J = 2000000 is more than the limit of 1e+06 radial cells" in err


def test_sweep_csv(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "problem": {"n": 1, "alpha": 0.0, "gamma": 0.0, "delta": 0.0, "p": 1.5,
                    "damping": {"kind": "constant", "mu": 1.0}},
        "r_max": 60.0, "J": 400, "T_max": 50.0,
        "data": {"u1": {"amplitude": 5.0, "width": 1.0}},
        "p_list": [1.3, 1.7],
    }))
    out = tmp_path / "sweep.csv"
    code = dispatch(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"])
    capsys.readouterr()
    assert code == EXIT_OK
    rows = read_csv(out)
    assert [row["p"] for row in rows] == ["1.3", "1.7"]
    assert all(row["verdict"] == "blowup" for row in rows)


def test_scan_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = dispatch(["scan", "--n", "1", "--p", "3", "--R", "8,16,32,64",
                     "--out", str(out), "--quiet"])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    assert "bounded" in printed
    rows = read_csv(out)
    assert list(rows[0]) == ["alpha_tag", "R", "H", "G", "product",
                             "log_slope_fitted", "log_slope_predicted", "verdict"]
    tags = {row["alpha_tag"] for row in rows}
    assert tags == {"2e0", "e0", "2e_space"}


_BLOCK_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from blowuplab.cli import dispatch
print(json.dumps([dispatch(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    """The runtime needs numpy alone: all six subcommands exit 0 with scipy blocked."""
    sim = ["--J", "64", "--r-max", "10", "--T-max", "1", "--u1-amplitude", "5"]
    runs = [
        ["check", "--damping", "powerlaw", "--kappa", "0.5", "--horizon", "1e3"],
        ["aux", "--damping", "powerlaw", "--kappa", "-0.5", "--horizon", "10"],
        ["exponents", "--n", "2"],
        ["scan", "--p", "3", "--R", "8,16,32,64"],
        ["simulate", *sim],
        ["sweep", *sim, "--p-list", "1.5,3"],
    ]
    argvs = [[*argv, "--out", str(tmp_path / f"{argv[0]}.csv"), "--quiet"] for argv in runs]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _BLOCK_SCIPY, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [EXIT_OK] * 6, proc.stderr
    # check prints its report; the other five write their CSV
    assert all((tmp_path / f"{argv[0]}.csv").exists() for argv in runs[1:])


def test_validation_exit_code(capsys):
    code = dispatch(["exponents", "--n", "1", "--gamma", "-2"])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "gamma must exceed -1" in err


@pytest.mark.parametrize("config, flags, message", [
    ({"problem": {"n": 1, "alpha": 0.0, "gamma": 0.0, "delta": 0.0, "p": 1.5,
                  "damping": {"kind": "constant", "mu": 1.0}},
      "r_max": 10.0, "J": 64, "T_max": 1.0, "dt": 1.0, "allow_boundary_reflections": True},
     [], "stability"),
    # B(t)**gamma leaves the floating-point range at the horizon
    (None, ["--gamma", "400", "--u1-amplitude", "0.1", "--r-max", "20", "--J", "64",
            "--T-max", "5"], "the forcing factor is not finite at t = 5"),
], ids=["dt-above-cfl", "forcing-overflow"])
def test_numerical_exit_code(config, flags, message, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(config))
        flags = ["--config", str(cfg)]
    code = dispatch(["simulate", *flags, "--quiet"])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERICAL
    assert message in err


def test_linear_run_forms_no_forcing_factor(tmp_path, capsys):
    """A linear run (nonlinearity 0) takes a zero forcing factor and never forms
    B**gamma, so the overflow that ends the forcing-overflow case above does not
    end it."""
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"problem": {"n": 1, "alpha": 0, "gamma": 400, "delta": 0, "p": 1.5},
                               "r_max": 20, "J": 64, "T_max": 5, "nonlinearity": 0,
                               "data": {"u1": {"amplitude": 0.1}}}))
    code = dispatch(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim.csv"),
                     "--quiet"])
    assert code == EXIT_OK, capsys.readouterr().err
    assert "verdict: survived" in capsys.readouterr().out


@pytest.mark.parametrize("amplitude, code, message", [
    ("5", EXIT_OK, "verdict: blowup t* = 0.3125"),
    ("0", EXIT_NUMERICAL, "numerical failure: the forcing factor is not finite at t = 1208.44"),
], ids=["ends-before-it", "reaches-it"])
def test_forcing_overflow_past_the_first_chunk(amplitude, code, message, capsys):
    """B**100 overflows at t = 1208.44, in the second chunk of coefficients: a run that
    blows up at t* = 0.3125 never forms that chunk and exits 0, while with zero data
    the march reaches it and exits 3."""
    got = dispatch(["simulate", "--gamma", "100", "--u1-amplitude", amplitude, "--p", "3",
                    "--r-max", "20", "--J", "64", "--T-max", "1300", "--allow-boundary"])
    captured = capsys.readouterr()
    assert got == code
    assert message in captured.out + captured.err


def test_long_simulate_keeps_only_its_traces_per_step(tmp_path):
    """A 4e4-step run holds its three traces of 8 bytes a step (times, sup-norms and
    energies), a chunk of coefficients and its step buffers, and writes its CSV a chunk
    of rows at a time: its traced peak, less the traces, stays under 3.5 MB, where
    whole-run coefficients (64 bytes a step) and CSV columns as lists (about 104) reach
    4.5 MB."""
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"problem": {"n": 1, "alpha": 0, "gamma": 0, "delta": 0, "p": 3},
                               "r_max": 16, "J": 16, "T_max": 2e4, "nonlinearity": 0,
                               "allow_boundary_reflections": True,
                               "data": {"u0": {"amplitude": 1, "width": 2}}}))
    out = tmp_path / "sim.csv"
    tracemalloc.start()
    try:
        code = dispatch(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    steps = len(out.read_text().splitlines()) - 2
    assert code == EXIT_OK and steps == 40000
    assert peak - 24 * (steps + 1) < 3.5 * 2**20


@pytest.mark.parametrize("amplitude", ["1e-13", "1"])
def test_data_radius_is_relative_to_the_amplitude(amplitude, capsys):
    """The boundary-reach check takes the data's radius at 1e-14 of its peak,
    as the contamination verdict compares the edge with the running peak."""
    code = dispatch(["simulate", "--p", "3", "--u1-amplitude", amplitude, "--r-max", "5",
                     "--J", "64", "--T-max", "0.5", "--quiet"])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "needs r_max >= 6.56832" in err


@pytest.mark.parametrize("r_max, code", [(10, EXIT_VALIDATION), (40, EXIT_OK)])
def test_boundary_reach_with_a_decaying_speed(r_max, code, tmp_path, capsys):
    """For alpha != 0 the front is the integral of sqrt(a): a = (t + 1)^(-1/2) for b = 1, so
    the reach is (4/3)(21^(3/4) - 1) + sqrt(ln 1e14) + 5 dr at T = 20, width 1, dr = 0.05."""
    reach = 4.0 / 3.0 * (21.0**0.75 - 1.0) + math.sqrt(math.log(1e14)) + 5 * 0.05
    assert f"{reach:g}" == "17.6742"
    got = dispatch(["simulate", "--alpha", "0.5", "--u1-amplitude", "1", "--u1-width", "1",
                    "--r-max", str(r_max), "--J", str(20 * r_max), "--T-max", "20",
                    "--out", str(tmp_path / "reach.csv"), "--quiet"])
    err = capsys.readouterr().err
    assert got == code
    assert ("needs r_max >= 17.6742" in err) == (code == EXIT_VALIDATION)


def test_check_notes_drifting_tail_extrema(capsys):
    """Power-law damping at a short horizon still drifts between decades; b = 1 does not."""
    for kappa, drifting in (("0.5", True), ("0", False)):
        code = dispatch(["check", "--damping", "powerlaw", "--kappa", kappa, "--horizon", "100"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert ("note: tail extrema still drifting; verdict inconclusive" in out) == drifting


def test_written_path_is_printed_unless_quiet(tmp_path, capsys):
    out = tmp_path / "aux.csv"
    for quiet in ([], ["--quiet"]):
        assert dispatch(["aux", "--horizon", "10", "--out", str(out), *quiet]) == EXIT_OK
        assert (capsys.readouterr().out == f"wrote {out}\n") == (not quiet)


def test_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code = dispatch(["exponents", "--config", str(cfg)])
    capsys.readouterr()
    assert code == EXIT_VALIDATION


_SIM_CONFIG = {"problem": {"n": 1, "alpha": 0.0, "gamma": 0.0, "delta": 0.0, "p": 1.5,
                           "damping": {"kind": "constant", "mu": 1.0}},
               "r_max": 10.0, "J": 64, "T_max": 1.0}


def _run_config(command, config, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    return dispatch([command, "--config", str(cfg), "--out", str(out), "--quiet"]), out


@pytest.mark.parametrize("command, config, named", [
    ("exponents", None, "must hold a JSON object, got None"),
    ("scan", [1, 2], "must hold a JSON object, got [1, 2]"),
    ("aux", {"damping": "constant"}, "damping: expected a JSON object, got 'constant'"),
    ("simulate", {**_SIM_CONFIG, "problem": "x"}, "problem: expected a JSON object, got 'x'"),
    ("exponents", {"grid": 5}, "grid: expected a JSON list, got 5"),
    ("exponents", {"grid": [1]}, "grid: expected a JSON object, got 1"),
    ("sweep", {**_SIM_CONFIG, "p_list": 5}, "p_list: expected a JSON list, got 5"),
    ("scan", {"R_list": 5}, "R_list: expected a JSON list, got 5"),
    # int() and bool() would misread these as n = 2, J = 64 and True
    ("simulate", {**_SIM_CONFIG, "problem": {**_SIM_CONFIG["problem"], "n": 2.5}},
     "problem: n: 2.5 is not an integer"),
    ("simulate", {**_SIM_CONFIG, "J": 64.9}, "J: 64.9 is not an integer"),
    ("simulate", {**_SIM_CONFIG, "allow_boundary_reflections": "false"},
     "allow_boundary_reflections: 'false' is not true or false"),
    # float() would misread these as mu = 1, n = 1 and p = 3
    ("aux", {"damping": {"kind": "constant", "mu": True}},
     "damping: mu: could not convert True: expected a JSON number"),
    ("scan", {"spec": {"n": "1", "alpha": "0", "gamma": 0, "delta": 0, "p": "3"}},
     "spec: n: '1' is not an integer"),
    ("scan", {"spec": {"n": 1, "alpha": "0", "gamma": 0, "delta": 0, "p": 3}},
     "spec: alpha: could not convert '0': expected a JSON number"),
    ("scan", {"R_list": [8, "16", 32, 64]}, "R_list: could not convert '16'"),
    ("sweep", {**_SIM_CONFIG, "p_list": [1.5, True]}, "p_list: could not convert True"),
    ("exponents", {"grid": [{"n": 1, "delta": "0"}]}, "grid: delta: could not convert '0'"),
    ("simulate", {**_SIM_CONFIG, "J": "64"}, "J: '64' is not an integer"),
    ("simulate", {**_SIM_CONFIG, "T_max": "1"}, "T_max: could not convert '1'"),
    ("simulate", {**_SIM_CONFIG, "data": {"u1": {"amplitude": "5"}}},
     "data: u1: amplitude: could not convert '5'"),
    ("aux", {"damping": {"kind": "perturbed", "mu": 1, "kappa": 0.5,
                         "perturbation": {"kind": "log", "exponent": False}}},
     "damping: perturbation: exponent: could not convert False"),
    # an empty list is read as given, not as the flags' default ladder
    ("scan", {"R_list": []}, "need at least four scales R"),
])
def test_malformed_config_is_a_validation_error(command, config, named, tmp_path, capsys):
    code, out = _run_config(command, config, tmp_path)
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert named in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {**_SIM_CONFIG, "data": {"u0": {"amplitude": 0.5}}, "cfl": None},
    {**_SIM_CONFIG, "data": {"u0": {"amplitude": 0.5}, "u1": None}},
])
def test_null_config_keys_keep_their_defaults(config, tmp_path, capsys):
    """A null key runs as if it were absent."""
    (tmp_path / "absent").mkdir()
    absent = {**_SIM_CONFIG, "data": {"u0": {"amplitude": 0.5}}}
    code, expected = _run_config("simulate", absent, tmp_path / "absent")
    assert code == EXIT_OK
    code, out = _run_config("simulate", config, tmp_path)
    assert code == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    assert out.read_bytes() == expected.read_bytes()


def test_sweep_empty_p_list_writes_the_header_only(tmp_path, capsys):
    """``"p_list": []`` sweeps no power, as ``"grid": []`` tabulates no point."""
    code, out = _run_config("sweep", {**_SIM_CONFIG, "p_list": []}, tmp_path)
    capsys.readouterr()
    assert code == EXIT_OK
    assert out.read_text() == "p,verdict,t_star\n"


def test_sweep_on_zero_data_prints_a_plain_note(tmp_path, capsys):
    """The non-positive data functional is one stderr line, without a source location."""
    code, out = _run_config("sweep", {**_SIM_CONFIG, "p_list": [1.5]}, tmp_path)
    err = capsys.readouterr().err
    assert code == EXIT_OK
    assert err.startswith("note: data functional = 0 is not positive;")
    assert err.count("\n") == 1 and ".py:" not in err


_DAMPING_FLAGS = ["--damping", "perturbed", "--mu", "2", "--kappa", "0.5", "--perturbation", "log",
                  "--perturbation-exponent", "2"]
_DAMPING = {"kind": "perturbed", "mu": 2, "kappa": 0.5,
            "perturbation": {"kind": "log", "exponent": 2}}
_PROBLEM_FLAGS = [*_DAMPING_FLAGS, "--n", "2", "--alpha", "0.25", "--gamma", "0.5",
                  "--delta", "0.5", "--p", "3", "--c-a", "1.5", "--c-f", "2"]
_PROBLEM = {"n": 2, "alpha": 0.25, "gamma": 0.5, "delta": 0.5, "p": 3, "damping": _DAMPING,
            "c_a": 1.5, "c_f": 2}
_SIM_FLAGS = [*_PROBLEM_FLAGS, "--r-max", "20", "--J", "128", "--T-max", "2", "--cfl", "0.25",
              "--threshold", "100", "--u0-amplitude", "0.5", "--u0-width", "2",
              "--u1-amplitude", "20", "--u1-width", "0.5", "--allow-boundary"]
_SIM = {"problem": _PROBLEM, "r_max": 20, "J": 128, "T_max": 2, "cfl": 0.25,
        "blowup_threshold": 100, "allow_boundary_reflections": True,
        "data": {"u0": {"amplitude": 0.5, "width": 2}, "u1": {"amplitude": 20, "width": 0.5}}}


@pytest.mark.parametrize("command, both, flags, config", [
    ("aux", ["--horizon", "20"], _DAMPING_FLAGS, {"damping": _DAMPING}),
    ("scan", ["--R", "8,16,32,64"], _PROBLEM_FLAGS, {"spec": _PROBLEM}),
    ("simulate", [], _SIM_FLAGS, _SIM),
    ("sweep", ["--p-list", "1.5,3"], _SIM_FLAGS, _SIM),
    # every flag with a field default left out, and the same keys left out of the config
    ("aux", ["--horizon", "20"],
     ["--damping", "perturbed", "--kappa", "0.5", "--perturbation", "sin"],
     {"damping": {"kind": "perturbed", "mu": 1, "kappa": 0.5, "perturbation": {"kind": "sin"}}}),
    ("scan", ["--R", "8,16,32,64"], ["--p", "3", "--damping", "powerlaw", "--mu", "2"],
     {"spec": {"n": 1, "alpha": 0, "gamma": 0, "delta": 0, "p": 3,
               "damping": {"kind": "powerlaw", "mu": 2}}}),
    ("simulate", [], ["--p", "1.5", "--r-max", "10", "--J", "64", "--T-max", "1"],
     {"problem": {"n": 1, "alpha": 0, "gamma": 0, "delta": 0, "p": 1.5},
      "r_max": 10, "J": 64, "T_max": 1}),
    # a negative value in exponent notation is a value, not an option
    ("aux", ["--horizon", "50"], ["--damping", "powerlaw", "--kappa", "-1e-3"],
     {"damping": {"kind": "powerlaw", "mu": 1, "kappa": -1e-3}}),
    ("scan", ["--R", "8,16,32,64"], ["--alpha", "-2.7e-05"],
     {"spec": {"n": 1, "alpha": -2.7e-05, "gamma": 0, "delta": 0, "p": 2}}),
])
def test_flags_and_config_read_alike(command, both, flags, config, tmp_path, capsys):
    """A flag run and a config holding the same values write the same bytes."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outputs = []
    for argv in (flags, ["--config", str(cfg)]):
        assert dispatch([command, *both, *argv]) == EXIT_OK
        outputs.append(capsys.readouterr())
    assert outputs[0].err == outputs[1].err == ""
    assert outputs[0].out == outputs[1].out


def test_unknown_command(capsys):
    code = dispatch(["frobnicate"])
    capsys.readouterr()
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("flag", ["--u1-amplitude", "--threshold"])
def test_simulate_rejects_nan_input(flag, capsys):
    code = dispatch(["simulate", "--p", "1.5", "--T-max", "2", "--r-max", "10",
                     "--J", "64", flag, "nan", "--quiet"])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert "must be finite" in captured.err
    assert "verdict" not in captured.out


@pytest.mark.parametrize("argv, expected", [
    (["aux", "--mu", "nan"], EXIT_VALIDATION),
    (["aux", "--mu", "inf"], EXIT_VALIDATION),
    (["aux", "--horizon", "inf"], EXIT_VALIDATION),
    (["check", "--horizon", "inf"], EXIT_VALIDATION),
    (["scan", "--R", "8,16,32,inf"], EXIT_VALIDATION),
    (["scan", "--R", "8,16,32,nan"], EXIT_VALIDATION),
    (["aux", "--damping", "powerlaw", "--kappa", "-0.5", "--mu", "1e308",
      "--horizon", "100"], EXIT_NUMERICAL),
    (["exponents", "--delta", "nan"], EXIT_VALIDATION),
    (["exponents", "--gamma", "inf"], EXIT_VALIDATION),
    (["scan", "--delta", "nan"], EXIT_VALIDATION),
    (["scan", "--c-a", "nan"], EXIT_VALIDATION),
    (["scan", "--c-f", "nan"], EXIT_VALIDATION),
    (["simulate", "--c-a", "nan"], EXIT_VALIDATION),
    # finite, but horizon / t_min overflows
    (["aux", "--horizon", "1e308"], EXIT_VALIDATION),
    (["check", "--margin", "nan"], EXIT_VALIDATION),
    (["check", "--margin", "inf"], EXIT_VALIDATION),
])
def test_nonfinite_inputs_exit_cleanly(argv, expected, capsys):
    captured = _assert_clean_exit(argv, expected, capsys)
    assert "finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["aux", "--mu", "1e300"],
    ["aux", "--damping", "powerlaw", "--kappa", "-0.5", "--mu", "1e200"],
    ["aux", "--mu", "1e-300"],
    ["aux", "--damping", "powerlaw", "--kappa", "0.99", "--mu", "1e-300"],
    ["aux", "--mu", "1e-308"],
])
def test_extreme_damping_scale_is_a_numerical_failure(argv, capsys):
    """Exit 3 naming what left the floating-point range, with no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        captured = _assert_clean_exit(argv, EXIT_NUMERICAL, capsys)
    assert "numerical failure" in captured.err
    assert "(34," not in captured.err and "Numerical result out of range" not in captured.err


@pytest.mark.parametrize("argv", [
    ["scan", "--p", "1.01", "--mu", "1e-4"],    # g**p' overflows, g**(1-p') underflows
    ["scan", "--p", "2.5", "--c-a", "1e308"],
])
def test_scan_overflow_is_a_numerical_failure(argv, capsys):
    """Exit 3 naming the index and scale, with no CSV and no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        captured = _assert_clean_exit(argv, EXIT_NUMERICAL, capsys)
    assert "index" in captured.err and "R = " in captured.err
    assert "alpha_tag" not in captured.out


@pytest.mark.parametrize("margin", ["-3", "1"])
def test_check_rejects_margins_outside_the_unit_interval(margin, capsys):
    captured = _assert_clean_exit(["check", "--margin", margin], EXIT_VALIDATION, capsys)
    assert "must lie in [0, 1)" in captured.err
    assert "verdict" not in captured.out


def test_aux_rejects_horizons_below_one(capsys):
    captured = _assert_clean_exit(["aux", "--horizon", "0.5"], EXIT_VALIDATION, capsys)
    assert "horizon 0.5 is below 1" in captured.err


@pytest.mark.parametrize("horizon", ["1e16", "1e18"])
def test_far_horizon_tables_close_to_g_equal_one(horizon, tmp_path, capsys):
    """For b = 1 at horizons from 1e16 the rounding of t keeps halved pieces
    of the far cells from standing (the walk stopped at its depth limit
    there, exit 3).  Each such cell now closes in one step, g^ = 1 and
    q = 1 - E: exit 0, with g = 1 in every row."""
    out = tmp_path / "aux.csv"
    _assert_clean_exit(["aux", "--horizon", horizon, "--out", str(out)], EXIT_OK, capsys)
    rows = read_csv(out)
    assert float(rows[-1]["t"]) == float(horizon)
    assert all(float(row["g"]) == 1.0 for row in rows)


def test_walk_that_does_not_resolve_is_a_numerical_failure(capsys, monkeypatch):
    """b = (1 + t)^(-0.3): both orders of the closure refuse its cells near
    1e4 (rho near -5e-7, r2 near 5e-10), so they walk; with the panel limit
    cut to 8 a walk stops, and the table exits 3 with a message naming its
    cell."""
    monkeypatch.setattr(auxcalc, "_CELL_PANELS", 8)
    captured = _assert_clean_exit(["aux", "--damping", "powerlaw", "--kappa", "0.3",
                                   "--horizon", "1e4"], EXIT_NUMERICAL, capsys)
    assert re.search(r"exponential cell \[[^]]+\] did not resolve within 8 panels", captured.err)


@pytest.mark.parametrize("kappa", ["-0.6", "-0.9"])
def test_scans_of_fast_growing_damping_keep_their_slopes(kappa, tmp_path, capsys):
    """b = (1 + t)^0.6 and (1 + t)^0.9 need tables to 1.4e11 and 3.6e38, whose
    far cells halving cannot resolve (both scans exited 3).  The closure
    resolves them, and every fitted slope lies within 0.05 of its prediction."""
    out = tmp_path / "scan.csv"
    code = dispatch(["scan", "--n", "1", "--p", "2", "--damping", "powerlaw", "--mu", "1",
                     "--kappa", kappa, "--out", str(out), "--quiet"])
    assert code == EXIT_OK, capsys.readouterr().err
    rows = read_csv(out)
    assert {row["alpha_tag"] for row in rows} == {"2e0", "e0", "2e_space"}
    for row in rows:
        assert abs(float(row["log_slope_fitted"]) - float(row["log_slope_predicted"])) <= 0.05


# the admissible catalog: kappa in (-1, 1], 0 < |kappa| < 1 under a perturbation
_ADMISSIBLE_DAMPING = st.one_of(
    st.tuples(st.just("constant"), st.just(0.0), st.just(None)),
    st.tuples(st.just("powerlaw"), st.floats(-0.9, 0.95), st.just(None)),
    st.tuples(st.just("perturbed"), st.floats(-0.9, -0.05) | st.floats(0.05, 0.95),
              st.builds(Perturbation, st.just("log"), st.floats(-2.0, 2.0))
              | st.builds(Perturbation, st.just("sin"), st.floats(0.1, 1.0))),
)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(damping=_ADMISSIBLE_DAMPING, mu=st.floats(-1.0, 1.5).map(lambda e: 10.0**e),
       n=st.integers(1, 3), alpha=st.floats(-0.5, 0.5), gamma=st.floats(-0.5, 1.0),
       delta=st.floats(0.0, 1.0), p_ratio=st.floats(0.8, 1.2),
       horizon=st.floats(2.0, 7.0).map(lambda e: 10.0**e))
def test_admissible_problems_tabulate_and_scan(damping, mu, n, alpha, gamma, delta, p_ratio,
                                                horizon):
    """Any admissible damping law, with kappa down to -0.9 and log or sin
    perturbations, and any problem with alpha up to 0.5 and p on either side
    of p_crit: ``aux`` and ``scan`` exit 0, and the table's g agrees to 1e-8
    with the one whose cells all walk, the closure refused everywhere."""
    kind, kappa, perturbation = damping
    args = ["--damping", kind, f"--mu={mu!r}", f"--kappa={kappa!r}"]
    if perturbation is not None:
        args += ["--perturbation", perturbation.kind,
                 f"--perturbation-exponent={perturbation.exponent!r}"]
    report = p_crit_damped(n, alpha, gamma, delta)
    p = max(report.p_min + 0.1, p_ratio * report.p_crit)
    with tempfile.TemporaryDirectory() as tmp:
        for argv in (["aux", f"--horizon={horizon!r}"],
                     ["scan", "--n", str(n), f"--alpha={alpha!r}", f"--gamma={gamma!r}",
                      f"--delta={delta!r}", f"--p={p!r}"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = dispatch(argv + args + ["--out", f"{tmp}/out.csv", "--quiet"])
            assert code == EXIT_OK, argv + args
    model = DampingModel(kind, mu, kappa, perturbation)
    table = auxcalc.build_aux_table(model, horizon)
    refuse = lambda model, t0, t1, E, gap, tol: (np.zeros(t0.size, bool), t0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(auxcalc, "_closure", refuse)
        walked = auxcalc.build_aux_table(model, horizon)
    assert np.max(np.abs(table.g_vals / walked.g_vals - 1.0)) <= 1e-8


def _assert_clean_exit(argv, expected, capsys):
    """Exit code within 5 s, no traceback, and no nan or inf written."""
    start = time.perf_counter()
    code = dispatch(argv + ["--quiet"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == expected
    assert elapsed < 5.0
    assert "Traceback" not in captured.err
    assert "nan" not in captured.out and "inf" not in captured.out
    return captured


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    damping=st.sampled_from(["constant", "powerlaw", "perturbed"]),
    perturbation=st.sampled_from([[], ["--perturbation", "log"], ["--perturbation", "sin"]]),
    mu=st.floats(-308.0, 308.0).map(lambda e: 10.0**e),
    kappa=st.floats(-1.2, 1.2),
    horizon=st.floats(0.0, 1e3),
)
def test_aux_arguments_end_cleanly(damping, perturbation, mu, kappa, horizon):
    """Any damping law, scale, exponent and horizon: exit 0, 2 or 3 within 5 s,
    no traceback, and no nan or inf in the table."""
    argv = ["aux", "--damping", damping, "--mu", repr(mu), "--kappa", repr(kappa),
            "--horizon", repr(horizon)] + perturbation
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    elapsed = time.perf_counter() - start
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL), argv
    assert elapsed < 5.0, argv
    assert "Traceback" not in err.getvalue(), argv
    assert "nan" not in out.getvalue() and "inf" not in out.getvalue(), argv


_DAMPING_ARGS = [
    ["--damping", "constant"],
    ["--damping", "powerlaw", "--kappa", "0.5"],
    ["--damping", "powerlaw", "--kappa", "-0.5", "--mu", "3"],
    ["--damping", "perturbed", "--kappa", "0.5", "--perturbation", "log"],
]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["simulate", "sweep"]),
    n=st.integers(1, 3),
    powers=st.lists(st.floats(1.05, 6.0), min_size=1, max_size=3),
    damping=st.sampled_from(_DAMPING_ARGS),
    u0=st.floats(-1e3, 1e3),
    u1=st.floats(-1e3, 1e3),
    threshold=st.floats(0.0, 308.0).map(lambda e: 10.0**e),
    J=st.integers(16, 400),
    T_max=st.floats(0.01, 20.0),
    c_a=st.floats(0.1, 4.0),
)
@example(command="simulate", n=1, powers=[2.0], damping=_DAMPING_ARGS[0], u0=0.0, u1=1.0,
         threshold=1e6, J=400, T_max=20.0, c_a=1e12)
@example(command="simulate", n=1, powers=[3.0], damping=_DAMPING_ARGS[0], u0=0.0, u1=50.0,
         threshold=1e308, J=200, T_max=20.0, c_a=1.0)
def test_solver_arguments_end_cleanly(command, n, powers, damping, u0, u1, threshold, J,
                                      T_max, c_a):
    """Any dimension, powers, damping, data, threshold, grid and horizon: exit 0, 2
    or 3 within 5 s, no traceback, and no nan or inf in the CSV."""
    if command == "simulate":
        argv = ["simulate", "--p", repr(powers[0])]
    else:
        argv = ["sweep", "--p-list", ",".join(repr(p) for p in powers)]
    argv += damping + ["--n", str(n), "--u0-amplitude", repr(u0), "--u1-amplitude", repr(u1),
                       "--threshold", repr(threshold), "--J", str(J), "--T-max", repr(T_max),
                       "--c-a", repr(c_a)]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = dispatch(argv)
    elapsed = time.perf_counter() - start
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL), argv
    assert elapsed < 5.0, argv
    assert "Traceback" not in err.getvalue(), argv
    assert "nan" not in out.getvalue() and "inf" not in out.getvalue(), argv


def _real(lo, hi, special=()):
    """Floats in [lo, hi] as command-line text, and the ``special`` values."""
    return st.one_of(st.floats(lo, hi), st.sampled_from(special) if special else st.nothing()).map(repr)


def _damping(decades):
    """Damping arguments with scales mu in [1e-decades, 1e+decades]."""
    return st.tuples(
        st.sampled_from(["constant", "powerlaw", "perturbed"]),
        st.floats(-decades, decades).map(lambda e: repr(10.0**e)),
        _real(-1.2, 1.2),
        st.sampled_from([[], ["--perturbation", "log"], ["--perturbation", "sin"]]),
    ).map(lambda d: ["--damping", d[0], "--mu", d[1], "--kappa", d[2]] + d[3])


_DAMPING = _damping(6.0)

_SCAN = st.tuples(
    st.integers(0, 4), _real(1.0, 8.0), _real(-1.0, 1.0), _real(-1.0, 1.0), _real(-1.0, 1.0),
    st.lists(st.floats(1.5, 400.0), min_size=4, max_size=6, unique=True), _DAMPING,
).map(lambda a: ["scan", "--n", str(a[0]), "--p", a[1], "--alpha", a[2], "--gamma", a[3],
                 "--delta", a[4], "--R", ",".join(repr(R) for R in sorted(a[5]))] + a[6])

_EXPONENTS = st.tuples(
    st.integers(-1, 5), *(_real(-2.0, 2.0, (math.nan, math.inf, -math.inf)) for _ in range(3)),
).map(lambda a: ["exponents", "--n", str(a[0]), "--alpha", a[1], "--gamma", a[2], "--delta", a[3]])

# check only samples b and b', so its scales reach far past the tables'
_CHECK = st.tuples(st.floats(1.0, 308.0).map(lambda e: repr(10.0**e)), _real(-0.5, 1.5),
                   _damping(300.0)).map(
    lambda a: ["check", "--horizon", a[0], "--margin", a[1]] + a[2])


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(argv=st.one_of(_SCAN, _EXPONENTS, _CHECK))
# a ladder whose table horizon lies past the floating-point range
@example(argv=["scan", "--n", "3", "--p", "7.64", "--alpha", "0.83", "--gamma", "0.19",
               "--delta", "0.15", "--R", "78.5,135.9,205.9,331.0", "--damping", "powerlaw",
               "--mu", "1.77e-06", "--kappa", "-0.9486", "--perturbation", "sin"])
# g**p' overflows at p' = 101 while g**(1-p') underflows
@example(argv=["scan", "--p", "1.01", "--mu", "1e-4"])
# b**2 underflows (0/0), overflows, and underflows under b' != 0 (-inf)
@example(argv=["check", "--mu", "1e-300"])
@example(argv=["check", "--mu", "1e300"])
@example(argv=["check", "--damping", "powerlaw", "--kappa", "1", "--mu", "1e-200"])
# at far horizons t*b overflows, or b underflows to 0
@example(argv=["check", "--mu", "1e300", "--horizon", "1e300"])
@example(argv=["check", "--damping", "powerlaw", "--kappa", "0.5", "--mu", "1e-300",
               "--horizon", "1e100"])
# and b' is subnormal
@example(argv=["check", "--damping", "powerlaw", "--kappa", "1", "--mu", "1", "--horizon", "1e162"])
@example(argv=["check", "--damping", "powerlaw", "--kappa", "1", "--mu", "1", "--horizon", "1e170"])
# p_crit overflows
@example(argv=["exponents", "--n", "1", "--gamma", "1e308"])
def test_analysis_arguments_end_cleanly(argv):
    """Any scan, exponents or check arguments: exit 0, 2 or 3 within 5 s, no
    traceback, and no nan or inf in the CSV."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/out.csv"
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(argv + ["--out", path, "--quiet"])
        elapsed = time.perf_counter() - start
        written = Path(path).read_text() if os.path.exists(path) else ""
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL), argv
    assert elapsed < 5.0, argv
    assert "Traceback" not in err.getvalue(), argv
    assert "nan" not in written and "inf" not in written, argv


# the config keys of the README, and the fields of their blocks
_CONFIG_KEYS = ["damping", "spec", "grid", "R_list", "p_list", "problem", "r_max", "J", "T_max",
                "cfl", "dt", "blowup_threshold", "nonlinearity", "allow_boundary_reflections",
                "data"]
_BLOCK_KEYS = ["kind", "mu", "kappa", "perturbation", "exponent", "n", "alpha", "gamma",
               "delta", "p", "c_a", "c_f", "damping", "u0", "u1", "amplitude", "width"]
# any JSON value: numbers out to +-1e308, bools, strings (the damping kinds among
# them), null, and lists and objects of those, nested, the objects keyed by block fields
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10, 2000), st.floats(-1e308, 1e308),
              st.sampled_from(["constant", "powerlaw", "perturbed", "log", "sin"]),
              st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(_BLOCK_KEYS), inner, max_size=6)),
    max_leaves=12)


@pytest.mark.parametrize("command", ["aux", "check", "exponents", "scan", "simulate", "sweep"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(config=st.fixed_dictionaries({}, optional={key: _JSON for key in _CONFIG_KEYS}))
# a grid of 1e12 cells that takes one step: exit 2 before any array is allocated
@example(config={"problem": {"n": 1, "alpha": 0, "gamma": 0, "delta": 0, "p": 2}, "r_max": 10,
                 "J": 1e12, "T_max": 1e-300, "allow_boundary_reflections": True})
def test_any_config_ends_cleanly(command, config):
    """Any JSON value under any README config key: exit 0, 2 or 3 within 5 s, no
    traceback, and no nan or inf in the CSV."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path, cfg = Path(tmp, "out.csv"), Path(tmp, "config.json")
        cfg.write_text(json.dumps(config))
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = dispatch([command, "--config", str(cfg), "--out", str(path), "--quiet"])
        elapsed = time.perf_counter() - start
        written = path.read_text() if path.exists() else ""
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL), config
    assert elapsed < 5.0, config
    assert "Traceback" not in err.getvalue(), config
    assert "nan" not in written and "inf" not in written, config
