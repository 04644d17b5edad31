"""Command-line behavior: outputs, exit codes, determinism, round trips."""

import contextlib
import csv
import io
import json
import time
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from blowuplab.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, dispatch


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


def test_validation_exit_code(capsys):
    code = dispatch(["exponents", "--n", "1", "--gamma", "-2"])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "gamma must exceed -1" in err


def test_numerical_exit_code(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "problem": {"n": 1, "alpha": 0.0, "gamma": 0.0, "delta": 0.0, "p": 1.5,
                    "damping": {"kind": "constant", "mu": 1.0}},
        "r_max": 10.0, "J": 64, "T_max": 1.0, "dt": 1.0,
        "allow_boundary_reflections": True,
    }))
    code = dispatch(["simulate", "--config", str(cfg), "--quiet"])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERICAL
    assert "stability" in err


def test_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code = dispatch(["exponents", "--config", str(cfg)])
    capsys.readouterr()
    assert code == EXIT_VALIDATION


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
