"""Benchmark of the blowuplab CLI: seeded workloads, output gates, traced layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan --seed 1 --seconds 45 --trace 0

The program is imported from ``src/`` of the checkout and driven in-process
through ``blowuplab.cli.dispatch(argv)`` (plus one public library call), as
a closed loop with one client: each op starts when the previous one ends.
One pass runs the workload's whole op list and checks every output; passes
repeat until their summed time reaches ``--seconds``.

Every reported time is in reference-host seconds: a fixed calibration
kernel runs before and after each op (and each set-up probe), and the op's
time is scaled by ``REF_KERNEL_S`` over the kernel's mean time around it.
On a shared host whose speed drifts by tens of percent over minutes, this
cancels the drift that the kernel and the program feel alike; the raw
times are printed and reported per layer as well.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over five
fresh processes, run between the first passes, of start-up,
``blowuplab.cli`` import and input generation),
``wall_s`` (median pass time, gates included) and ``peak_rss_mb``.
``--trace 1`` alternates untraced passes with traced ones and prints the
per-layer metrics: self times and work counts of each module, read from
span wrappers installed around its public functions (see ``tracer.py``),
per-subcommand times of the untraced passes, the tracing overhead, and the
raw pass time and kernel time behind the scaling.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2 without
a result means the program's sources were not found.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5
COMMANDS = ("scan", "aux", "sweep", "simulate")
# median calibration-kernel time on a 2-core x86 host (Python 3.11, numpy 2.4)
REF_KERNEL_S = 0.018


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "solve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="internal: import and generate inputs, then exit")
    return parser.parse_args(argv)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _prepare_environment() -> None:
    # sweeps stay serial, and BLAS may not use more threads than there are cores
    os.environ.pop("BLOWUPLAB_THREADS", None)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(_nproc()))
    sys.path.insert(0, str(SRC))


def _import_cli():
    from blowuplab import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"blowuplab was imported from {cli.__file__}, not from {SRC}")
    return cli


def _probe_setup(args) -> int:
    _import_cli()
    workdir = WORK_DIR / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.build(args.workload, workdir, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _probe_once(args) -> tuple:
    """Wall time of one fresh process that imports the program and builds the inputs.

    Returns (reference-host seconds, seconds as measured).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    before = kernel_time()
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return elapsed * _scale(before, kernel_time()), elapsed


def _kernel() -> float:
    """Fixed work like the program's: interpreted float loops and small numpy array ops."""
    import numpy as np

    s = 0.0
    for i in range(150_000):
        s += i * 0.5
    a = np.linspace(0.0, 1.0, 2000)
    for _ in range(300):
        a = np.sqrt(a * a + 1.0) - 0.5 * a
    return s + float(a[0])


def kernel_time() -> float:
    """The faster of two kernel runs, so that one preemption does not skew an op's scale."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def _scale(before: float, after: float) -> float:
    """Factor from seconds as measured to seconds on a host where the kernel takes ``REF_KERNEL_S``."""
    return REF_KERNEL_S / (0.5 * (before + after))


def _environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": _nproc(),
        "git_sha": sha,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


@dataclass
class Pass:
    """Outcome of running a workload's op list once.

    ``wall`` and ``command_s`` are in reference-host seconds, ``raw_wall`` is
    as measured; none of them includes the calibration kernel.
    """

    wall: float = 0.0
    raw_wall: float = 0.0
    elapsed: float = 0.0                                  # with the kernel runs
    kernel: list = field(default_factory=list)            # kernel seconds around the ops
    command_s: Counter = field(default_factory=Counter)   # subcommand -> seconds
    csv_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    gates: list = field(default_factory=list)             # (op, gate, ok, margin)


def run_pass(cli, ops, tracer=None) -> Pass:
    result = Pass()
    # an output left by an earlier pass must not satisfy this pass's gates
    for op in ops:
        if op.out is not None:
            op.out.unlink(missing_ok=True)
    start = time.perf_counter()
    result.kernel.append(kernel_time())
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        buf = io.StringIO()
        op_start = time.perf_counter()
        op_s = None   # the call alone, without its gates
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                if op.argv is not None:
                    # looked up at call time so a traced pass sees the patched function
                    rc, value = cli.dispatch(op.argv), None
                else:
                    rc, value = 0, op.call()
            op_s = time.perf_counter() - op_start
            if rc != 0:
                gates = [("exit", False, f"rc={rc}")]
            else:
                gates = op.gate(workloads.OpResult(rc, buf.getvalue(), value), op)
        except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
            gates = [("exception", False, repr(exc))]
        raw = time.perf_counter() - op_start   # the op and its gates
        op_s = raw if op_s is None else op_s
        result.kernel.append(kernel_time())
        scale = _scale(result.kernel[-2], result.kernel[-1])
        result.command_s[op.command] += op_s * scale
        result.raw_wall += raw
        result.wall += raw * scale
        if op.out is not None and op.out.exists():
            result.csv_bytes += op.out.stat().st_size
        result.attempted += 1
        result.failed += not all(ok for _, ok, _ in gates)
        result.gates.extend((op.name, name, ok, margin) for name, ok, margin in gates)
    result.elapsed = time.perf_counter() - start
    return result


def _report_gates(p: Pass, first: bool) -> None:
    for op, name, ok, margin in p.gates:
        if first or not ok:
            print(f"gate {op} {name}: {'ok' if ok else 'FAIL'} margin {margin}")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _layer_metrics(tracer, missing: list, traced: list, untraced: list) -> dict:
    """Per-layer metrics: counts of the first traced pass, medians of pass times."""
    calls = tracer.layer_calls()
    counts = tracer.counts
    self_s = {k: _median([t["self"][k] for t in traced]) for k in tracing.SELF_TIME}
    errors = {metric: sum(tracer.errors[layer] for layer in layers)
              for metric, layers in tracing.ERRORS.items()}
    integrals = calls["quadrature.integrate"]
    panels = calls["quadrature.panel"]
    b_calls = calls["coeffs.b"]
    cell_steps = counts["simulator.cell_steps"]
    run_self = self_s["simulator.run"]
    s, n, r = "s", "count", "ratio"
    metrics = {
        "cli.self_s": (self_s["cli"], s),
        "cli.csv_bytes": (traced[0]["csv_bytes"], "bytes"),
        **{f"cmd.{c}_s": (_median([u.command_s[c] for u in untraced]), s) for c in COMMANDS},
        "auxcalc.build.calls": (calls["auxcalc.build"], n),
        "auxcalc.build.cells": (counts["auxcalc.build.cells"], n),
        "auxcalc.build.self_s": (self_s["auxcalc.build"], s),
        "auxcalc.lookup.calls": (counts["auxcalc.lookup.calls"], n),
        "auxcalc.lookup.points": (counts["auxcalc.lookup.points"], n),
        "auxcalc.lookup.self_s": (self_s["auxcalc.lookup"], s),
        "auxcalc.invert.calls": (calls["auxcalc.invert"], n),
        "auxcalc.invert.self_s": (self_s["auxcalc.invert"], s),
        "auxcalc.check.self_s": (self_s["auxcalc.check"], s),
        "auxcalc.errors": (errors["auxcalc.errors"], n),
        "quadrature.integrals": (integrals, n),
        "quadrature.panels": (panels, n),
        "quadrature.panels_per_integral": (panels / integrals if integrals else 0.0, r),
        "quadrature.self_s": (self_s["quadrature"], s),
        "quadrature.errors": (errors["quadrature.errors"], n),
        "coeffs.b.calls": (b_calls, n),
        "coeffs.b.points": (counts["coeffs.b.points"], n),
        "coeffs.b.points_per_call": (counts["coeffs.b.points"] / b_calls if b_calls else 0.0, r),
        "coeffs.self_s": (self_s["coeffs"], s),
        "testfn.F0.calls": (calls["testfn.F0"], n),
        "testfn.F0.self_s": (self_s["testfn.F0"], s),
        "functional.G_alpha.calls": (calls["functional.G_alpha"], n),
        "functional.G_alpha.self_s": (self_s["functional.G_alpha"], s),
        "functional.scan.self_s": (self_s["functional.scan"], s),
        "functional.data.self_s": (self_s["functional.data"], s),
        "exponents.self_s": (self_s["exponents"], s),
        "simulator.run.calls": (calls["simulator.run"], n),
        "simulator.run.self_s": (run_self, s),
        "simulator.steps": (counts["simulator.steps"], n),
        "simulator.cell_steps": (cell_steps, n),
        "simulator.cell_steps_per_s": (cell_steps / run_self if run_self else 0.0, "1/s"),
        "simulator.sweep.self_s": (self_s["simulator.sweep"], s),
        "simulator.verify.self_s": (self_s["simulator.verify"], s),
        "simulator.rows_blowup": (counts["simulator.rows_blowup"], n),
        "simulator.rows_survived": (counts["simulator.rows_survived"], n),
        "simulator.rows_contaminated": (counts["simulator.rows_contaminated"], n),
        "simulator.errors": (errors["simulator.errors"], n),
        "trace.overhead_s": (_median([t["wall"] for t in traced])
                             - _median([u.wall for u in untraced]), s),
        "host.wall_raw_s": (_median([u.raw_wall for u in untraced]), s),
        "host.kernel_s": (_median([k for u in untraced for k in u.kernel]), s),
        "trace.spans": (len(tracer.spans), n),
        "trace.missing_targets": (len(missing), n),
    }
    return metrics


def _fingerprint(tracer, p: Pass) -> dict:
    """Work counts that must repeat exactly for the same seed."""
    out = {f"calls.{k}": v for k, v in tracer.layer_calls().items()}
    out.update({f"count.{k}": v for k, v in tracer.counts.items()})
    out["csv_bytes"] = p.csv_bytes
    return out


def measure(args, cli, ops) -> tuple:
    """Run passes until their summed time reaches ``args.seconds``.

    Returns (metrics, attempted, failed).
    """
    untraced: list = []
    traced: list = []
    first_tracer = missing = None
    attempted = failed = 0
    measured = 0.0
    setup_samples: list = []
    while True:
        # set-up probes run between the first passes, so they see the same host
        if args.trace == 0 and len(setup_samples) < SETUP_PROBES:
            setup_samples.append(_probe_once(args))
        # trace runs alternate traced and untraced passes, starting traced
        if args.trace == 1 and len(traced) <= len(untraced):
            tr = tracing.Tracer()
            missing = tr.install()
            try:
                p = run_pass(cli, ops, tr)
            finally:
                tr.uninstall()
            first_tracer = first_tracer or tr   # spans of later passes are dropped
            scale = p.wall / p.raw_wall
            traced.append({"wall": p.wall,
                           "self": {k: v * scale for k, v in tr.self_times().items()},
                           "fingerprint": _fingerprint(tr, p), "csv_bytes": p.csv_bytes})
        else:
            p = run_pass(cli, ops)
            untraced.append(p)
        _report_gates(p, first=attempted == 0)
        attempted += p.attempted
        failed += p.failed
        measured += p.elapsed
        enough = args.trace == 0 or (len(traced) >= 2 and untraced)
        if enough and measured >= args.seconds:
            break

    print("pass walls (reference s): " + ", ".join(f"{u.wall:.3f}" for u in untraced))
    print("pass walls (raw s): " + ", ".join(f"{u.raw_wall:.3f}" for u in untraced))
    if args.trace == 0:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup_samples) < SETUP_PROBES:
            setup_samples.append(_probe_once(args))
        print("setup samples (reference s, raw s): "
              + ", ".join(f"{r:.3f}/{m:.3f}" for r, m in setup_samples))
        return {"wall_s": (_median([u.wall for u in untraced]), "s"),
                "peak_rss_mb": (rss_mb, "MB"),
                "setup_s": (_median([r for r, _ in setup_samples]), "s")}, attempted, failed

    # the same seed must give the same work, counted twice
    attempted += 1
    mismatched = sorted(k for k in set(traced[0]["fingerprint"]) | set(traced[1]["fingerprint"])
                        if traced[0]["fingerprint"].get(k) != traced[1]["fingerprint"].get(k))
    if mismatched:
        failed += 1
        print(f"determinism: FAIL, counts differ between traced passes: {mismatched}")
    else:
        print(f"determinism: ok, {len(traced[0]['fingerprint'])} counts repeat exactly")
    if missing:
        print(f"trace: targets not found, reported as zero: {missing}")
    WORK_DIR.mkdir(exist_ok=True)
    spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    first_tracer.write(spans_path)
    print(f"trace: {len(first_tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return (_layer_metrics(first_tracer, missing, traced, untraced),
            attempted, failed)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "blowuplab" / "cli.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    _prepare_environment()
    if args.probe_setup:
        return _probe_setup(args)

    cli = _import_cli()
    print("environment " + json.dumps(_environment(args), sort_keys=True))
    workdir = WORK_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, workdir, args.seed)
        metrics, attempted, failed = measure(args, cli, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace == 1:
        metrics["fail_frac"] = (failed / attempted, "ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
