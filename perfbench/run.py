"""lobwave benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload profile --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports lobwave from its
``src`` directory.  One client in one thread runs the workload's ops
back to back for at least ``--seconds`` seconds, ending after a whole
cycle of the workload's cells (see workloads.py), then checks every
op's output outside the timed region and runs the workload's
known-defect probes, which are reported apart from the timed ops.  Each
op's CPU time is scaled by the host's speed at that moment, measured just
before and after it (see hostref.py).  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs the workload's first ops
twice, untraced and then under the layer-boundary tracer, and reports
per-layer metrics.  ``--workload all`` runs every workload in turn.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
run metadata.  See README.md for the metrics and what each one is for.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import hostref
from workloads import WORKLOADS, Record, cycles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 9
MIN_OPS = 24

# end-to-end metrics of a --trace 0 run, with units; see README.md
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s_norm", "1/s"),
    ("op_p50_ms_norm", "ms"),
    ("op_tail_ms_norm", "ms"),
    ("peak_rss_mb", "MB"),
)

# per-layer metrics of a --trace 1 run, with units; see README.md
LAYER_METRICS = (
    ("numerics.quad_adaptive.calls", "count"),
    ("numerics.quad_adaptive.self_s", "s"),
    ("numerics.quad_adaptive.integrand_evals", "count"),
    ("numerics.integrand_evals_per_quad", "evals/call"),
    ("specfun.quad_calls_per_point", "calls/point"),
    ("specfun.basis_G1.calls", "count"),
    ("specfun.basis_G1.self_s", "s"),
    ("specfun.recurrence_shift.calls", "count"),
    ("specfun.recurrence_shift.self_s", "s"),
    ("specfun.wronskian_IK.calls", "count"),
    ("specfun.wronskian_IK.self_s", "s"),
    ("specfun.log_gamma.calls", "count"),
    ("modes.eval_G.calls", "count"),
    ("modes.eval_G.self_s", "s"),
    ("modes.amplitudes_at.calls", "count"),
    ("modes.amplitudes_at.self_s", "s"),
    ("modes.maxwell_residual_firstorder.calls", "count"),
    ("modes.maxwell_residual_firstorder.self_s", "s"),
    ("modes.heun_form_residual.calls", "count"),
    ("modes.heun_form_residual.self_s", "s"),
    ("scattering.reflection.calls", "count"),
    ("scattering.reflection.self_s", "s"),
    ("scattering.amplitudes_analytic.calls", "count"),
    ("scattering.amplitudes_analytic.self_s", "s"),
    ("scattering.envelope_crossing.calls", "count"),
    ("scattering.envelope_crossing.self_s", "s"),
    ("scattering.reflection_numeric_oracle.calls", "count"),
    ("scattering.reflection_numeric_oracle.self_s", "s"),
    ("numerics.lsq_fit_two_waves.calls", "count"),
    ("numerics.lsq_fit_two_waves.self_s", "s"),
    ("numerics.integrate_linear_ode2.calls", "count"),
    ("numerics.integrate_linear_ode2.self_s", "s"),
    ("numerics.integrate_linear_ode2.rk_steps_accepted", "count"),
    ("numerics.integrate_linear_ode2.rk_steps_rejected", "count"),
    ("numerics.rk_steps_per_oracle", "steps/call"),
    ("numerics.us_per_rk_step", "us/step"),
    ("cli.main.self_s", "s"),
    ("geometry.to_embedding.calls", "count"),
    ("geometry.to_embedding.self_s", "s"),
    ("geometry.embedding_to_poincare.calls", "count"),
    ("geometry.embedding_to_poincare.self_s", "s"),
    ("geometry.poincare_to_quasi.calls", "count"),
    ("geometry.poincare_to_quasi.self_s", "s"),
    ("trace_overhead_frac", "ratio"),
)


def load_lobwave():
    """Import lobwave from this checkout's src/, and nowhere else."""
    if not (SRC / "lobwave" / "__init__.py").is_file():
        raise SystemExit(f"error: no lobwave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ("cli", "modes", "scattering", "specfun", "numerics", "geometry")
    lw = SimpleNamespace(**{n: importlib.import_module(f"lobwave.{n}") for n in names})
    if Path(lw.cli.__file__).resolve().parent != SRC / "lobwave":
        raise SystemExit(f"error: lobwave imported from {lw.cli.__file__}, not {SRC}")
    lw.ModeParams = lw.modes.ModeParams
    lw.BasisBranch = lw.specfun.BasisBranch
    return lw


def setup_seconds():
    """`import lobwave, lobwave.cli` in fresh interpreters: the median CPU
    time, each scaled by the host reference timed in the same child (see
    hostref.py), and the median raw wall time."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t, c = time.perf_counter(), time.thread_time(); "
            "import lobwave, lobwave.cli; "
            "c, t = time.thread_time() - c, time.perf_counter() - t; "
            "sys.path.insert(0, sys.argv[2]); import hostref; "
            "ref = sorted(hostref.seconds() for _ in range(3))[1]; "
            "print(t, c * hostref.NOMINAL_S / ref)")
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)], cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        t, c = (float(v) for v in out.stdout.split()[-2:])
        wall.append(t)
        scaled.append(c)
    return statistics.median(scaled), statistics.median(wall)


def run_op(workload, lw, x, path):
    err = None
    ret = None
    with contextlib.redirect_stderr(io.StringIO()) as sink:
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            ret = workload.call(lw, x, path)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            err = f"{type(exc).__name__}: {exc}"
        cpu, wall = time.thread_time() - c0, time.perf_counter() - t0
    if err is None and isinstance(ret, int) and ret != 0:  # CLI exit code
        err = f"exit {ret}: {sink.getvalue().strip()}"
    out = workload.read(x, path, ret) if err is None else None
    return Record(x, cpu, wall, out, err)


def run_ops(workload, lw, ops, path, tracer=None):
    records = []
    for i, x in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        records.append(run_op(workload, lw, x, path))
    return records


def workload_rng(seed, name):
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def first_ops(workload, seed, n):
    """The first whole cycles of the seed's op stream, at least n ops."""
    ops = []
    for cycle in cycles(workload, workload_rng(seed, workload.name)):
        if len(ops) >= n:
            return ops
        ops += cycle


def latency_summary(latencies):
    """ops_per_s, op_p50_ms and op_tail_ms of one list of op latencies."""
    tail_s, _, _ = tail(latencies)
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail_s}


def tail(latencies):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    k = len(ordered) - 10
    return ordered[k - 1], 100.0 * k / len(ordered), len(ordered)


def layer_metrics(tracer, wall_untraced, wall_traced):
    totals = tracer.totals()
    counters = tracer.counters

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    rk = counters["rk_steps_accepted"] + counters["rk_steps_rejected"]
    quad = "numerics.quad_adaptive"
    ode = "numerics.integrate_linear_ode2"
    oracle = "scattering.reflection_numeric_oracle"
    derived = {  # name -> (traced names it needs, value)
        f"{quad}.integrand_evals": ((quad,), counters["integrand_evals"]),
        "numerics.integrand_evals_per_quad": (
            (quad,), ratio(counters["integrand_evals"], calls(quad))),
        "specfun.quad_calls_per_point": (
            (quad, "modes.eval_G"), ratio(calls(quad), calls("modes.eval_G"))),
        f"{ode}.rk_steps_accepted": ((ode,), counters["rk_steps_accepted"]),
        f"{ode}.rk_steps_rejected": ((ode,), counters["rk_steps_rejected"]),
        "numerics.rk_steps_per_oracle": ((ode, oracle), ratio(rk, calls(oracle))),
        "numerics.us_per_rk_step": ((ode,), ratio(1e6 * self_s(ode), rk)),
        "trace_overhead_frac": ((), wall_traced / wall_untraced - 1.0),
    }
    metrics, absent = {}, []
    for name, unit in LAYER_METRICS:
        if name in derived:
            needs, value = derived[name]
        else:
            base, field = name.rsplit(".", 1)
            needs, value = (base,), calls(base) if field == "calls" else self_s(base)
        if any(n in tracer.absent for n in needs):
            absent.append(name)
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def metadata(seed):
    import mpmath

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "mpmath": mpmath.__version__, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "seed": seed}


def measure(workload, lw, seed, seconds, out_path):
    """Timed closed loop; returns the records and the end-to-end metrics."""
    stream = cycles(workload, workload_rng(seed, workload.name))
    setup, setup_wall = setup_seconds()
    records, refs = [], [hostref.seconds()]
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(records) < MIN_OPS:
        for x in next(stream):
            records.append(run_op(workload, lw, x, out_path))
            refs.append(hostref.seconds())
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each op's CPU time, scaled by the mean reference time on either side
    norm = [r.cpu_s * hostref.NOMINAL_S / (0.5 * (before + after))
            for r, before, after in zip(records, refs, refs[1:])]
    values = {f"{k}_norm": v for k, v in latency_summary(norm).items()}
    values.update(setup_s=setup, peak_rss_mb=peak_rss_mb)
    _, tail_pct, n = tail(norm)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return records, metrics, {"wall_s": wall,
                              "op_tail": {"percentile": tail_pct, "samples": n},
                              "raw": {**latency_summary([r.wall_s for r in records]),
                                      "setup_s": setup_wall},
                              "host_ref_ms_p50": 1e3 * statistics.median(refs)}


def trace(workload, lw, seed, out_path):
    """The first ops untraced, then traced; returns records and layer metrics."""
    from tracer import Tracer

    ops = first_ops(workload, seed, workload.trace_ops)
    t0 = time.perf_counter()
    run_ops(workload, lw, ops, out_path)
    wall_untraced = time.perf_counter() - t0
    with Tracer() as tracer:
        t0 = time.perf_counter()
        records = run_ops(workload, lw, ops, out_path, tracer)
        wall_traced = time.perf_counter() - t0
    metrics, absent = layer_metrics(tracer, wall_untraced, wall_traced)
    spans = WORK / f"spans-{workload.name}-seed{seed}.csv"
    tracer.write_spans(spans)
    return records, metrics, {"spans": os.path.relpath(spans, ROOT),
                              "spans_recorded": len(tracer.spans), "absent": absent}


def probe_known_defects(workload, lw, out_path):
    """Run and check each fixed known-defect op; none of it is timed."""
    found = []
    for cell, x in workload.probes:
        rec = run_op(workload, lw, x, out_path)
        verdict = workload.check(x, rec)
        found.append({"cell": cell, "fails": not verdict.ok, "detail": verdict.detail})
    return found


def run_all(args, names):
    """Each workload in its own interpreter, one after the other."""
    ok = True
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        ok = ok and done.returncode == 0 and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None):

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lw = load_lobwave()
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    out_path = str(WORK / f"op-{os.getpid()}.out")
    try:
        # warm-up op from its own stream, so the measured ops keep their inputs
        warm = first_ops(workload, args.seed + 1, 1)[0]
        run_op(workload, lw, warm, out_path)
        if args.trace:
            records, metrics, summary = trace(workload, lw, args.seed, out_path)
        else:
            records, metrics, summary = measure(workload, lw, args.seed,
                                                args.seconds, out_path)
        verdicts = [workload.check(r.inputs, r) for r in records]
        known_defects = probe_known_defects(workload, lw, out_path)
    finally:
        with contextlib.suppress(OSError):
            os.remove(out_path)

    failed = [(r, v) for r, v in zip(records, verdicts) if not v.ok]
    summary.update(workload=workload.name, op=workload.op_size,
                   fail_frac=len(failed) / len(records), known_defects=known_defects)
    for r, v in failed:
        print(f"FAILED {r.inputs}: {v.detail}", file=sys.stderr)
    for d in known_defects:
        state = "still fails" if d["fails"] else "now PASSES"
        print(f"known defect {d['cell']}: {state} {d['detail']}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{workload.name:10s} {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"meta": metadata(args.seed), "run": summary}))
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
