"""Tests of the benchmark itself: determinism, failure accounting, tracing.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import statistics

import pytest

import hostref
import run
import tracer as tracer_mod
from workloads import WORKLOADS

lw = run.load_lobwave()

# one cheap op of each workload; together they reach every traced layer
CHEAP_OPS = [
    ("profile", {"branch": "hankel1", "omega": 2.0, "kappa": 1.0, "zmin": -4.0,
                 "zmax": 3.0, "x_top": math.exp(3.0), "rows": [0, 200]}),
    ("reflect", {"branch": "hankel1", "omega": 5.0, "kappa": 1.0}),
    ("oracle", {"variant": "decaying", "omega": 0.3, "kappa": 1.0}),
    ("residuals", {"omega": 4.0, "a": 1.0, "b": 0.5, "wronskian_X": [1.0, 7.0],
                   "points": [(0.5, -1.0, 2.0)]}),
]


def counts(metrics):
    """The per-layer values that are counts, not times."""
    return {k: v["value"] for k, v in metrics.items() if v["unit"] not in ("s", "us/step")
            and k != "trace_overhead_frac"}


@pytest.mark.parametrize("name", ["reflect", "residuals"])
def test_traced_runs_on_one_seed_repeat_counts_exactly(name, monkeypatch, tmp_path):
    w = WORKLOADS[name]
    monkeypatch.setattr(w, "trace_ops", 2)
    monkeypatch.setattr(run, "WORK", tmp_path)
    _, first, info = run.trace(w, lw, 5, str(tmp_path / "out"))
    _, second, _ = run.trace(w, lw, 5, str(tmp_path / "out"))
    assert info["absent"] == []
    assert counts(first) == counts(second)
    assert first["scattering.reflection.calls" if name == "reflect"
                 else "scattering.envelope_crossing.calls"]["value"] > 0


def test_every_traced_layer_is_reached(tmp_path):
    with tracer_mod.Tracer() as t:
        for i, (name, x) in enumerate(CHEAP_OPS):
            t.op = i
            rec = run.run_op(WORKLOADS[name], lw, x, str(tmp_path / "out"))
            assert rec.error is None, rec.error
    metrics, absent = run.layer_metrics(t, 1.0, 1.0)
    assert absent == []
    reached = counts(metrics)
    for name, unit in run.LAYER_METRICS:
        if name.endswith(".calls"):
            assert reached[name] > 0, name


def test_tracer_restores_the_package():
    original = lw.specfun.basis_G1
    with tracer_mod.Tracer():
        assert lw.modes.basis_G1 is not original
        assert lw.modes.basis_G1 is lw.specfun.basis_G1
    assert lw.modes.basis_G1 is original and lw.specfun.basis_G1 is original


def test_self_time_excludes_child_spans():
    with tracer_mod.Tracer() as t:
        lw.modes.eval_G(lw.BasisBranch.HANKEL1, lw.ModeParams(2.0, 1.0, 0.0), 0.0)
    totals = t.totals()
    eval_span = next(s for s in t.spans if s[tracer_mod.NAME] == "modes.eval_G")
    wall = eval_span[tracer_mod.END] - eval_span[tracer_mod.START]
    assert 0.0 < totals["modes.eval_G"][1] < wall
    assert totals["specfun.basis_G1"][0] == 1
    assert totals["numerics.quad_adaptive"][0] == 3


def test_missing_traced_name_is_absent_not_an_error(monkeypatch):
    monkeypatch.setattr(tracer_mod, "TRACED",
                        tracer_mod.TRACED + (("specfun", "quad_adaptive_gone"),
                                             ("numerics", "integrate_linear_ode2_gone")))
    monkeypatch.setattr(run, "LAYER_METRICS", run.LAYER_METRICS + (
        ("specfun.quad_adaptive_gone.calls", "count"),))
    with tracer_mod.Tracer() as t:
        lw.specfun.bessel_K_imag(2.0, 1.0)
    assert "specfun.quad_adaptive_gone" in t.absent
    metrics, absent = run.layer_metrics(t, 1.0, 1.0)
    assert absent == ["specfun.quad_adaptive_gone.calls"]
    assert metrics["numerics.quad_adaptive.calls"]["value"] == 1


def test_raising_op_counts_as_failed_and_the_run_goes_on(tmp_path):
    oracle = WORKLOADS["oracle"]
    ops = [{"variant": "growing", "omega": 20.0, "kappa": 1.0},
           {"variant": "decaying", "omega": 0.3, "kappa": 1.0}]
    records = run.run_ops(oracle, lw, ops, str(tmp_path / "out"))
    assert len(records) == 2
    assert records[0].error.startswith("OverflowError")
    verdicts = [oracle.check(r.inputs, r) for r in records]
    assert not verdicts[0].ok
    assert verdicts[1].ok


def test_cli_error_exit_counts_as_failed(tmp_path):
    profile = WORKLOADS["profile"]
    x = {"branch": "bessel-", "omega": 40.0, "kappa": 1.0, "zmin": -0.5,
         "zmax": math.log(699.0), "x_top": 699.0, "rows": [200]}
    rec = run.run_op(profile, lw, x, str(tmp_path / "out"))
    assert rec.error.startswith("exit 2")
    assert not profile.check(x, rec).ok


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_inputs(name):
    w = WORKLOADS[name]
    assert run.first_ops(w, 1, 8) == run.first_ops(w, 1, 8)
    assert run.first_ops(w, 1, 8) != run.first_ops(w, 2, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeded_inputs_stay_inside_the_timed_domain(name):
    w = WORKLOADS[name]
    for x in run.first_ops(w, 3, 60):
        if name == "profile":
            w_top, x_max = w.LIMITS[x["branch"]]
            assert x["omega"] <= w_top and x["x_top"] <= x_max
        elif name in ("reflect", "oracle"):
            key = "branch" if name == "reflect" else "variant"
            assert x["omega"] <= max(top for cell, top in w.cells if cell == x[key])


def test_known_defect_probes_are_reported_not_counted(tmp_path):
    reflect = WORKLOADS["reflect"]
    found = run.probe_known_defects(reflect, lw, str(tmp_path / "out"))
    assert [d["cell"] for d in found] == [cell for cell, _ in reflect.probes]
    assert all(isinstance(d["fails"], bool) for d in found), found
    # a fix may flip a probe to passing; the probes stay outside the timed inputs
    tops = dict(reflect.cells)
    assert all(x["omega"] > tops[x["branch"]] for _, x in reflect.probes)


def test_timings_are_scaled_by_host_speed(monkeypatch, tmp_path):
    # a host running at half the nominal speed halves every scaled CPU time
    monkeypatch.setattr(hostref, "seconds", lambda: 2.0 * hostref.NOMINAL_S)
    monkeypatch.setattr(run, "setup_seconds", lambda: (0.1, 0.1))
    monkeypatch.setattr(run, "MIN_OPS", 15)
    records, metrics, summary = run.measure(WORKLOADS["reflect"], lw, 1, 0.0,
                                            str(tmp_path / "out"))
    cpu = [r.cpu_s for r in records]
    assert metrics["ops_per_s_norm"]["value"] == pytest.approx(2.0 * len(cpu) / sum(cpu))
    assert metrics["op_p50_ms_norm"]["value"] == pytest.approx(0.5e3 * statistics.median(cpu))
    assert summary["raw"]["ops_per_s"] == pytest.approx(
        len(records) / sum(r.wall_s for r in records))


def test_setup_is_timed_in_fresh_interpreters():
    scaled, wall = run.setup_seconds()
    assert 0.0 < scaled < 10.0 and 0.0 < wall < 10.0


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct, n = run.tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)


def test_benchmark_file_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.LAYER_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
