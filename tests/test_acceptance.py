"""Acceptance gate: one test per release criterion.

Criteria 01-11 run the checks of `lobwave.checks.CHECKS`, each check in
exactly one criterion; 12 runs `lobwave verify` itself.  Each check
prints a single PASS/FAIL line with its measured value, so the suite
output doubles as the acceptance report.
"""

import json
import math
import time

from lobwave import checks
from lobwave.checks import CHECKS
from lobwave.cli import main

# release criterion -> the registry checks that make it up
CRITERIA = {
    1: ("reflection_mirror",),
    2: ("growing_branch_reflection",),
    3: ("closed_form_vs_ode",),
    4: ("maxwell_firstorder", "maxwell_matrix"),
    5: ("planewave",),
    6: ("gamma_identity",),
    7: ("wronskian",),
    8: ("turning_point", "envelope_crossing"),
    9: ("heun_form",),
    10: ("geometry_roundtrip", "hyperboloid_constraint"),
    11: ("neumann_discrepancy_flag", "neumann_fit_agreement"),
}

# wall-time limits of single checks, in seconds
TIME_LIMITS = {
    "reflection_mirror": 10.0,
    "growing_branch_reflection": 5.0,
    "closed_form_vs_ode": 30.0,
}


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def accept(num):
    by_name = {c.name: c for c in CHECKS}
    failed = []
    for name in CRITERIA[num]:
        check = by_name[name]
        t0 = time.monotonic()
        measured = check.fn()
        dt = time.monotonic() - t0
        limit = TIME_LIMITS.get(name, math.inf)
        ok = measured < check.tolerance and dt < limit
        if not report(num, name, ok,
                      f"measured {measured:.3e}, tolerance {check.tolerance:g}, "
                      f"runtime {dt:.2f} s"):
            failed.append(name)
    assert not failed, f"criterion {num:02d} failed: {', '.join(failed)}"


def test_criteria_cover_every_check_once():
    names = [n for group in CRITERIA.values() for n in group]
    assert sorted(names) == sorted(c.name for c in CHECKS)


def test_01_mirror_theorem():
    accept(1)


def test_02_growing_branch_reflection():
    accept(2)


def test_03_closed_form_vs_ode_oracle():
    accept(3)


def test_04_maxwell_exactness():
    accept(4)


def test_05_plane_wave_special_case():
    accept(5)


def test_06_gamma_identity():
    accept(6)


def test_07_wronskian():
    accept(7)


def test_08_turning_point_and_depth():
    accept(8)


def test_09_heun_form_residual():
    accept(9)


def test_10_geometry_round_trips():
    accept(10)


def test_11_neumann_reflection_audit():
    accept(11)


def test_12_verify_determinism(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    # the Maxwell pair reads one cached pass per process: clear it so
    # that each run computes every check
    checks._maxwell_worst.cache_clear()
    code1 = main(["verify", "--out", str(out1)])
    checks._maxwell_worst.cache_clear()
    code2 = main(["verify", "--out", str(out2)])
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    doc = json.loads(b1)
    names = [c["name"] for c in doc["checks"]]
    ok = (code1 == 0 and code2 == 0 and b1 == b2 and doc["all_passed"]
          and names == [c.name for c in CHECKS])
    assert report(12, "verify-determinism", ok,
                  f"exit codes {code1}/{code2}, byte-identical {b1 == b2}, "
                  f"{len(names)} checks"), "verify-determinism"
