import json
import math
from pathlib import Path

import jsonschema
import mpmath
import pytest

from lobwave.cli import build_parser, main

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "lobwave" / "schemas"
     / "lobwave-1.schema.json").read_text())


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def run_json(tmp_path, *argv):
    code, text = run(tmp_path, *argv)
    doc = json.loads(text)
    jsonschema.validate(doc, SCHEMA)
    return code, doc


def test_convert_origin(tmp_path):
    code, doc = run_json(tmp_path, "convert", "--quasi", "0,0,0")
    assert code == 0
    assert doc["schema"] == "lobwave/1"
    assert doc["embedding"] == {"u0": 1.0, "u1": 0.0, "u2": 0.0, "u3": 0.0}
    assert doc["poincare"] == {"q1": 0.0, "q2": 0.0, "q3": 0.0}


def test_convert_near_boundary(tmp_path):
    code, doc = run_json(tmp_path, "convert", "--poincare", "0,0,0.999999")
    assert code == 0
    assert doc["quasi"]["z"] > 5.0
    assert math.isfinite(doc["quasi"]["z"])


def test_convert_ideal_point_exit_2(tmp_path):
    code, _ = run(tmp_path, "convert", "--poincare", "0,0,1")
    assert code == 2


def test_convert_requires_exactly_one_chart(tmp_path):
    code, _ = run(tmp_path, "convert")
    assert code == 2
    code, _ = run(tmp_path, "convert", "--quasi", "0,0,0",
                  "--poincare", "0,0,0")
    assert code == 2


def test_convert_negative_list_attached(tmp_path):
    # argparse takes a detached -0.2,0,0 for an option; the = form works
    code, doc = run_json(tmp_path, "convert", "--quasi=-0.2,0,0")
    assert code == 0
    assert doc["quasi"] == {"x": -0.2, "y": 0.0, "z": 0.0}
    code, _ = run(tmp_path, "convert", "--quasi", "-0.2,0,0")
    assert code == 2


def test_convert_from_embedding(tmp_path):
    u0 = math.cosh(1.0)
    u3 = math.sinh(1.0)
    code, doc = run_json(tmp_path, "convert", "--embedding", f"{u0},0,0,{u3}")
    assert code == 0
    assert doc["quasi"]["z"] == pytest.approx(1.0, rel=1e-12)


def test_medium_json(tmp_path):
    code, doc = run_json(tmp_path, "medium", "--z", "1.0")
    assert code == 0
    assert doc["eps_diag"] == doc["mu_diag"]
    assert doc["eps_diag"][2] == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert doc["volume_weight"] == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_medium_csv(tmp_path):
    code, text = run(tmp_path, "medium", "--format", "csv",
                     "--zmin", "-1", "--zmax", "1", "--points", "5")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "z,eps1,eps2,eps3,volume_weight"
    assert len(lines) == 6
    assert "\r" not in text


def test_profile_csv_morphology(tmp_path):
    code, text = run(tmp_path, "profile", "--omega", "10", "--a", "1",
                     "--b", "0", "--zmin", "-6", "--zmax", "5",
                     "--points", "1101")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "z,re_G1,im_G1,re_G2,im_G2,abs_G1,U"
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    z0 = math.log(10.0)
    # oscillation on the left: the imaginary part changes sign many times
    left = [r[2] for r in rows if r[0] < z0 - 0.5]
    sign_changes = sum(1 for a, b in zip(left, left[1:]) if a * b < 0)
    assert sign_changes > 5
    # monotone decay of |G1| well beyond the turning point
    right = [r[5] for r in rows if r[0] > z0 + 0.5]
    assert all(a > b for a, b in zip(right, right[1:]))


@pytest.mark.parametrize("bounds", [
    ("--a", "1e200", "--zmin", "-470", "--zmax", "-461", "--points", "3"),
    ("--a", "1e-160", "--zmin", "340", "--zmax", "360", "--points", "3"),
    ("--a", "1e-300", "--zmin", "689", "--zmax", "690", "--points", "2"),
], ids=["kappa2-inf", "kappa2-subnormal", "e2z-overflow"])
def test_profile_potential_at_extreme_kappa(tmp_path, bounds):
    # U = kappa^2 e^{2z} is finite where one factor leaves the double range
    code, text = run(tmp_path, "profile", "--omega", "1", "--b", "0", *bounds)
    assert code == 0
    kappa = float(bounds[1])
    for line in text.splitlines()[1:]:
        z, U = (float(v) for v in line.split(",")[::6])
        with mpmath.workdps(40):
            ref = (mpmath.mpf(kappa) * mpmath.exp(z)) ** 2
        assert abs(U - ref) <= 1e-15 * ref, (z, U)


def test_profile_kappa_zero_exit_2(tmp_path):
    code, text = run(tmp_path, "profile", "--omega", "1", "--a", "0",
                     "--b", "0")
    assert code == 2


@pytest.mark.parametrize("bounds, message", [
    # the first X past 700 on the default 1101-point grid is named, as
    # when the grid was evaluated point by point
    (("--zmax", "800"), "X = 1324.8982050489965 overflows"),
    # e^800 is past the double range; it reads as X = inf, not a traceback
    (("--zmin", "800", "--zmax", "0"), "X = inf overflows"),
], ids=["ascending", "descending"])
def test_profile_past_x_max_exit_2(tmp_path, capsys, bounds, message):
    code, _ = run(tmp_path, "profile", *bounds)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {message} e^X in double precision\n")


def test_planewave_csv(tmp_path):
    for sign, expect in (("+", 1.0), ("-", -1.0)):
        code, text = run(tmp_path, "planewave", "--omega", "1",
                         "--sign", sign, "--tpoints", "3", "--zpoints", "7")
        assert code == 0
        lines = text.splitlines()
        header = lines[0].split(",")
        i_dir = header.index("poynting_dir")
        i_en = header.index("energy_density")
        for ln in lines[1:]:
            vals = [float(v) for v in ln.split(",")]
            assert vals[i_dir] == expect
            # profile factor e^z in the field cancels the volume weight
            assert vals[i_en] == pytest.approx(1.0, rel=1e-12)


def test_reflect_hankel1(tmp_path):
    code, doc = run_json(tmp_path, "reflect", "--branch", "hankel1",
                         "--omega", "2", "--a", "1", "--b", "0")
    assert code == 0
    assert doc["R_analytic"] == pytest.approx(1.0, abs=1e-12)
    assert doc["R_fitted"] == pytest.approx(1.0, abs=1e-6)
    assert doc["discrepancy_flag"] is False


def test_reflect_hankel2(tmp_path):
    code, doc = run_json(tmp_path, "reflect", "--branch", "hankel2",
                         "--omega", "0.5", "--a", "1", "--b", "0")
    assert code == 0
    assert doc["R_analytic"] == pytest.approx(math.exp(2.0 * math.pi),
                                              rel=1e-12)


def test_reflect_neumann_discrepancy(tmp_path):
    code, doc = run_json(tmp_path, "reflect", "--branch", "neumann+",
                         "--omega", "1", "--a", "1", "--b", "0")
    assert code == 0
    assert doc["discrepancy_flag"] is True


def test_reflect_pure_left_mover_exit_2(tmp_path):
    code, _ = run(tmp_path, "reflect", "--branch", "bessel-",
                  "--omega", "1", "--a", "1", "--b", "0")
    assert code == 2


def test_depth(tmp_path):
    c = 299792458.0
    code, doc = run_json(tmp_path, "depth", "--omega", str(c * math.e),
                         "--k1", "1", "--k2", "0", "--rho", "1")
    assert code == 0
    assert doc["z0_meters"] == pytest.approx(1.0, rel=1e-12)
    assert doc["z0_curvature_units"] == pytest.approx(1.0, rel=1e-12)


def test_depth_kappa_zero_exit_2(tmp_path):
    code, _ = run(tmp_path, "depth", "--omega", "1e9", "--k1", "0",
                  "--k2", "0", "--rho", "1")
    assert code == 2


@pytest.mark.parametrize("args", [
    ("--k1", "nan"), ("--omega", "inf"), ("--rho", "inf"), ("--k1", "inf"),
    ("--omega", "1e-320"), ("--k1", "1e308", "--k2", "1e308"),
    # the depth and the turning |x| = omega rho / c overflow
    ("--omega", "1e100", "--rho", "1e307"), ("--omega", "1e300", "--rho", "1e300"),
], ids=["k1-nan", "omega-inf", "rho-inf", "k1-inf", "omega-underflow",
        "kappa-overflow", "depth-overflow", "x0-overflow"])
def test_depth_past_range_exit_2(tmp_path, capsys, args):
    # never nan or inf in the JSON, and never a traceback
    code, text = run(tmp_path, "depth", *args)
    assert code == 2 and text == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_sweep_csv(tmp_path):
    code, text = run(tmp_path, "sweep", "--omegas", "1,2",
                     "--kappas", "1", "--method", "analytic")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "omega,kappa,R"
    assert len(lines) == 3
    for ln in lines[1:]:
        assert float(ln.split(",")[2]) == pytest.approx(1.0, abs=1e-12)


def test_verify_unreachable_tolerance(tmp_path):
    code, doc = run_json(tmp_path, "verify", "--only", "gamma",
                         "--tolerance", "1e-20")
    assert code == 1
    assert doc["all_passed"] is False
    assert any(not c["passed"] for c in doc["checks"])
    for c in doc["checks"]:
        assert math.isfinite(c["measured"])


def test_verify_only_filter(tmp_path):
    code, doc = run_json(tmp_path, "verify", "--only", "neumann")
    assert code == 0
    assert {c["name"] for c in doc["checks"]} == {"neumann_discrepancy_flag",
                                                  "neumann_fit_agreement"}
    code, _ = run(tmp_path, "verify", "--only", "nosuchcheck")
    assert code == 2


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"omega": 0.5, "a": 1.0, "b": 0.0,
                               "branch": "hankel2"}))
    # config value used when the flag is absent
    code, doc = run_json(tmp_path, "reflect", "--config", str(cfg))
    assert code == 0
    assert doc["branch"] == "hankel2"
    assert doc["omega"] == 0.5
    # explicit flag wins over the config file
    code, doc = run_json(tmp_path, "reflect", "--config", str(cfg),
                         "--branch", "hankel1")
    assert code == 0
    assert doc["branch"] == "hankel1"
    assert doc["R_analytic"] == pytest.approx(1.0, abs=1e-12)


def test_cached_parser_keeps_no_config_values(tmp_path):
    # main builds its parser once per process; a --config run must not
    # leave its values behind for the next, flag-only run
    build_parser.cache_clear()
    code, fresh = run(tmp_path, "medium", "--z", "0.3")
    assert code == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"z": 1.5, "format": "csv", "points": 3}))
    code, _ = run(tmp_path, "medium", "--config", str(cfg))
    assert code == 0
    code, again = run(tmp_path, "medium", "--z", "0.3")
    assert code == 0
    assert again == fresh
    assert build_parser.cache_info().misses == 1


def test_config_abbreviated_flag_wins(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"omega": 1.0}))
    code, doc = run_json(tmp_path, "reflect", "--om", "0.5",
                         "--config", str(cfg))
    assert code == 0
    assert doc["omega"] == 0.5


def test_config_bad_values_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    for command, text in (("reflect", '{"omega": "2"}'),
                          ("profile", '{"points": 2.5}'),
                          ("medium", '{"format": "xml"}'),
                          ("reflect", '{"omega": 1.0')):
        cfg.write_text(text)
        code, _ = run(tmp_path, command, "--config", str(cfg))
        assert code == 2, text


def test_config_unknown_keys_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"omega": 1.0, "bogus_key": 3}))
    code, _ = run(tmp_path, "reflect", "--config", str(cfg))
    assert code == 2


def test_float_format_is_lossless(tmp_path):
    code, text = run(tmp_path, "medium", "--z", "0.1")
    doc = json.loads(text)
    assert doc["volume_weight"] == math.exp(-0.2)
    assert f"{math.exp(-0.2):.16e}" in text


def test_unknown_branch_exit_2(tmp_path):
    code, _ = run(tmp_path, "reflect", "--branch", "bessel?",
                  "--omega", "1", "--a", "1", "--b", "0")
    assert code == 2


@pytest.mark.parametrize("argv, config", [
    (("sweep", "--omegas", "1,x"), None),
    (("sweep", "--kappas", ""), None),
    (("profile", "--points", "-3"), None),
    (("medium", "--format", "csv", "--points", "-2"), None),
    (("planewave", "--tpoints", "-1"), None),
    (("planewave", "--zpoints", "-1"), None),
    (("planewave", "--omega", "-1", "--tpoints", "0"), None),
    (("profile",), {"points": -3}),
], ids=["omegas", "kappas", "profile-points", "medium-points", "tpoints",
        "zpoints", "planewave-omega", "config-points"])
def test_malformed_values_exit_2(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = (*argv, "--config", str(cfg))
    code, text = run(tmp_path, *argv)
    assert code == 2
    assert text == ""
    assert "usage: lobwave" in capsys.readouterr().err
