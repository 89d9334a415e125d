"""Command line surface: every capability as a reproducible run.

Subcommands: convert, medium, profile, planewave, reflect, depth,
verify, sweep.  Output is CSV (UTF-8, LF, header row) or JSON (single
top-level object carrying a "schema": "lobwave/1" version marker).  All
floats are printed with 17 significant digits so identical configs give
byte-identical files; exit codes are 0 success, 1 verification failure,
2 usage or domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import geometry
from .checks import CHECKS
from .errors import LobwaveError, RangeError
from .modes import BasisBranch, ModeParams, eval_G, plane_wave_special
from .scattering import (
    amplitudes_analytic,
    penetration_depth,
    reflection,
    schrodinger_potential,
)

SCHEMA_ID = "lobwave/1"

_BRANCHES = [b.value for b in BasisBranch]


def _fmt(x) -> str:
    """Fixed 17-significant-digit lowercase scientific format."""
    return format(float(x), ".16e")


def _json_text(obj, indent=0) -> str:
    """Deterministic JSON with all floats in the fixed format."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            items.append(f'{pad}  "{k}": {_json_text(v, indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)}")


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, args):
    doc = {"schema": SCHEMA_ID, "command": args.command}
    doc.update(payload)
    _emit(_json_text(doc) + "\n", args.out)


def _emit_csv(header, rows, args):
    """CSV of float rows, each value in `_fmt`'s format."""
    line = ",".join(["%.16e"] * len(header))
    _emit("\n".join([",".join(header)] + [line % row for row in rows]) + "\n",
          args.out)


def _mode_params(args) -> ModeParams:
    return ModeParams(args.omega, args.a, args.b)


# ---------------------------------------------------------------------------
# subcommands

def cmd_convert(args) -> int:
    if args.quasi is not None:
        p = geometry.QuasiCartesian(*args.quasi)
        u = geometry.to_embedding(p)
        q = geometry.embedding_to_poincare(u)
    elif args.embedding is not None:
        u = geometry.EmbeddingPoint(*args.embedding)
        q = geometry.embedding_to_poincare(u)
        p = geometry.poincare_to_quasi(q)
    else:
        q = geometry.PoincarePoint(*args.poincare)
        p = geometry.poincare_to_quasi(q)
        u = geometry.to_embedding(p)
    _emit_json({
        "quasi": {"x": p.x, "y": p.y, "z": p.z},
        "embedding": {"u0": u.u0, "u1": u.u1, "u2": u.u2, "u3": u.u3},
        "poincare": {"q1": q.q1, "q2": q.q2, "q3": q.q3},
    }, args)
    return 0


def cmd_medium(args) -> int:
    if args.format == "json":
        m = geometry.effective_tensors(args.z)
        _emit_json({
            "z": args.z,
            "eps_diag": list(m.eps_diag),
            "mu_diag": list(m.mu_diag),
            "volume_weight": geometry.volume_weight(args.z),
        }, args)
        return 0
    zs = np.linspace(args.zmin, args.zmax, args.points)
    rows = []
    for z in zs:
        m = geometry.effective_tensors(float(z))
        rows.append((float(z), m.eps_diag[0], m.eps_diag[1], m.eps_diag[2],
                     geometry.volume_weight(float(z))))
    _emit_csv(("z", "eps1", "eps2", "eps3", "volume_weight"), rows, args)
    return 0


def cmd_profile(args) -> int:
    p = _mode_params(args)
    if p.kappa == 0.0:
        raise LobwaveError("a = b = 0 is the free plane wave; use `planewave`")
    branch = BasisBranch(args.branch)
    zs = np.linspace(args.zmin, args.zmax, args.points)
    g1s, g2s = eval_G(branch, p, zs)
    rows = []
    for z, g1, g2 in zip(zs.tolist(), g1s.tolist(), g2s.tolist()):
        rows.append((z, g1.real, g1.imag, g2.real, g2.imag,
                     abs(g1), schrodinger_potential(p, z)))
    _emit_csv(("z", "re_G1", "im_G1", "re_G2", "im_G2", "abs_G1", "U"),
              rows, args)
    return 0


def cmd_planewave(args) -> int:
    sign = +1 if args.sign == "+" else -1
    ts = np.linspace(args.tmin, args.tmax, args.tpoints)
    zs = np.linspace(args.zmin, args.zmax, args.zpoints)
    rows = []
    for t in ts:
        for z in zs:
            fv = plane_wave_special(sign, args.omega, float(t), float(z))
            E, B = fv.E, fv.B
            cr3 = E[0] * B[1] - E[1] * B[0]
            direction = float(np.sign(cr3))
            rows.append((float(t), float(z), E[0], E[1], E[2], B[0], B[1], B[2],
                         direction, geometry.energy_density(E, B, float(z))))
    _emit_csv(("t", "z", "E1", "E2", "E3", "B1", "B2", "B3",
               "poynting_dir", "energy_density"), rows, args)
    return 0


def cmd_reflect(args) -> int:
    p = _mode_params(args)
    branch = BasisBranch(args.branch)
    amps = amplitudes_analytic(branch, p)
    r_analytic = reflection(branch, p, method="analytic").R
    r_fitted = reflection(branch, p, method="fitted").R
    flag = abs(r_analytic - r_fitted) > 1e-6 * max(r_analytic, r_fitted, 1e-300)
    _emit_json({
        "branch": branch.value,
        "omega": p.omega,
        "kappa": p.kappa,
        "R_analytic": r_analytic,
        "R_fitted": r_fitted,
        "M_plus": {"re": amps.Mplus.real, "im": amps.Mplus.imag},
        "M_minus": {"re": amps.Mminus.real, "im": amps.Mminus.imag},
        "discrepancy_flag": flag,
    }, args)
    return 0


def cmd_depth(args) -> int:
    z0_m = penetration_depth(args.omega, args.k1, args.k2, args.rho, args.c)
    x0 = args.omega * args.rho / args.c
    if not math.isfinite(x0):
        raise RangeError(f"turning |x| = omega rho / c overflows at omega = "
                         f"{args.omega}, rho = {args.rho}")
    _emit_json({
        "z0_meters": z0_m,
        "z0_curvature_units": z0_m / args.rho,
        "turning_x_magnitude": x0,
    }, args)
    return 0


def cmd_sweep(args) -> int:
    branch = BasisBranch(args.branch)
    rows = []
    for w in args.omegas:
        for k in args.kappas:
            p = ModeParams(w, k, 0.0)
            rows.append((w, k, reflection(branch, p, method=args.method).R))
    _emit_csv(("omega", "kappa", "R"), rows, args)
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    selected = [c for c in CHECKS if args.only is None or args.only in c.name]
    if not selected:
        raise LobwaveError(f"--only {args.only!r} matches no check")
    checks = []
    all_passed = True
    for name, fn, default_tol in selected:
        tol = args.tolerance if args.tolerance is not None else default_tol
        measured = float(fn())
        passed = measured <= tol
        all_passed = all_passed and passed
        checks.append({"name": name, "measured": measured,
                       "tolerance": tol, "passed": passed})
    _emit_json({"checks": checks, "all_passed": all_passed}, args)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# argument plumbing

# configurable options that take a string; the others take a number
_CONFIG_STRINGS = {
    "branch", "format", "sign", "omegas", "kappas", "method", "only", "out",
}
_CONFIGURABLE = _CONFIG_STRINGS | {
    "omega", "a", "b", "zmin", "zmax", "points", "tmin", "tmax", "tpoints",
    "zpoints", "k1", "k2", "rho", "c", "z", "tolerance",
}


def _config_tokens(args):
    """`--key=value` tokens for the config-file keys this command has.

    Parsed ahead of the command line, they get argparse's conversions
    and checks, and an explicit flag overrides them: flags > config >
    defaults.  Keys of other commands are ignored.
    """
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            loaded = json.load(fh)
        except ValueError as exc:
            raise LobwaveError(f"--config: {exc}") from exc
    if not isinstance(loaded, dict):
        raise LobwaveError("--config must hold a JSON object")
    unknown = set(loaded) - _CONFIGURABLE
    if unknown:
        raise LobwaveError(f"unknown config keys: {', '.join(sorted(unknown))}")
    tokens = []
    for key, value in loaded.items():
        if not hasattr(args, key):
            continue
        expected = str if key in _CONFIG_STRINGS else (int, float)
        if isinstance(value, bool) or not isinstance(value, expected):
            kind = "string" if expected is str else "number"
            raise LobwaveError(f"config key {key!r} must be a JSON {kind}")
        tokens.append(f"--{key}={value}")
    return tokens


def _floats(n=None):
    """argparse type: comma-separated numbers, exactly `n` of them if given."""
    def floats(text):
        values = [float(v) for v in text.split(",")]
        if n is not None and len(values) != n:
            raise argparse.ArgumentTypeError(f"needs {n} comma-separated values")
        return values
    return floats


def _positive(text):
    """argparse type: a float > 0."""
    x = float(text)
    if not x > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return x


def _count(text):
    """argparse type: a number of grid points, an int >= 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


# argparse takes a detached list such as -0.2,0,0 for an option
_ATTACH = "; attach a list that starts with '-': --%(dest)s=-0.2,..."


def _add_common(sub):
    sub.add_argument("--config", help="JSON file with defaults for this command")
    sub.add_argument("--out", help="output file (default: stdout)")


def _add_mode(sub):
    sub.add_argument("--omega", type=float, default=2.0)
    sub.add_argument("--a", type=float, default=1.0)
    sub.add_argument("--b", type=float, default=0.0)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every run of `main` shares it."""
    parser = argparse.ArgumentParser(
        prog="lobwave",
        description="Exact electromagnetic modes in Lobachevsky space: "
                    "coordinate maps, field profiles, and reflection data.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("convert", help="convert between coordinate charts")
    chart = s.add_mutually_exclusive_group(required=True)
    chart.add_argument("--quasi", type=_floats(3),
                       help="x,y,z in the quasi-Cartesian chart" + _ATTACH)
    chart.add_argument("--embedding", type=_floats(4),
                       help="u0,u1,u2,u3 on the hyperboloid")
    chart.add_argument("--poincare", type=_floats(3),
                       help="q1,q2,q3 in the unit ball" + _ATTACH)
    _add_common(s)
    s.set_defaults(func=cmd_convert)

    s = subs.add_parser("medium", help="effective constitutive tensors")
    s.add_argument("--z", type=float, default=0.0)
    s.add_argument("--zmin", type=float, default=-2.0)
    s.add_argument("--zmax", type=float, default=2.0)
    s.add_argument("--points", type=_count, default=81)
    s.add_argument("--format", choices=("json", "csv"), default="json")
    _add_common(s)
    s.set_defaults(func=cmd_medium)

    s = subs.add_parser("profile", help="radial profile G1, G2 along z (CSV)")
    _add_mode(s)
    s.add_argument("--branch", choices=_BRANCHES, default="hankel1")
    s.add_argument("--zmin", type=float, default=-6.0)
    s.add_argument("--zmax", type=float, default=5.0)
    s.add_argument("--points", type=_count, default=1101)
    _add_common(s)
    s.set_defaults(func=cmd_profile)

    s = subs.add_parser("planewave", help="exact a=b=0 running wave (CSV)")
    s.add_argument("--omega", type=_positive, default=1.0)
    s.add_argument("--sign", choices=("+", "-"), default="+")
    s.add_argument("--tmin", type=float, default=0.0)
    s.add_argument("--tmax", type=float, default=1.0)
    s.add_argument("--tpoints", type=_count, default=5)
    s.add_argument("--zmin", type=float, default=-1.0)
    s.add_argument("--zmax", type=float, default=1.0)
    s.add_argument("--zpoints", type=_count, default=21)
    _add_common(s)
    s.set_defaults(func=cmd_planewave)

    s = subs.add_parser("reflect", help="reflection coefficient (JSON)")
    _add_mode(s)
    s.add_argument("--branch", choices=_BRANCHES, default="hankel1")
    _add_common(s)
    s.set_defaults(func=cmd_reflect)

    s = subs.add_parser("depth", help="penetration depth in physical units")
    s.add_argument("--omega", type=float, required=False,
                   default=2.0 * math.pi * 1e9, help="angular frequency, rad/s")
    s.add_argument("--k1", type=float, default=1.0, help="1/m")
    s.add_argument("--k2", type=float, default=1.0, help="1/m")
    s.add_argument("--rho", type=float, default=1.0, help="curvature radius, m")
    s.add_argument("--c", type=float, default=299792458.0, help="m/s")
    _add_common(s)
    s.set_defaults(func=cmd_depth)

    s = subs.add_parser("verify", help="run the residual and oracle suite")
    s.add_argument("--only", help="substring filter on check names")
    s.add_argument("--tolerance", type=float,
                   help="override every check tolerance")
    _add_common(s)
    s.set_defaults(func=cmd_verify)

    s = subs.add_parser("sweep", help="reflection over an (omega, kappa) grid")
    s.add_argument("--branch", choices=_BRANCHES, default="hankel1")
    s.add_argument("--method", choices=("analytic", "fitted"), default="fitted")
    s.add_argument("--omegas", type=_floats(), default="0.5,1,2,5,10",
                   help="comma-separated list" + _ATTACH)
    s.add_argument("--kappas", type=_floats(), default="0.2,1,5",
                   help="comma-separated list" + _ATTACH)
    _add_common(s)
    s.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    tokens = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(tokens)
        if args.config:
            # the command is the first token: the top-level parser has no options
            args = parser.parse_args(
                [args.command, *_config_tokens(args), *tokens[1:]])
        return args.func(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (LobwaveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
