"""The four benchmark workloads: seeded inputs, one op, and its check.

Each workload has a few cells (branch, variant, grid type) and draws
one frequency per op, log-uniform over the cell's range.  The ops
cycle through the cells, and within a cell the n-th op takes the n-th
point of a base-2 van der Corput sequence, rotated by a per-cell offset
drawn from the seed (a randomised quasi-Monte Carlo draw).  Any prefix
of such a sequence covers the range evenly, so a run of any length
carries nearly the same mix of cheap and expensive ops whatever the
seed; the other parameters are plain seeded draws.  This keeps the
run-to-run spread down without fixing any input value.

An op is one user-level request: one CLI invocation (``profile``,
``reflect``) or one library call group (``oracle``, ``residuals``).
``call`` is the timed part.  ``read`` turns the op's output into the
few values the check needs, outside the timed region, and ``check``
compares them with an independent expectation.

The timed inputs stay inside the domain where this package is right at
the commit the benchmark was written against, so no timed op is meant
to fail, and any failure makes the run incorrect.  The measured
known-defect cells outside that domain are not dropped: each workload's
``probes`` are fixed ops inside them, run and checked after timing and
reported on their own, so a fix or a regression there shows in every run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from reference import profile_G

BRANCHES = ("bessel+", "bessel-", "hankel1", "hankel2", "neumann+", "neumann-")


@dataclass
class Record:
    """One op as run: its inputs, CPU and wall time, and what it returned or raised."""

    inputs: dict
    cpu_s: float
    wall_s: float
    output: object = None
    error: str | None = None


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str = ""


def _radical_inverse(n):
    """n-th point of the base-2 van der Corput sequence in [0, 1)."""
    u, half = 0.0, 0.5
    while n:
        if n & 1:
            u += half
        n >>= 1
        half *= 0.5
    return u


def _log_uniform(lo, hi, u):
    return lo * (hi / lo) ** u


def cycles(workload, rng):
    """Endless stream of op cycles, one op per cell in each cycle."""
    shifts = [float(v) for v in rng.uniform(size=len(workload.cells))]
    n = 0
    while True:
        u = _radical_inverse(n)
        yield [workload.make(cell, (u + shift) % 1.0, rng)
               for cell, shift in zip(workload.cells, shifts)]
        n += 1


def _rel(got, ref):
    return abs(got - ref) / abs(ref)


# ---------------------------------------------------------------------------
# profile: `lobwave profile` over a grid that crosses every K route switch

class Profile:
    name = "profile"
    why = ("lobwave profile CLI runs on grids crossing every K route switch: the "
           "kernel hot path, 3 quad_adaptive calls per quadrature-route point")
    op_size = "one `lobwave profile` run of 201 points"
    POINTS = 201
    TOL = 1e-9
    # branch -> (top of the omega range, largest X) where every point is
    # within TOL at the benchmark's commit; PROBES sit outside them
    LIMITS = {"bessel+": (50.0, 700.0), "bessel-": (50.0, 600.0),
              "hankel1": (8.0, 360.0), "hankel2": (50.0, 700.0),
              "neumann+": (50.0, 700.0), "neumann-": (50.0, 600.0)}
    cells = [(branch, to_top) for branch in BRANCHES for to_top in (True, False)]
    trace_ops = 48
    # known-defect probes: (cell, branch, omega, largest X, X of the checked row)
    PROBES = (
        ("hankel1, X >= 368: K quadrature loses digits", "hankel1", 2.0, 700.0, 700.0),
        ("hankel1, omega >= 12: quadrature/reflection transition band",
         "hankel1", 40.0, 100.0, 53.0),
        ("bessel-, omega >= 5, X = 700: exit 2 from e^X overflow",
         "bessel-", 10.0, 700.0, 700.0),
    )

    def __init__(self):
        self.probes = tuple((cell, self._probe_op(*spec)) for cell, *spec in self.PROBES)

    def grid(self, branch, w, k, x_top):
        """The op's z range and its X grid, from 0.02 omega to x_top."""
        zmin = math.log(0.02 * w / k)
        zmax = math.log(x_top / k)
        while k * math.exp(zmax) > x_top:  # the CLI rejects X > 700
            zmax = math.nextafter(zmax, -math.inf)
        X = k * np.exp(np.linspace(zmin, zmax, self.POINTS))
        return {"branch": branch, "omega": w, "kappa": k, "zmin": zmin,
                "zmax": zmax, "x_top": float(X[-1])}, X

    def make(self, cell, u, rng):
        branch, to_top = cell
        w_top, x_max = self.LIMITS[branch]
        w = _log_uniform(0.05, w_top, u)
        k = float(rng.uniform(0.2, 5.0))
        # X runs from 0.02 omega, deep in the oscillatory region, into the
        # barrier: to the branch's largest X on half the ops, past every
        # switch (0.5 w, 1.1 w + 10, 40, w^2) on the other half
        x_top = x_max if to_top else min(x_max, 2.0 * max(w * w, 1.1 * w + 10.0, 40.0))
        x, X = self.grid(branch, w, k, x_top)
        below = np.nonzero(X < w)[0]
        above = np.nonzero(X[:-1] >= w)[0]
        rows = {self.POINTS - 1, int(rng.choice(below))}
        if len(above):
            rows.add(int(rng.choice(above)))
        return {**x, "rows": sorted(rows)}

    def _probe_op(self, branch, w, x_top, x_checked):
        x, X = self.grid(branch, w, 1.0, x_top)
        return {**x, "rows": [int(np.argmin(abs(X - x_checked)))]}

    def call(self, lw, x, path):
        return lw.cli.main([
            "profile", "--branch", x["branch"], "--omega", repr(x["omega"]),
            "--a", repr(x["kappa"]), "--b", "0", "--zmin", repr(x["zmin"]),
            "--zmax", repr(x["zmax"]), "--points", str(self.POINTS),
            "--out", path])

    def read(self, x, path, ret):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        data = lines[1:]
        picked = []
        for i in x["rows"]:
            z, g1r, g1i, g2r, g2i = (float(v) for v in data[i].split(",")[:5])
            picked.append((z, complex(g1r, g1i), complex(g2r, g2i)))
        return {"n_rows": len(data), "rows": picked}

    def check(self, x, rec):
        if rec.error is not None:
            return Verdict(False, rec.error)
        out = rec.output
        if out["n_rows"] != self.POINTS:
            return Verdict(False, f"{out['n_rows']} rows")
        failed = []
        for z, g1, g2 in out["rows"]:
            X = x["kappa"] * math.exp(z)
            r1, r2 = profile_G(x["branch"], x["omega"], X)
            if X >= x["omega"]:
                err = max(_rel(g1, r1), _rel(g2, r2))
            else:
                # below the turning point G oscillates through zero; measure
                # against the local envelope sqrt(|G1|^2 + |G2|^2)
                err = max(abs(g1 - r1), abs(g2 - r2)) / math.hypot(abs(r1), abs(r2))
            if not err <= self.TOL:
                failed.append((X, err))
        return Verdict(not failed, ", ".join(f"X={X:.4g} err={e:.1e}" for X, e in failed))


# ---------------------------------------------------------------------------
# reflect: `lobwave reflect`, analytic and fitted R and the amplitudes M+-

class Reflect:
    name = "reflect"
    why = ("lobwave reflect CLI runs: analytic R, two-wave fitted R and M+-; "
           "quadrature below omega = 3, I series only above")
    op_size = "one `lobwave reflect` run (64 fit samples)"
    TOL = 1e-6
    # (branch, top of the omega range).  For hankel2 and neumann- the fit
    # cannot resolve a right-moving part e^{-2 pi omega} below the
    # left-moving one: R is 2e-6 .. 3e-6 off at omega = 1.3, worse above
    cells = (("hankel1", 50.0), ("hankel2", 1.0), ("neumann+", 50.0),
             ("neumann-", 1.0), ("bessel+", 50.0))
    trace_ops = 50
    probes = (
        ("hankel2, omega >= 1.3: fitted R",
         {"branch": "hankel2", "omega": 2.0, "kappa": 1.0}),
        ("neumann-, omega >= 1.3: fitted R",
         {"branch": "neumann-", "omega": 10.0, "kappa": 1.0}),
    )

    def make(self, cell, u, rng):
        branch, w_top = cell
        return {"branch": branch, "omega": _log_uniform(0.05, w_top, u),
                "kappa": float(rng.uniform(0.2, 5.0))}

    def call(self, lw, x, path):
        return lw.cli.main([
            "reflect", "--branch", x["branch"], "--omega", repr(x["omega"]),
            "--a", repr(x["kappa"]), "--b", "0", "--out", path])

    def read(self, x, path, ret):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def check(self, x, rec):
        if rec.error is not None:
            return Verdict(False, rec.error)
        doc = rec.output
        mp = complex(doc["M_plus"]["re"], doc["M_plus"]["im"])
        mm = complex(doc["M_minus"]["re"], doc["M_minus"]["im"])
        r_amp = abs(mm) ** 2 / abs(mp) ** 2
        err = abs(doc["R_fitted"] - r_amp) / max(r_amp, 1.0)
        problems = []
        if not err <= self.TOL:
            problems.append(f"R_fitted off by {err:.1e}")
        if x["branch"] == "hankel1" and not abs(doc["R_analytic"] - 1.0) <= 1e-10:
            problems.append(f"R_analytic = {doc['R_analytic']!r}")
        return Verdict(not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# oracle: reflection_numeric_oracle, the Dormand-Prince control workload

class Oracle:
    name = "oracle"
    why = ("reflection_numeric_oracle library calls: Dormand-Prince steps do the "
           "work, specfun almost none; the control for kernel changes")
    op_size = "one reflection_numeric_oracle call"
    TOL = 1e-6
    # (variant, top of the omega range).  The growing variant is 2e-6 off at
    # omega = 0.8; the decaying one raises OverflowError for omega in
    # [2.40, 2.69], and its ops cost more than 1 s above that, so they
    # stop at 2.3.  Decaying ops take two cells of three, which puts the median
    # op inside the decaying range rather than at the edge between variants.
    cells = (("decaying", 2.3), ("decaying", 2.3), ("growing", 0.7))
    trace_ops = 12
    probes = (
        ("growing, omega >= 0.8: R",
         {"variant": "growing", "omega": 1.0, "kappa": 1.0}),
        ("growing, omega = 20: OverflowError",
         {"variant": "growing", "omega": 20.0, "kappa": 1.0}),
        ("decaying, omega in [2.40, 2.69]: OverflowError",
         {"variant": "decaying", "omega": 2.5, "kappa": 1.0}),
    )

    def make(self, cell, u, rng):
        variant, hi = cell
        return {"variant": variant, "omega": _log_uniform(0.25, hi, u),
                "kappa": float(rng.uniform(0.2, 5.0))}

    def call(self, lw, x, path):
        p = lw.ModeParams(x["omega"], x["kappa"], 0.0)
        return lw.scattering.reflection_numeric_oracle(p, x["variant"])

    def read(self, x, path, ret):
        return ret

    def check(self, x, rec):
        if rec.error is not None:
            return Verdict(False, rec.error)
        expect = 1.0 if x["variant"] == "decaying" else math.exp(4.0 * math.pi * x["omega"])
        err = _rel(rec.output, expect)
        return Verdict(err <= self.TOL, f"R off by {err:.1e}")


# ---------------------------------------------------------------------------
# residuals: single-point specfun use, Maxwell/Heun/Wronskian checks, geometry

class Residuals:
    name = "residuals"
    why = ("scalar calls: amplitudes and Maxwell residuals on all branches, "
           "Wronskian, envelope bisection, Heun residual, geometry round trips")
    op_size = ("one group: 6 branches x 3 heights of amplitudes_at and both "
               "Maxwell residuals, 2 wronskian_IK, 1 envelope_crossing, "
               "1 heun_form_residual on 3 heights, 4 geometry round trips")
    # tolerances of the `lobwave verify` table; the envelope crossing uses the
    # acceptance bound |z_cross - z0| < 1
    TOL = {"maxwell_firstorder": 1e-8, "maxwell_matrix": 1e-8, "wronskian": 1e-9,
           "heun_form": 1e-5, "envelope_offset": 1.0,
           "geometry_roundtrip": 1e-10, "hyperboloid_constraint": 1e-12}
    cells = (None,)
    trace_ops = 16
    probes = ()

    def make(self, cell, u, rng):
        k = float(rng.uniform(0.2, 5.0))
        theta = float(rng.uniform(0.15, 0.5 * math.pi - 0.15))
        return {
            "omega": _log_uniform(0.5, 10.0, u),
            "a": k * math.cos(theta), "b": k * math.sin(theta),
            "wronskian_X": [float(v) for v in rng.uniform(0.5, 30.0, 2)],
            "points": [(float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-3.0, 3.0)),
                        float(rng.uniform(-4.0, 4.0))) for _ in range(4)],
        }

    def call(self, lw, x, path):
        w = x["omega"]
        p = lw.ModeParams(w, x["a"], x["b"])
        z0 = math.log(w / p.kappa)
        maxwell = []
        for branch in lw.BasisBranch:
            for z in (z0 - 3.0, z0 - 1.0, z0 + 0.5):
                amps = lw.modes.amplitudes_at(branch, p, z)
                maxwell.append((lw.modes.maxwell_residual_firstorder(amps, p),
                                lw.modes.maxwell_residual_matrix(amps, p)))
        wronskian = [lw.specfun.wronskian_IK(w, X) for X in x["wronskian_X"]]
        crossing = lw.scattering.envelope_crossing(p)
        heun = lw.modes.heun_form_residual(lw.BasisBranch.HANKEL1, p,
                                           np.linspace(z0 - 3.0, z0 - 1.0, 3))
        geo = []
        for q in x["points"]:
            u = lw.geometry.to_embedding(lw.geometry.QuasiCartesian(*q))
            back = lw.geometry.poincare_to_quasi(lw.geometry.embedding_to_poincare(u))
            geo.append((u.u0, u.constraint_defect(), (back.x, back.y, back.z)))
        return {"z0": z0, "maxwell": maxwell, "wronskian": wronskian,
                "crossing": crossing, "heun": heun, "geometry": geo}

    def read(self, x, path, ret):
        return ret

    def measured(self, x, out):
        """Each checked quantity, in the units of its tolerance."""
        return {
            "maxwell_firstorder": max(m[0] for m in out["maxwell"]),
            "maxwell_matrix": max(m[1] for m in out["maxwell"]),
            "wronskian": max(abs(W + 1.0 / X) * X
                             for W, X in zip(out["wronskian"], x["wronskian_X"])),
            "heun_form": out["heun"],
            "envelope_offset": abs(out["crossing"] - out["z0"]),
            "geometry_roundtrip": max(abs(b - a) for (_, _, back), q in
                                      zip(out["geometry"], x["points"])
                                      for a, b in zip(q, back)),
            "hyperboloid_constraint": max(abs(c) / max(1.0, u0 * u0)
                                          for u0, c, _ in out["geometry"]),
        }

    def check(self, x, rec):
        if rec.error is not None:
            return Verdict(False, rec.error)
        bad = [f"{k}={v:.1e}" for k, v in self.measured(x, rec.output).items()
               if not v <= self.TOL[k]]
        return Verdict(not bad, ", ".join(bad))


WORKLOADS = {w.name: w for w in (Profile(), Reflect(), Oracle(), Residuals())}
