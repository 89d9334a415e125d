"""The physics checks of the package, held once for `lobwave verify` and
the acceptance tests.

Each entry of CHECKS is (name, function, tolerance).  The function takes
no arguments and returns the worst value it measured over its grid, in
the units of its tolerance; the check passes when that value stays
within the tolerance.  Grids are built inside the functions, so
importing this module does no numerical work.  Comparing the closed
forms with the independent oracles is the job of the checks, so this
module imports both.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from . import geometry
from .modes import (
    BasisBranch,
    ModeParams,
    amplitudes_at,
    eval_G,
    heun_form_residual,
    maxwell_residual_firstorder,
    maxwell_residual_matrix,
    plane_wave_amplitudes,
    plane_wave_special,
)
from .numerics import integrate_linear_ode2
from .scattering import envelope_crossing, neumann_audit, reflection, turning_point
from .specfun import (basis_G1, gamma_modulus_sq, log_gamma, recurrence_shift,
                      wronskian_IK)

__all__ = ["Check", "CHECKS"]

_SEED = 20260823


class Check(NamedTuple):
    name: str
    fn: Callable[[], float]
    tolerance: float


def _quasi_points(n):
    """n seeded points with |x|, |y| <= 3 and |z| <= 4."""
    rng = np.random.default_rng(_SEED)
    for _ in range(n):
        x, y = rng.uniform(-3.0, 3.0, 2)
        z = float(rng.uniform(-4.0, 4.0))
        yield geometry.QuasiCartesian(float(x), float(y), z)


def geometry_roundtrip():
    """Absolute error of quasi -> embedding -> Poincare -> quasi."""
    worst = 0.0
    for p in _quasi_points(1000):
        u = geometry.to_embedding(p)
        back = geometry.poincare_to_quasi(geometry.embedding_to_poincare(u))
        worst = max(worst, abs(back.x - p.x), abs(back.y - p.y),
                    abs(back.z - p.z))
    return worst


def hyperboloid_constraint():
    """Defect of u0^2 - u1^2 - u2^2 - u3^2 = 1, relative to max(1, u0^2)."""
    worst = 0.0
    for p in _quasi_points(1000):
        u = geometry.to_embedding(p)
        worst = max(worst, abs(u.constraint_defect()) / max(1.0, u.u0 * u.u0))
    return worst


@functools.lru_cache(maxsize=1)
def _maxwell_worst():
    """Worst first-order and matrix residuals over six modes x {hankel1,
    bessel+} x 200 heights, then (2, 1, 1) x every branch x 11 heights:
    one mode stack per (mode, branch) grid, which both checks read."""
    modes = (ModeParams(2.0, 1.0, 1.0), ModeParams(2.0, 1.0, 0.0),
             ModeParams(0.5, 0.3, 0.4), ModeParams(5.0, 2.0, 1.0),
             ModeParams(1.0, 0.2, 1.0), ModeParams(10.0, 1.0, 1.0))
    grids = [(br, p, np.linspace(-5.0, 1.5, 200)) for p in modes
             for br in (BasisBranch.HANKEL1, BasisBranch.BESSEL_PLUS)]
    grids += [(br, ModeParams(2.0, 1.0, 1.0), np.linspace(-4.0, 1.0, 11))
              for br in BasisBranch]
    first = matrix = 0.0
    for br, p, zs in grids:
        amps = amplitudes_at(br, p, zs)
        first = max(first, maxwell_residual_firstorder(amps, p))
        matrix = max(matrix, maxwell_residual_matrix(amps, p))
    return first, matrix


def maxwell_firstorder():
    return _maxwell_worst()[0]


def maxwell_matrix():
    return _maxwell_worst()[1]


def planewave():
    """a = b = 0: Poynting direction off +-e3, and the first-order residual."""
    rng = np.random.default_rng(_SEED)
    p = ModeParams(2.0, 0.0, 0.0)
    worst = 0.0
    for _ in range(100):
        t, z = rng.uniform(-3.0, 3.0, 2)
        for s in (+1, -1):
            fv = plane_wave_special(s, 2.0, float(t), float(z))
            cr = np.cross(np.array(fv.E), np.array(fv.B))
            cr = cr / np.linalg.norm(cr)
            worst = max(worst, float(np.max(np.abs(cr - [0.0, 0.0, s]))))
            amps = plane_wave_amplitudes(s, 2.0, float(z))
            worst = max(worst, maxwell_residual_firstorder(amps, p))
    return worst


def heun_form():
    zs = np.concatenate((np.linspace(-4.0, 0.0, 41), np.linspace(-4.0, 0.0, 21)))
    return heun_form_residual(BasisBranch.HANKEL1, ModeParams(2.0, 1.0, 1.0), zs)


def gamma_identity():
    """|Gamma(1 + i w)|^2 from log_gamma against the closed form."""
    worst = 0.0
    for w in (0.1, 1.0, 5.0, 20.0):
        direct = abs(np.exp(complex(log_gamma(1.0 + 1j * w))
                            + complex(log_gamma(1.0 - 1j * w))))
        closed = gamma_modulus_sq(w)
        worst = max(worst, abs(direct - closed) / closed)
    return worst


def wronskian():
    """|W[I, K](X) + 1/X| * X on a 20 x 20 and a 5 x 5 (omega, X) grid,
    one `wronskian_IK` call per omega."""
    grids = [(w, np.linspace(0.1, 30.0, 20)) for w in np.linspace(0.5, 10.0, 20)]
    grids += [(w, np.linspace(0.5, 30.0, 5)) for w in np.linspace(0.5, 10.0, 5)]
    worst = 0.0
    for w, X in grids:
        val = wronskian_IK(float(w), X)
        worst = max(worst, float(np.max(np.abs(val + 1.0 / X) * X)))
    return worst


def reflection_mirror():
    """|R - 1| of the fitted decaying branch: the medium is a perfect mirror."""
    worst = 0.0
    for w in (0.5, 1.0, 2.0, 5.0, 10.0):
        for k in (0.2, 1.0, 5.0):
            r = reflection(BasisBranch.HANKEL1, ModeParams(w, k, 0.0),
                           method="fitted").R
            worst = max(worst, abs(r - 1.0))
    return worst


def turning_point_identity():
    """U(z0) = omega^2, relative, at 50 seeded (omega, kappa)."""
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(50):
        w = float(rng.uniform(0.3, 20.0))
        k = float(rng.uniform(0.1, 5.0))
        info = turning_point(ModeParams(w, k, 0.0))
        worst = max(worst, abs(info.U0 * math.exp(2.0 * info.z0) - w * w) / (w * w))
    return worst


def neumann_discrepancy_flag():
    """0 when both Neumann branches flag the published constants, else 1."""
    p = ModeParams(1.0, 1.0, 0.0)
    flagged = all(neumann_audit(br, p).discrepancy_flag
                  for br in (BasisBranch.NEUMANN_PLUS, BasisBranch.NEUMANN_MINUS))
    return 0.0 if flagged else 1.0


def growing_branch_reflection():
    """Fitted R of the growing branch against e^{4 pi omega}, relative."""
    worst = 0.0
    for w in (0.25, 0.5):
        r = reflection(BasisBranch.HANKEL2, ModeParams(w, 1.0, 0.0),
                       method="fitted").R
        expect = math.exp(4.0 * w * math.pi)
        worst = max(worst, abs(r - expect) / expect)
    return worst


def _ode_deviation(branch, p, span):
    """Largest |G1_ode - G1| / max |G1| at 25 points of span, the ODE run
    seeded with the closed form at span[0]."""
    w, k = p.omega, p.kappa
    zs = np.linspace(span[0], span[1], 25)
    X0 = k * math.exp(span[0])
    seed = (basis_G1(branch, w, X0).value, recurrence_shift(branch, w, X0).value)
    res = integrate_linear_ode2(k * k, w, span[0], seed, zs.tolist())
    closed = eval_G(branch, p, zs)[0]
    return (float(np.max(np.abs(np.array(res.u) - closed)))
            / float(np.max(np.abs(closed))))


def closed_form_vs_ode():
    """The bessel+ kernel integrated rightward on a 4 x 3 (omega, kappa)
    grid, and the decaying kernel leftward, its stable direction."""
    worst = 0.0
    for w in (0.5, 1.0, 2.0, 5.0):
        for k in (0.2, 1.0, 5.0):
            p = ModeParams(w, k, 0.0)
            span = (-6.0, turning_point(p).z0 + 3.0)
            worst = max(worst, _ode_deviation(BasisBranch.BESSEL_PLUS, p, span))
    p = ModeParams(2.0, 1.0, 0.0)
    span = (turning_point(p).z0 + 3.0, -6.0)
    return max(worst, _ode_deviation(BasisBranch.HANKEL1, p, span))


def envelope_crossing_offset():
    """|z of the 1/e envelope crossing - z0| of the decaying branch."""
    worst = 0.0
    for w in (2.0, 5.0, 10.0):
        p = ModeParams(w, 1.0, 0.0)
        worst = max(worst, abs(envelope_crossing(p) - turning_point(p).z0))
    return worst


def neumann_fit_agreement():
    """Fitted Neumann R against the amplitude ratio, relative."""
    p = ModeParams(1.0, 1.0, 0.0)
    worst = 0.0
    for br in (BasisBranch.NEUMANN_PLUS, BasisBranch.NEUMANN_MINUS):
        aud = neumann_audit(br, p)
        worst = max(worst, abs(aud.R_fitted - aud.R_amplitudes) / aud.R_amplitudes)
    return worst


CHECKS = (
    Check("geometry_roundtrip", geometry_roundtrip, 1e-10),
    Check("hyperboloid_constraint", hyperboloid_constraint, 1e-12),
    Check("maxwell_firstorder", maxwell_firstorder, 1e-8),
    Check("maxwell_matrix", maxwell_matrix, 1e-8),
    Check("planewave", planewave, 1e-12),
    Check("heun_form", heun_form, 1e-5),
    Check("gamma_identity", gamma_identity, 1e-12),
    Check("wronskian", wronskian, 1e-9),
    Check("reflection_mirror", reflection_mirror, 1e-6),
    Check("turning_point", turning_point_identity, 1e-12),
    Check("neumann_discrepancy_flag", neumann_discrepancy_flag, 0.5),
    Check("growing_branch_reflection", growing_branch_reflection, 0.01),
    Check("closed_form_vs_ode", closed_form_vs_ode, 1e-7),
    Check("envelope_crossing", envelope_crossing_offset, 1.0),
    Check("neumann_fit_agreement", neumann_fit_agreement, 1e-6),
)
