"""Assembly of the separated Maxwell modes and their exactness checks.

A mode is labelled by (omega, a, b) and a solution branch.  The scalar
chain runs

    G1, G2  --(orthogonal rotation)-->  F1, F2  --(e^z weights)-->  f1, f2, f3

and the full complex field is the plane-phase dressing
e^{-i omega t} e^{i a x} e^{i b y} f(z).  Residual operators verify the
assembled stack against the four-line first-order system and against
the equivalent 4x4 matrix operator, with all z-derivatives supplied
analytically through the Bessel recurrences (never finite differences,
so the residuals measure exactness rather than discretization error).

The stack and both residuals take a float z or a 1-D array of z through
the same expressions: a grid's stack holds arrays from one kernel call,
and a residual is the worst over the grid.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateModeError, DomainError
from .specfun import _LOG_DOUBLE_MAX, BasisBranch, basis_G1, recurrence_shift

__all__ = [
    "BasisBranch",
    "ModeParams",
    "ModeAmplitudes",
    "FieldVector",
    "MaxwellMatrices",
    "MAXWELL_MATRICES",
    "eval_G",
    "F_from_G",
    "amplitudes_at",
    "plane_wave_amplitudes",
    "assemble_field",
    "maxwell_residual_firstorder",
    "maxwell_residual_matrix",
    "plane_wave_special",
    "heun_form_residual",
]


@dataclass(frozen=True)
class ModeParams:
    """Separation constants of one exact mode (units c = curvature radius = 1)."""

    omega: float
    a: float
    b: float
    kappa: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise DomainError(f"omega = {self.omega} must be positive and finite")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("wavenumbers must be finite")
        object.__setattr__(self, "kappa", math.hypot(self.a, self.b))


@dataclass(frozen=True)
class ModeAmplitudes:
    """Scalar profile stack of a mode at height z, or arrays of it on a
    1-D grid of z.

    For kappa > 0 the pair (F1, F2) is the fixed orthogonal rotation of
    (G1, G2) and f1 = e^z F1, f2 = e^z F2 hold exactly by construction.
    For the degenerate kappa = 0 plane wave the G fields are unused and
    set to zero.
    """

    G1: complex
    G2: complex
    F1: complex
    F2: complex
    f1: complex
    f2: complex
    f3: complex
    z: float


@dataclass(frozen=True)
class FieldVector:
    """Complex combination E + iB in the orthonormal local frame."""

    c1: complex
    c2: complex
    c3: complex

    @property
    def E(self):
        return (self.c1.real, self.c2.real, self.c3.real)

    @property
    def B(self):
        return (self.c1.imag, self.c2.imag, self.c3.imag)


def _m(rows):
    return np.array(rows, dtype=float)


@dataclass(frozen=True)
class MaxwellMatrices:
    alpha1: np.ndarray
    alpha2: np.ndarray
    alpha3: np.ndarray
    s1: np.ndarray
    s2: np.ndarray


MAXWELL_MATRICES = MaxwellMatrices(
    alpha1=_m([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
    alpha2=_m([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]),
    alpha3=_m([[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]),
    s1=_m([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
    s2=_m([[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, -1, 0, 0]]),
)


def _require_kappa(p: ModeParams):
    if p.kappa == 0.0:
        raise DegenerateModeError(
            "kappa = 0 modes are plane waves; use plane_wave_special"
        )


def _exp_z(z):
    """e^z for a float or a 1-D array: math.exp on each element, so a grid
    gives each float z's X to the bit.  Past the double range it is inf,
    which the kernels reject with a RangeError, after any finite X > 700
    before it on a grid."""
    if isinstance(z, np.ndarray):
        return np.array([math.inf if v > _LOG_DOUBLE_MAX else math.exp(v)
                         for v in z.tolist()])
    return math.inf if z > _LOG_DOUBLE_MAX else math.exp(z)


def eval_G(branch: BasisBranch, p: ModeParams, z):
    """(G1, G2) at height z: G1 from the branch kernel, G2 = (x/omega) dG1/dx.

    z is a float, or a 1-D array on which G1 and G2 are arrays, each from
    one kernel call over the whole grid.
    """
    _require_kappa(p)
    with np.errstate(over="ignore"):
        X = p.kappa * _exp_z(z)
    # G2 first: it is not finite wherever G1 is not, so a grid raises
    # the error that a point-by-point loop would meet first
    g2 = recurrence_shift(branch, p.omega, X).value / p.omega
    g1 = basis_G1(branch, p.omega, X).value
    return g1, g2


def F_from_G(g1: complex, g2: complex, p: ModeParams):
    """Rotate (G1, G2) into (F1, F2); norm-preserving, inverse is transpose."""
    _require_kappa(p)
    f1 = (p.b * g1 + p.a * g2) / p.kappa
    f2 = (-p.a * g1 + p.b * g2) / p.kappa
    return f1, f2


def amplitudes_at(branch: BasisBranch, p: ModeParams, z) -> ModeAmplitudes:
    """Assemble the full profile stack (G, F, f) of a mode at height z,
    a float or a 1-D array.

    f3 is built from the transverse amplitudes, which collapses to the
    single-kernel form (kappa / (i omega)) e^{2z} G1.
    """
    _require_kappa(p)
    g1, g2 = eval_G(branch, p, z)
    F1, F2 = F_from_G(g1, g2, p)
    ez = _exp_z(z)
    e2z = ez * ez
    f3 = (e2z / p.omega) * (-1j * p.b * F1 + 1j * p.a * F2)
    return ModeAmplitudes(
        G1=g1, G2=g2, F1=F1, F2=F2, f1=ez * F1, f2=ez * F2, f3=f3, z=z
    )


def plane_wave_amplitudes(sign: int, omega: float, z: float) -> ModeAmplitudes:
    """Degenerate a = b = 0 stack: F1 = e^{+-i omega z}, F2 = +-i F1, f3 = 0."""
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    if not omega > 0.0:
        raise DomainError("omega must be positive")
    F1 = cmath.exp(1j * sign * omega * z)
    F2 = 1j * sign * F1
    ez = math.exp(z)
    return ModeAmplitudes(
        G1=0.0, G2=0.0, F1=F1, F2=F2, f1=ez * F1, f2=ez * F2, f3=0.0, z=z
    )


def assemble_field(branch: BasisBranch, p: ModeParams, t: float, x: float,
                   y: float, z: float) -> FieldVector:
    """E + iB at a spacetime point: plane phases times the z-profile."""
    amps = amplitudes_at(branch, p, z)
    phase = cmath.exp(-1j * p.omega * t + 1j * p.a * x + 1j * p.b * y)
    return FieldVector(phase * amps.f1, phase * amps.f2, phase * amps.f3)


def _deriv_stack(amps: ModeAmplitudes, p: ModeParams):
    """Analytic z-derivatives (f1', f2', f3') of the profile stack."""
    ez = _exp_z(amps.z)
    if p.kappa == 0.0:
        # degenerate plane wave: F1' = omega F2, F2' = -omega F1, f3 = 0
        dF1 = p.omega * amps.F2
        dF2 = -p.omega * amps.F1
        return ez * (amps.F1 + dF1), ez * (amps.F2 + dF2), 0.0 + 0.0j
    # G1' = omega G2 and G2' = (X^2 - omega^2) / omega G1, X = kappa e^z
    X = p.kappa * ez
    dg1 = p.omega * amps.G2
    dg2 = (X * X - p.omega * p.omega) / p.omega * amps.G1
    dF1, dF2 = F_from_G(dg1, dg2, p)
    e2z = ez * ez
    df3 = (e2z / p.omega) * (
        2.0 * (-1j * p.b * amps.F1 + 1j * p.a * amps.F2)
        + (-1j * p.b * dF1 + 1j * p.a * dF2)
    )
    return ez * (amps.F1 + dF1), ez * (amps.F2 + dF2), df3


def _firstorder_equations(f, df, p: ModeParams, z):
    """The four first-order equation values for a stack (f1,f2,f3) and its
    z-derivatives; each entry is (lhs_value, scale_of_largest_term), both
    arrays on a grid of z."""
    f1, f2, f3 = f
    df1, df2, df3 = df
    a, b, w = p.a, p.b, p.omega
    ez = _exp_z(z)
    # axes: line, term, and the heights of a grid
    t = np.array((
        (1j * a * ez * f1, 1j * b * ez * f2, df3 - 2.0 * f3),
        (-w * f1, -(df2 - f2), 1j * b * ez * f3),
        (-w * f2, (df1 - f1), -1j * a * ez * f3),
        (-w * f3, -1j * b * ez * f1, 1j * a * ez * f2),
    ))
    return list(zip(t.sum(axis=1), abs(t).max(axis=1)))


def maxwell_residual_firstorder(amps: ModeAmplitudes, p: ModeParams) -> float:
    """Max residual of the four-line first-order system, relative to the
    largest additive term of each line, over every z of the stack.  Exact
    modes give <= 1e-8."""
    f = (amps.f1, amps.f2, amps.f3)
    df = _deriv_stack(amps, p)
    lhs, scale = zip(*_firstorder_equations(f, df, p, amps.z))
    return float((np.abs(lhs) / np.maximum(scale, 1e-300)).max())


def maxwell_residual_matrix(amps: ModeAmplitudes, p: ModeParams) -> float:
    """Residual of the 4x4 complex-matrix operator applied to (0, f), over
    every z of the stack."""
    m = MAXWELL_MATRICES
    # rows are the four components, columns the heights of a grid
    zero = np.zeros_like(amps.f1)
    psi = np.array([zero, amps.f1, amps.f2, amps.f3], dtype=complex)
    dpsi = np.array([zero, *_deriv_stack(amps, p)], dtype=complex)
    ez = _exp_z(amps.z)
    out = (
        -p.omega * psi
        + 1j * p.a * ez * (m.alpha1 @ psi)
        + 1j * p.b * ez * (m.alpha2 @ psi)
        + m.alpha3 @ dpsi
        - m.alpha1 @ (m.s2 @ psi)
        + m.alpha2 @ (m.s1 @ psi)
    )
    # the largest coefficient times max |psi|: rounding is monotone, so
    # this is the largest of the products, to the bit
    coef = np.maximum(p.omega, max(abs(p.a), abs(p.b)) * ez)
    scale = np.maximum(coef * abs(psi).max(axis=0),
                       np.maximum(abs(dpsi).max(axis=0), 1e-300))
    return float((abs(out).max(axis=0) / scale).max())


def plane_wave_special(sign: int, omega: float, t: float, z: float) -> FieldVector:
    """Exact a = b = 0 running wave; E x B points along +-e_z."""
    amps = plane_wave_amplitudes(sign, omega, z)
    phase = cmath.exp(-1j * omega * t)
    return FieldVector(phase * amps.f1, phase * amps.f2, 0.0)


def heun_form_residual(branch: BasisBranch, p: ModeParams, z_grid) -> float:
    """Residual of the second-order equation for F1 in the variable
    Z = e^z / sqrt(omega), with F1'' by high-order finite differences.

    All five stencil heights of every grid point go to one `eval_G` call.
    The grid must stay clear of the regular singular point
    Z = sqrt(omega)/a; requires a != 0.
    """
    _require_kappa(p)
    if p.a == 0.0:
        raise DomainError("heun-form residual needs a != 0")
    sw = math.sqrt(p.omega)
    z_sing = sw / abs(p.a)
    a2, w = p.a * p.a, p.omega
    U0 = p.kappa * p.kappa
    zs = np.asarray(z_grid, dtype=float)
    Z = _exp_z(zs) / sw
    h = 1e-3 * Z
    near = np.flatnonzero(np.abs(Z - z_sing) < 10.0 * h + 0.02 * z_sing)
    if near.size:
        raise DomainError(f"grid point z = {zs[near[0]]} too close to the "
                          f"singular point Z = {z_sing}")
    # centre row first: where e^z overflows, eval_G meets its X = inf and
    # raises a RangeError before the NaN heights that Z - h = inf - inf gives
    with np.errstate(invalid="ignore"):
        stencil = np.array([Z, Z - 2.0 * h, Z - h, Z + h, Z + 2.0 * h])
    g1, g2 = eval_G(branch, p, np.log(sw * stencil).ravel())
    f2, f0, f1, f3, f4 = F_from_G(g1, g2, p)[0].reshape(stencil.shape)
    d1 = (f0 - 8.0 * f1 + 8.0 * f3 - f4) / (12.0 * h)
    d2 = (-f0 + 16.0 * f1 - 30.0 * f2 + 16.0 * f3 - f4) / (12.0 * h * h)
    c1 = -(a2 * Z * Z + w) / (Z * (a2 * Z * Z - w))
    c0 = w * w / (Z * Z) + 2.0 * p.a * p.b * w / (a2 * Z * Z - w) - U0 * w
    t0, t1, t2 = d2, c1 * d1, c0 * f2
    scale = np.maximum(np.maximum(abs(t0), abs(t1)), np.maximum(abs(t2), 1e-300))
    return float(np.max(abs(t0 + t1 + t2) / scale, initial=0.0))
