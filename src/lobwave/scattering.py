"""Asymptotic amplitudes, reflection coefficients, and barrier quantities.

The radial profile G obeys G'' + (omega^2 - kappa^2 e^{2z}) G = 0, which
is one-dimensional scattering off the exponential barrier
U(z) = kappa^2 e^{2z}.  Far to the left the solutions are superpositions
M_plus e^{i omega z} + M_minus e^{-i omega z}, and the reflection
coefficient is R = |M_minus|^2 / |M_plus|^2.

Three independent routes to R are provided: closed-form asymptotic
amplitudes, a least-squares plane-wave fit of kernel samples, and a
from-scratch ODE integration seeded in the deep barrier region.  For the
Neumann branches an audit compares the published closed-form R values
against the fit, because the two disagree (see neumann_audit).
"""

from __future__ import annotations

import cmath
import math

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError, RangeError
from .modes import ModeParams, _exp_z, _require_kappa
from .numerics import integrate_linear_ode2, lsq_fit_two_waves
from .specfun import _BLOCK, BasisBranch, basis_G1, log_gamma, recurrence_shift

__all__ = [
    "AsymptoticAmplitudes",
    "ReflectionResult",
    "BarrierInfo",
    "NeumannAudit",
    "schrodinger_potential",
    "effective_force",
    "turning_point",
    "penetration_depth",
    "amplitudes_analytic",
    "amplitudes_fit",
    "reflection",
    "reflection_numeric_oracle",
    "near_turning_exponent",
    "envelope_crossing",
    "neumann_audit",
]


@dataclass(frozen=True)
class AsymptoticAmplitudes:
    """Left-asymptotic plane-wave coefficients of a radial profile."""

    Mplus: complex
    Mminus: complex

    def __post_init__(self):
        if self.Mplus == 0 and self.Mminus == 0:
            raise DomainError("amplitudes cannot both vanish")


@dataclass(frozen=True)
class ReflectionResult:
    R: float
    branch: BasisBranch
    method: str

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R >= 0.0):
            raise DomainError(f"R = {self.R} must be finite and >= 0")
        if self.method not in ("analytic", "fitted"):
            raise DomainError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class BarrierInfo:
    """Turning point data of the exponential barrier (units rho = c = 1)."""

    z0: float
    x0_magnitude: float
    U0: float

    def __post_init__(self):
        defect = abs(self.U0 * math.exp(2.0 * self.z0) - self.x0_magnitude ** 2)
        # "not <=": a NaN defect (U0 = inf, e^{2 z0} = 0) fails too
        if not defect <= 1e-12 * self.x0_magnitude ** 2:
            raise DomainError(f"turning-point identity violated by {defect:.3e}")


@dataclass(frozen=True)
class NeumannAudit:
    """Side-by-side record of the published Neumann reflection constants.

    `R_printed` reproduces the published closed-form expression verbatim;
    `R_amplitudes` is the ratio from the left-asymptotic coefficients and
    `R_fitted` comes from the plane-wave fit oracle.  The latter two agree;
    the printed constant does not, and `discrepancy_flag` records that.
    """

    branch: BasisBranch
    R_printed: float
    R_amplitudes: float
    R_fitted: float
    discrepancy_flag: bool


def schrodinger_potential(p: ModeParams, z: float) -> float:
    """Barrier potential U(z) = (a^2 + b^2) e^{2z} of the radial equation."""
    return p.kappa * p.kappa * math.exp(2.0 * z)


def effective_force(p: ModeParams, z: float) -> float:
    """-dU/dz, the effective force pushing the wave back to z -> -infinity."""
    return -2.0 * p.kappa * p.kappa * math.exp(2.0 * z)


def turning_point(p: ModeParams) -> BarrierInfo:
    """Classical turning point z0 = ln(omega/kappa) where U(z0) = omega^2.

    Raises RangeError where (omega/kappa)^2 = e^{2 z0} or kappa^2 = U0 is
    not a finite double (kappa below about omega * 1e-154, or above about
    1.3e154).
    """
    _require_kappa(p)
    ratio = p.omega / p.kappa
    U0 = p.kappa * p.kappa
    if not (math.isfinite(ratio * ratio) and math.isfinite(U0)):
        raise RangeError(f"omega = {p.omega}, kappa = {p.kappa}: (omega/kappa)^2"
                         " or kappa^2 is past the double range")
    return BarrierInfo(z0=math.log(ratio), x0_magnitude=p.omega, U0=U0)


def penetration_depth(omega_physical: float, k1: float, k2: float,
                      rho: float, c: float = 299792458.0) -> float:
    """Depth rho * ln(omega / (c sqrt(k1^2 + k2^2))) in the units of rho.

    omega_physical in rad/s, k1 and k2 in 1/m, rho (the curvature radius)
    in metres, c in m/s.  Negative values are meaningful: the turning
    point then lies on the near side of the z = 0 section.
    """
    kappa = math.hypot(k1, k2)
    if kappa <= 0.0:
        raise DomainError("k1 = k2 = 0 gives no barrier")
    if not (omega_physical > 0.0 and rho > 0.0 and c > 0.0):
        raise DomainError("omega, rho, and c must be positive")
    return rho * math.log(omega_physical / (c * kappa))


def _left_coefficients(p: ModeParams):
    """The two elementary left-asymptotic coefficients of J_{+-i omega}.

    P is the coefficient of e^{+i omega z} in J_{+i omega}, Q that of
    e^{-i omega z} in J_{-i omega}; sigma = kappa/2 from x/2 = i sigma e^z.
    """
    w = p.omega
    sigma = 0.5 * p.kappa
    # (i sigma)^{+-i omega} = e^{-+ omega pi/2} e^{+-i omega ln sigma}
    P = cmath.exp(-0.5 * w * math.pi + 1j * w * math.log(sigma)
                  - log_gamma(1.0 + 1j * w))
    Q = cmath.exp(+0.5 * w * math.pi - 1j * w * math.log(sigma)
                  - log_gamma(1.0 - 1j * w))
    return P, Q


def amplitudes_analytic(branch: BasisBranch, p: ModeParams) -> AsymptoticAmplitudes:
    """Closed-form left-asymptotic amplitudes of the chosen branch.

    Built from the z -> -infinity limits of the kernels; the factor
    i/sin(i omega pi) is expanded to 1/sinh(omega pi) analytically.
    """
    _require_kappa(p)
    P, Q = _left_coefficients(p)
    w = p.omega
    sh = math.sinh(w * math.pi)
    ch = math.cosh(w * math.pi)
    if branch is BasisBranch.BESSEL_PLUS:
        return AsymptoticAmplitudes(P, 0.0)
    if branch is BasisBranch.BESSEL_MINUS:
        return AsymptoticAmplitudes(0.0, Q)
    if branch is BasisBranch.HANKEL1:
        return AsymptoticAmplitudes(math.exp(w * math.pi) * P / sh, -Q / sh)
    if branch is BasisBranch.HANKEL2:
        return AsymptoticAmplitudes(-math.exp(-w * math.pi) * P / sh, Q / sh)
    if branch is BasisBranch.NEUMANN_PLUS:
        return AsymptoticAmplitudes(ch * P / (1j * sh), -Q / (1j * sh))
    if branch is BasisBranch.NEUMANN_MINUS:
        return AsymptoticAmplitudes(P / (1j * sh), -ch * Q / (1j * sh))
    raise DomainError(f"unknown branch {branch!r}")


def amplitudes_fit(zs, gs, omega: float) -> AsymptoticAmplitudes:
    """Plane-wave decomposition of sampled G values far left of the barrier.

    `zs` and `gs` are 1-D arrays of heights z and values G(z) taken where
    U(z)/omega^2 is negligible; needs at least 8 samples spanning two
    periods of the slower phase for a well-conditioned fit.
    """
    zs = np.asarray(zs, dtype=float)
    gs = np.asarray(gs, dtype=complex)
    if zs.size < 8:
        raise ConditioningError("amplitude fit needs at least 8 samples")
    span = zs.max() - zs.min()
    if omega * span < 0.5 * math.pi:
        raise ConditioningError(
            f"sample span {span} covers under a quarter period at omega {omega}"
        )
    cp, cm, resid = lsq_fit_two_waves(zs, gs, omega)
    scale = np.abs(gs).max()
    if resid > 1e-6 * scale:
        raise ConditioningError(
            f"fit residual {resid:.3e} exceeds 1e-6 of sample scale {scale:.3e}; "
            "samples are not in the asymptotic region"
        )
    return AsymptoticAmplitudes(cp, cm)


_FIT_RIGHT_EDGE = -6.0
_FIT_SAMPLES = 64


def _fit_window(p: ModeParams):
    """Asymptotic sampling window: ends at least 8 curvature radii left of
    the turning point (U/omega^2 ~ 1e-7 there) and spans two periods."""
    right = min(_FIT_RIGHT_EDGE, math.log(p.omega / p.kappa) - 8.0)
    span = max(2.0, 4.0 * math.pi / p.omega)
    return (right - span, right)


def _kernel_samples(branch: BasisBranch, p: ModeParams):
    zs = np.linspace(*_fit_window(p), _FIT_SAMPLES)
    X = p.kappa * _exp_z(zs)
    return zs, basis_G1(branch, p.omega, X).value


def _printed_neumann_R(branch: BasisBranch, omega: float) -> float:
    """The published closed-form Neumann reflection constants, verbatim."""
    q = math.exp(4.0 * omega * math.pi)
    if branch is BasisBranch.NEUMANN_PLUS:
        return 4.0 / (1.0 + 1.0 / q)
    if branch is BasisBranch.NEUMANN_MINUS:
        return (1.0 + q) / 4.0
    raise DomainError(f"{branch} is not a Neumann branch")


def reflection(branch: BasisBranch, p: ModeParams, method: str = "analytic"
               ) -> ReflectionResult:
    """Reflection coefficient R = |M_minus|^2 / |M_plus|^2 of a branch.

    method "analytic" uses the closed forms (for the Neumann branches the
    published constants are reproduced as printed; see neumann_audit for
    why they disagree with the fit); "fitted" runs the plane-wave fit on
    kernel samples in the asymptotic window.
    """
    _require_kappa(p)
    if method == "analytic":
        if branch in (BasisBranch.NEUMANN_PLUS, BasisBranch.NEUMANN_MINUS):
            return ReflectionResult(_printed_neumann_R(branch, p.omega),
                                    branch, "analytic")
        amps = amplitudes_analytic(branch, p)
    elif method == "fitted":
        amps = amplitudes_fit(*_kernel_samples(branch, p), p.omega)
    else:
        raise DomainError(f"unknown method {method!r}")
    if amps.Mplus == 0:
        raise DomainError(
            f"{branch} has no right-moving component; R is undefined"
        )
    return ReflectionResult(abs(amps.Mminus) ** 2 / abs(amps.Mplus) ** 2,
                            branch, method)


def neumann_audit(branch: BasisBranch, p: ModeParams) -> NeumannAudit:
    """Compare the published Neumann R constants with the fit oracle.

    The published values are omega-independent apart from e^{4 omega pi}
    factors and exceed 1, which cannot hold for reflection off an
    impenetrable barrier; the amplitude-ratio and fitted values agree
    with each other and differ from the published constants, so the
    discrepancy flag fires for every omega > 0.
    """
    _require_kappa(p)
    r_printed = _printed_neumann_R(branch, p.omega)
    amps = amplitudes_analytic(branch, p)
    r_amp = abs(amps.Mminus) ** 2 / abs(amps.Mplus) ** 2
    r_fit = reflection(branch, p, method="fitted").R
    flag = abs(r_printed - r_fit) > 1e-6 * max(r_printed, r_fit)
    return NeumannAudit(branch, r_printed, r_amp, r_fit, flag)


# ---------------------------------------------------------------------------
# from-scratch ODE oracle

_SEED_OFFSET_GROWING = 2.5
# e-folds by which the barrier must damp a growing admixture in the seed
# of the decaying run to leave it below double precision
_SEED_DAMPING = math.log(1e16)


def _decaying_log_derivative(omega: float, X: float) -> float:
    """d ln K_{i omega}(X) / dz at X = kappa e^z, from the large-X series.

    K ~ sqrt(pi/2X) e^{-X} S(X) with S the standard inverse-power series;
    d ln K/dX = -1 - 1/(2X) + S'/S, multiplied by X for the z derivative.
    """
    four_nu2 = -4.0 * omega * omega
    term = 1.0
    s = 1.0
    ds = 0.0
    best = math.inf
    for k in range(40):
        term = term * (four_nu2 - (2 * k + 1.0) ** 2) / (8.0 * (k + 1.0) * X)
        if abs(term) >= best:
            break
        best = abs(term)
        s += term
        ds += -(k + 1.0) * term / X
        if abs(term) < 1e-16 * abs(s):
            break
    return X * (-1.0 - 0.5 / X + ds / s)


def _decaying_seed_X(omega: float) -> float:
    """Smallest X at which the barrier has damped a growing admixture
    below double precision relative to the decaying solution.

    Between the turning point and X the two WKB solutions separate by
    2 int_omega^X sqrt(x^2 - omega^2) dx/x
    = 2 (sqrt(X^2 - omega^2) - omega arccos(omega/X)) e-folds; the seed is
    where that reaches _SEED_DAMPING (X ~ omega + 18.4 for small omega).
    The exponent is convex and increasing in X, so Newton's method lands
    right of the root after one step and then descends onto it.
    """
    X = omega + _SEED_DAMPING
    for _ in range(50):
        s = math.sqrt(X * X - omega * omega)
        damping = 2.0 * (s - omega * math.acos(omega / X))
        step = (damping - _SEED_DAMPING) * X / (2.0 * s)
        X -= step
        if abs(step) <= 1e-12 * X:
            break
    return X


def reflection_numeric_oracle(p: ModeParams, variant: str = "decaying") -> float:
    """R from a from-scratch integration of G'' + (omega^2 - U) G = 0.

    variant "decaying": seed inside the barrier with the decaying profile
    (unit value, log-derivative from the large-argument series) at the
    smallest depth where the barrier damps any growing admixture that
    the inexact seed carries below double precision, integrate leftward
    (the stable direction for this solution) and fit plane waves in the
    asymptotic window.  The solution grows by at most ~e^{18} on the way,
    so one integration without renormalization suffices.  Must give
    R = 1 for any parameters.

    variant "growing": seed closer to the turning point from the exact
    growing-branch kernel and its recurrence derivative (a one-term
    asymptote would lose the recessive component, which the leftward
    integration re-amplifies to order e^{omega pi}); gives R = e^{4 omega pi}.
    The leftward run still loses the recessive component as omega grows
    (relative error 2e-6 at omega = 0.8, 7e-4 at omega = 1).
    """
    _require_kappa(p)
    if p.omega > 20.0:
        raise DomainError("oracle supports omega <= 20")
    if variant == "decaying":
        X = _decaying_seed_X(p.omega)
        z_seed = math.log(X / p.kappa)
        u = 1.0 + 0.0j
        v = complex(_decaying_log_derivative(p.omega, X))
    elif variant == "growing":
        z_seed = math.log(p.omega / p.kappa) + _SEED_OFFSET_GROWING
        X = p.kappa * math.exp(z_seed)
        u = basis_G1(BasisBranch.HANKEL2, p.omega, X).value
        v = recurrence_shift(BasisBranch.HANKEL2, p.omega, X).value
    else:
        raise DomainError(f"unknown oracle variant {variant!r}")

    def U(z):
        return p.kappa * p.kappa * math.exp(2.0 * z)

    window = _fit_window(p)
    zs = np.linspace(window[1], window[0], _FIT_SAMPLES)
    res = integrate_linear_ode2(U, p.omega * p.omega, (z_seed, window[0]),
                                (u, v), list(zs))
    amps = amplitudes_fit(res.z, res.u, p.omega)
    return abs(amps.Mminus) ** 2 / abs(amps.Mplus) ** 2


# ---------------------------------------------------------------------------
# local behavior at the turning point

# u = X/omega - 1 at the samples of near_turning_exponent
_NEAR_TURNING_U = np.linspace(-0.02, 0.02, 33)


def _log_slope(us, values):
    """Least-squares slope of ln|values| against us."""
    mags = np.abs(values)
    if np.any(mags <= 0.0):
        raise ConditioningError("profile vanishes inside the fit window")
    slope, _ = np.polyfit(us, np.log(mags), 1)
    return float(slope)


def near_turning_exponent(p: ModeParams) -> float:
    """Fitted slope B of ln|G1| against u near the turning point.

    The local coordinate is u with X = omega (1 + u); the decaying branch
    is sampled at 33 points on |u| <= 0.02 by one basis_G1 grid call,
    and B comes from a straight-line least squares fit.

    The leading-order local model allows only B = 0 or B = -1, with
    B = -1 on the physical branch; the measured slope also carries the
    curvature-scale contribution, which grows like omega^{2/3}, so for
    large omega the fitted value lies well below -1.
    """
    _require_kappa(p)
    X = p.omega * (1.0 + _NEAR_TURNING_U)
    return _log_slope(_NEAR_TURNING_U,
                      basis_G1(BasisBranch.HANKEL1, p.omega, X).value)


_CROSSING_SEARCH = 3.0
# secant steps in a row that may leave the bracket wider than half its
# width at the last halving before a bisection step is forced
_CROSSING_STALL = 3


def envelope_crossing(p: ModeParams) -> float:
    """z at which the decaying branch falls to 1/e of its left envelope.

    The left envelope is |M_plus| + |M_minus| of the closed-form
    amplitudes; returns the largest z in [z0 - 3, z0 + 3] where
    |G1| crosses that envelope over e.  A 601-point grid is walked from
    the right in blocks of 32 points (one kernel block, one grid call
    each), and stops at the first block that holds a point with
    |G1| >= envelope / e, so at most
    31 kernel values left of the crossing are evaluated.  That point and
    its right neighbour bracket the crossing, and a safeguarded secant
    on g(z) = ln(|G1| / target) refines the bracket, started from the two
    |G1| values the walk already holds:

    - regula falsi with the Illinois rule (Dowell & Jarratt, BIT 11, 1971):
      when the same end moves twice in a row, the other end's g is halved;
    - a secant point that rounds onto an end of the bracket moves 1 ulp in
      from that end, twice as far each time in a row, since the crossing
      then lies within rounding of that end;
    - a bisection step whenever the secant cannot be taken or three
      steps in a row leave the bracket wider than half its width at the
      last halving.

    Throughout, |G1(lo)| >= target > |G1(hi)|, and the search stops once
    lo and hi are adjacent doubles, where no further step can move them.
    Where rounding noise leaves several adjacent pairs straddling the
    target, it returns one of them.  A call makes 14-31 basis_G1 calls
    on 0.06 <= omega <= 38 (median 16 on 300 seeded cells).
    """
    _require_kappa(p)
    amps = amplitudes_analytic(BasisBranch.HANKEL1, p)
    target = (abs(amps.Mplus) + abs(amps.Mminus)) / math.e
    z0 = turning_point(p).z0

    def mag(X):
        return abs(basis_G1(BasisBranch.HANKEL1, p.omega, X).value)

    zs = np.linspace(z0 - _CROSSING_SEARCH, z0 + _CROSSING_SEARCH, 601)
    # each X is the one the refinement's float z gives, to the bit
    X = p.kappa * _exp_z(zs)
    i = -1
    right = None  # |G1| on the block walked before this one
    for end in range(len(zs), 0, -_BLOCK):
        start = max(end - _BLOCK, 0)
        block = mag(X[start:end])
        above = np.flatnonzero(block >= target)
        if above.size:
            i = start + int(above[-1])
            break
        right = block
    if i < 0 or i == len(zs) - 1:
        raise ConditioningError("no envelope crossing inside the search window")
    lo, hi = float(zs[i]), float(zs[i + 1])
    g_lo = math.log(block[i - start] / target)
    g_hi = math.log((block[i + 1 - start] if i + 1 < end else right[0])
                    / target)
    width = hi - lo  # at the last halving
    stalled = 0      # steps since then
    moved = 0        # +1 if the last step moved lo, -1 if it moved hi
    nudge = 1.0      # ulps, for a secant point that rounds onto an end
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        z = mid
        if stalled < _CROSSING_STALL and g_lo > g_hi:
            z = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
            if lo < z < hi:
                nudge = 1.0
            elif z == lo:
                z = lo + nudge * math.ulp(lo)
                nudge *= 2.0
            elif z == hi:
                z = hi - nudge * math.ulp(hi)
                nudge *= 2.0
            if not lo < z < hi:
                z = mid
        m = mag(p.kappa * _exp_z(z))
        g = math.log(m / target)
        if m >= target:
            lo, g_lo = z, g
            if moved == 1:
                g_hi *= 0.5
            moved = 1
        else:
            hi, g_hi = z, g
            if moved == -1:
                g_lo *= 0.5
            moved = -1
        if hi - lo <= 0.5 * width:
            width, stalled = hi - lo, 0
        else:
            stalled += 1
    return 0.5 * (lo + hi)
