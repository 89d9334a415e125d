"""Self-contained numerical services.

Nothing here knows about Bessel functions or Maxwell modes: an embedded
Dormand-Prince 5(4) integrator for the second-order mode equation, an
adaptive Gauss-Kronrod 7/15 quadrature, and a two-wave linear
least-squares fit.  The integrator and the fit are independent oracles
for the closed-form code paths, and that independence is what makes the
cross-validation meaningful.  The quadrature is not: `specfun` imports
`quad_adaptive` as its K_{i omega} route for omega <= 3 and
X <= 1.05 omega (ROADMAP #1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, ConditioningError, DomainError


@dataclass(frozen=True)
class ToleranceSpec:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.rel_tol < 1e-14:
            raise DomainError("rel_tol below 1e-14 is not attainable in doubles")
        if self.abs_tol < 0.0:
            raise DomainError("abs_tol must be >= 0")
        if self.max_steps <= 0:
            raise DomainError("max_steps must be positive")


@dataclass
class IntegrationResult:
    z: list = field(default_factory=list)
    u: list = field(default_factory=list)
    du: list = field(default_factory=list)
    n_accepted: int = 0
    n_rejected: int = 0


# Dormand-Prince 5(4) tableau (Hairer-Norsett-Wanner, Table II.5.2), one
# name per nonzero entry so the step below runs on scalar locals.
# c6 = c7 = 1.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
# fifth-order weights (b2 = b7 = 0); they are also row 7 of A, so stage 7
# is evaluated at the fifth-order solution (first same as last)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# embedded fourth-order weights (b2 = 0)
_BH1, _BH3, _BH4, _BH5, _BH6, _BH7 = (5179 / 57600, 7571 / 16695, 393 / 640,
                                      -92097 / 339200, 187 / 2100, 1 / 40)


def integrate_linear_ode2(coeff, omega2, span, init, tol=None, outputs=None):
    """Integrate u'' = (coeff(z) - omega2) u with an embedded RK 5(4) pair.

    `span` is (z_start, z_end) in either direction; `init` is (u, u') at
    z_start; `outputs` is an optional list of z values (ordered along the
    integration direction) at which (u, u') is recorded.  The state is
    complex; error control is per-step on max(|u|, |u'|/scale).
    """
    tol = tol or ToleranceSpec()
    z0, z1 = float(span[0]), float(span[1])
    if not (math.isfinite(z0) and math.isfinite(z1)) or z0 == z1:
        raise DomainError(f"bad integration span ({z0}, {z1})")
    direction = 1.0 if z1 > z0 else -1.0
    outputs = [float(zo) for zo in (outputs if outputs is not None else [z1])]
    for zo in outputs:
        if (zo - z0) * direction < -1e-12 or (z1 - zo) * direction < -1e-12:
            raise DomainError(f"output point {zo} outside span")

    result = IntegrationResult()
    u = complex(init[0])
    v = complex(init[1])
    z = z0
    # q = coeff(z) - omega2 at the current point, carried from stage 7 of
    # the last accepted step
    q = coeff(z0) - omega2
    # velocity scale for the error norm: rates are O(sqrt(|coeff - omega2|))
    rate0 = math.sqrt(abs(q)) + math.sqrt(abs(omega2)) + 1e-30
    h = direction * min(0.1, 0.1 / rate0)
    out_idx = 0
    n_out = len(outputs)
    abs_tol, rel_tol, max_steps = tol.abs_tol, tol.rel_tol, tol.max_steps

    while out_idx < n_out:
        if result.n_accepted + result.n_rejected > max_steps:
            raise AccuracyError("integrate_linear_ode2: step budget exhausted")
        target = outputs[out_idx]
        if (target - z) * direction <= 1e-14 * max(1.0, abs(z)):
            result.z.append(target)
            result.u.append(u)
            result.du.append(v)
            out_idx += 1
            continue
        if (z + h - target) * direction > 0.0:
            h = target - z
        # one embedded step; stage i has ku_i = v_i and kv_i = q_i u_i
        kv1 = q * u
        u2 = u + h * (_A21 * v)
        v2 = v + h * (_A21 * kv1)
        kv2 = (coeff(z + _C2 * h) - omega2) * u2
        u3 = u + h * (_A31 * v + _A32 * v2)
        v3 = v + h * (_A31 * kv1 + _A32 * kv2)
        kv3 = (coeff(z + _C3 * h) - omega2) * u3
        u4 = u + h * (_A41 * v + _A42 * v2 + _A43 * v3)
        v4 = v + h * (_A41 * kv1 + _A42 * kv2 + _A43 * kv3)
        kv4 = (coeff(z + _C4 * h) - omega2) * u4
        u5 = u + h * (_A51 * v + _A52 * v2 + _A53 * v3 + _A54 * v4)
        v5 = v + h * (_A51 * kv1 + _A52 * kv2 + _A53 * kv3 + _A54 * kv4)
        kv5 = (coeff(z + _C5 * h) - omega2) * u5
        u6 = u + h * (_A61 * v + _A62 * v2 + _A63 * v3 + _A64 * v4 + _A65 * v5)
        v6 = v + h * (_A61 * kv1 + _A62 * kv2 + _A63 * kv3 + _A64 * kv4
                      + _A65 * kv5)
        q7 = coeff(z + h) - omega2  # stages 6 and 7 share z + h
        kv6 = q7 * u6
        u_hi = u + h * (_B1 * v + _B3 * v3 + _B4 * v4 + _B5 * v5 + _B6 * v6)
        v_hi = v + h * (_B1 * kv1 + _B3 * kv3 + _B4 * kv4 + _B5 * kv5
                        + _B6 * kv6)
        kv7 = q7 * u_hi
        u_lo = u + h * (_BH1 * v + _BH3 * v3 + _BH4 * v4 + _BH5 * v5
                        + _BH6 * v6 + _BH7 * v_hi)
        v_lo = v + h * (_BH1 * kv1 + _BH3 * kv3 + _BH4 * kv4 + _BH5 * kv5
                        + _BH6 * kv6 + _BH7 * kv7)
        vscale = math.sqrt(abs(q)) + 1e-30
        # local tolerances carry a safety margin so the accumulated global
        # error stays at the requested level
        sc_u = 0.1 * (abs_tol + rel_tol * max(abs(u), abs(u_hi)))
        sc_v = 0.1 * (abs_tol + rel_tol * max(abs(v), abs(v_hi)))
        err = max(abs(u_hi - u_lo) / sc_u,
                  abs(v_hi - v_lo) / (sc_v + sc_u * vscale))
        if err <= 1.0:
            z = z + h
            u, v, q = u_hi, v_hi, q7
            result.n_accepted += 1
        else:
            result.n_rejected += 1
        factor = 0.9 * (1.0 / err) ** 0.2 if err > 0.0 else 5.0
        h = h * min(5.0, max(0.2, factor))
        if abs(h) < 1e-14 * max(1.0, abs(z)):
            raise AccuracyError("integrate_linear_ode2: step underflow")
    return result


# Gauss 7 / Kronrod 15 nodes and Kronrod weights on [-1, 1], one name per
# node pair (x_i, -x_i), outermost first; node 7 is the centre.
_X0, _X1, _X2, _X3, _X4, _X5, _X6 = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898,
)
_WK0, _WK1, _WK2, _WK3, _WK4, _WK5, _WK6, _WK7 = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
# Gauss weights of the pairs 1, 3, 5 and of the centre
_WG1, _WG3, _WG5, _WG7 = (
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
)
# Kronrod weight of each value in the order _gk15 collects them
_GK_WEIGHTS = (_WK7, _WK0, _WK0, _WK1, _WK1, _WK2, _WK2, _WK3, _WK3,
               _WK4, _WK4, _WK5, _WK5, _WK6, _WK6)


def _gk15(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = f(mid)
    x = half * _X0
    p0, m0 = f(mid + x), f(mid - x)
    x = half * _X1
    p1, m1 = f(mid + x), f(mid - x)
    x = half * _X2
    p2, m2 = f(mid + x), f(mid - x)
    x = half * _X3
    p3, m3 = f(mid + x), f(mid - x)
    x = half * _X4
    p4, m4 = f(mid + x), f(mid - x)
    x = half * _X5
    p5, m5 = f(mid + x), f(mid - x)
    x = half * _X6
    p6, m6 = f(mid + x), f(mid - x)
    ik = (_WK7 * fc + _WK0 * (p0 + m0) + _WK1 * (p1 + m1) + _WK2 * (p2 + m2)
          + _WK3 * (p3 + m3) + _WK4 * (p4 + m4) + _WK5 * (p5 + m5)
          + _WK6 * (p6 + m6)) * half
    ig = (_WG7 * fc + _WG1 * (p1 + m1) + _WG3 * (p3 + m3)
          + _WG5 * (p5 + m5)) * half
    diff = abs(ik - ig)
    # scale the error by the variation of f about its mean so that
    # small-magnitude integrals are not reported as converged early;
    # `floor` is the double-precision floor: cancellation across nodes
    # cannot be beaten
    mean = ik / (b - a)
    resasc = floor = 0.0
    for v, w in zip((fc, p0, m0, p1, m1, p2, m2, p3, m3, p4, m4, p5, m5,
                     p6, m6), _GK_WEIGHTS):
        resasc += w * abs(v - mean)
        floor += w * abs(v)
    resasc *= abs(half)
    if resasc > 0.0 and diff > 0.0:
        err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
    else:
        err = diff
    return ik, max(err, 1e-16 * abs(half) * floor)


def quad_adaptive(f, interval, tol=1e-12, limit=2000):
    """Globally adaptive Gauss-Kronrod integration of f over `interval`.

    The upper endpoint may be math.inf: the integral then runs over
    [a, a + 40] as given and over the tail through t = a + 40 + (1 - s)/s,
    s in [1e-100, 1], so an integrand decaying like t^{-2} maps to a
    bounded one.  Only t > 1e100 is dropped, without notice: a tail that
    matters there, as for a logarithmically divergent integral, is lost.

    Returns (value, error_estimate); raises AccuracyError when subdivision
    cannot reach `tol`, as for an integrand that grows or does not decay.
    """
    a, b = interval
    if math.isinf(b):
        # past a + 40 an integrand decaying like e^{-t} is negligible on
        # the tail's first panel, which is then never split toward s = 0;
        # the floor on s keeps t and 1/s^2 finite for a divergent integrand,
        # which then exhausts `limit`
        head, head_err = quad_adaptive(f, (a, a + 40.0), tol=0.5 * tol,
                                       limit=limit)
        tail, tail_err = quad_adaptive(
            lambda s: f(a + 40.0 + (1.0 - s) / s) / (s * s), (1e-100, 1.0),
            tol=0.5 * tol, limit=limit)
        return head + tail, head_err + tail_err
    if not b > a:
        raise DomainError(f"quad_adaptive: empty interval ({a}, {b})")
    if not tol > 0.0:
        raise DomainError(f"quad_adaptive: tol = {tol} must be positive")

    segments = [( *_gk15(f, a, b), a, b )]
    while True:
        # in units of tol: squared panel errors below ~1e-154 would underflow
        # to 0 and pass any tol; r * r overflows to inf where ** 2 raises
        ratio = math.sqrt(sum((r := s[1] / tol) * r for s in segments))
        if ratio <= 1.0:
            return sum(s[0] for s in segments), ratio * tol
        if len(segments) >= limit:
            raise AccuracyError(
                f"quad_adaptive: {limit} segments, error "
                f"{math.hypot(*(s[1] for s in segments)):.3e} > {tol:.3e}"
            )
        worst = max(range(len(segments)), key=lambda i: segments[i][1])
        _, _, lo, hi = segments[worst]
        mid = 0.5 * (lo + hi)
        segments[worst] = (*_gk15(f, lo, mid), lo, mid)
        segments.append((*_gk15(f, mid, hi), mid, hi))


def lsq_fit_two_waves(samples, omega):
    """Fit G(z) ~ c_plus e^{i omega z} + c_minus e^{-i omega z}.

    `samples` is a sequence of (z, G) pairs with complex G.  Solved by
    orthogonal factorization; the design matrix condition number must
    stay below 1e8.  Returns (c_plus, c_minus, max_abs_residual).
    """
    samples = list(samples)
    if len(samples) < 4:
        raise ConditioningError("two-wave fit needs at least 4 samples")
    zs = np.array([s[0] for s in samples], dtype=float)
    gs = np.array([complex(s[1]) for s in samples], dtype=complex)
    design = np.column_stack([np.exp(1j * omega * zs), np.exp(-1j * omega * zs)])
    cond = np.linalg.cond(design)
    if not np.isfinite(cond) or cond > 1e8:
        raise ConditioningError(
            f"two-wave fit ill-conditioned (cond = {cond:.3e}); "
            "samples must span at least a quarter period"
        )
    coeffs, *_ = np.linalg.lstsq(design, gs, rcond=None)
    residual = float(np.max(np.abs(design @ coeffs - gs)))
    return complex(coeffs[0]), complex(coeffs[1]), residual
