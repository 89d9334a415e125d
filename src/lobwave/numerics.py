"""Self-contained numerical services.

Nothing here knows about Bessel functions or Maxwell modes.  Two
integrators solve the mode equation u'' = (kappa^2 e^{2z} - omega^2) u,
both given as (kappa2, omega, z_start, init, outputs) and checked by one
guard: the 8th-order DOP853 Runge-Kutta pair, and first-order Magnus
steps far left of the barrier, where the moments of U have closed forms.
An adaptive Gauss-Kronrod 7/15 quadrature and a two-wave linear
least-squares fit complete the set.  The integrators and the fit are
independent oracles for the closed-form code paths, and that independence
is what makes the cross-validation meaningful.  The quadrature is not:
`specfun` imports `quad_adaptive` as its K_{i omega} route for omega <= 3
and 0.1 < X <= 1.05 omega.

`quad_adaptive` is on that route's hot path, and it runs in rounds over
many integrals at once, one per X of a kernel block: a round splits the
panels that carry most of the error of every integral not yet within its
tol, and all the new panels go to the integrand in one array call.  Each
integral adds up its panels in an order that the other integrals do not
affect, so it gives the same bits alone or in a batch, and tests pin the
(value, error) bits of several real and complex integrands.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, ConditioningError, DomainError, RangeError


@dataclass
class IntegrationResult:
    z: list = field(default_factory=list)
    u: list = field(default_factory=list)
    du: list = field(default_factory=list)
    n_accepted: int = 0
    n_rejected: int = 0


# DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed.,
# Sec. II.10), one name per nonzero entry so the step below runs on scalar
# locals; _Ai_j is a_ij with 1-based stages i, j.  Coefficients from
# SciPy's scipy/integrate/_ivp/dop853_coefficients.py, Copyright (c)
# 2001-2002 Enthought, Inc. 2003, SciPy Developers; BSD-3-Clause.
# c12 = 1, so stage 12 and the next step's stage 1 share z + h.
_C2 = 0.526001519587677318785587544488e-01
_C3 = 0.789002279381515978178381316732e-01
_C4 = 0.118350341907227396726757197510
_C5 = 0.281649658092772603273242802490
_C6 = 0.333333333333333333333333333333
_C7 = 0.25
_C8 = 0.307692307692307692307692307692
_C9 = 0.651282051282051282051282051282
_C10 = 0.6
_C11 = 0.857142857142857142857142857142
_A2_1 = 5.26001519587677318785587544488e-2
_A3_1 = 1.97250569845378994544595329183e-2
_A3_2 = 5.91751709536136983633785987549e-2
_A4_1 = 2.95875854768068491816892993775e-2
_A4_3 = 8.87627564304205475450678981324e-2
_A5_1 = 2.41365134159266685502369798665e-1
_A5_3 = -8.84549479328286085344864962717e-1
_A5_4 = 9.24834003261792003115737966543e-1
_A6_1 = 3.7037037037037037037037037037e-2
_A6_4 = 1.70828608729473871279604482173e-1
_A6_5 = 1.25467687566822425016691814123e-1
_A7_1 = 3.7109375e-2
_A7_4 = 1.70252211019544039314978060272e-1
_A7_5 = 6.02165389804559606850219397283e-2
_A7_6 = -1.7578125e-2
_A8_1 = 3.70920001185047927108779319836e-2
_A8_4 = 1.70383925712239993810214054705e-1
_A8_5 = 1.07262030446373284651809199168e-1
_A8_6 = -1.53194377486244017527936158236e-2
_A8_7 = 8.27378916381402288758473766002e-3
_A9_1 = 6.24110958716075717114429577812e-1
_A9_4 = -3.36089262944694129406857109825
_A9_5 = -8.68219346841726006818189891453e-1
_A9_6 = 2.75920996994467083049415600797e1
_A9_7 = 2.01540675504778934086186788979e1
_A9_8 = -4.34898841810699588477366255144e1
_A10_1 = 4.77662536438264365890433908527e-1
_A10_4 = -2.48811461997166764192642586468
_A10_5 = -5.90290826836842996371446475743e-1
_A10_6 = 2.12300514481811942347288949897e1
_A10_7 = 1.52792336328824235832596922938e1
_A10_8 = -3.32882109689848629194453265587e1
_A10_9 = -2.03312017085086261358222928593e-2
_A11_1 = -9.3714243008598732571704021658e-1
_A11_4 = 5.18637242884406370830023853209
_A11_5 = 1.09143734899672957818500254654
_A11_6 = -8.14978701074692612513997267357
_A11_7 = -1.85200656599969598641566180701e1
_A11_8 = 2.27394870993505042818970056734e1
_A11_9 = 2.49360555267965238987089396762
_A11_10 = -3.0467644718982195003823669022
_A12_1 = 2.27331014751653820792359768449
_A12_4 = -1.05344954667372501984066689879e1
_A12_5 = -2.00087205822486249909675718444
_A12_6 = -1.79589318631187989172765950534e1
_A12_7 = 2.79488845294199600508499808837e1
_A12_8 = -2.85899827713502369474065508674
_A12_9 = -8.87285693353062954433549289258
_A12_10 = 1.23605671757943030647266201528e1
_A12_11 = 6.43392746015763530355970484046e-1
# eighth-order weights (b2 = ... = b5 = 0)
_B1 = 5.42937341165687622380535766363e-2
_B6 = 4.45031289275240888144113950566
_B7 = 1.89151789931450038304281599044
_B8 = -5.8012039600105847814672114227
_B9 = 3.1116436695781989440891606237e-1
_B10 = -1.52160949662516078556178806805e-1
_B11 = 2.01365400804030348374776537501e-1
_B12 = 4.47106157277725905176885569043e-2
# E5 weights the stages into the fifth-order error estimate (they sum to
# 0); bhh are the third-order weights (they sum to 1), and E3 = b - bhh
_E5_1 = 0.1312004499419488073250102996e-1
_E5_6 = -0.1225156446376204440720569753e+1
_E5_7 = -0.4957589496572501915214079952
_E5_8 = 0.1664377182454986536961530415e+1
_E5_9 = -0.3503288487499736816886487290
_E5_10 = 0.3341791187130174790297318841
_E5_11 = 0.8192320648511571246570742613e-1
_E5_12 = -0.2235530786388629525884427845e-1
_BHH1 = 0.244094488188976377952755905512
_BHH9 = 0.733846688281611857341361741547
_BHH12 = 0.220588235294117647058823529412e-1


# the integrator's per-step relative tolerance (there is no absolute
# floor) and its budget of attempted steps
_ODE_REL_TOL = 1e-11
_ODE_MAX_STEPS = 2_000_000
# log of the largest double: e^x overflows past it
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


def _ode_problem(name, kappa2, omega, z_start, init, outputs):
    """Both integrators' input guard: DomainError, prefixed by `name`,
    unless omega > 0, kappa2 >= 0, z_start, the seed and the outputs are
    finite and the outputs monotone from z_start (equal neighbours
    allowed).  Returns kappa2, omega, [z_start, *outputs], the direction
    +-1.0 toward the last output, the seed as complex, and if it is real.
    """
    w, k2, z0 = float(omega), float(kappa2), float(z_start)
    if not (0.0 < w < math.inf and 0.0 <= k2 < math.inf and math.isfinite(z0)):
        raise DomainError(f"{name}: need omega > 0, kappa2 >= 0 "
                          f"and z_start finite, not {w}, {k2}, {z0}")
    u, v = complex(init[0]), complex(init[1])
    if not (cmath.isfinite(u) and cmath.isfinite(v)):
        raise DomainError(f"{name}: non-finite seed ({u}, {v})")
    grid = np.concatenate(([z0], np.array(outputs, dtype=float, ndmin=1)))
    direction = 1.0 if grid[-1] > z0 else -1.0
    if not (np.isfinite(grid).all() and (direction * np.diff(grid) >= 0.0).all()):
        raise DomainError(f"{name}: outputs not finite or out of order from z_start")
    return k2, w, grid, direction, u, v, u.imag == 0.0 and v.imag == 0.0


def integrate_linear_ode2(kappa2, omega, z_start, init, outputs):
    """Integrate u'' = (kappa2 e^{2z} - omega^2) u with the DOP853 pair.

    `init` is (u, u') at z_start; `outputs` is a list of z values,
    monotone from z_start (equal neighbours allowed), at which (u, u') is
    recorded; the run stops at the last, and steps are clipped to land on
    each.  A seed with both imaginary parts 0 runs in float arithmetic and
    records floats; any other seed runs and records complex.  Both runs
    take the same steps: complex arithmetic on a zero imaginary part gives
    the float result in the real part.  Error control is per step and per
    component, on u and on u'/scale, with DOP853's combined 5th/3rd-order
    estimate and step exponent 1/8, at a relative tolerance of 1e-11 and
    no absolute floor.  Raises DomainError where _ode_problem rejects the
    inputs, RangeError where e^{2z} overflows a double at either end of
    the run (even if U = kappa2 e^{2z} would not) or a recorded (u, u') is
    not finite, and AccuracyError past 2,000,000 steps.
    """
    k2, w, grid, direction, u, v, real = _ode_problem(
        "integrate_linear_ode2", kappa2, omega, z_start, init, outputs)
    # every stage forms e^{2z}, and the run stays between its two ends
    z_top = max(float(grid[0]), float(grid[-1]))
    if 2.0 * z_top > _LOG_DOUBLE_MAX:
        raise RangeError(f"integrate_linear_ode2: e^(2z) overflows a double "
                         f"at z = {z_top}")
    if real:
        u, v = u.real, v.real
    outputs = grid[1:].tolist()
    omega2 = w * w
    result = IntegrationResult()
    z = float(grid[0])
    # q = U(z) - omega2 at the current point, carried from stage 12 of the
    # last accepted step
    q = k2 * math.exp(2.0 * z) - omega2
    # velocity scale for the error norm: rates are O(sqrt(|U - omega2|))
    rate0 = math.sqrt(abs(q)) + math.sqrt(abs(omega2)) + 1e-30
    h = direction * min(0.1, 0.1 / rate0)
    out_idx = 0
    n_out = len(outputs)

    while out_idx < n_out:
        if result.n_accepted + result.n_rejected > _ODE_MAX_STEPS:
            raise AccuracyError("integrate_linear_ode2: step budget exhausted")
        target = outputs[out_idx]
        if (target - z) * direction <= 1e-14 * max(1.0, abs(z)):
            # a NaN or infinite state never turns finite again, and the
            # error norm reads it as a zero error: check it here only
            if not (cmath.isfinite(u) and cmath.isfinite(v)):
                raise RangeError(f"integrate_linear_ode2: state ({u}, {v}) "
                                 f"not finite at z = {z}")
            result.z.append(target)
            result.u.append(u)
            result.du.append(v)
            out_idx += 1
            continue
        if (z + h - target) * direction > 0.0:
            h = target - z
        # one step; stage i has ku_i = v_i and kv_i = q_i u_i
        kv1 = q * u
        u2 = u + h * (_A2_1 * v)
        v2 = v + h * (_A2_1 * kv1)
        kv2 = (k2 * math.exp(2.0 * (z + _C2 * h)) - omega2) * u2
        u3 = u + h * (_A3_1 * v + _A3_2 * v2)
        v3 = v + h * (_A3_1 * kv1 + _A3_2 * kv2)
        kv3 = (k2 * math.exp(2.0 * (z + _C3 * h)) - omega2) * u3
        u4 = u + h * (_A4_1 * v + _A4_3 * v3)
        v4 = v + h * (_A4_1 * kv1 + _A4_3 * kv3)
        kv4 = (k2 * math.exp(2.0 * (z + _C4 * h)) - omega2) * u4
        u5 = u + h * (_A5_1 * v + _A5_3 * v3 + _A5_4 * v4)
        v5 = v + h * (_A5_1 * kv1 + _A5_3 * kv3 + _A5_4 * kv4)
        kv5 = (k2 * math.exp(2.0 * (z + _C5 * h)) - omega2) * u5
        u6 = u + h * (_A6_1 * v + _A6_4 * v4 + _A6_5 * v5)
        v6 = v + h * (_A6_1 * kv1 + _A6_4 * kv4 + _A6_5 * kv5)
        kv6 = (k2 * math.exp(2.0 * (z + _C6 * h)) - omega2) * u6
        u7 = u + h * (_A7_1 * v + _A7_4 * v4 + _A7_5 * v5 + _A7_6 * v6)
        v7 = v + h * (_A7_1 * kv1 + _A7_4 * kv4 + _A7_5 * kv5 + _A7_6 * kv6)
        kv7 = (k2 * math.exp(2.0 * (z + _C7 * h)) - omega2) * u7
        u8 = u + h * (_A8_1 * v + _A8_4 * v4 + _A8_5 * v5 + _A8_6 * v6
                      + _A8_7 * v7)
        v8 = v + h * (_A8_1 * kv1 + _A8_4 * kv4 + _A8_5 * kv5 + _A8_6 * kv6
                      + _A8_7 * kv7)
        kv8 = (k2 * math.exp(2.0 * (z + _C8 * h)) - omega2) * u8
        u9 = u + h * (_A9_1 * v + _A9_4 * v4 + _A9_5 * v5 + _A9_6 * v6
                      + _A9_7 * v7 + _A9_8 * v8)
        v9 = v + h * (_A9_1 * kv1 + _A9_4 * kv4 + _A9_5 * kv5 + _A9_6 * kv6
                      + _A9_7 * kv7 + _A9_8 * kv8)
        kv9 = (k2 * math.exp(2.0 * (z + _C9 * h)) - omega2) * u9
        u10 = u + h * (_A10_1 * v + _A10_4 * v4 + _A10_5 * v5 + _A10_6 * v6
                       + _A10_7 * v7 + _A10_8 * v8 + _A10_9 * v9)
        v10 = v + h * (_A10_1 * kv1 + _A10_4 * kv4 + _A10_5 * kv5
                       + _A10_6 * kv6 + _A10_7 * kv7 + _A10_8 * kv8
                       + _A10_9 * kv9)
        kv10 = (k2 * math.exp(2.0 * (z + _C10 * h)) - omega2) * u10
        u11 = u + h * (_A11_1 * v + _A11_4 * v4 + _A11_5 * v5 + _A11_6 * v6
                       + _A11_7 * v7 + _A11_8 * v8 + _A11_9 * v9
                       + _A11_10 * v10)
        v11 = v + h * (_A11_1 * kv1 + _A11_4 * kv4 + _A11_5 * kv5
                       + _A11_6 * kv6 + _A11_7 * kv7 + _A11_8 * kv8
                       + _A11_9 * kv9 + _A11_10 * kv10)
        kv11 = (k2 * math.exp(2.0 * (z + _C11 * h)) - omega2) * u11
        u12 = u + h * (_A12_1 * v + _A12_4 * v4 + _A12_5 * v5 + _A12_6 * v6
                       + _A12_7 * v7 + _A12_8 * v8 + _A12_9 * v9
                       + _A12_10 * v10 + _A12_11 * v11)
        v12 = v + h * (_A12_1 * kv1 + _A12_4 * kv4 + _A12_5 * kv5
                       + _A12_6 * kv6 + _A12_7 * kv7 + _A12_8 * kv8
                       + _A12_9 * kv9 + _A12_10 * kv10 + _A12_11 * kv11)
        q12 = k2 * math.exp(2.0 * (z + h)) - omega2  # next step's stage 1
        kv12 = q12 * u12
        # weighted slopes: the step is h times the b-weighted sum, and the
        # error terms are the E5- and E3-weighted sums
        bu = (_B1 * v + _B6 * v6 + _B7 * v7 + _B8 * v8 + _B9 * v9
              + _B10 * v10 + _B11 * v11 + _B12 * v12)
        bv = (_B1 * kv1 + _B6 * kv6 + _B7 * kv7 + _B8 * kv8 + _B9 * kv9
              + _B10 * kv10 + _B11 * kv11 + _B12 * kv12)
        u_new = u + h * bu
        v_new = v + h * bv
        e5u = (_E5_1 * v + _E5_6 * v6 + _E5_7 * v7 + _E5_8 * v8 + _E5_9 * v9
               + _E5_10 * v10 + _E5_11 * v11 + _E5_12 * v12)
        e5v = (_E5_1 * kv1 + _E5_6 * kv6 + _E5_7 * kv7 + _E5_8 * kv8
               + _E5_9 * kv9 + _E5_10 * kv10 + _E5_11 * kv11 + _E5_12 * kv12)
        e3u = bu - (_BHH1 * v + _BHH9 * v9 + _BHH12 * v12)
        e3v = bv - (_BHH1 * kv1 + _BHH9 * kv9 + _BHH12 * kv12)
        vscale = math.sqrt(abs(q)) + 1e-30
        # local tolerances carry a safety margin so the accumulated global
        # error stays at the requested level
        sc_u = 0.1 * (_ODE_REL_TOL * max(abs(u), abs(u_new)))
        sc_v = 0.1 * (_ODE_REL_TOL * max(abs(v), abs(v_new)))
        sc_v += sc_u * vscale
        # per component |h| e5^2 / sqrt(e5^2 + 0.01 e3^2), in the hypot
        # form that cannot overflow.  A zero e5 is zero error, also where a
        # zero state makes the scale 0
        a5, a3 = (abs(e5u) / sc_u, abs(e3u) / sc_u) if e5u else (0.0, 0.0)
        err_u = a5 * (a5 / math.hypot(a5, 0.1 * a3)) if a5 > 0.0 else 0.0
        a5, a3 = (abs(e5v) / sc_v, abs(e3v) / sc_v) if e5v else (0.0, 0.0)
        err_v = a5 * (a5 / math.hypot(a5, 0.1 * a3)) if a5 > 0.0 else 0.0
        err = abs(h) * max(err_u, err_v)
        if err <= 1.0:
            z = z + h
            u, v, q = u_new, v_new, q12
            result.n_accepted += 1
        else:
            result.n_rejected += 1
        factor = 0.9 * (1.0 / err) ** 0.125 if err > 0.0 else 5.0
        h = h * min(5.0, max(0.2, factor))
        if abs(h) < 1e-14 * max(1.0, abs(z)):
            raise AccuracyError("integrate_linear_ode2: step underflow")
    return result


# largest U/omega^2 at z_start for which magnus_plane_waves's error bound holds
_MAGNUS_U_MAX = 2e-7


def magnus_plane_waves(kappa2, omega, z_start, init, outputs):
    """Carry (u, u') of u'' = (kappa2 e^{2z} - omega^2) u leftward from
    z_start, where the barrier U = kappa2 e^{2z} is negligible, by one
    first-order Magnus step on the plane-wave amplitudes per output.

    `init` is (u, u') at z_start; `outputs` are the z values at which
    (u, u') is recorded, each at or left of the one before and the first
    at or left of z_start.  Returns an IntegrationResult whose n_accepted
    is the number of steps, one per output.

    Method.  With w = omega and t = z - z_start, write
    u = A e^{iwt} + B e^{-iwt} and u' = iw (A e^{iwt} - B e^{-iwt}).  Then
    d(A, B)/dt = N(t) (A, B), N(t) = (U(t)/2iw) M(t) and
    M(t) = [[1, e^{-2iwt}], [-e^{2iwt}, -1]].  The step from t_a to t_b
    multiplies (A, B) by exp(Omega), Omega = int N = (1/2iw) [[I0, I-],
    [-I+, -I0]], whose moments of U = kappa2 e^{2z} are closed forms:
    I0 = (U_b - U_a)/2, I+ = (U_b e^{2iwt_b} - U_a e^{2iwt_a})/(2 + 2iw) and
    I- = conj(I+).  Omega is traceless, so exp(Omega) = cosh(mu) 1 +
    (sinh(mu)/mu) Omega with mu^2 = Omega_11^2 + Omega_12 Omega_21
    = (|I+|^2 - I0^2)/(4w^2), real and <= 0 since |I+| <= |I0|.  As
    |mu| <= |Omega| <= U_a h/w for a step of length h, below 1e-6 when
    U_a <= 2e-7 w^2 and w h <= 5, the series to mu^4 is exact in doubles.
    Omega_22 = conj(Omega_11) and Omega_21 = conj(Omega_12), so a real
    seed, which has B = conj(A), keeps it: the run carries A alone, sets
    B = conj(A) exactly, and records Python floats u = 2 Re(A e^{iwt}), as
    integrate_linear_ode2 does for a real seed.  The equation is real, so
    any other seed runs as two real seeds, its real and imaginary parts,
    and records complex.

    Error bound.  The step drops the Magnus series from its second term
    on, Omega_2 = (1/2) int_a^b dt1 int_a^t1 dt2 [N(t1), N(t2)].  With
    x = w (t1 - t2), [M(t1), M(t2)] = [[2i sin 2x, conj c], [c, -2i sin 2x]]
    with |c| = 4 |sin x|, whose 2-norm is 2|sin 2x| + 4|sin x| <= 8w|t1 - t2|.
    So |Omega_2| <= (1/2) (U_a^2/4w^2) 8w h^3/6 = U_a^2 h^3/(6w), relative
    to |(A, B)|; with r = U_a/w^2 that is r^2 (w h)^3/6, and each further
    Magnus term is smaller by another factor of order r w h.  At the
    oracle's fit window, r <= e^{-16} and w h <= 0.64, the first step's
    bound is 5.5e-16 and U falls by e^{-2h} per step after it.  Raises
    DomainError where U/w^2 > 2e-7 at z_start (bound 1.8e-15 per step at
    w h = 0.64), on outputs that move rightward, and where _ode_problem
    rejects the inputs.
    """
    k2, w, grid, direction, u, v, real = _ode_problem(
        "magnus_plane_waves", kappa2, omega, z_start, init, outputs)
    if direction > 0.0:
        raise DomainError("magnus_plane_waves: outputs must move leftward "
                          "from z_start")
    z0 = float(grid[0])
    # in logs: e^{2 z_start} alone may overflow where U(z_start) does not
    log_u0 = 2.0 * z0 + math.log(k2) if k2 > 0.0 else -math.inf
    if log_u0 > math.log(_MAGNUS_U_MAX * w * w):
        raise DomainError(f"magnus_plane_waves: U/omega^2 above {_MAGNUS_U_MAX} "
                          f"at z_start = {z0}")

    # the moments of every step in one pass
    t = grid - z0
    U = math.exp(log_u0) * np.exp(2.0 * t)
    phase = np.exp(1j * w * t)
    UE = U * (phase * phase)
    i0 = 0.5 * (U[1:] - U[:-1])
    i_plus = (UE[1:] - UE[:-1]) / (2.0 + 2.0j * w)
    # Omega = [[p, q], [conj q, conj p]]; d = cosh(mu) - 1 + s p, with
    # s = sinh(mu)/mu, so that A + d A adds only what the step changes
    p = -0.5j / w * i0
    q = -0.5j / w * np.conj(i_plus)
    mu2 = (np.abs(i_plus) ** 2 - i0 * i0) / (4.0 * w * w)
    s = 1.0 + mu2 / 6.0 + mu2 * mu2 / 120.0
    d = ((mu2 / 2.0 + mu2 * mu2 / 24.0) + s * p).tolist()
    sq = (s * q).tolist()

    def waves(u, v):
        """A e^{iwt} at each output, for the real seed (u, v)."""
        a = complex(0.5 * u, -0.5 * v / w)
        amps = []
        for dk, sqk in zip(d, sq):
            a = a + (dk * a + sqk * a.conjugate())
            amps.append(a)
        return np.array(amps, dtype=complex) * phase[1:]

    # the equation is real, so a complex seed runs as two real seeds
    wave = waves(u.real, v.real)
    us, dus = 2.0 * wave.real, -2.0 * w * wave.imag
    if not real:
        wave = waves(u.imag, v.imag)
        us, dus = us + 2j * wave.real, dus - 2j * w * wave.imag
    return IntegrationResult(z=grid[1:].tolist(), u=us.tolist(), du=dus.tolist(),
                             n_accepted=len(d))


# Gauss 7 / Kronrod 15 rule on [-1, 1] (QUADPACK's qk15): the 15 nodes in
# increasing order, their Kronrod weights, and the Gauss weights of the 7
# Gauss nodes (0 at the Kronrod-only ones)
_GK_X = np.array((0.991455371120812639, 0.949107912342758525, 0.864864423359769073,
                  0.741531185599394440, 0.586087235467691130, 0.405845151377397167,
                  0.207784955007898468))
_GK_X = np.concatenate((-_GK_X, [0.0], _GK_X[::-1]))
_GK_WK = np.array((0.0229353220105292250, 0.0630920926299785533, 0.104790010322250184,
                   0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
                   0.204432940075298892))
_GK_WK = np.concatenate((_GK_WK, [0.209482141084727828], _GK_WK[::-1]))
_GK_WG = np.array((0.0, 0.129484966168869693, 0.0, 0.279705391489276668, 0.0,
                   0.381830050505118945, 0.0))
_GK_WG = np.concatenate((_GK_WG, [0.417959183673469388], _GK_WG[::-1]))

# panels each integral starts from, and their centres in half-widths from 0
_PANELS0 = 8
_ODD = np.arange(1.0, 2 * _PANELS0, 2.0)
# rounding error of a panel's value, per unit of its integral of |f|
_ROUNDING = 2.2e-16
# panels per integral
_PANEL_LIMIT = 4000


def _gk15(fx, half):
    """Value, error estimate and integral of |f| of each panel, from f at
    its 15 nodes (last axis of fx) and its half-width."""
    ik = np.einsum("...k,k->...", fx, _GK_WK)
    diff = np.abs(ik - np.einsum("...k,k->...", fx, _GK_WG))
    # QUADPACK's error: scaled by the variation of f about its mean, so
    # that small-magnitude integrals are not reported as converged early
    resasc = np.einsum("...k,k->...", np.abs(fx - 0.5 * ik[..., None]), _GK_WK)
    varies = resasc > 0.0
    err = np.where(varies, resasc * np.minimum(
        1.0, 200.0 * diff / np.where(varies, resasc, 1.0)) ** 1.5, diff)
    absf = np.einsum("...k,k->...", np.abs(fx), _GK_WK)
    # the double-precision floor: cancellation across nodes cannot be beaten
    return half * ik, half * np.maximum(err, 1e-16 * absf), half * absf


def quad_adaptive(f, b, tol):
    """Globally adaptive Gauss-Kronrod integration of f over [0, b_i],
    many integrals at once.

    b and tol are 1-D float arrays of one length, one integral per entry,
    with each b_i finite and positive and each tol_i positive; anything
    else raises DomainError.  f takes one 2-D array of nodes, whose row i
    holds nodes of integral i only, and returns f there.  Truncate a
    decaying integrand where its tail is negligible.

    Each integral starts from 8 equal panels.  In each round, an integral
    whose error exceeds its tol splits every panel whose squared error is
    at least an even share of its total, and all new panels of the round
    go to f in one call.  Returns (value, error_estimate) arrays; raises
    AccuracyError when an integral would need more than 4000 panels.
    """
    b, tol = np.asarray(b, dtype=float), np.asarray(tol, dtype=float)
    if b.ndim != 1 or b.shape != tol.shape:
        raise DomainError(f"quad_adaptive: b and tol must be 1-D arrays of one "
                          f"length, not shapes {b.shape} and {tol.shape}")
    bad = ~((b > 0.0) & (b < math.inf) & (tol > 0.0))
    if bad.any():
        i = np.argmax(bad)
        raise DomainError(f"quad_adaptive: integral {i} needs 0 < b < inf and "
                          f"tol > 0, not b = {b[i]}, tol = {tol[i]}")

    # Row i holds integral i's panels (centre, half-width, value, error,
    # integral of |f|), one block of columns per round.  A split panel's
    # halves go to the next block, left halves first, and its value,
    # error and |f| integral are zeroed, as are the zero-width panels that
    # pad a row's block.  So each row's sums, taken in order along the
    # row, add the same numbers in the same order whatever the other rows
    # hold.  Squared errors are in units of tol: squared panel errors
    # below ~1e-154 would underflow to 0 and pass any tol.  Capped at
    # 1e150, their squares sum without overflow over any panel count.
    n = b.size
    row_tol = tol[:, None]
    half = (b / (2 * _PANELS0))[:, None]
    centre = half * _ODD
    half = np.repeat(half, _PANELS0, axis=1)
    count = np.full(n, _PANELS0)
    panels = None
    while True:
        t = centre[..., None] + half[..., None] * _GK_X
        new = (centre, half, *_gk15(f(t.reshape(n, -1)).reshape(t.shape), half))
        panels = new if panels is None else [
            np.concatenate(pair, axis=1) for pair in zip(panels, new)]
        centres, halves, values, errs, absfs = panels
        sq = np.square(np.minimum(errs / row_tol, 1e150))
        total = np.add.accumulate(sq, 1)[:, -1]
        active = ~(total <= 1.0)
        if not active.any():
            break
        # NaN errors split too
        split = ~(sq * count[:, None] < 1.0) & active[:, None]
        nsplit = np.add.reduce(split, 1)
        count = count + nsplit
        # past the limit, or over tol with no panel to split (by rounding
        # in the total)
        stuck = active & ((count > _PANEL_LIMIT) | (nsplit == 0))
        if stuck.any():
            i = np.argmax(stuck)
            raise AccuracyError(f"quad_adaptive: more than {_PANEL_LIMIT} segments needed, "
                                f"error {math.sqrt(total[i]) * tol[i]:.3e} > {tol[i]:.3e}")
        # the split panels of each row first, in column order
        width = nsplit.max()
        pick = np.arange(n)[:, None], np.argsort(~split, axis=1, kind="stable")[:, :width]
        half = np.where(np.arange(width) < nsplit[:, None], 0.5 * halves[pick], 0.0)
        centre = np.concatenate((centres[pick] - half, centres[pick] + half), axis=1)
        half = np.concatenate((half, half), axis=1)
        values[split] = errs[split] = absfs[split] = 0.0
    value = np.add.accumulate(values, 1)[:, -1]
    # rounding error adds linearly over the panels, not in quadrature
    err = np.sqrt(total) * tol + _ROUNDING * np.add.accumulate(absfs, 1)[:, -1]
    return value, err


def lsq_fit_two_waves(zs, gs, omega):
    """Fit G(z) ~ c_plus e^{i omega z} + c_minus e^{-i omega z}.

    `zs` and `gs` are 1-D arrays of finite heights z and complex samples
    G(z), one per z.  Solved by an SVD; the design matrix condition
    number, from its singular values, must stay below 1e8.  Returns
    (c_plus, c_minus, max_abs_residual).
    """
    zs = np.asarray(zs, dtype=float)
    gs = np.asarray(gs, dtype=complex)
    if zs.shape != gs.shape or zs.ndim != 1:
        raise DomainError(f"two-wave fit needs 1-D z and G of one length, "
                          f"not shapes {zs.shape} and {gs.shape}")
    if zs.size < 4:
        raise ConditioningError("two-wave fit needs at least 4 samples")
    if not (np.isfinite(zs).all() and np.isfinite(gs).all()):
        raise ConditioningError("two-wave fit needs finite samples z and G")
    design = np.column_stack([np.exp(1j * omega * zs), np.exp(-1j * omega * zs)])
    coeffs, _, _, sv = np.linalg.lstsq(design, gs, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0.0 else math.inf
    if not np.isfinite(cond) or cond > 1e8:
        raise ConditioningError(
            f"two-wave fit ill-conditioned (cond = {cond:.3e}); "
            "samples must span at least a quarter period"
        )
    residual = float(np.max(np.abs(design @ coeffs - gs)))
    return complex(coeffs[0]), complex(coeffs[1]), residual
