"""Bessel-family kernels of purely imaginary order on the imaginary axis.

Every cylinder function needed by the mode solutions is evaluated at
argument x = iX (X > 0 real) with order nu = +-i*omega (plus unit shifts
for derivative recurrences).  On that axis everything reduces to the
real-argument modified functions I_nu(X) and K_nu(X), which avoids any
multi-valued complex-plane machinery: the branch convention is fixed
once as x = e^{i pi/2} X.

Evaluation strategy:

* I_nu(X): ascending series with a complex log-gamma kernel for X <= 40,
  the large-argument expansion beyond.
* K_nu(X): exactly one route per call, chosen by w = |Im nu| and X:

    X > 1.05 w                       saddle-line trapezoid rule (`_k_contour`)
    0.1 < X <= 1.05 w, w <= 3        real-axis quadrature (`_k_quadrature`)
    X <= 0.1 or w > 3 (X <= 1.05 w)  two I series (`_k_reflection`)

  The contour route is the trapezoid rule on the horizontal line through
  the saddle of K_nu(X) = 1/2 int_R e^{-X cosh t + nu t} dt (Gil, Segura
  & Temme 2002, Trefethen & Weideman 2014); the quadrature is adaptive
  Gauss-Kronrod on the same integral on the real axis; the reflection
  route is K_nu = pi (I_{-nu} - I_nu) / (2 sin(pi nu)).  For w > 3 the
  real-axis integral would cancel down to e^{-pi w/2}; at X <= 0.1 the
  reflection route is the more accurate one.  Against mpmath at orders
  i w and i w +- 1 the contour is within 1.4e-13 (relative) everywhere
  in its regime, and its error is at most 1.2 times its estimate; the
  quadrature is within 7.4e-14, worst next to the zeros of K_{i w}, and
  its error is at most 0.75 times its estimate; the worst cells of the
  whole map, up to 2.7e-11, are on the reflection route at large w.

All five public kernels take a float or a 1-D array of X.  On a grid
the same switches split X once, so each point takes the route it takes
alone, and each route runs on its whole share of the grid, at most 32 X
at a time: the I series and the asymptotic expansion
as one (X x term) array (`_i_series_grid`, `_i_asymptotic`), the
saddle-line rule as one (X x node) array (`_k_contour`), the reflection
route from those I arrays, and the quadrature as one `quad_adaptive`
call whose rounds each evaluate the new panels of every X in one
(X x node) array.  Blocks of 32 keep the temporaries to about 1 MB and
let each block size its term count from its own largest X.

A float X on the saddle-line, asymptotic and quadrature routes runs the
same block code on a one-element array, so each of those routes has one
implementation.  The reflection route takes a float as it is, and the
ascending series keeps a scalar twin, `_i_series`, which stops by the
same rule: a one-X series block costs 39-47 us against 7-16 us for the
scalar loop at X <= 5 (2.7-5.7x, orders i w and 1 + i w at w = 0.5, 2
and 5; 2-vCPU Xeon VM), and with the twin deleted the `residuals`
benchmark workload, which calls the kernels one point at a time, read
its median op time 28% higher (13.06 -> 16.32 and 12.43 -> 16.44 ms in
two pairs of 25-second runs), past the benchmark's 25% bound.

All three K routes are kept callable so tests can compare them.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AccuracyError, DomainError, RangeError
from .numerics import quad_adaptive

_OMEGA_MAX = 50.0


class BasisBranch(Enum):
    """The six fundamental-solution choices for the first radial profile."""

    BESSEL_PLUS = "bessel+"
    BESSEL_MINUS = "bessel-"
    HANKEL1 = "hankel1"
    HANKEL2 = "hankel2"
    NEUMANN_PLUS = "neumann+"
    NEUMANN_MINUS = "neumann-"


@dataclass(frozen=True)
class SpecialValue:
    """A kernel value and its error estimate; both are arrays on a grid."""

    value: complex
    abs_err_estimate: float

    def __post_init__(self):
        if isinstance(self.value, np.ndarray):
            finite = (np.isfinite(self.value).all()
                      and np.isfinite(self.abs_err_estimate).all())
            negative = (self.abs_err_estimate < 0.0).any()
        else:
            finite = (cmath.isfinite(self.value)
                      and math.isfinite(self.abs_err_estimate))
            negative = self.abs_err_estimate < 0.0
        if not finite:
            raise DomainError("SpecialValue must be finite")
        if negative:
            raise DomainError("error estimate must be >= 0")


def _check_omega(omega):
    if not (0.0 < omega <= _OMEGA_MAX):
        raise DomainError(
            f"omega = {omega} outside supported range (0, {_OMEGA_MAX}]"
        )


_X_MAX = 700.0


def _check_X(X):
    if not X > 0.0:
        raise DomainError(f"X = {X} must be positive")
    if X > _X_MAX:
        raise RangeError(f"X = {X} overflows e^X in double precision")


# log of the largest double: a term whose log modulus exceeds it overflows
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


def _overflow(X) -> RangeError:
    """The error for a kernel value at an admissible X that a double cannot
    hold, e.g. (X/2)^{nu} at Re nu = -1 and X below about 1e-308."""
    return RangeError(f"X = {X}: the kernel value overflows a double")


# ---------------------------------------------------------------------------
# complex log-gamma (Lanczos, g = 7, 9 terms; |rel err| < 1e-13 on the strip
# needed here, Re nu in [-2, 3])

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LOG_SQRT_2PI = 0.9189385332046727


def log_gamma(z) -> complex:
    """Principal-branch log Gamma(z) for complex z off the poles."""
    z = complex(z)
    if z.real < 0.5:
        # reflection; sin(pi z) is safe for |Im z| up to ~230
        s = cmath.sin(cmath.pi * z)
        if s == 0:
            raise DomainError(f"log_gamma pole at z = {z}")
        return cmath.log(cmath.pi) - cmath.log(s) - log_gamma(1.0 - z)
    zm = z - 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (zm + i)
    t = zm + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (zm + 0.5) * cmath.log(t) - t + cmath.log(acc)


def gamma_modulus_sq(omega: float) -> float:
    """|Gamma(1 + i omega)|^2 via the closed identity pi w / sinh(pi w)."""
    if not omega > 0.0:
        raise DomainError("omega must be positive")
    x = math.pi * omega
    if x < 1e-8:
        return 1.0 / (1.0 + x * x / 6.0)
    return x / math.sinh(x)


# ---------------------------------------------------------------------------
# grids: each route on its share of X, in blocks

# X per block: bounds the (X x term) and (X x node) temporaries, and lets
# each block size its term count from its own largest X
_BLOCK = 32


def _on_grid(nu: complex, X: np.ndarray, routes):
    """(value, err) arrays over X.  `routes` holds (mask, route) pairs; each
    route takes nu and at most _BLOCK of the X its mask selects."""
    value = np.empty(X.size, dtype=complex)
    err = np.empty(X.size)
    for mask, route in routes:
        share = np.flatnonzero(mask)
        for lo in range(0, share.size, _BLOCK):
            part = share[lo:lo + _BLOCK]
            value[part], err[part] = route(nu, X[part])
    return value, err


def _at_float(block, nu: complex, X: float):
    """A block route at one float X: a one-element block."""
    value, err = block(nu, np.array([X]))
    return complex(value[0]), float(err[0])


# ---------------------------------------------------------------------------
# I_nu(X)

_SERIES_SWITCH_X = 40.0


def _i_series(nu: complex, X: float):
    """Ascending series sum_k (X/2)^{nu+2k} / (k! Gamma(nu+k+1)), stopped
    two terms after the first term below 1e-17 of its partial sum."""
    log_first = nu * cmath.log(0.5 * X) - log_gamma(nu + 1.0)
    if log_first.real > _LOG_DOUBLE_MAX:
        raise _overflow(X)
    term = cmath.exp(log_first)
    total = term
    q = 0.25 * X * X
    small = 0  # terms from the first small one on
    biggest = abs(term)
    for k in range(600):
        term = term * (q / ((k + 1.0) * (nu + k + 1.0)))
        total += term
        biggest = max(biggest, abs(term))
        if small or abs(term) < 1e-17 * abs(total):
            small += 1
            if small == 3:
                # rounding carries the largest intermediate term, which can
                # dwarf the sum when the phases rotate (imaginary order)
                return total, abs(term) + 1e-16 * biggest
    raise AccuracyError(f"I series failed to converge (nu={nu}, X={X})")


def _i_series_grid(nu: complex, X: np.ndarray):
    """`_i_series` on a block of X: one (X x term) array of terms.

    Term k + 1 is the cumulative product of the ratios q/((k+1)(nu+k+1)),
    and each X's row stops where `_i_series` stops, two terms after its
    first small term.  The term count is sized from the block's largest X
    (the stop comes by X/2 + 4.5 sqrt(X) + 8).
    """
    q = 0.25 * X * X
    log_first = nu * np.log(0.5 * X) - log_gamma(nu + 1.0)
    if log_first.real.max() > _LOG_DOUBLE_MAX:
        raise _overflow(float(X[np.argmax(log_first.real > _LOG_DOUBLE_MAX)]))
    n = int(0.5 * X.max() + 5.0 * math.sqrt(X.max())) + 12
    k = np.arange(n)
    terms = np.empty((X.size, n + 1), dtype=complex)
    terms[:, 0] = np.exp(log_first)
    np.divide(q[:, None], (k + 1.0) * (nu + k + 1.0), out=terms[:, 1:])
    np.cumprod(terms, axis=1, out=terms)
    totals = np.cumsum(terms, axis=1)
    size = np.abs(terms)
    # the first term is its own sum, so it is never small
    small = size < 1e-17 * np.abs(totals)
    # a row stops within the array if a small term leaves two after it
    reached = small[:, :-2].any(axis=1)
    if not reached.all():
        bad = float(X[np.argmin(reached)])
        raise AccuracyError(f"I series failed to converge (nu={nu}, X={bad})")
    stop = np.argmax(small, axis=1) + 2
    rows = np.arange(X.size)
    # the largest term comes before the stop: past their peak the terms
    # only shrink
    biggest = size.max(axis=1)
    return totals[rows, stop], size[rows, stop] + 1e-16 * biggest


def _i_asymptotic(nu: complex, X: np.ndarray):
    """Large-argument expansion e^X/sqrt(2 pi X) * sum_k (-1)^k a_k(nu)/X^k
    on a block of X: one (X x term) array of 61 terms.

    Each X's row stops at its first term that fails to shrink (dropped) or
    is below 1e-16 of the sum (kept).
    """
    k = np.arange(60)
    step = -(4.0 * nu * nu - (2 * k + 1.0) ** 2) / (8.0 * (k + 1.0))
    terms = np.cumprod(np.concatenate(
        (np.ones((X.size, 1)), step / X[:, None]), axis=1), axis=1)
    totals = np.cumsum(terms, axis=1)
    size = np.abs(terms)
    grows = size[:, 1:] >= size[:, :-1]
    done = grows | (size[:, 1:] < 1e-16 * np.abs(totals[:, 1:]))
    # the first stopping term, or the last one if none stops the sum
    stop = np.where(done.any(axis=1), np.argmax(done, axis=1), 59) + 1
    rows = np.arange(X.size)
    total = totals[rows, stop - grows[rows, stop - 1]]
    prefac = np.exp(X - 0.5 * np.log(2.0 * math.pi * X))
    return prefac * total, prefac * size[rows, stop]


def _bessel_I(nu: complex, X):
    # the large-argument expansion only converges usefully once X clears
    # the |nu|^2 scale; the ascending series handles everything else
    w = abs(nu.imag)
    switch = max(_SERIES_SWITCH_X, w * w)
    if isinstance(X, np.ndarray):
        asymptotic = X >= switch
        return _on_grid(nu, X, ((asymptotic, _i_asymptotic),
                                (~asymptotic, _i_series_grid)))
    if X >= switch:
        return _at_float(_i_asymptotic, nu, X)
    return _i_series(nu, X)


# ---------------------------------------------------------------------------
# K_nu(X), three routes

# the quadrature's lower end in X: below it the reflection route is more
# accurate (on 450 seeded cells at X from 1e-3 to 0.1 and orders i w,
# i w +- 1, 6.9e-14 relative against the quadrature's 3.7e-13)
_K_QUAD_X_MIN = 0.1


def _k_quadrature(nu: complex, X: np.ndarray):
    """Integral representation int_0^tmax e^{-X cosh t} cosh(nu t) dt on a
    block of X: one quad_adaptive call, one integral per X."""
    r, w = nu.real, nu.imag
    # choose tmax so the truncated tail is below 1e-18 of the peak e^{-X}:
    # X (cosh tmax - 1) = 60 + (|r| + 1) tmax
    u, v = 1.0 + 60.0 / X, (abs(r) + 1.0) / X
    tmax = 5.0
    for _ in range(4):
        tmax = np.arccosh(u + v * tmax)
    tol = 1e-13 * np.exp(-X)
    X = X[:, None]
    if r == 0.0:
        # cosh(i w t) = cos(w t): a real integrand
        def integrand(t):
            return np.exp(-X * np.cosh(t)) * np.cos(w * t)
    else:
        # cosh(nu t) = cosh(r t) cos(w t) + i sinh(r t) sin(w t) in real
        # ufuncs: numpy's complex cosh takes about 1.7x as long per node
        def integrand(t):
            e = np.exp(-X * np.cosh(t))
            return (e * np.cosh(r * t) * np.cos(w * t)
                    + 1j * (e * np.sinh(r * t) * np.sin(w * t)))

    try:
        return quad_adaptive(integrand, (0.0, tmax), tol)
    except AccuracyError as exc:
        raise AccuracyError(f"K quadrature did not converge (nu={nu}, X from "
                            f"{X.min()} to {X.max()})") from exc


def _k_reflection(nu: complex, X):
    """K_nu = pi (I_{-nu} - I_nu) / (2 sin(pi nu)); oscillatory-regime route."""
    ip, ep = _bessel_I(nu, X)
    if nu.real == 0.0:
        # for imaginary orders I_{-nu} is conj(I_nu), bit for bit
        im, em = ip.conjugate(), ep
    else:
        im, em = _bessel_I(-nu, X)
    # sin(pi nu) = (-1)^n i sinh(pi w) for the integer n = Re nu of every
    # caller; cmath.sin would carry the rounding of pi n, about 1e-16 next
    # to sinh(pi w), a relative error of 4e-17 / w in K at n = +-1
    sign = -1.0 if nu.real % 2.0 else 1.0
    s = complex(0.0, sign * math.sinh(math.pi * nu.imag))
    value = cmath.pi * (im - ip) / (2.0 * s)
    err = cmath.pi * (em + ep + 1e-16 * (abs(im) + abs(ip))) / (2.0 * abs(s))
    return value, err


def _k_contour(nu: complex, X: np.ndarray):
    """Trapezoid rule for K_nu(X) = 1/2 int_R e^{-X cosh t + nu t} dt on the
    line Im t = c through the saddle, sin c = Im nu / X (needs X > |Im nu|).

    With a = X cos c, r = Re nu, w = Im nu and t = s + i c:
    K_nu = 1/2 e^{-a - w c} e^{i r c}
           int e^{-a (cosh s - 1) + r s} e^{i w (s - sinh s)} ds,
    whose integrand is analytic for |Im s| < pi/2 - |c| and cancels nowhere.
    X is a block: one (X x node) array, each row zeroed past its own node
    count.  Rows are summed in order (np.add.accumulate): numpy's pairwise
    sum would group a row's terms by the block's largest node count.
    """
    r, w = nu.real, nu.imag
    c = np.arcsin(w / X)
    a = X * np.cos(c)
    # the step resolves the Gaussian peak of width a^{-1/2} and stays well
    # inside the strip of analyticity, which narrows as X -> |w|
    h = np.minimum(0.25 / np.sqrt(a), 0.15 * (0.5 * math.pi - np.abs(c)))
    # last node: a (cosh s - 1) - |r| s >= 41.5, below e^{-41.5} ~ 1e-18
    smax = np.arccosh(1.0 + 41.5 / a)
    for _ in range(3):
        smax = np.arccosh(1.0 + (41.5 + abs(r) * smax) / a)
    n = np.ceil(smax / h)
    prefactor = 0.5 * h * np.exp(-a - w * c)
    k = np.arange(n.max() + 1.0)
    a, h, n = a[:, None], h[:, None], n[:, None]
    if r == 0.0:
        # f(-s) = conj f(s): the sum is real, twice the half-line sum less f(0)
        s = h * k
        f = np.where(k <= n, np.exp(-a * (np.cosh(s) - 1.0))
                     * np.cos(w * (s - np.sinh(s))), 0.0)
        total = 2.0 * np.add.accumulate(f, 1)[:, -1] - f[:, 0]
        abs_total = 2.0 * np.add.accumulate(np.abs(f), 1)[:, -1] - np.abs(f[:, 0])
    else:
        k = np.concatenate((-k[:0:-1], k))
        s = h * k
        f = np.where(np.abs(k) <= n, np.exp(-a * (np.cosh(s) - 1.0) + r * s
                                            + 1j * (w * (s - np.sinh(s)))), 0.0)
        total = np.add.accumulate(f, 1)[:, -1] * np.exp(1j * r * c)
        abs_total = np.add.accumulate(np.abs(f), 1)[:, -1]
    value = prefactor * total
    err = 2.2e-16 * (4.0 * prefactor * abs_total
                     + (2.0 + a[:, 0] + np.abs(w * c)) * np.abs(value))
    return value, err


def _bessel_K(nu: complex, X):
    w = abs(nu.imag)
    # bools at a float X, where ~ would not negate, and masks on a grid
    contour = X > 1.05 * w
    quadrature = (X <= 1.05 * w) & (X > _K_QUAD_X_MIN) & (w <= 3.0)
    if isinstance(X, np.ndarray):
        return _on_grid(nu, X, ((contour, _k_contour),
                                (quadrature, _k_quadrature),
                                (~(contour | quadrature), _k_reflection)))
    if contour:
        return _at_float(_k_contour, nu, X)
    if quadrature:
        return _at_float(_k_quadrature, nu, X)
    return _k_reflection(nu, X)


# ---------------------------------------------------------------------------
# public imaginary-order kernels

def bessel_K_imag(omega: float, X) -> SpecialValue:
    """K_{i omega}(X); real-valued by construction.

    X is a float, or a 1-D array on which value and estimate are arrays,
    as for `basis_G1`.
    """
    _check_omega(omega)

    def kernel(X):
        value, err = _bessel_K(1j * omega, X)
        return value.real + 0j, err

    return _special_value(kernel, X)


def wronskian_IK(omega: float, X):
    """I_nu K_nu' - I_nu' K_nu at nu = i omega; identically -1/X.

    Derivatives come from the order-shift averages
    I' = (I_{nu-1} + I_{nu+1})/2 and K' = -(K_{nu-1} + K_{nu+1})/2, so
    this exercises the kernels at three adjacent orders at once.  X is a
    float, or a 1-D array on which the value is an array, and an X out
    of range raises what a point-by-point loop would raise.
    """
    _check_omega(omega)
    nu = 1j * omega

    def wronskian(X):
        i0, _ = _bessel_I(nu, X)
        k0, _ = _bessel_K(nu, X)
        di = 0.5 * (_bessel_I(nu - 1.0, X)[0] + _bessel_I(nu + 1.0, X)[0])
        dk = -0.5 * (_bessel_K(nu - 1.0, X)[0] + _bessel_K(nu + 1.0, X)[0])
        # the value alone: no estimate is carried
        return i0 * dk - di * k0, 0.0 * X

    return _special_value(wronskian, X).value


def bessel_I_imag(omega: float, X) -> SpecialValue:
    """I_{i omega}(X); the order -i omega value is its conjugate.

    X is a float or a 1-D array, as for `basis_G1`.
    """
    _check_omega(omega)
    return _special_value(lambda X: _bessel_I(1j * omega, X), X)


# ---------------------------------------------------------------------------
# the six solution branches at x = iX, plus order-shifted values for the
# derivative recurrence

_BRANCH_KIND = {
    BasisBranch.BESSEL_PLUS: ("J", +1),
    BasisBranch.BESSEL_MINUS: ("J", -1),
    BasisBranch.HANKEL1: ("H1", +1),
    BasisBranch.HANKEL2: ("H2", +1),
    BasisBranch.NEUMANN_PLUS: ("N", +1),
    BasisBranch.NEUMANN_MINUS: ("N", -1),
}


def _cyl_at_ix(kind: str, nu: complex, X: float):
    """Cylinder function of order nu at x = e^{i pi/2} X via I/K kernels.

    J_nu(iX)    = e^{+i pi nu/2} I_nu(X)
    H1_nu(iX)   = (2/(i pi)) e^{-i pi nu/2} K_nu(X)
    H2_nu(iX)   = 2 J_nu(iX) - H1_nu(iX)
    N_nu(iX)    = (H1_nu(iX) - H2_nu(iX)) / (2i)
    """
    if kind == "J":
        i_val, i_err = _bessel_I(nu, X)
        phase = cmath.exp(0.5j * cmath.pi * nu)
        return phase * i_val, abs(phase) * i_err
    if kind == "H1":
        k_val, k_err = _bessel_K(nu, X)
        factor = (2.0 / (1j * cmath.pi)) * cmath.exp(-0.5j * cmath.pi * nu)
        return factor * k_val, abs(factor) * k_err
    if kind == "H2":
        j_val, j_err = _cyl_at_ix("J", nu, X)
        h1_val, h1_err = _cyl_at_ix("H1", nu, X)
        return 2.0 * j_val - h1_val, 2.0 * j_err + h1_err
    if kind == "N":
        j_val, j_err = _cyl_at_ix("J", nu, X)
        h1_val, h1_err = _cyl_at_ix("H1", nu, X)
        # N = (H1 - H2)/(2i) = (H1 - J)/i
        return (h1_val - j_val) / 1j, h1_err + j_err
    raise DomainError(f"unknown cylinder kind {kind!r}")


def _special_value(kernel, X) -> SpecialValue:
    """SpecialValue(*kernel(X)) for a float X or a 1-D array of X.

    The inputs are finite, so a value or estimate that is not finite has
    overflowed a double, and raises `_overflow`'s RangeError.  A grid is
    evaluated up to its first X that `_check_X` rejects and checked for
    finiteness there; only then is that X's error raised.  So an X out of
    range, and a non-finite value before it, raise what a point-by-point
    loop would raise.  An error that a route itself raises (`AccuracyError`,
    say) comes out in route order, not in X order.
    """
    if not isinstance(X, np.ndarray):
        _check_X(X)
        value, err = kernel(X)
        if not (cmath.isfinite(value) and math.isfinite(err)):
            raise _overflow(X)
        return SpecialValue(value, err)
    rejected = np.flatnonzero(~((X > 0.0) & (X <= _X_MAX)))
    head = X[:rejected[0]] if rejected.size else X
    # values that overflow come out as inf or nan and raise below
    with np.errstate(over="ignore", invalid="ignore"):
        value, err = kernel(head)
    finite = np.isfinite(value) & np.isfinite(err)
    if not finite.all():
        raise _overflow(float(head[np.argmin(finite)]))
    if rejected.size:
        _check_X(float(X[rejected[0]]))
    return SpecialValue(value, err)


def basis_G1(branch: BasisBranch, omega: float, X) -> SpecialValue:
    """First radial profile G1 at x = iX for the chosen solution branch.

    X is a float, or a 1-D array on which value and estimate are arrays.
    """
    _check_omega(omega)
    kind, sign = _BRANCH_KIND[branch]
    return _special_value(lambda X: _cyl_at_ix(kind, sign * 1j * omega, X), X)


def recurrence_shift(branch: BasisBranch, omega: float, X) -> SpecialValue:
    """x dF/dx at x = iX via the order-shift recurrence of the printed
    pairing: up for +i omega base orders, down for -i omega ones,

        x F' = nu F_nu - x F_{nu+1}     (nu = +i omega)
        x F' = -nu F_nu + x F_{nu-1}    (nu = -i omega).

    X is a float or a 1-D array, as for `basis_G1`.
    """
    _check_omega(omega)
    kind, sign = _BRANCH_KIND[branch]
    nu = sign * 1j * omega

    def shift(X):
        f0, e0 = _cyl_at_ix(kind, nu, X)
        f1, e1 = _cyl_at_ix(kind, nu + sign, X)
        return sign * (nu * f0 - 1j * X * f1), abs(nu) * e0 + X * e1

    return _special_value(shift, X)
