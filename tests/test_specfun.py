import cmath
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobwave import specfun
from lobwave.errors import DomainError, RangeError
from lobwave.numerics import quad_adaptive
from lobwave.specfun import (
    BasisBranch,
    SpecialValue,
    _bessel_I,
    _bessel_K,
    _i_series,
    _i_series_grid,
    _k_contour,
    _k_quadrature,
    _k_reflection,
    basis_G1,
    bessel_I_imag,
    bessel_K_imag,
    gamma_modulus_sq,
    log_gamma,
    recurrence_shift,
    wronskian_IK,
)

# goldens computed once with an independent high-precision library
K_I1_AT_1 = 0.28942803702599212763
PI_OVER_SINH_PI = 0.27202905498213316295


def test_special_value_validation():
    SpecialValue(1.0 + 0j, 1e-15)
    with pytest.raises(DomainError):
        SpecialValue(complex(math.nan, 0.0), 0.0)
    with pytest.raises(DomainError):
        SpecialValue(1.0 + 0j, -1.0)


def test_log_gamma_known_values():
    assert complex(log_gamma(1.0)).real == pytest.approx(0.0, abs=1e-14)
    assert complex(log_gamma(5.0)).real == pytest.approx(math.log(24.0),
                                                         rel=1e-14)
    assert complex(log_gamma(0.5)).real == pytest.approx(
        0.5 * math.log(math.pi), rel=1e-14)


def test_log_gamma_functional_equation():
    for z in (0.3 + 2.0j, 1.5 - 4.0j, -0.7 + 0.9j):
        lhs = log_gamma(z + 1.0)
        rhs = log_gamma(z) + cmath.log(z)
        assert abs(cmath.exp(lhs - rhs) - 1.0) < 1e-12


def test_gamma_modulus_identity():
    assert gamma_modulus_sq(1.0) == pytest.approx(PI_OVER_SINH_PI, rel=1e-14)


def test_bessel_k_golden():
    got = bessel_K_imag(1.0, 1.0).value
    assert got.imag == 0.0
    assert got.real == pytest.approx(K_I1_AT_1, rel=1e-12)


def test_bessel_k_routes_agree_on_overlap():
    for w in np.linspace(0.5, 5.0, 5):
        for X in np.linspace(0.5, 20.0, 8):
            vq = _k_quadrature(1j * float(w), np.array([X]))[0][0]
            vr, _ = _k_reflection(1j * float(w), float(X))
            ref = bessel_K_imag(float(w), float(X)).value.real
            if abs(ref) == 0.0:
                continue
            # keep only the route that is well conditioned at this point
            assert min(abs(vq.real - ref), abs(vr.real - ref)) <= 1e-10 * abs(ref)
            if X >= 1.1 * w + 10.0 or w <= 3.0:
                assert abs(vq.real - ref) <= 1e-10 * abs(ref)


# K_nu(X) against mpmath at orders i w and i w +- 1, on both sides of
# every route switch: w = 3, X = 1.05 w, X = 0.1, the I switches X = 40
# and X = w^2, the old switch X = 1.2 w, and the large-X cells where the
# quadrature's error norm used to underflow
_K_OMEGAS = (0.05, 0.5, 2.0, 3.0, 3.05, 5.0, 8.0, 10.0, 14.0, 20.0, 35.0, 50.0)
_K_SHIFTS = (-1.0, 0.0, 1.0)


@functools.lru_cache(maxsize=None)
def _mp_besselk(shift, w, X):
    """40-digit mpmath K_{shift + i w}(X), computed once per session: the K
    tests and `_reference_G` share many cells."""
    with mpmath.workdps(40):
        return mpmath.besselk(mpmath.mpc(shift, w), X)


def _k_cells():
    for w in _K_OMEGAS:
        xs = {1e-3, 0.1 * (1.0 - 1e-9), 0.1 * (1.0 + 1e-9),
              0.5 * w, 1.05 * w * (1.0 - 1e-9), 1.05 * w * (1.0 + 1e-9),
              1.2 * w * (1.0 - 1e-9), 1.2 * w * (1.0 + 1e-9),
              1.1 * w + 10.0, 40.0, w * w, 370.0, 400.0, 600.0, 690.0}
        for X in sorted(x for x in xs if x <= 700.0):
            yield w, X


def test_bessel_k_against_mpmath():
    worst = (0.0, None)
    for w, X in _k_cells():
        for shift in _K_SHIFTS:
            got = _bessel_K(complex(shift, w), X)[0]
            ref = complex(_mp_besselk(shift, w, X))
            worst = max(worst, (abs(got - ref) / abs(ref), (w, X, shift)))
    err, where = worst
    assert err <= 1e-10, f"relative error {err:.2e} at (w, X, shift) = {where}"


@pytest.mark.parametrize("w", [1e-4, 1e-6, 1e-7])
def test_bessel_k_unit_shift_at_tiny_omega(w):
    # at Re nu = +-1 the reflection route divides by sin(pi nu) =
    # -i sinh(pi w); the rounding of pi n inside a computed sin(pi nu)
    # would add a relative error of about 4e-17 / w (3.9e-10 at w = 1e-7)
    with mpmath.workdps(40):
        for X in (0.5 * w, w):
            for shift in (-1.0, 1.0):
                got = _bessel_K(complex(shift, w), X)[0]
                ref = complex(mpmath.besselk(mpmath.mpc(shift, w), X))
                assert abs(got - ref) <= 1e-13 * abs(ref), (X, shift)


def test_bessel_i_against_mpmath():
    # I_nu(X) at orders i w and i w +- 1, on both sides of the series /
    # asymptotic switches X = 40 and X = w^2, point by point and as one
    # grid call per (w, order)
    worst = (0.0, None)
    with mpmath.workdps(40):
        for w in np.geomspace(0.05, 50.0, 14).tolist():
            xs = {1e-3, 0.1, 0.5 * w, 1.05 * w, 370.0, 600.0, 690.0,
                  40.0 * (1.0 - 1e-9), 40.0 * (1.0 + 1e-9),
                  w * w * (1.0 - 1e-9), w * w * (1.0 + 1e-9)}
            X = np.array(sorted(x for x in xs if x <= 700.0))
            for shift in _K_SHIFTS:
                nu = complex(shift, w)
                grid = _bessel_I(nu, X)[0]
                for i, x in enumerate(X.tolist()):
                    ref = complex(mpmath.besseli(mpmath.mpc(shift, w), x))
                    for path, got in (("float", _bessel_I(nu, x)[0]),
                                      ("grid", grid[i])):
                        worst = max(worst, (abs(got - ref) / abs(ref),
                                            (path, w, x, shift)))
    err, where = worst
    assert err <= 1e-10, f"relative error {err:.2e} at (path, w, X, shift) = {where}"


def test_float_x_is_a_one_x_block():
    # a float X on the saddle-line K route and the asymptotic I route runs
    # the block code on a one-element array: the same bits, value and
    # estimate
    rng = np.random.default_rng(13)
    for kernel, n, w_max, lo in ((_bessel_K, 750, 50.0, lambda w: 1.05 * w),
                                 (_bessel_I, 500, 26.0, lambda w: max(40.0, w * w))):
        for w in np.exp(rng.uniform(math.log(0.05), math.log(w_max), n)).tolist():
            x = math.exp(rng.uniform(math.log(lo(w)), math.log(700.0)))
            for nu in (1j * w, -1j * w, complex(1.0, w), complex(-1.0, w)):
                value, err = kernel(nu, np.array([x]))
                assert kernel(nu, x) == (value[0], err[0]), (kernel.__name__, nu, x)
    # and a saddle-line row of a longer block, whose X need different node
    # counts, is the float call too: a row's sum does not depend on the rest
    # of its block
    for w in (0.5, 2.0, 20.0):
        X = np.geomspace(1.05 * w + 0.01, 700.0, 40)
        for nu in (1j * w, complex(1.0, w), complex(-1.0, w)):
            value, err = _bessel_K(nu, X)
            for i, x in enumerate(X.tolist()):
                assert _bessel_K(nu, x) == (value[i], err[i]), (nu, x)


def test_k_contour_estimate_bounds_error():
    worst_ratio = worst_size = (0.0, None)
    for w in _K_OMEGAS:
        X = np.array([x for v, x in _k_cells() if v == w and x > 1.05 * w])
        for shift in _K_SHIFTS:
            got, est = _k_contour(complex(shift, w), X)
            for i, x in enumerate(X.tolist()):
                ref = complex(_mp_besselk(shift, w, x))
                where = (w, x, shift)
                worst_ratio = max(worst_ratio, (abs(got[i] - ref) / est[i], where))
                worst_size = max(worst_size, (est[i] / abs(ref), where))
    assert worst_ratio[0] <= 10.0, f"|err| / estimate {worst_ratio}"
    assert worst_size[0] <= 1e-11, f"estimate / |K| {worst_size}"


def _expected_k_route(w, X):
    """The switch table of `_bessel_K`."""
    if X > 1.05 * w:
        return "_k_contour"
    if w <= 3.0 and X > 0.1:
        return "_k_quadrature"
    return "_k_reflection"


def test_bessel_k_runs_one_route_per_call(monkeypatch):
    calls = []

    def counted(route):
        def wrapper(nu, X):
            calls.append(route.__name__)
            return route(nu, X)
        return wrapper

    routes = ("_k_quadrature", "_k_reflection", "_k_contour")
    for name in routes:
        monkeypatch.setattr(specfun, name, counted(getattr(specfun, name)))
    # X = 1.05 w on either side of the w = 3 switch, and X = 0.1 below it
    for w in (2.0, 20.0):
        xs = np.concatenate((np.geomspace(1e-3, 0.3 * w, 12, endpoint=False),
                             np.linspace(0.3 * w, 1.1 * w + 10.0, 25),
                             [0.1 * (1.0 - 1e-9), 0.1 * (1.0 + 1e-9)]))
        for X in xs.tolist():
            before = len(calls)
            _bessel_K(1j * w, X)
            assert calls[before:] == [_expected_k_route(w, X)], (w, X)
    assert set(calls) == set(routes)


@pytest.mark.parametrize("w", [0.05, 2.0, 3.0, 3.05, 20.0])
def test_bessel_k_grid_point_takes_the_float_route(monkeypatch, w):
    # each X of a grid reaches the route that X alone reaches
    seen = []

    def tagged(name, route):
        def wrapper(nu, X):
            seen.extend((x, name) for x in np.atleast_1d(X).tolist())
            return route(nu, X)
        return wrapper

    for name in ("_k_quadrature", "_k_reflection", "_k_contour"):
        monkeypatch.setattr(specfun, name, tagged(name, getattr(specfun, name)))
    X = np.unique(np.concatenate((
        np.geomspace(1e-3, 1.1 * w + 10.0, 40),
        [0.1 * (1.0 - 1e-9), 0.1 * (1.0 + 1e-9),
         1.05 * w * (1.0 - 1e-9), 1.05 * w * (1.0 + 1e-9)])))
    _bessel_K(1j * w, X)
    grid = sorted(seen)
    seen.clear()
    for x in X.tolist():
        _bessel_K(1j * w, x)
    assert grid == sorted(seen)
    assert seen == [(x, _expected_k_route(w, x)) for x in X.tolist()]


def test_bessel_k_positive_and_decaying_in_X():
    vals = [bessel_K_imag(0.5, X).value.real for X in (1.0, 2.0, 4.0, 8.0)]
    assert all(v > 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def _seeded_cells(n, seed):
    """n seeded (w, X), w log-uniform on [0.05, 50], X on [1e-3, 700]."""
    rng = np.random.default_rng(seed)
    ws = np.exp(rng.uniform(math.log(0.05), math.log(50.0), n))
    xs = np.exp(rng.uniform(math.log(1e-3), math.log(700.0), n))
    return list(zip(ws.tolist(), xs.tolist()))


def test_bessel_i_conjugate_symmetry():
    # I_{-i w}(X) is the conjugate of I_{+i w}(X) for real X, bit for bit,
    # value and estimate, on the series and the asymptotic route alike
    for w, X in _seeded_cells(600, 4):
        plus, plus_err = _bessel_I(1j * w, X)
        minus, minus_err = _bessel_I(-1j * w, X)
        assert (minus, minus_err) == (plus.conjugate(), plus_err), (w, X)


def test_k_reflection_is_the_two_series_formula():
    def formula(nu, X):
        im, em = _bessel_I(-nu, X)
        ip, ep = _bessel_I(nu, X)
        sign = -1.0 if nu.real % 2.0 else 1.0
        s = complex(0.0, sign * math.sinh(math.pi * nu.imag))
        return (cmath.pi * (im - ip) / (2.0 * s),
                cmath.pi * (em + ep + 1e-16 * (abs(im) + abs(ip))) / (2.0 * abs(s)))

    for w, X in _seeded_cells(100, 5):
        for nu in (1j * w, -1j * w, complex(1.0, w), complex(-1.0, w)):
            assert _k_reflection(nu, X) == formula(nu, X), (nu, X)
    # and on a grid, where the I values come from the block routes
    X = np.linspace(0.5, 60.0, 40)
    for nu in (8j, -8j, complex(1.0, 8.0)):
        value, err = _k_reflection(nu, X)
        ref_value, ref_err = formula(nu, X)
        assert np.array_equal(value, ref_value) and np.array_equal(err, ref_err)


def test_branch_small_x_phase():
    # J_{+i w}(iX) -> (iX/2)^{iw}/Gamma(1+iw): magnitude e^{-w pi/2}/|Gamma|
    w = 1.5
    X = 1e-6
    got = basis_G1(BasisBranch.BESSEL_PLUS, w, X).value
    expect_mag = math.exp(-0.5 * w * math.pi) / abs(
        cmath.exp(log_gamma(1.0 + 1j * w)))
    assert abs(got) == pytest.approx(expect_mag, rel=1e-9)


def test_hankel_combination_identity():
    # H1 + H2 = 2J at equal order and argument
    for (w, X) in ((0.5, 0.8), (2.0, 5.0), (8.0, 3.0)):
        h1 = basis_G1(BasisBranch.HANKEL1, w, X).value
        h2 = basis_G1(BasisBranch.HANKEL2, w, X).value
        j = basis_G1(BasisBranch.BESSEL_PLUS, w, X).value
        scale = max(abs(h1), abs(h2), abs(j))
        assert abs(h1 + h2 - 2.0 * j) <= 1e-12 * scale


def test_neumann_from_hankels():
    # N = (H1 - H2) / 2i
    for (w, X) in ((0.5, 0.8), (2.0, 5.0)):
        h1 = basis_G1(BasisBranch.HANKEL1, w, X).value
        h2 = basis_G1(BasisBranch.HANKEL2, w, X).value
        n = basis_G1(BasisBranch.NEUMANN_PLUS, w, X).value
        scale = max(abs(h1), abs(h2))
        assert abs(n - (h1 - h2) / 2j) <= 1e-12 * scale


def test_recurrence_lines_agree():
    # x F' = nu F_nu - x F_{nu+1} (up) = -nu F_nu + x F_{nu-1} (down), and
    # recurrence_shift is the printed pairing: up for +i omega base orders,
    # down for -i omega ones
    for br in BasisBranch:
        kind, sign = _MAP_KIND[br]
        for (w, X) in ((0.5, 0.3), (2.0, 5.0), (6.0, 2.0)):
            nu = sign * 1j * w
            f0 = specfun._cyl_at_ix(kind, nu, X)[0]
            up = nu * f0 - 1j * X * specfun._cyl_at_ix(kind, nu + 1.0, X)[0]
            down = -nu * f0 + 1j * X * specfun._cyl_at_ix(kind, nu - 1.0, X)[0]
            scale = max(abs(up), abs(down), 1e-300)
            assert abs(up - down) <= 1e-10 * scale
            assert recurrence_shift(br, w, X).value == (up if sign > 0 else down)


def test_recurrence_matches_finite_difference():
    # x dG/dx at x = iX equals the centered difference in X
    h = 1e-6
    for br in (BasisBranch.HANKEL1, BasisBranch.BESSEL_PLUS):
        for (w, X) in ((1.0, 2.0), (3.0, 7.0)):
            got = recurrence_shift(br, w, X).value
            fp = basis_G1(br, w, X * (1.0 + h)).value
            fm = basis_G1(br, w, X * (1.0 - h)).value
            fd = X * (fp - fm) / (2.0 * X * h)
            assert abs(got - fd) <= 1e-8 * max(abs(got), abs(fd))


def test_hankel1_decays_beyond_turning_point():
    w = 5.0
    vals = [abs(basis_G1(BasisBranch.HANKEL1, w, X).value)
            for X in (w, 2.0 * w, 4.0 * w)]
    assert vals[0] > vals[1] > vals[2]


def test_domain_guards():
    # on a float X and on a one-X grid alike
    for kernel in (bessel_K_imag, bessel_I_imag):
        for X in (1.0, np.array([1.0])):
            with pytest.raises(DomainError):
                kernel(0.0, X)
            with pytest.raises(DomainError):
                kernel(51.0, X)
            with pytest.raises(DomainError):
                kernel(1.0, 0.0 * X)
            with pytest.raises(RangeError):
                kernel(1.0, 800.0 * X)


@given(st.floats(0.3, 10.0), st.floats(0.2, 25.0))
@settings(max_examples=60, deadline=None)
def test_wronskian_property(w, X):
    val = wronskian_IK(w, X)
    assert abs(val + 1.0 / X) <= 1e-8 / X


@given(st.floats(0.1, 20.0))
@settings(max_examples=40, deadline=None)
def test_gamma_modulus_positive_decreasing(w):
    v = gamma_modulus_sq(w)
    assert 0.0 < v <= 1.0
    assert gamma_modulus_sq(w + 0.5) < v


def test_k_quadrature_real_integrand_matches_the_complex_one():
    # at Re nu = 0 the route integrates the real e^{-X cosh t} cos(w t);
    # numpy's complex cosh(i w t) at the same tmax and tol gives the same
    # K within rounding
    X = np.array([0.11, 0.5, 1.0, 25.0, 370.0, 690.0])
    tmax = 5.0
    for _ in range(4):
        tmax = np.arccosh(1.0 + (60.0 + tmax) / X)
    for w in (0.05, 0.5, 3.0, 20.0, 50.0):
        value, err = _k_quadrature(1j * w, X)
        ref, _ = quad_adaptive(
            lambda t: np.exp(-X[:, None] * np.cosh(t)) * np.cosh(1j * w * t),
            (0.0, tmax), tol=1e-13 * np.exp(-X))
        assert np.all(np.abs(value - ref) <= 4.4e-16 * np.exp(-X) * tmax), w


def test_k_quadrature_block_rows_are_float_calls():
    # a float X, a one-element block and a row of a 32-X block give the
    # same bits, value and estimate
    rng = np.random.default_rng(16)
    for w in (0.5, 1.3, 2.0, 3.0):
        X = np.sort(np.exp(rng.uniform(math.log(0.1), math.log(1.05 * w), 32)))
        for nu in (1j * w, -1j * w, complex(1.0, w), complex(-1.0, w)):
            value, err = _bessel_K(nu, X)
            block = _k_quadrature(nu, X)
            for i, x in enumerate(X.tolist()):
                one = _k_quadrature(nu, np.array([x]))
                row = (value[i], err[i])
                assert _bessel_K(nu, x) == row == (one[0][0], one[1][0]) \
                    == (block[0][i], block[1][i]), (nu, x)


def test_k_quadrature_estimate_bounds_error():
    # |err| <= 10 estimate on every quadrature cell of _k_cells and on 80
    # seeded cells of the route's regime, orders i w and i w +- 1.  Panel
    # rounding floors add in quadrature, so the estimate carries a linear
    # rounding term as well
    rng = np.random.default_rng(16)
    ws = rng.uniform(0.1 / 1.05, 3.0, 80)
    xs = np.exp(rng.uniform(math.log(0.1), np.log(1.05 * ws)))
    cells = [(w, X) for w, X in _k_cells() if _expected_k_route(w, X) == "_k_quadrature"]
    cells += [(w, X) for w, X in zip(ws.tolist(), xs.tolist()) if X > 0.1]
    worst = (0.0, None)
    for w, X in cells:
        for shift in _K_SHIFTS:
            value, est = _k_quadrature(complex(shift, w), np.array([X]))
            ref = complex(_mp_besselk(shift, w, X))
            worst = max(worst, (abs(value[0] - ref) / est[0], (w, X, shift)))
    assert worst[0] <= 10.0, f"|err| / estimate {worst}"


def test_wronskian_grid():
    # one call per omega, each X within 1e-9 / X of -1/X; an X out of
    # range raises what a loop would raise, after any X before it
    X = np.linspace(0.1, 30.0, 20)
    for w in (0.5, 2.0, 10.0):
        val = wronskian_IK(w, X)
        assert val.shape == X.shape
        assert np.all(np.abs(val + 1.0 / X) * X <= 1e-9)
        assert wronskian_IK(w, 1.5) == pytest.approx(wronskian_IK(w, np.array([1.5]))[0],
                                                     rel=1e-13)
    with pytest.raises(RangeError, match="X = 701.0 "):
        wronskian_IK(2.0, np.array([1.0, 701.0, 0.0]))
    with pytest.raises(DomainError, match="X = 0.0 "):
        wronskian_IK(2.0, np.array([1.0, 0.0, 701.0]))


# basis_G1 and recurrence_shift against mpmath on all six branches, on
# both sides of every route switch, point by point and as one grid call
_MAP_OMEGAS = (0.05, 0.5, 2.0, 2.9, 3.1, 8.0, 20.0, 37.0, 50.0)
_MAP_KIND = {
    BasisBranch.BESSEL_PLUS: ("J", +1),
    BasisBranch.BESSEL_MINUS: ("J", -1),
    BasisBranch.HANKEL1: ("H1", +1),
    BasisBranch.HANKEL2: ("H2", +1),
    BasisBranch.NEUMANN_PLUS: ("N", +1),
    BasisBranch.NEUMANN_MINUS: ("N", -1),
}


def _map_X(w):
    xs = {1e-3, 0.02 * w, 0.5 * w, 1.05 * w * (1.0 - 1e-9), 1.05 * w * (1.0 + 1e-9),
          1.1 * w + 10.0, 40.0 * (1.0 - 1e-9), 40.0 * (1.0 + 1e-9), w * w, 300.0, 600.0}
    return np.array(sorted(x for x in xs if x <= 600.0))


def _reference_G(w, X):
    """{branch: (G1, G2)} at one (w, X), from 40-digit mpmath I and K, with
    x dC/dx from the order averages I' = (I_{nu-1} + I_{nu+1})/2 and
    K' = -(K_{nu-1} + K_{nu+1})/2 rather than the one-sided shifts."""
    # K_{-nu} = K_nu, so K_{-i w + shift} = K_{i w - shift}
    bk = {shift: _mp_besselk(float(shift), w, X) for shift in (-1, 0, 1)}
    with mpmath.workdps(40):
        X = mpmath.mpf(X)
        # I_{s - i w}(X) = conj I_{s + i w}(X) for real s and X > 0
        plus = {shift: mpmath.besseli(mpmath.mpc(shift, w), X) for shift in (-1, 0, 1)}
        bi = {(sign, shift): v if sign == 1 else mpmath.conj(v)
              for sign in (1, -1) for shift, v in plus.items()}
        out = {}
        for br, (kind, sign) in _MAP_KIND.items():
            nu = sign * 1j * w
            phase = mpmath.exp(0.5j * mpmath.pi * nu)
            j = phase * bi[sign, 0]
            dj = phase * X * (bi[sign, -1] + bi[sign, 1]) / 2
            factor = 2 / (1j * mpmath.pi) * mpmath.exp(-0.5j * mpmath.pi * nu)
            h = factor * bk[0]
            dh = -factor * X * (bk[-sign] + bk[sign]) / 2
            value, deriv = {"J": (j, dj), "H1": (h, dh),
                            "H2": (2 * j - h, 2 * dj - dh),
                            "N": ((h - j) / 1j, (dh - dj) / 1j)}[kind]
            out[br] = complex(value), complex(deriv / w)
        return out


def test_profile_kernels_against_mpmath():
    worst = (0.0, ())
    for w in _MAP_OMEGAS:
        X = _map_X(w)
        refs = [_reference_G(w, x) for x in X.tolist()]
        for br in BasisBranch:
            grid_g1 = basis_G1(br, w, X).value
            grid_g2 = recurrence_shift(br, w, X).value / w
            for i, x in enumerate(X.tolist()):
                r1, r2 = refs[i][br]
                point = (basis_G1(br, w, x).value, recurrence_shift(br, w, x).value / w)
                for path, (g1, g2) in (("point", point), ("grid", (grid_g1[i], grid_g2[i]))):
                    # relative to the local envelope: below the turning
                    # point G1 and G2 oscillate through zero
                    dev = max(abs(g1 - r1), abs(g2 - r2)) / math.hypot(abs(r1), abs(r2))
                    worst = max(worst, (dev, (path, br.value, w, x)))
    assert worst[0] <= 1e-10, f"deviation {worst[0]:.2e} at {worst[1]}"


def _series_top(w):
    """The largest X the ascending series serves at omega = w."""
    return min(max(specfun._SERIES_SWITCH_X, w * w), 700.0)


def test_block_routes_match_scalar_routes():
    # the block series on seeded 32-X blocks of its regime, against the
    # scalar series point by point.  The estimates agree to rounding, so
    # every X stops where the scalar loop stops.  The values differ
    # by rounding: the series' estimate holds 1e-16 of its largest term,
    # and the rounding differences reach about 1e-13 of it
    rng = np.random.default_rng(6)
    for w in (0.05, 0.5, 2.0, 8.0, 20.0, 26.0, 50.0):
        X = np.sort(np.exp(rng.uniform(math.log(1e-3), math.log(_series_top(w)), 32)))
        for nu in (1j * w, -1j * w, complex(1.0, w), complex(-1.0, w)):
            value, err = _i_series_grid(nu, X)
            for i, x in enumerate(X.tolist()):
                v, e = _i_series(nu, x)
                assert err[i] == pytest.approx(e, rel=1e-12), (nu, x)
                assert abs(value[i] - v) <= 1e-13 * abs(v) + 1e3 * e, (nu, x)


def _i_series_third_in_a_row(nu, X):
    """The block series by its earlier two-pass rule: stop at the third
    small term in a row, doubling the term count until every row has one."""
    q = 0.25 * X * X
    first = np.exp(nu * np.log(0.5 * X) - log_gamma(nu + 1.0))
    n = int(0.5 * X.max() + 5.0 * math.sqrt(X.max())) + 12
    while True:
        k = np.arange(n)
        ratio = q[:, None] / ((k + 1.0) * (nu + k + 1.0))
        terms = np.cumprod(np.concatenate((first[:, None], ratio), axis=1), axis=1)
        totals = np.cumsum(terms, axis=1)
        size = np.abs(terms)
        small = size[:, 1:] < 1e-17 * np.abs(totals[:, 1:])
        third = small[:, 2:] & small[:, 1:-1] & small[:, :-2]
        if third.any(axis=1).all():
            break
        n *= 2
    # third[:, i] covers terms i + 1 .. i + 3
    stop = np.argmax(third, axis=1) + 3
    rows = np.arange(X.size)
    return totals[rows, stop], size[rows, stop] + 1e-16 * size.max(axis=1)


def _i_series_with_reset(nu, X):
    """The scalar series by its earlier rule: a term that is not small
    resets the count of small terms in a row."""
    term = cmath.exp(nu * cmath.log(0.5 * X) - log_gamma(nu + 1.0))
    total, biggest, small = term, abs(term), 0
    for k in range(600):
        term = term * (0.25 * X * X / ((k + 1.0) * (nu + k + 1.0)))
        total += term
        biggest = max(biggest, abs(term))
        small = small + 1 if abs(term) < 1e-17 * abs(total) else 0
        if small == 3:
            return total, abs(term) + 1e-16 * biggest
    raise AssertionError((nu, X))


def test_i_series_stop_rule_is_the_third_small_term_in_a_row():
    # past their peak the terms only shrink, so a row's small terms run
    # unbroken from the first one, and stopping two terms after it is
    # stopping at the third in a row: same value and estimate, bit for bit
    rng = np.random.default_rng(19)
    blocks = []
    for w in np.exp(rng.uniform(math.log(0.05), math.log(50.0), 60)):
        X = np.exp(rng.uniform(math.log(1e-3), math.log(_series_top(w)),
                               rng.integers(1, 33)))
        blocks.append((w, X))
    for w in (0.05, 50.0):
        edges = np.array([1e-3, _series_top(w), 700.0])
        blocks += [(w, edges[:1]), (w, edges[2:]), (w, edges),
                   (w, np.geomspace(1e-3, 700.0, 32))]
    for w, X in blocks:
        for nu in (1j * w, -1j * w, complex(1.0, w), complex(-1.0, w)):
            value, err = _i_series_grid(nu, X)
            ref_value, ref_err = _i_series_third_in_a_row(nu, X)
            assert np.array_equal(value, ref_value), (nu, X)
            assert np.array_equal(err, ref_err), (nu, X)
            for x in X.tolist():
                assert _i_series(nu, x) == _i_series_with_reset(nu, x), (nu, x)


def test_grid_raises_what_the_point_loop_raises():
    # on a grid of a few X and on one of more than a block
    for head in (np.array([1.0]), np.linspace(1.0, 5.0, 40)):
        with pytest.raises(RangeError, match="X = 701.0 "):
            basis_G1(BasisBranch.HANKEL1, 2.0, np.append(head, [701.0, 800.0]))
        with pytest.raises(DomainError, match="X = 0.0 "):
            recurrence_shift(BasisBranch.HANKEL1, 2.0, np.append(head, [0.0, 701.0]))
        # an overflowing value before the first rejected X wins, as it
        # does point by point: bessel- at omega = 10 overflows at X = 700
        with pytest.raises(RangeError, match="X = 700.0: .* overflows a double"):
            basis_G1(BasisBranch.BESSEL_MINUS, 10.0, np.append(head, [700.0, 701.0]))
        # the public K and I on the quadrature route (X <= 1.05 omega),
        # the saddle line (X > 1.05 omega) and the asymptotic series
        # (X >= 40): each grid row is the float call, bit for bit
        for kernel, X in ((bessel_K_imag, 0.4 * head), (bessel_K_imag, 2.1 + head),
                          (bessel_I_imag, 40.0 + head)):
            grid = kernel(2.0, X)
            for i, x in enumerate(X.tolist()):
                one = kernel(2.0, x)
                assert (grid.value[i], grid.abs_err_estimate[i]) == (
                    one.value, one.abs_err_estimate), (kernel.__name__, x)
            with pytest.raises(RangeError, match="X = 701.0 "):
                kernel(2.0, np.append(X, [701.0, 0.0]))
            with pytest.raises(DomainError, match="X = 0.0 "):
                kernel(2.0, np.append(X, [0.0, 701.0]))
    assert basis_G1(BasisBranch.HANKEL1, 2.0, np.array([])).value.shape == (0,)


@pytest.mark.parametrize("omega, X", [(1.0, 1e-310), (50.0, 1e-280),
                                      (50.0, 1e-250)])
def test_tiny_x_overflow_is_one_range_error(omega, X):
    # at Re nu = -1 the I series' first term is (X/2)^{-1 + i omega} /
    # Gamma(i omega): past a double at the first two cells, and past it
    # after the e^{pi omega / 2} phase of J at the third.  Float and grid
    # raise the same RangeError
    messages = []
    for arg in (X, np.array([X])):
        with pytest.raises(RangeError, match="overflows a double") as exc:
            recurrence_shift(BasisBranch.BESSEL_MINUS, omega, arg)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == f"X = {X!r}: the kernel value overflows a double"


def test_tiny_x_below_overflow_stays_finite():
    point = recurrence_shift(BasisBranch.BESSEL_MINUS, 1.0, 1e-307)
    grid = recurrence_shift(BasisBranch.BESSEL_MINUS, 1.0, np.array([1e-307]))
    assert cmath.isfinite(point.value)
    assert abs(grid.value[0] - point.value) <= 1e-13 * abs(point.value)
