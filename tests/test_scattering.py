import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobwave import scattering
from lobwave.errors import ConditioningError, DomainError, RangeError
from lobwave.modes import ModeParams
from lobwave.numerics import integrate_linear_ode2
from lobwave.scattering import (
    amplitudes_analytic,
    amplitudes_fit,
    effective_force,
    near_turning_exponent,
    neumann_audit,
    penetration_depth,
    reflection,
    reflection_numeric_oracle,
    schrodinger_potential,
    turning_point,
    _kernel_samples,
)
from lobwave.specfun import BasisBranch, basis_G1, gamma_modulus_sq

C_LIGHT = 299792458.0


def test_potential_basics():
    p0 = ModeParams(1.0, 0.0, 0.0)
    assert schrodinger_potential(p0, 3.0) == 0.0
    assert effective_force(p0, 3.0) == 0.0
    p1 = ModeParams(1.0, 1.0, 0.0)
    assert schrodinger_potential(p1, 0.0) == 1.0
    for z in (-2.0, 0.5):
        assert schrodinger_potential(p1, z + math.log(2.0)) == pytest.approx(
            4.0 * schrodinger_potential(p1, z), rel=1e-14)
    assert effective_force(p1, 0.0) == -2.0


def test_turning_point_values():
    assert turning_point(ModeParams(1.0, 1.0, 0.0)).z0 == 0.0
    info = turning_point(ModeParams(10.0, 1.0, 0.0))
    assert info.z0 == pytest.approx(math.log(10.0), rel=1e-15)
    assert info.x0_magnitude == 10.0
    with pytest.raises(DomainError):
        turning_point(ModeParams(1.0, 0.0, 0.0))


@given(st.floats(0.3, 20.0), st.floats(0.1, 5.0))
@settings(max_examples=60, deadline=None)
def test_turning_point_identity(w, k):
    info = turning_point(ModeParams(w, k, 0.0))
    assert abs(info.U0 * math.exp(2.0 * info.z0) - w * w) <= 1e-12 * w * w
    assert info.z0 == math.log(w / k)


def test_penetration_depth_basics():
    k = 2.0
    assert penetration_depth(C_LIGHT * k, k, 0.0, 1.0) == 0.0
    assert penetration_depth(C_LIGHT * math.e, 1.0, 0.0, 1.0) == pytest.approx(
        1.0, rel=1e-14)
    d1 = penetration_depth(2.0 * C_LIGHT, 1.0, 0.0, 1.0)
    d2 = penetration_depth(2.0 * C_LIGHT, 1.0, 0.0, 2.0)
    assert d2 == pytest.approx(2.0 * d1, rel=1e-14)
    with pytest.raises(DomainError):
        penetration_depth(1.0, 0.0, 0.0, 1.0)


def test_penetration_depth_si_golden():
    # f = 1 GHz, k1 = k2 = 1/m, rho = 1 m
    got = penetration_depth(2.0 * math.pi * 1e9, 1.0, 1.0, 1.0)
    expect = math.log(2.0 * math.pi * 1e9 / (C_LIGHT * math.sqrt(2.0)))
    assert got == pytest.approx(expect, rel=1e-14)
    assert got == pytest.approx(2.6959683265306302, rel=1e-12)


@given(st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=30, deadline=None)
def test_penetration_depth_rotation_invariant(phi):
    k = 1.7
    d0 = penetration_depth(3.0 * C_LIGHT, k, 0.0, 1.0)
    d1 = penetration_depth(3.0 * C_LIGHT, k * math.cos(phi),
                           k * math.sin(phi), 1.0)
    assert abs(d0 - d1) < 1e-12


def test_analytic_amplitudes_structure():
    p = ModeParams(1.0, 0.6, 0.8)
    assert amplitudes_analytic(BasisBranch.BESSEL_PLUS, p).Mminus == 0.0
    assert amplitudes_analytic(BasisBranch.BESSEL_MINUS, p).Mplus == 0.0
    amps = amplitudes_analytic(BasisBranch.HANKEL1, p)
    assert abs(amps.Mplus) == pytest.approx(abs(amps.Mminus), rel=1e-14)


def test_hankel1_amplitude_modulus_closed_form():
    # |M+|^2 = e^{w pi} / (sinh^2(w pi) |Gamma(1+iw)|^2)
    for w in (0.5, 1.0, 2.0):
        p = ModeParams(w, 1.0, 0.0)
        amps = amplitudes_analytic(BasisBranch.HANKEL1, p)
        expect = math.exp(w * math.pi) \
            / (math.sinh(w * math.pi) ** 2 * gamma_modulus_sq(w))
        assert abs(amps.Mplus) ** 2 == pytest.approx(expect, rel=1e-12)
        assert abs(amps.Mminus) ** 2 == pytest.approx(expect, rel=1e-12)


def test_reflection_analytic_values():
    p = ModeParams(1.0, 0.6, 0.8)
    assert reflection(BasisBranch.HANKEL1, p).R == pytest.approx(1.0,
                                                                 abs=1e-12)
    assert reflection(BasisBranch.HANKEL2, p).R == pytest.approx(
        math.exp(4.0 * math.pi), rel=1e-12)
    assert reflection(BasisBranch.BESSEL_PLUS, p).R == 0.0
    with pytest.raises(DomainError):
        reflection(BasisBranch.BESSEL_MINUS, p)


def test_reflection_fitted_matches_analytic():
    p = ModeParams(2.0, 1.0, 0.0)
    r_fit = reflection(BasisBranch.HANKEL1, p, method="fitted").R
    assert abs(r_fit - 1.0) < 1e-6
    r_fit2 = reflection(BasisBranch.HANKEL2, ModeParams(0.25, 1.0, 0.0),
                        method="fitted").R
    assert r_fit2 == pytest.approx(math.exp(math.pi), rel=1e-6)


def test_amplitudes_fit_synthetic():
    w = 2.0
    zs = np.linspace(-8.0, -6.0, 16)
    samples = [(float(z), 2.0 * cmath.exp(1j * w * z)) for z in zs]
    amps = amplitudes_fit(samples, w)
    assert abs(amps.Mplus - 2.0) < 1e-12
    assert abs(amps.Mminus) < 1e-12
    samples = [(float(z), cmath.exp(1j * w * z) + 0.5 * cmath.exp(-1j * w * z))
               for z in zs]
    amps = amplitudes_fit(samples, w)
    assert abs(amps.Mplus - 1.0) < 1e-12
    assert abs(amps.Mminus - 0.5) < 1e-12


def test_amplitudes_fit_guards():
    with pytest.raises(ConditioningError):
        amplitudes_fit([(0.0, 1.0)] * 4, 1.0)
    zs = np.linspace(-6.01, -6.0, 10)
    samples = [(float(z), cmath.exp(1j * z)) for z in zs]
    with pytest.raises(ConditioningError):
        amplitudes_fit(samples, 1.0)


def test_fitted_amplitudes_agree_with_closed_forms():
    # per-component agreement at small omega where no component is
    # exponentially subdominant
    p = ModeParams(0.25, 1.0, 0.0)
    for br in BasisBranch:
        aa = amplitudes_analytic(br, p)
        af = amplitudes_fit(_kernel_samples(br, p), p.omega)
        scale = max(abs(aa.Mplus), abs(aa.Mminus))
        assert abs(aa.Mplus - af.Mplus) <= 1e-5 * scale
        assert abs(aa.Mminus - af.Mminus) <= 1e-5 * scale
    # at larger omega the subdominant component is only recovered
    # relative to the dominant scale
    p = ModeParams(2.0, 1.0, 0.5)
    for br in BasisBranch:
        aa = amplitudes_analytic(br, p)
        af = amplitudes_fit(_kernel_samples(br, p), p.omega)
        scale = max(abs(aa.Mplus), abs(aa.Mminus))
        assert abs(aa.Mplus - af.Mplus) <= 1e-8 * scale
        assert abs(aa.Mminus - af.Mminus) <= 1e-8 * scale


def test_reflection_scale_invariance():
    # R is a ratio of squared moduli, so rescaling the samples by any
    # nonzero complex constant leaves it unchanged
    p = ModeParams(2.0, 1.0, 0.0)
    samples = _kernel_samples(BasisBranch.HANKEL1, p)
    amps0 = amplitudes_fit(samples, p.omega)
    c = 3.7 - 1.2j
    amps1 = amplitudes_fit([(z, c * g) for z, g in samples], p.omega)
    r0 = abs(amps0.Mminus / amps0.Mplus) ** 2
    r1 = abs(amps1.Mminus / amps1.Mplus) ** 2
    assert r0 == pytest.approx(r1, rel=1e-12)


def test_numeric_oracle_decaying():
    cells = [(2.0, 1.0), (10.0, 1.0), (1.0, 5.0)]
    cells += [(w, k) for w in (0.05, 2.5, 20.0) for k in (0.2, 1.0, 5.0)]
    for (w, k) in cells:
        r = reflection_numeric_oracle(ModeParams(w, k, 0.0))
        assert abs(r - 1.0) < 1e-10, (w, k, r)


def test_numeric_oracle_decaying_step_count(monkeypatch):
    steps = []

    def counting(*args, **kwargs):
        res = integrate_linear_ode2(*args, **kwargs)
        steps.append(res.n_accepted + res.n_rejected)
        return res

    monkeypatch.setattr(scattering, "integrate_linear_ode2", counting)
    # one integration per call; the DOP853 pair takes 327 and 1422 steps
    # here, where Dormand-Prince 5(4) took 3360 and 17452
    for w, budget in ((2.0, 500), (20.0, 2000)):
        steps.clear()
        reflection_numeric_oracle(ModeParams(w, 1.0, 0.0))
        assert len(steps) == 1
        assert steps[0] <= budget, (w, steps[0])


def test_numeric_oracle_growing():
    for w in (0.25, 0.5):
        r = reflection_numeric_oracle(ModeParams(w, 1.0, 0.0),
                                      variant="growing")
        expect = math.exp(4.0 * w * math.pi)
        assert abs(r - expect) <= 0.01 * expect


def test_numeric_oracle_guards():
    with pytest.raises(DomainError):
        reflection_numeric_oracle(ModeParams(25.0, 1.0, 0.0))
    with pytest.raises(DomainError):
        reflection_numeric_oracle(ModeParams(2.0, 1.0, 0.0), variant="bogus")


def test_neumann_audit_discrepancy():
    p = ModeParams(1.0, 1.0, 0.0)
    aud = neumann_audit(BasisBranch.NEUMANN_PLUS, p)
    assert aud.discrepancy_flag
    # the published expression, reproduced verbatim
    assert aud.R_printed == 4.0 / (1.0 + math.exp(-4.0 * math.pi))
    # the amplitude ratio and the fit agree with each other
    assert aud.R_amplitudes == pytest.approx(aud.R_fitted, rel=1e-6)
    # and with the ratio e^{2 w pi} / cosh^2(w pi)
    expect = math.exp(2.0 * math.pi) / math.cosh(math.pi) ** 2
    assert aud.R_amplitudes == pytest.approx(expect, rel=1e-12)

    aud2 = neumann_audit(BasisBranch.NEUMANN_MINUS, p)
    assert aud2.discrepancy_flag
    assert aud2.R_printed == (1.0 + math.exp(4.0 * math.pi)) / 4.0
    expect2 = math.cosh(math.pi) ** 2 * math.exp(2.0 * math.pi)
    assert aud2.R_amplitudes == pytest.approx(expect2, rel=1e-12)


def test_near_turning_synthetic():
    p = ModeParams(10.0, 1.0, 0.0)
    assert near_turning_exponent(p, profile=lambda u: math.exp(-u)) == \
        pytest.approx(-1.0, abs=1e-6)
    assert near_turning_exponent(p, profile=lambda u: 3.0) == \
        pytest.approx(0.0, abs=1e-6)


def test_near_turning_measured_slope():
    # the leading-order local model allows only B = 0 or -1, but the
    # measured slope includes the curvature-scale (~ omega^{2/3})
    # contribution; the decaying branch value at omega = 10 is frozen
    # from an independent high-precision evaluation
    p = ModeParams(10.0, 1.0, 0.0)
    B = near_turning_exponent(p)
    assert B == pytest.approx(-4.4624, abs=0.05)
    assert B < -1.0  # decaying, same sign as the B = -1 local branch


def test_near_turning_guards():
    p = ModeParams(2.0, 1.0, 0.0)
    with pytest.raises(ConditioningError):
        near_turning_exponent(p, window=0.9)
    with pytest.raises(ConditioningError):
        near_turning_exponent(p, n=3)


def _envelope_crossing_full_scan(p):
    """The reference algorithm: all 601 grid points, then 60 bisections."""
    amps = amplitudes_analytic(BasisBranch.HANKEL1, p)
    target = (abs(amps.Mplus) + abs(amps.Mminus)) / math.e
    z0 = turning_point(p).z0

    def mag(z):
        return abs(basis_G1(BasisBranch.HANKEL1, p.omega,
                            p.kappa * math.exp(z)).value)

    zs = np.linspace(z0 - 3.0, z0 + 3.0, 601)
    mags = np.array([mag(float(z)) for z in zs])
    above = np.nonzero(mags >= target)[0]
    if len(above) == 0 or above[-1] == len(zs) - 1:
        raise ConditioningError("no envelope crossing inside the search window")
    lo, hi = float(zs[above[-1]]), float(zs[above[-1] + 1])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mag(mid) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_envelope_crossing_matches_full_scan(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return basis_G1(*args)

    monkeypatch.setattr(scattering, "basis_G1", counted)
    for w in (0.2, 2.0, 10.0, 30.0):
        for k in (0.2, 1.0, 5.0):
            p = ModeParams(w, k, 0.0)
            calls.clear()
            got = scattering.envelope_crossing(p)
            assert got == _envelope_crossing_full_scan(p), (w, k)
            assert len(calls) <= 80, (w, k, len(calls))
    # no crossing in the window at w = 0.05; the window leaves X <= 700
    # at w = 40
    for w, exc in ((0.05, ConditioningError), (40.0, RangeError)):
        p = ModeParams(w, 1.0, 0.0)
        with pytest.raises(exc):
            _envelope_crossing_full_scan(p)
        with pytest.raises(exc):
            scattering.envelope_crossing(p)
