import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobwave import checks, modes, scattering
from lobwave.errors import ConditioningError, DomainError, RangeError
from lobwave.modes import ModeParams
from lobwave.numerics import integrate_linear_ode2, magnus_plane_waves
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
    _log_slope,
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


# kappa^2 = inf with e^{2z} = 0; kappa^2 subnormal (and e^{2z} past the
# double range at z = 360); kappa^2 = 0 with e^{2z} past the range
@pytest.mark.parametrize("kappa, zs", [(1e200, (-470.0, -465.5, -461.0)),
                                       (1e-160, (340.0, 350.0, 360.0)),
                                       (1e-300, (689.0, 690.0))])
def test_potential_at_extreme_kappa_against_mpmath(kappa, zs):
    p = ModeParams(1.0, kappa, 0.0)
    for z in zs:
        with mpmath.workdps(40):
            ref = (mpmath.mpf(kappa) * mpmath.exp(z)) ** 2
        got = schrodinger_potential(p, z)
        assert abs(got - ref) <= 1e-15 * ref, (kappa, z, got)
        assert effective_force(p, z) == -2.0 * got


@pytest.mark.parametrize("z", [-740.0, -739.0])
def test_x_and_potential_where_e_z_is_subnormal(z):
    # e^z below the smallest normal double carries a few digits: X = kappa
    # e^z was 2.6e-3 off at z = -740, and U = X^2 with it
    p = ModeParams(1.0, 1e300, 0.0)
    with mpmath.workdps(40):
        ref = mpmath.mpf(p.kappa) * mpmath.exp(z)
    X = modes._kappa_exp_z(p.kappa, z)
    assert abs(X - ref) <= 1e-14 * ref
    assert abs(schrodinger_potential(p, z) - ref ** 2) <= 1e-14 * ref ** 2
    # a grid gives the float's X, and eval_G takes it
    assert modes._kappa_exp_z(p.kappa, np.array([0.0, z]))[1] == X
    g1, _ = modes.eval_G(BasisBranch.HANKEL1, p, z)
    assert g1 == basis_G1(BasisBranch.HANKEL1, p.omega, X).value


def test_x_keeps_its_bits_where_e_z_is_normal():
    zs = np.array([-708.3, -700.0, -5.0, 0.0, 3.5, 700.0])
    for kappa in (1e300, 1.0, 1e-300):
        grid = modes._kappa_exp_z(kappa, zs)
        for i, z in enumerate(zs.tolist()):
            assert modes._kappa_exp_z(kappa, z) == grid[i] == kappa * math.exp(z)


def test_potential_keeps_ordinary_bits_and_raises_past_range():
    for kappa, z in ((1.0, 0.3), (0.7, -5.0), (3e100, -200.0), (2e-50, 100.0)):
        p = ModeParams(1.0, kappa, 0.0)
        assert schrodinger_potential(p, z) == kappa * kappa * math.exp(2.0 * z)
    for kappa, z in ((1.0, 355.0), (1e-300, 1e3), (1e200, -100.0)):
        with pytest.raises(RangeError, match="past the double range"):
            schrodinger_potential(ModeParams(1.0, kappa, 0.0), z)


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


@pytest.mark.parametrize("args, error", [
    ((math.nan, 1.0, 1.0, 1.0), DomainError),
    ((1e9, math.inf, 1.0, 1.0), DomainError),
    ((1e9, 1.0, 1.0, math.inf), DomainError),
    ((1e9, 1.0, 1.0, 1.0, math.nan), DomainError),
    # omega/(c kappa) underflows; c kappa overflows; the depth overflows
    ((1e-320, 1.0, 1.0, 1.0), RangeError),
    ((1e9, 1e308, 1e308, 1.0), RangeError),
    ((1e100, 1.0, 1.0, 1e307), RangeError),
])
def test_penetration_depth_raises_past_range(args, error):
    with pytest.raises(error):
        penetration_depth(*args)


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
    amps = amplitudes_fit(zs, 2.0 * np.exp(1j * w * zs), w)
    assert abs(amps.Mplus - 2.0) < 1e-12
    assert abs(amps.Mminus) < 1e-12
    amps = amplitudes_fit(zs, np.exp(1j * w * zs) + 0.5 * np.exp(-1j * w * zs), w)
    assert abs(amps.Mplus - 1.0) < 1e-12
    assert abs(amps.Mminus - 0.5) < 1e-12


def test_amplitudes_fit_guards():
    with pytest.raises(ConditioningError):
        amplitudes_fit(np.zeros(4), np.ones(4), 1.0)
    zs = np.linspace(-6.01, -6.0, 10)
    with pytest.raises(ConditioningError):
        amplitudes_fit(zs, np.exp(1j * zs), 1.0)


def test_fitted_amplitudes_agree_with_closed_forms():
    # per-component agreement at small omega where no component is
    # exponentially subdominant
    p = ModeParams(0.25, 1.0, 0.0)
    for br in BasisBranch:
        aa = amplitudes_analytic(br, p)
        af = amplitudes_fit(*_kernel_samples(br, p), p.omega)
        scale = max(abs(aa.Mplus), abs(aa.Mminus))
        assert abs(aa.Mplus - af.Mplus) <= 1e-5 * scale
        assert abs(aa.Mminus - af.Mminus) <= 1e-5 * scale
    # at larger omega the subdominant component is only recovered
    # relative to the dominant scale
    p = ModeParams(2.0, 1.0, 0.5)
    for br in BasisBranch:
        aa = amplitudes_analytic(br, p)
        af = amplitudes_fit(*_kernel_samples(br, p), p.omega)
        scale = max(abs(aa.Mplus), abs(aa.Mminus))
        assert abs(aa.Mplus - af.Mplus) <= 1e-8 * scale
        assert abs(aa.Mminus - af.Mminus) <= 1e-8 * scale


def test_reflection_scale_invariance():
    # R is a ratio of squared moduli, so rescaling the samples by any
    # nonzero complex constant leaves it unchanged
    p = ModeParams(2.0, 1.0, 0.0)
    zs, gs = _kernel_samples(BasisBranch.HANKEL1, p)
    amps0 = amplitudes_fit(zs, gs, p.omega)
    c = 3.7 - 1.2j
    amps1 = amplitudes_fit(zs, c * gs, p.omega)
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
    # one DOP853 integration per call, from the seed to the fit window's
    # right edge: 201 and 1165 steps here, where the run through the window
    # took 327 and 1422 and Dormand-Prince 5(4) took 3360 and 17452
    for w, budget in ((2.0, 250), (20.0, 1300)):
        steps.clear()
        reflection_numeric_oracle(ModeParams(w, 1.0, 0.0))
        assert len(steps) == 1
        assert steps[0] <= budget, (w, steps[0])


def _dop853_steps(monkeypatch, module):
    """The (accepted, rejected) steps of each DOP853 run `module` makes."""
    steps = []

    def counting(*args):
        res = integrate_linear_ode2(*args)
        steps.append((res.n_accepted, res.n_rejected))
        return res

    monkeypatch.setattr(module, "integrate_linear_ode2", counting)
    return steps


def test_numeric_oracle_golden_bits(monkeypatch):
    # repr(R) and DOP853's (accepted, rejected) steps pinned with ==: the
    # decaying runs are float runs and the growing run a complex one
    steps = _dop853_steps(monkeypatch, scattering)
    for (w, a, b), r, n in (((1.3, 0.7, 0.2), "1.0000000000000007", (158, 4)),
                            ((1.3, 1.0, 0.0), "1.0000000000000013", (158, 4)),
                            ((2.0, 1.0, 0.0), "1.000000000000001", (191, 10)),
                            ((20.0, 1.0, 0.0), "1.0000000000000004", (1105, 60))):
        steps.clear()
        assert repr(reflection_numeric_oracle(ModeParams(w, a, b))) == r, w
        assert steps == [n], w
    steps.clear()
    assert repr(reflection_numeric_oracle(ModeParams(0.5, 1.0, 0.0),
                                          variant="growing")) == "535.4916516733356"
    assert steps == [(79, 0)]


def test_closed_form_vs_ode_steps_pinned(monkeypatch):
    # the 12 rightward bessel+ runs on the (omega, kappa) grid, then the
    # leftward hankel1 run; the counts depend on no machine
    steps = _dop853_steps(monkeypatch, checks)
    assert checks.closed_form_vs_ode() <= 1e-7
    assert steps == [(109, 2), (102, 1), (98, 0), (181, 4), (176, 3), (160, 3),
                     (337, 2), (312, 3), (293, 2), (812, 0), (757, 0), (709, 0),
                     (281, 5)]


def _oracle_window_runs(monkeypatch, cells):
    """The arguments of the magnus_plane_waves call the oracle makes on
    each of `cells` of (omega, kappa, variant)."""
    runs = []

    def recording(*args):
        runs.append(args)
        return magnus_plane_waves(*args)

    monkeypatch.setattr(scattering, "magnus_plane_waves", recording)
    for w, k, variant in cells:
        reflection_numeric_oracle(ModeParams(w, k, 0.0), variant)
    assert len(runs) == len(cells)
    return runs


def test_magnus_window_agrees_with_dop853(monkeypatch):
    # the oracle's own window runs against DOP853 through the same window.
    # DOP853's phase error grows with the wavelengths it crosses: from an
    # exact edge state it is up to 2.3e-12 off mpmath at omega = 20, and
    # the Magnus steps 3.5e-15.  So the bound is 1e-12 per 4 pi of phase
    # omega * span across the window
    rng = np.random.default_rng(21)
    cells = [(math.exp(rng.uniform(math.log(0.05), math.log(20.0))),
              rng.uniform(0.1, 5.0), "decaying") for _ in range(30)]
    cells += [(math.exp(rng.uniform(math.log(0.05), math.log(0.7))),
               rng.uniform(0.1, 5.0), "growing") for _ in range(12)]
    for k2, w, z_start, init, outs in _oracle_window_runs(monkeypatch, cells):
        mag = magnus_plane_waves(k2, w, z_start, init, outs)
        dop = integrate_linear_ode2(k2, w, z_start, init, outs)
        assert mag.z == dop.z
        scale = max(abs(x) for x in dop.u)
        err = max(abs(x - y) for x, y in zip(mag.u, dop.u)) / scale
        bound = 1e-12 * max(1.0, w * (outs[0] - outs[-1]) / (4.0 * math.pi))
        assert err <= bound, (w, math.sqrt(k2), err)


def test_magnus_window_against_mpmath(monkeypatch):
    # decaying runs are c K_{i omega}(kappa e^z).  (1) From the oracle's
    # own edge state, the Magnus samples are no worse than DOP853 through
    # the window, with c fitted to that state; (2) from the exact edge
    # state the Magnus samples alone are within 1e-14
    cells = [(0.3, 1.0, "decaying"), (5.0, 3.0, "decaying"),
             (20.0, 0.5, "decaying")]
    for k2, w, z_start, init, outs in _oracle_window_runs(monkeypatch, cells):
        with mpmath.workdps(40):
            nu = 1j * w
            x = mpmath.sqrt(k2) * mpmath.exp(z_start)
            k0 = mpmath.besselk(nu, x)
            g0, dg0 = float(k0.real), float((-x * mpmath.besselk(nu - 1, x) - nu * k0).real)
            picks = list(range(0, len(outs), 9))
            ref = [float(mpmath.besselk(nu, mpmath.sqrt(k2) * mpmath.exp(outs[i])).real)
                   for i in picks]
        peak = max(abs(g) for g in ref)

        def err(res, c):
            return max(abs(res.u[i] - c * g) for i, g in zip(picks, ref)) / abs(c * peak)

        c = (init[0] * g0 + init[1] * dg0 / w ** 2) / (g0 * g0 + dg0 * dg0 / w ** 2)
        mag = magnus_plane_waves(k2, w, z_start, init, outs)
        dop = integrate_linear_ode2(k2, w, z_start, init, outs)
        assert err(mag, c) <= err(dop, c) + 1e-13, (w, err(mag, c), err(dop, c))
        exact = magnus_plane_waves(k2, w, z_start, (1.0, dg0 / g0), outs)
        assert err(exact, 1.0 / g0) <= 1e-14, (w, err(exact, 1.0 / g0))


def test_imaginary_seed_takes_the_float_runs_steps(monkeypatch):
    # a seed i (u0, v0) runs complex; its imaginary parts are the float
    # run's values bit for bit, and it takes the same steps
    runs = []

    def recording(*args):
        runs.append(args)
        return integrate_linear_ode2(*args)

    monkeypatch.setattr(scattering, "integrate_linear_ode2", recording)
    for w, k in ((0.3, 0.5), (2.0, 1.0), (7.0, 3.0), (20.0, 1.0)):
        reflection_numeric_oracle(ModeParams(w, k, 0.0))
    # and one rightward run through the turning point at z = ln 2
    runs.append((1.0, 2.0, -6.0, (1.0, 0.5), np.linspace(-6.0, 3.0, 25).tolist()))
    assert len(runs) == 5
    for k2, w, z_start, (u0, v0), outs in runs:
        real = integrate_linear_ode2(k2, w, z_start, (u0, v0), outs)
        imag = integrate_linear_ode2(k2, w, z_start, (1j * u0, 1j * v0), outs)
        assert all(type(x) is float for x in real.u + real.du)
        assert [x.imag for x in imag.u] == real.u
        assert [x.imag for x in imag.du] == real.du
        assert all(x.real == 0.0 for x in imag.u + imag.du)
        assert (imag.n_accepted, imag.n_rejected) == (real.n_accepted,
                                                      real.n_rejected)


def test_numeric_oracle_growing():
    for w in (0.25, 0.5):
        r = reflection_numeric_oracle(ModeParams(w, 1.0, 0.0),
                                      variant="growing")
        expect = math.exp(4.0 * w * math.pi)
        assert abs(r - expect) <= 1e-6 * expect


def test_numeric_oracle_guards():
    with pytest.raises(DomainError):
        reflection_numeric_oracle(ModeParams(25.0, 1.0, 0.0))
    with pytest.raises(DomainError):
        reflection_numeric_oracle(ModeParams(2.0, 1.0, 0.0), variant="bogus")


@pytest.mark.parametrize("kappa, variant", [(1e-160, "decaying"),
                                            (1e200, "decaying"),
                                            (1e160, "growing")])
def test_numeric_oracle_kappa_past_the_double_range(kappa, variant):
    # kappa^2 or (omega/kappa)^2 overflows: these raised a bare
    # OverflowError, a RangeError on a NaN state and an AccuracyError
    with pytest.raises(RangeError, match="double range"):
        reflection_numeric_oracle(ModeParams(2.0, kappa, 0.0), variant)


def test_numeric_oracle_seed_past_the_range_of_e2z():
    # the seed sits at z = 355.3, where U = kappa^2 e^{2z} is a double but
    # e^{2z} is not: a RangeError, where DOP853 raised a bare OverflowError
    with pytest.raises(RangeError, match=r"e\^\(2z\) overflows a double at z = 355.2"):
        reflection_numeric_oracle(ModeParams(0.5, 1e-153, 0.0))


@pytest.mark.parametrize("kappa", [1e-150, 1e150])
def test_numeric_oracle_kappa_at_the_double_range(kappa):
    r = reflection_numeric_oracle(ModeParams(2.0, kappa, 0.0))
    assert abs(r - 1.0) < 1e-10, r


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
    # the line fit of near_turning_exponent on its window, with synthetic
    # profiles of slope -1 and 0, and one that vanishes at a point
    us = scattering._NEAR_TURNING_U
    assert _log_slope(us, np.exp(-us)) == pytest.approx(-1.0, abs=1e-6)
    assert _log_slope(us, np.full(us.size, 3.0 + 0j)) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ConditioningError, match="vanishes"):
        _log_slope(us, np.where(us == 0.0, 0.0, 1.0))


def test_near_turning_measured_slope():
    # the leading-order local model allows only B = 0 or -1, but the
    # measured slope includes the curvature-scale (~ omega^{2/3})
    # contribution; the decaying branch value at omega = 10 is frozen
    # from an independent high-precision evaluation
    p = ModeParams(10.0, 1.0, 0.0)
    B = near_turning_exponent(p)
    assert B == pytest.approx(-4.4624, abs=0.05)
    assert B < -1.0  # decaying, same sign as the B = -1 local branch


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
            assert len(calls) <= 40, (w, k, len(calls))
    # no crossing in the window at w = 0.05; the window leaves X <= 700
    # at w = 40
    for w, exc in ((0.05, ConditioningError), (40.0, RangeError)):
        p = ModeParams(w, 1.0, 0.0)
        with pytest.raises(exc):
            _envelope_crossing_full_scan(p)
        with pytest.raises(exc):
            scattering.envelope_crossing(p)


def test_envelope_crossing_brackets_the_target():
    # the returned z is one end of an adjacent-double pair with |G1| at
    # least the target at its left end and below it at its right end,
    # whatever path the refinement took to reach it
    rng = np.random.default_rng(14)
    checked = 0
    for _ in range(110):
        w = math.exp(rng.uniform(math.log(0.06), math.log(38.0)))
        k = rng.uniform(0.2, 5.0)
        theta = rng.uniform(0.0, 0.5 * math.pi)
        p = ModeParams(w, k * math.cos(theta), k * math.sin(theta))
        try:
            z = scattering.envelope_crossing(p)
        except (ConditioningError, RangeError):
            continue  # no crossing in the window, or X past 700 above w = 34.8
        amps = amplitudes_analytic(BasisBranch.HANKEL1, p)
        target = (abs(amps.Mplus) + abs(amps.Mminus)) / math.e

        def above(z):
            X = p.kappa * math.exp(z)
            return abs(basis_G1(BasisBranch.HANKEL1, w, X).value) >= target

        if above(z):
            assert not above(math.nextafter(z, math.inf)), (w, k, z)
        else:
            assert above(math.nextafter(z, -math.inf)), (w, k, z)
        checked += 1
    assert checked >= 100


def test_tiny_kappa_raises_range_error():
    # (omega/kappa)^2 = e^{2 z0} past the double range: one RangeError, not
    # a bare OverflowError (kappa = 1e-155, 1e-300) or z0 = inf and a NaN
    # grid (1e-320)
    for k in (1e-155, 1e-300, 1e-320):
        p = ModeParams(1.0, k, 0.0)
        with pytest.raises(RangeError):
            turning_point(p)
        with pytest.raises(RangeError):
            scattering.envelope_crossing(p)
    # the smallest decade that fits keeps its value
    p = ModeParams(1.0, 1e-154, 0.0)
    assert turning_point(p).z0 == math.log(1e154)
    assert scattering.envelope_crossing(p) == 354.9062404593509


def test_huge_kappa_raises_range_error():
    # kappa^2 = U0 past the double range: one RangeError, where kappa = 1e155
    # raised DomainError (identity defect inf) and 1e200 returned U0 = inf
    # (inf * e^{2 z0} = inf * 0 = NaN skipped the identity check)
    for k in (1e155, 1e200):
        p = ModeParams(1.0, k, 0.0)
        with pytest.raises(RangeError):
            turning_point(p)
        with pytest.raises(RangeError):
            scattering.envelope_crossing(p)
    # the largest decade that fits keeps its value
    p = ModeParams(1.0, 1e154, 0.0)
    assert turning_point(p).z0 == -354.59810432108304
    assert scattering.envelope_crossing(p) == -354.2899681828152


def test_barrier_info_rejects_nan_defect():
    with pytest.raises(DomainError):
        scattering.BarrierInfo(z0=-500.0, x0_magnitude=1.0, U0=math.inf)
