import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobwave import numerics as nm
from lobwave.errors import AccuracyError, ConditioningError, DomainError, RangeError
from lobwave.numerics import integrate_linear_ode2, lsq_fit_two_waves, quad_adaptive

# golden values computed once with an independent high-precision library
K0_AT_1 = 0.42102443824070833334
K0_AT_2 = 0.11389387274953343565


def test_dop853_tableau():
    # each row of A sums to its c (c12 = 1), the eighth-order weights sum
    # to 1, and both error weight sets sum to 0.  Rows 9-12 hold entries
    # up to 43, whose double rounding alone moves a row sum by ~1e-15, so
    # row sums are held to 1e-15 of the row's scale, max(1, sum |a_ij|)
    def stage(name):
        return int(name[2:].split("_")[0])

    for i in range(2, 13):
        row = [getattr(nm, n) for n in dir(nm)
               if n.startswith("_A") and "_" in n[2:] and stage(n) == i]
        c = 1.0 if i == 12 else getattr(nm, f"_C{i}")
        scale = max(1.0, math.fsum(abs(a) for a in row))
        assert math.fsum(row) == pytest.approx(c, abs=1e-15 * scale), i
    b = [nm._B1, nm._B6, nm._B7, nm._B8, nm._B9, nm._B10, nm._B11, nm._B12]
    e5 = [nm._E5_1, nm._E5_6, nm._E5_7, nm._E5_8, nm._E5_9, nm._E5_10,
          nm._E5_11, nm._E5_12]
    # E3 = b - bhh, with the third-order weights bhh at stages 1, 9, 12
    bhh = {1: nm._BHH1, 9: nm._BHH9, 12: nm._BHH12}
    e3 = [wb - bhh.get(i, 0.0) for i, wb in zip((1, 6, 7, 8, 9, 10, 11, 12), b)]
    assert math.fsum(b) == pytest.approx(1.0, abs=1e-15)
    assert math.fsum(e5) == pytest.approx(0.0, abs=1e-15)
    assert math.fsum(e3) == pytest.approx(0.0, abs=1e-15)


def test_cosine_oscillator():
    res = integrate_linear_ode2(0.0, 1.0, 0.0, (1.0, 0.0), [2.0 * math.pi])
    assert abs(res.u[-1] - 1.0) < 1e-10
    assert abs(res.du[-1]) < 1e-10


def test_constant_coefficient_plane_wave():
    w = 3.0
    res = integrate_linear_ode2(0.0, w, 0.0, (1.0, 1j * w), [5.0])
    assert abs(res.u[-1] - cmath.exp(1j * w * 5.0)) < 1e-9


def test_dense_output_and_direction():
    outs = [3.0, 2.0, 1.0]
    res = integrate_linear_ode2(0.0, 1.0, 4.0, (1.0, 0.0), outs)
    assert res.z == outs
    for z, u in zip(res.z, res.u):
        assert abs(u - math.cos(z - 4.0)) < 1e-9


def test_zero_state_with_zero_abs_tol_stays_zero():
    # both error terms are 0 and so is the error scale, which has no
    # absolute floor: zero error, not 0/0
    res = integrate_linear_ode2(0.0, 1.0, 0.0, (0.0, 0.0), [1.0])
    assert res.z == [1.0]
    assert res.u == [0.0] and res.du == [0.0]
    assert res.n_rejected == 0


def test_real_seed_records_floats_complex_seed_records_complex():
    outs = [1.0, 2.0]
    for seed in ((1.0, 0.0), (1 + 0j, 0j), (np.float64(1.0), 0)):
        res = integrate_linear_ode2(0.0, 1.0, 0.0, seed, outs)
        assert all(type(x) is float for x in res.u + res.du), seed
    res = integrate_linear_ode2(0.0, 1.0, 0.0, (1.0, 1e-300j), outs)
    assert all(type(x) is complex for x in res.u + res.du)


@pytest.mark.parametrize("i", [1, 1j])
def test_outputs_out_of_order_rejected(i):
    # outputs out of order would record u(2) at z = 1; equal neighbours
    # are fine
    with pytest.raises(DomainError, match="out of order"):
        integrate_linear_ode2(0.0, 1.0, 0.0, (i, 0.0), [2.0, 1.0])
    with pytest.raises(DomainError, match="out of order"):
        integrate_linear_ode2(0.0, 1.0, 3.0, (i, 0.0), [1.0, 2.0])
    res = integrate_linear_ode2(0.0, 1.0, 0.0, (i, 0.0), [1.0, 1.0, 2.0])
    assert res.u[0] == res.u[1]
    assert abs(res.u[2] - i * math.cos(2.0)) < 1e-10


@pytest.mark.parametrize("seed", [(math.nan, 0.0), (1.0, -math.inf),
                                  (1j, complex(0.0, math.nan)),
                                  (complex(math.inf, 1.0), 1j)])
def test_non_finite_seed_rejected(seed):
    with pytest.raises(DomainError, match="non-finite seed"):
        integrate_linear_ode2(0.0, 1.0, 0.0, seed, [1.0])


@pytest.mark.parametrize("i", [1, 1j])
def test_overflowing_state_raises_range_error(i):
    # the state overflows to inf and then NaN, which the error norm reads
    # as a zero error, so without the check NaN comes back after 3803 steps
    with pytest.raises(RangeError, match="not finite"):
        integrate_linear_ode2(1e4, 1.0, 0.0, (i, i), [6.0])


def test_magnus_plane_waves_without_barrier_are_exact():
    # kappa2 = 0: every step is the identity on (A, B), so the samples are
    # the plane waves themselves
    w, z0 = 3.7, -2.0
    outs = np.linspace(z0, z0 - 6.0, 50).tolist()
    res = nm.magnus_plane_waves(0.0, w, z0, (1.0, 0.0), outs)
    assert res.z == outs and res.n_accepted == 50
    for z, u, du in zip(res.z, res.u, res.du):
        assert abs(u - math.cos(w * (z - z0))) <= 1e-15
        assert abs(du + w * math.sin(w * (z - z0))) <= 1e-15 * w
    res = nm.magnus_plane_waves(0.0, w, z0, (1.0, 1j * w), outs)
    for z, u in zip(res.z, res.u):
        assert abs(u - cmath.exp(1j * w * (z - z0))) <= 1e-15


def test_magnus_plane_waves_real_seed_records_floats():
    outs = [-8.0, -9.0]
    for seed in ((1.0, 0.5), (1 + 0j, 0.5 + 0j), (np.float64(1.0), 0)):
        res = nm.magnus_plane_waves(1.0, 2.0, -8.0, seed, outs)
        assert all(type(x) is float for x in res.u + res.du), seed
    res = nm.magnus_plane_waves(1.0, 2.0, -8.0, (1.0, 1e-300j), outs)
    assert all(type(x) is complex for x in res.u + res.du)
    # a complex seed runs as two real seeds: its real and imaginary parts
    # are the float runs of the seed's parts, bit for bit
    real = nm.magnus_plane_waves(1.0, 2.0, -8.0, (1.0, 0.5), outs)
    imag = nm.magnus_plane_waves(1.0, 2.0, -8.0, (-0.25, 3.0), outs)
    cplx = nm.magnus_plane_waves(1.0, 2.0, -8.0, (1.0 - 0.25j, 0.5 + 3j), outs)
    assert [y.real for y in cplx.u + cplx.du] == real.u + real.du
    assert [y.imag for y in cplx.u + cplx.du] == imag.u + imag.du


@pytest.mark.parametrize("args, match", [
    ((1.0, 2.0, -8.0, (math.nan, 0.0), [-9.0]), "non-finite seed"),
    ((1.0, 2.0, -8.0, (1.0, complex(0.0, math.inf)), [-9.0]), "non-finite seed"),
    ((1.0, 2.0, -8.0, (1.0, 0.0), [-7.0]), "leftward"),
    ((1.0, 2.0, -8.0, (1.0, 0.0), [-9.0, -8.5]), "out of order"),
    ((1.0, 2.0, -8.0, (1.0, 0.0), [-9.0, math.nan]), "out of order"),
    ((1.0, 2.0, -8.0, (1.0, 0.0), [-math.inf]), "out of order"),
    # U/omega^2 = e^{-14} > 2e-7 at z_start, and the same past e^z's range
    ((4.0, 2.0, -7.0, (1.0, 0.0), [-9.0]), "above"),
    ((1e-300, 2.0, 400.0, (1.0, 0.0), [300.0]), "above"),
    ((1.0, 0.0, -8.0, (1.0, 0.0), [-9.0]), "omega > 0"),
    ((-1.0, 2.0, -8.0, (1.0, 0.0), [-9.0]), "omega > 0"),
])
def test_magnus_plane_waves_guards(args, match):
    with pytest.raises(DomainError, match=match):
        nm.magnus_plane_waves(*args)


# a leftward run that both integrators take; each guard case below spoils
# one argument of it
_GOOD_RUN = dict(kappa2=1.0, omega=2.0, z_start=-8.0, init=(1.0, 0.0), outputs=[-9.0])


@pytest.mark.parametrize("integrate", [integrate_linear_ode2, nm.magnus_plane_waves],
                         ids=["dop853", "magnus"])
@pytest.mark.parametrize("bad, match", [
    ({"omega": 0.0}, "omega > 0"),
    ({"omega": -2.0}, "omega > 0"),
    ({"omega": math.inf}, "omega > 0"),
    ({"kappa2": -1.0}, "kappa2 >= 0"),
    ({"kappa2": math.nan}, "kappa2 >= 0"),
    ({"z_start": math.nan}, "z_start finite"),
    ({"z_start": -math.inf}, "z_start finite"),
    ({"init": (math.nan, 0.0)}, "non-finite seed"),
    ({"init": (1.0, complex(0.0, math.inf))}, "non-finite seed"),
    # the first output on the far side of z_start from the last
    ({"outputs": [-7.0, -9.0]}, "out of order from z_start"),
    ({"outputs": [-9.0, -8.5]}, "out of order from z_start"),
    ({"outputs": [-9.0, math.nan]}, "out of order from z_start"),
], ids=["omega-zero", "omega-negative", "omega-inf", "kappa2-negative", "kappa2-nan",
        "z_start-nan", "z_start-inf", "seed-nan", "seed-inf", "outputs-astride",
        "outputs-reversed", "outputs-nan"])
def test_ode_guards(integrate, bad, match):
    # both integrators solve u'' = (kappa2 e^{2z} - omega^2) u, take the same
    # arguments and share one input check
    with pytest.raises(DomainError, match=match):
        integrate(**{**_GOOD_RUN, **bad})


def test_dop853_raises_where_e2z_overflows_at_either_end():
    # U = kappa2 e^{2z} is a double up to z = 355 at kappa2 = 1e-306, but
    # DOP853's stages form e^{2z}, past the double range from z = 354.89 on:
    # a RangeError from the seed's end or from the last output's, where a
    # bare OverflowError came from the first stage past the range
    top = 0.5 * math.log(sys.float_info.max)
    for z_start, outputs in ((355.0, [354.0]), (354.0, [354.5, 355.0])):
        with pytest.raises(RangeError, match=r"e\^\(2z\) overflows a double at z = 355.0"):
            integrate_linear_ode2(1e-306, 0.5, z_start, (1.0, 0.0), outputs)
    # runs that end at the last z whose e^{2z} is a double go through
    for z_start, outputs in ((354.0, [354.5, top]), (top, [354.0])):
        res = integrate_linear_ode2(1e-308, 0.5, z_start, (1.0, 0.0), outputs)
        assert math.isfinite(res.u[-1]) and res.z[-1] == outputs[-1]


def _quad_one(f, b, tol):
    """(value, error) of the one integral of f over [0, b], as Python
    numbers: quad_adaptive on a one-integral batch."""
    value, err = quad_adaptive(f, np.array([b]), np.array([tol]))
    return value[0].item(), err[0].item()


# the integrands of the next three tests decay at least like e^{-t}: past
# t = 40 their tails are below 1e-17
def test_quad_exponential_tail():
    val, err = _quad_one(lambda t: np.exp(-t), 40.0, 1e-12)
    assert abs(val - 1.0) < 1e-12


def test_quad_bessel_k_goldens():
    for X, golden in ((1.0, K0_AT_1), (2.0, K0_AT_2)):
        val, err = _quad_one(lambda t: np.exp(-X * np.cosh(t)), 40.0, 1e-12)
        assert abs(val - golden) < 1e-12


def test_quad_oscillatory_stability():
    def f(t):
        return np.exp(-np.cosh(t)) * np.cos(10.0 * t)

    vals = [_quad_one(f, 40.0, tol)[0] for tol in (1e-10, 1e-11, 1e-12, 1e-13)]
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-12


def test_quad_infinite_endpoint_raises():
    for b in (np.array([math.inf]), np.array([math.nan]), np.array([1.0, math.inf])):
        with pytest.raises(DomainError):
            quad_adaptive(lambda t: 1.0 / (1.0 + t), b, np.full(b.size, 1e-9))


def test_quad_converges_below_the_square_underflow():
    # panel errors near 1e-187 square to 0 in doubles; the error norm
    # must still reach tol instead of accepting the first 15-point panel
    scale = math.exp(-400.0)
    val, _ = _quad_one(lambda t: np.exp(-400.0 * np.cosh(t)), 0.55, 1e-13 * scale)
    ref, _ = _quad_one(lambda t: np.exp(-400.0 * (np.cosh(t) - 1.0)), 0.55, 1e-13)
    assert abs(val - scale * ref) <= 1e-12 * scale * ref


def test_quad_tolerance_guards():
    with pytest.raises(DomainError):
        _quad_one(np.exp, 1.0, 0.0)
    with pytest.raises(DomainError, match=r"integral 1 needs .* tol = -1.0"):
        quad_adaptive(np.exp, np.array([1.0, 2.0]), np.array([1e-9, -1.0]))
    # an empty interval, and b and tol that are not 1-D of one length
    with pytest.raises(DomainError, match=r"integral 0 needs .* b = 0.0"):
        quad_adaptive(np.exp, np.array([0.0, 1.0]), np.full(2, 1e-9))
    for b, tol in ((np.ones(2), np.full(3, 1e-9)), (1.0, 1e-9),
                   (np.ones((2, 1)), np.full((2, 1), 1e-9))):
        with pytest.raises(DomainError, match="1-D arrays of one length"):
            quad_adaptive(np.exp, b, tol)
    # a tolerance far below rounding exhausts the 4000 panels; it must
    # not overflow the error norm on the way
    with pytest.raises(AccuracyError):
        _quad_one(np.ones_like, 1.0, 1e-300)


def test_quad_error_estimate_honest_for_tiny_integrals():
    # strongly cancelling oscillatory integral with a small true value
    def f(t):
        return np.exp(-20.0 * np.cosh(t)) * np.cos(35.0 * t)

    val, err = _quad_one(f, 5.0, 1e-25)
    assert err < 1e-24
    assert abs(val) < math.exp(-20.0)


# (value, error) of quad_adaptive on [0, b], pinned bit for bit: real and
# complex integrands, among them those of specfun._k_quadrature at
# Re nu = 0 and +-1, each at two tolerances; each with its exact integral
# (the tails past the K integrands' ends are below 1e-40).  gauss_phase is
# e^{3i s - s^2} over (-6, 6), as its shift by 6 over [0, 12]
_QUAD_CASES = {
    "exp": (lambda t: np.exp(-t), 40.0, lambda: 1 - mpmath.exp(-40)),
    "sqrt": (np.sqrt, 1.0, lambda: mpmath.mpf(2) / 3),
    "oscillatory": (lambda t: np.exp(-np.cosh(t)) * np.cos(10.0 * t),
                    40.0, lambda: mpmath.besselk(10j, 1)),
    "gauss_phase": (lambda t: np.exp(3j * (t - 6.0) - (t - 6.0) ** 2), 12.0,
                    lambda: mpmath.sqrt(mpmath.pi) * mpmath.exp(-2.25)
                    * mpmath.erf(6 - 1.5j).real),
    "k_nu=2i": (lambda t: np.exp(-np.cosh(t)) * np.cos(2.0 * t),
                5.5, lambda: mpmath.besselk(2j, 1)),
    "k_nu=1+2i": (lambda t: np.exp(-np.cosh(t)) * np.cosh((1.0 + 2.0j) * t),
                  5.5, lambda: mpmath.besselk(1 + 2j, 1)),
    "k_nu=-1+0.5i": (lambda t: np.exp(-0.3 * np.cosh(t))
                     * np.cosh((-1.0 + 0.5j) * t), 6.5,
                     lambda: mpmath.besselk(-1 + 0.5j, 0.3)),
}
_QUAD_GOLDEN = {
    ("exp", 1e-08): (1.0, 6.918147169164721e-12),
    ("exp", 1e-13): (1.0, 5.472998898596768e-16),
    ("sqrt", 1e-08): (0.6666666666689355, 3.808498519104036e-09),
    ("sqrt", 1e-13): (0.6666666666666665, 4.123883580586115e-14),
    ("oscillatory", 1e-08): (1.1294550828280792e-07, 1.868077818105972e-09),
    ("oscillatory", 1e-13): (1.1294550821667158e-07, 6.743319897828987e-15),
    ("gauss_phase", 1e-08): ((0.18681526145713165-2.905661822261152e-17j),
                             1.282673427430451e-10),
    ("gauss_phase", 1e-13): ((0.18681526145713157+0j), 2.1730511326907284e-14),
    ("k_nu=2i", 1e-08): (0.08061699762236599, 1.4188877228485088e-15),
    ("k_nu=2i", 1e-13): (0.08061699762236599, 1.418887722848509e-15),
    ("k_nu=1+2i", 1e-08): ((-0.015266580905376963+0.16123399524473195j),
                           3.429923546541246e-14),
    ("k_nu=1+2i", 1e-13): ((-0.015266580905376963+0.16123399524473195j),
                           3.429923546541246e-14),
    ("k_nu=-1+0.5i", 1e-08): ((1.9137189407779474-1.8348803045655775j),
                              1.7503139280145056e-13),
    ("k_nu=-1+0.5i", 1e-13): ((1.9137189407779476-1.8348803045655775j),
                              1.6205483296810572e-14),
}


@pytest.mark.parametrize("name, tol", sorted(_QUAD_GOLDEN))
def test_quad_adaptive_golden_bits(name, tol):
    f, b, exact = _QUAD_CASES[name]
    got = _quad_one(f, b, tol)
    assert repr(got) == repr(_QUAD_GOLDEN[name, tol])
    with mpmath.workdps(30):
        assert abs(got[0] - complex(exact())) <= got[1]


def test_quad_adaptive_golden_accuracy_error():
    # about 4800 periods: more than the 4000 panels allowed
    with pytest.raises(AccuracyError) as info:
        _quad_one(lambda t: np.sin(3e4 * t), 1.0, 1e-10)
    assert str(info.value) == (
        "quad_adaptive: more than 4000 segments needed, error 7.070e-04 > 1.000e-10")


def test_quad_batch_is_the_scalar_calls_bit_for_bit():
    # n integrals in one call give the bits of n one-integral calls, value
    # and estimate, though their rows need different panels and rounds
    X = np.array([0.15, 0.6, 1.0, 4.0, 30.0, 300.0])
    b = np.arccosh(1.0 + 60.0 / X) + 1.0
    tol = 1e-13 * np.exp(-X)
    for nu in (2.0j, 1.0 + 2.0j, -1.0 + 0.5j):
        value, err = quad_adaptive(
            lambda t: np.exp(-X[:, None] * np.cosh(t)) * np.cosh(nu * t), b, tol)
        for i, x in enumerate(X.tolist()):
            got = _quad_one(lambda t: np.exp(-x * np.cosh(t)) * np.cosh(nu * t),
                            b[i], tol[i])
            assert got == (value[i], err[i]), (nu, x)
    p = np.array([0.5, 1.5, 3.0, -0.5])
    value, err = quad_adaptive(lambda t: t ** p[:, None], np.ones(4), np.full(4, 1e-11))
    for i, q in enumerate(p.tolist()):
        assert _quad_one(lambda t: t ** q, 1.0, 1e-11) == (value[i], err[i])
    assert type(value) is np.ndarray


def test_quad_calls_f_with_one_array_of_its_rows_nodes():
    b = np.array([1.0, 2.0, 5.0])
    calls = []

    def f(*args, **kwargs):
        calls.append((args, kwargs))
        return np.sqrt(args[0])

    quad_adaptive(f, b, np.full(b.size, 1e-12))
    assert len(calls) > 1
    for args, kwargs in calls:
        assert len(args) == 1 and not kwargs
        t = args[0]
        assert t.ndim == 2 and t.shape[0] == b.size and t.shape[1] % 15 == 0
        assert ((t > 0.0) & (t < b[:, None])).all()


def test_fit_exact_two_waves():
    w = 2.0
    zs = np.linspace(-8.0, -6.0, 16)
    gs = np.exp(1j * w * zs) + 0.5 * np.exp(-1j * w * zs)
    cp, cm, resid = lsq_fit_two_waves(zs, gs, w)
    assert abs(cp - 1.0) < 1e-12
    assert abs(cm - 0.5) < 1e-12
    assert resid < 1e-12


def test_fit_single_wave():
    w = 1.5
    zs = np.linspace(-9.0, -6.0, 12)
    gs = 2.0 * np.exp(1j * w * zs)
    cp, cm, _ = lsq_fit_two_waves(zs, gs, w)
    assert abs(cp - 2.0) < 1e-12
    assert abs(cm) < 1e-12


def test_fit_perturbation_bound():
    rng = np.random.default_rng(7)
    w = 2.0
    zs = np.linspace(-8.0, -6.0, 32)
    noise = 1e-8 * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
    gs = np.exp(1j * w * zs) + 0.5 * np.exp(-1j * w * zs) + noise
    cp, cm, _ = lsq_fit_two_waves(zs, gs, w)
    assert abs(cp - 1.0) < 1e-7
    assert abs(cm - 0.5) < 1e-7


def test_fit_underdetermined():
    with pytest.raises(ConditioningError):
        lsq_fit_two_waves(np.zeros(1), np.ones(1), 1.0)
    # z and G must pair up one to one
    zs = np.linspace(-8.0, -6.0, 16)
    with pytest.raises(DomainError, match="one length"):
        lsq_fit_two_waves(zs, np.exp(2j * zs)[:-1], 2.0)


def test_fit_degenerate_span():
    with pytest.raises(ConditioningError):
        lsq_fit_two_waves(np.zeros(6), np.ones(6), 1.0)


def test_fit_non_finite_samples():
    # a non-finite z or G raises ConditioningError: z = inf used to raise
    # LinAlgError, and G = inf or nan to return NaN coefficients
    for i, (z, g) in ((0, (math.inf, 1.0)), (5, (math.nan, 1.0)),
                      (3, (-7.0, complex(math.inf, 0.0))),
                      (9, (-7.0, complex(0.0, math.nan)))):
        zs = np.linspace(-8.0, -6.0, 16)
        gs = np.exp(2j * zs)
        zs[i], gs[i] = z, g
        with pytest.raises(ConditioningError):
            lsq_fit_two_waves(zs, gs, 2.0)


def test_fit_condition_from_singular_values():
    # cond is the ratio of the extreme singular values of the design,
    # as np.linalg.cond gives it: a well-spread window passes, and the
    # same window squeezed below a quarter period's width raises
    zs = np.linspace(-8.0, -6.0, 16)
    cp, cm, resid = lsq_fit_two_waves(
        zs, np.exp(2j * zs) + 0.5 * np.exp(-2j * zs), 2.0)
    assert abs(cp - 1.0) < 1e-14 and abs(cm - 0.5) < 1e-14 and resid < 1e-14
    tight = -7.0 + 1e-10 * (zs + 7.0)
    design = np.column_stack([np.exp(2j * tight), np.exp(-2j * tight)])
    assert np.linalg.cond(design) > 1e8
    with pytest.raises(ConditioningError, match="ill-conditioned"):
        lsq_fit_two_waves(tight, np.exp(2j * tight), 2.0)


@given(st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=25, deadline=None)
def test_fit_residual_phase_invariant(phi):
    w = 2.0
    rng = np.random.default_rng(3)
    zs = np.linspace(-8.0, -6.0, 16)
    gs = np.exp(1j * w * zs) + 0.3 * np.exp(-1j * w * zs) \
        + 1e-6 * rng.standard_normal(16)
    _, _, r0 = lsq_fit_two_waves(zs, gs, w)
    rot = cmath.exp(1j * phi)
    _, _, r1 = lsq_fit_two_waves(zs, gs * rot, w)
    assert abs(r0 - r1) < 1e-12
