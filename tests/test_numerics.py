import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobwave import numerics as nm
from lobwave.errors import AccuracyError, ConditioningError, DomainError
from lobwave.numerics import (
    ToleranceSpec,
    integrate_linear_ode2,
    lsq_fit_two_waves,
    quad_adaptive,
)

# golden values computed once with an independent high-precision library
K0_AT_1 = 0.42102443824070833334
K0_AT_2 = 0.11389387274953343565


def test_tolerance_spec_validation():
    with pytest.raises(DomainError):
        ToleranceSpec(rel_tol=1e-15)
    with pytest.raises(DomainError):
        ToleranceSpec(abs_tol=-1.0)
    with pytest.raises(DomainError):
        ToleranceSpec(max_steps=0)


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
    res = integrate_linear_ode2(lambda z: 0.0, 1.0, (0.0, 2.0 * math.pi),
                                (1.0, 0.0))
    assert abs(res.u[-1] - 1.0) < 1e-10
    assert abs(res.du[-1]) < 1e-10


def test_constant_coefficient_plane_wave():
    w = 3.0
    res = integrate_linear_ode2(lambda z: 0.0, w * w, (0.0, 5.0),
                                (1.0, 1j * w))
    assert abs(res.u[-1] - cmath.exp(1j * w * 5.0)) < 1e-9


def test_integration_order_at_least_four():
    def run(rel):
        tol = ToleranceSpec(rel_tol=rel, abs_tol=0.0)
        res = integrate_linear_ode2(lambda z: 0.0, 1.0, (0.0, 2.0 * math.pi),
                                    (1.0, 0.0), tol=tol)
        return abs(res.u[-1] - 1.0)

    loose, tight = run(1e-6), run(1e-10)
    assert tight < loose
    assert tight < 1e-9


def test_dense_output_and_direction():
    outs = [3.0, 2.0, 1.0]
    res = integrate_linear_ode2(lambda z: 0.0, 1.0, (4.0, 0.0), (1.0, 0.0),
                                outputs=outs)
    assert res.z == outs
    for z, u in zip(res.z, res.u):
        assert abs(u - math.cos(z - 4.0)) < 1e-9


def test_zero_state_with_zero_abs_tol_stays_zero():
    # both error terms are 0 and so is the error scale: zero error, not 0/0
    res = integrate_linear_ode2(lambda z: 0.0, 1.0, (0.0, 1.0), (0.0, 0.0),
                                tol=ToleranceSpec(rel_tol=1e-10, abs_tol=0.0))
    assert res.z == [1.0]
    assert res.u == [0.0] and res.du == [0.0]
    assert res.n_rejected == 0


def test_output_outside_span_rejected():
    with pytest.raises(DomainError):
        integrate_linear_ode2(lambda z: 0.0, 1.0, (0.0, 1.0), (1.0, 0.0),
                              outputs=[2.0])


# the integrands of the next three tests decay at least like e^{-t}: past
# t = 40 their tails are below 1e-17
def test_quad_exponential_tail():
    val, err = quad_adaptive(lambda t: np.exp(-t), (0.0, 40.0))
    assert abs(val - 1.0) < 1e-12


def test_quad_bessel_k_goldens():
    for X, golden in ((1.0, K0_AT_1), (2.0, K0_AT_2)):
        val, err = quad_adaptive(lambda t: np.exp(-X * np.cosh(t)),
                                 (0.0, 40.0))
        assert abs(val - golden) < 1e-12


def test_quad_oscillatory_stability():
    def f(t):
        return np.exp(-np.cosh(t)) * np.cos(10.0 * t)

    vals = [quad_adaptive(f, (0.0, 40.0), tol=tol)[0]
            for tol in (1e-10, 1e-11, 1e-12, 1e-13)]
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-12


def test_quad_infinite_endpoint_raises():
    for interval in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan),
                     (0.0, np.array([1.0, math.inf]))):
        with pytest.raises(DomainError):
            quad_adaptive(lambda t: 1.0 / (1.0 + t), interval, tol=1e-9)


def test_quad_converges_below_the_square_underflow():
    # panel errors near 1e-187 square to 0 in doubles; the error norm
    # must still reach tol instead of accepting the first 15-point panel
    scale = math.exp(-400.0)
    val, _ = quad_adaptive(lambda t: np.exp(-400.0 * np.cosh(t)),
                           (0.0, 0.55), tol=1e-13 * scale)
    ref, _ = quad_adaptive(lambda t: np.exp(-400.0 * (np.cosh(t) - 1.0)),
                           (0.0, 0.55), tol=1e-13)
    assert abs(val - scale * ref) <= 1e-12 * scale * ref


def test_quad_tolerance_guards():
    with pytest.raises(DomainError):
        quad_adaptive(np.exp, (0.0, 1.0), tol=0.0)
    with pytest.raises(DomainError):
        quad_adaptive(np.exp, (0.0, np.array([1.0, 2.0])), tol=np.array([1e-9, -1.0]))
    # a tolerance far below rounding exhausts the panels; it must not
    # overflow the error norm on the way
    with pytest.raises(AccuracyError):
        quad_adaptive(np.ones_like, (0.0, 1.0), tol=1e-300, limit=50)


def test_quad_error_estimate_honest_for_tiny_integrals():
    # strongly cancelling oscillatory integral with a small true value
    def f(t):
        return np.exp(-20.0 * np.cosh(t)) * np.cos(35.0 * t)

    val, err = quad_adaptive(f, (0.0, 5.0), tol=1e-25)
    assert err < 1e-24
    assert abs(val) < math.exp(-20.0)


# (value, error) of quad_adaptive, pinned bit for bit: real and complex
# integrands, among them those of specfun._k_quadrature at Re nu = 0 and
# +-1, each at two tolerances; each with its exact integral (the tails
# past the K integrands' ends are below 1e-40)
_QUAD_CASES = {
    "exp": (lambda t: np.exp(-t), (0.0, 40.0), lambda: 1 - mpmath.exp(-40)),
    "sqrt": (np.sqrt, (0.0, 1.0), lambda: mpmath.mpf(2) / 3),
    "oscillatory": (lambda t: np.exp(-np.cosh(t)) * np.cos(10.0 * t),
                    (0.0, 40.0), lambda: mpmath.besselk(10j, 1)),
    "gauss_phase": (lambda t: np.exp(3j * t - t * t), (-6.0, 6.0),
                    lambda: mpmath.sqrt(mpmath.pi) * mpmath.exp(-2.25)
                    * mpmath.erf(6 - 1.5j).real),
    "k_nu=2i": (lambda t: np.exp(-np.cosh(t)) * np.cos(2.0 * t),
                (0.0, 5.5), lambda: mpmath.besselk(2j, 1)),
    "k_nu=1+2i": (lambda t: np.exp(-np.cosh(t)) * np.cosh((1.0 + 2.0j) * t),
                  (0.0, 5.5), lambda: mpmath.besselk(1 + 2j, 1)),
    "k_nu=-1+0.5i": (lambda t: np.exp(-0.3 * np.cosh(t))
                     * np.cosh((-1.0 + 0.5j) * t), (0.0, 6.5),
                     lambda: mpmath.besselk(-1 + 0.5j, 0.3)),
}
_QUAD_GOLDEN = {
    ("exp", 1e-08): (1.0, 6.918147169164721e-12),
    ("exp", 1e-13): (1.0, 5.472998898596768e-16),
    ("sqrt", 1e-08): (0.6666666666689355, 3.808498519104036e-09),
    ("sqrt", 1e-13): (0.6666666666666665, 4.123883580586115e-14),
    ("oscillatory", 1e-08): (1.1294550828280792e-07, 1.868077818105972e-09),
    ("oscillatory", 1e-13): (1.1294550821667158e-07, 6.743319897828987e-15),
    ("gauss_phase", 1e-08): ((0.18681526145713173+1.4777675610977425e-16j),
                             1.2826734274806287e-10),
    ("gauss_phase", 1e-13): ((0.18681526145713168-1.3877787807814457e-17j),
                             2.1730281503276552e-14),
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
    f, interval, exact = _QUAD_CASES[name]
    got = quad_adaptive(f, interval, tol=tol)
    assert repr(got) == repr(_QUAD_GOLDEN[name, tol])
    with mpmath.workdps(30):
        assert abs(got[0] - complex(exact())) <= got[1]


def test_quad_adaptive_golden_accuracy_error():
    with pytest.raises(AccuracyError) as info:
        quad_adaptive(np.sqrt, (0.0, 1.0), tol=1e-15, limit=8)
    assert str(info.value) == (
        "quad_adaptive: more than 8 segments needed, error 9.984e-04 > 1.000e-15")


def test_quad_batch_is_the_scalar_calls_bit_for_bit():
    # n integrals in one call give the bits of n scalar calls, value and
    # estimate, though their rows need different panels and rounds
    X = np.array([0.15, 0.6, 1.0, 4.0, 30.0, 300.0])
    b = np.arccosh(1.0 + 60.0 / X) + 1.0
    tol = 1e-13 * np.exp(-X)
    for nu in (2.0j, 1.0 + 2.0j, -1.0 + 0.5j):
        value, err = quad_adaptive(
            lambda t: np.exp(-X[:, None] * np.cosh(t)) * np.cosh(nu * t),
            (0.0, b), tol=tol)
        for i, x in enumerate(X.tolist()):
            got = quad_adaptive(lambda t: np.exp(-x * np.cosh(t)) * np.cosh(nu * t),
                                (0.0, float(b[i])), tol=float(tol[i]))
            assert got == (value[i], err[i]), (nu, x)
    p = np.array([0.5, 1.5, 3.0, -0.5])
    value, err = quad_adaptive(lambda t: t ** p[:, None], (0.0, np.ones(4)),
                               tol=1e-11, limit=4000)
    for i, q in enumerate(p.tolist()):
        assert quad_adaptive(lambda t: t ** q, (0.0, 1.0), tol=1e-11,
                             limit=4000) == (value[i], err[i])
    assert type(value) is np.ndarray and type(quad_adaptive(np.exp, (0.0, 1.0))[0]) is float


def test_quad_calls_f_with_one_array_of_its_rows_nodes():
    b = np.array([1.0, 2.0, 5.0])
    calls = []

    def f(*args, **kwargs):
        calls.append((args, kwargs))
        return np.sqrt(args[0])

    quad_adaptive(f, (0.0, b), tol=1e-12)
    assert len(calls) > 1
    for args, kwargs in calls:
        assert len(args) == 1 and not kwargs
        t = args[0]
        assert t.ndim == 2 and t.shape[0] == b.size and t.shape[1] % 15 == 0
        assert ((t > 0.0) & (t < b[:, None])).all()


def test_fit_exact_two_waves():
    w = 2.0
    zs = np.linspace(-8.0, -6.0, 16)
    gs = [cmath.exp(1j * w * z) + 0.5 * cmath.exp(-1j * w * z) for z in zs]
    cp, cm, resid = lsq_fit_two_waves(list(zip(zs, gs)), w)
    assert abs(cp - 1.0) < 1e-12
    assert abs(cm - 0.5) < 1e-12
    assert resid < 1e-12


def test_fit_single_wave():
    w = 1.5
    zs = np.linspace(-9.0, -6.0, 12)
    gs = [2.0 * cmath.exp(1j * w * z) for z in zs]
    cp, cm, _ = lsq_fit_two_waves(list(zip(zs, gs)), w)
    assert abs(cp - 2.0) < 1e-12
    assert abs(cm) < 1e-12


def test_fit_perturbation_bound():
    rng = np.random.default_rng(7)
    w = 2.0
    zs = np.linspace(-8.0, -6.0, 32)
    noise = 1e-8 * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
    gs = np.exp(1j * w * zs) + 0.5 * np.exp(-1j * w * zs) + noise
    cp, cm, _ = lsq_fit_two_waves(list(zip(zs, gs)), w)
    assert abs(cp - 1.0) < 1e-7
    assert abs(cm - 0.5) < 1e-7


def test_fit_underdetermined():
    with pytest.raises(ConditioningError):
        lsq_fit_two_waves([(0.0, 1.0)], 1.0)


def test_fit_degenerate_span():
    samples = [(0.0, 1.0)] * 6
    with pytest.raises(ConditioningError):
        lsq_fit_two_waves(samples, 1.0)


def test_fit_non_finite_samples():
    # a non-finite z or G raises ConditioningError: z = inf used to raise
    # LinAlgError, and G = inf or nan to return NaN coefficients
    zs = np.linspace(-8.0, -6.0, 16)
    good = list(zip(zs.tolist(), np.exp(2j * zs).tolist()))
    for i, sample in ((0, (math.inf, 1.0)), (5, (math.nan, 1.0)),
                      (3, (-7.0, complex(math.inf, 0.0))),
                      (9, (-7.0, complex(0.0, math.nan)))):
        samples = list(good)
        samples[i] = sample
        with pytest.raises(ConditioningError):
            lsq_fit_two_waves(samples, 2.0)


def test_fit_condition_from_singular_values():
    # cond is the ratio of the extreme singular values of the design,
    # as np.linalg.cond gives it: a well-spread window passes, and the
    # same window squeezed below a quarter period's width raises
    zs = np.linspace(-8.0, -6.0, 16)
    cp, cm, resid = lsq_fit_two_waves(
        list(zip(zs, np.exp(2j * zs) + 0.5 * np.exp(-2j * zs))), 2.0)
    assert abs(cp - 1.0) < 1e-14 and abs(cm - 0.5) < 1e-14 and resid < 1e-14
    tight = -7.0 + 1e-10 * (zs + 7.0)
    design = np.column_stack([np.exp(2j * tight), np.exp(-2j * tight)])
    assert np.linalg.cond(design) > 1e8
    with pytest.raises(ConditioningError, match="ill-conditioned"):
        lsq_fit_two_waves(list(zip(tight, np.exp(2j * tight))), 2.0)


@given(st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=25, deadline=None)
def test_fit_residual_phase_invariant(phi):
    w = 2.0
    rng = np.random.default_rng(3)
    zs = np.linspace(-8.0, -6.0, 16)
    gs = np.exp(1j * w * zs) + 0.3 * np.exp(-1j * w * zs) \
        + 1e-6 * rng.standard_normal(16)
    _, _, r0 = lsq_fit_two_waves(list(zip(zs, gs)), w)
    rot = cmath.exp(1j * phi)
    _, _, r1 = lsq_fit_two_waves(list(zip(zs, gs * rot)), w)
    assert abs(r0 - r1) < 1e-12
