import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobwave import checks, modes, specfun
from lobwave.errors import DegenerateModeError, DomainError, RangeError
from lobwave.modes import (
    MAXWELL_MATRICES,
    BasisBranch,
    FieldVector,
    ModeParams,
    amplitudes_at,
    assemble_field,
    eval_G,
    f3_single_kernel,
    F_from_G,
    heun_form_residual,
    maxwell_residual_firstorder,
    maxwell_residual_matrix,
    plane_wave_amplitudes,
    plane_wave_special,
)

P_DEFAULT = ModeParams(2.0, 1.0, 1.0)


def test_mode_params_validation():
    p = ModeParams(2.0, 3.0, 4.0)
    assert p.kappa == 5.0
    with pytest.raises(DomainError):
        ModeParams(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ModeParams(-1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ModeParams(1.0, math.nan, 0.0)


def test_matrix_constants_printed_entries():
    m = MAXWELL_MATRICES
    assert m.alpha1.tolist() == [[0, 1, 0, 0], [-1, 0, 0, 0],
                                 [0, 0, 0, -1], [0, 0, 1, 0]]
    assert m.alpha2.tolist() == [[0, 0, 1, 0], [0, 0, 0, 1],
                                 [-1, 0, 0, 0], [0, -1, 0, 0]]
    assert m.alpha3.tolist() == [[0, 0, 0, 1], [0, 0, -1, 0],
                                 [0, 1, 0, 0], [-1, 0, 0, 0]]
    assert m.s1.tolist() == [[0, 0, 0, 0], [0, 0, 0, 0],
                             [0, 0, 0, -1], [0, 0, 1, 0]]
    assert m.s2.tolist() == [[0, 0, 0, 0], [0, 0, 0, 1],
                             [0, 0, 0, 0], [0, -1, 0, 0]]


def test_rotation_preserves_norm_and_inverts():
    p = ModeParams(1.0, 0.6, 0.8)
    g1, g2 = 0.3 + 0.4j, -1.1 + 0.2j
    F1, F2 = F_from_G(g1, g2, p)
    assert abs(F1) ** 2 + abs(F2) ** 2 == pytest.approx(
        abs(g1) ** 2 + abs(g2) ** 2, rel=1e-14)
    # the inverse rotation is the transpose
    back1 = (p.b * F1 - p.a * F2) / p.kappa
    back2 = (p.a * F1 + p.b * F2) / p.kappa
    assert abs(back1 - g1) < 1e-14
    assert abs(back2 - g2) < 1e-14


def test_degenerate_mode_rejected():
    p = ModeParams(1.0, 0.0, 0.0)
    with pytest.raises(DegenerateModeError):
        eval_G(BasisBranch.HANKEL1, p, 0.0)
    with pytest.raises(DegenerateModeError):
        amplitudes_at(BasisBranch.HANKEL1, p, 0.0)


def test_eval_G_grid_matches_points(monkeypatch):
    # one basis_G1 and one recurrence_shift call per grid, and the values
    # of the point-by-point calls to rounding, on grids that cross every
    # route switch (X from 0.02 omega to 600)
    calls = []

    def counted(kernel):
        def wrapper(*args):
            calls.append(kernel.__name__)
            return kernel(*args)
        return wrapper

    for name in ("basis_G1", "recurrence_shift"):
        monkeypatch.setattr(modes, name, counted(getattr(modes, name)))
    for br in BasisBranch:
        for w in (0.5, 2.0, 8.0):
            p = ModeParams(w, 1.0, 0.0)
            zs = np.linspace(math.log(0.02 * w), math.log(600.0), 120)
            calls.clear()
            g1, g2 = eval_G(br, p, zs)
            assert sorted(calls) == ["basis_G1", "recurrence_shift"]
            for i, z in enumerate(zs.tolist()):
                r1, r2 = eval_G(br, p, z)
                scale = math.hypot(abs(r1), abs(r2))
                assert max(abs(g1[i] - r1), abs(g2[i] - r2)) <= 1e-12 * scale, \
                    (br, w, z)


def test_f3_two_routes_agree():
    for br in BasisBranch:
        for z in (-4.0, -1.0, 0.5, 1.5):
            amps = amplitudes_at(br, P_DEFAULT, z)
            alt = f3_single_kernel(amps, P_DEFAULT)
            assert abs(amps.f3 - alt) <= 1e-12 * max(abs(amps.f3), abs(alt))


def test_profile_weights():
    amps = amplitudes_at(BasisBranch.HANKEL1, P_DEFAULT, 0.7)
    ez = math.exp(0.7)
    assert amps.f1 == pytest.approx(ez * amps.F1, rel=1e-15)
    assert amps.f2 == pytest.approx(ez * amps.F2, rel=1e-15)


def test_maxwell_residuals_exact_modes():
    params = (ModeParams(2.0, 1.0, 1.0), ModeParams(0.5, 0.3, 0.4),
              ModeParams(5.0, 2.0, 1.0))
    for p in params:
        for br in BasisBranch:
            for z in np.linspace(-4.0, 1.0, 9):
                amps = amplitudes_at(br, p, float(z))
                assert maxwell_residual_firstorder(amps, p) < 1e-8
                assert maxwell_residual_matrix(amps, p) < 1e-8


def test_first_equation_implied_by_others():
    # a random profile stack satisfying lines 2-4 exactly must satisfy
    # line 1 identically
    from lobwave.modes import _firstorder_equations
    rng = np.random.default_rng(11)
    p = ModeParams(1.7, 0.9, -0.4)
    for _ in range(50):
        z = float(rng.uniform(-3.0, 1.0))
        ez = math.exp(z)
        f1, f2 = (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        # line 4 fixes f3 algebraically, lines 2-3 fix the transverse
        # derivatives, and differentiating line 4 fixes f3'
        f3 = (-1j * p.b * ez * f1 + 1j * p.a * ez * f2) / p.omega
        df2 = f2 - p.omega * f1 + 1j * p.b * ez * f3
        df1 = f1 + p.omega * f2 + 1j * p.a * ez * f3
        df3 = (-1j * p.b * ez * (f1 + df1) + 1j * p.a * ez * (f2 + df2)) \
            / p.omega
        eqs = _firstorder_equations((f1, f2, f3), (df1, df2, df3), p, z)
        # lines 2, 3, 4 hold by construction; line 1 must then follow
        for lhs, scale in eqs[1:]:
            assert abs(lhs) <= 1e-12 * max(scale, 1.0)
        lhs, scale = eqs[0]
        assert abs(lhs) <= 1e-12 * max(scale, 1.0)
    # the same construction on a grid of 50 heights, one call
    z = rng.uniform(-3.0, 1.0, 50)
    ez = np.exp(z)
    f1, f2 = (rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50)))
    f3 = (-1j * p.b * ez * f1 + 1j * p.a * ez * f2) / p.omega
    df2 = f2 - p.omega * f1 + 1j * p.b * ez * f3
    df1 = f1 + p.omega * f2 + 1j * p.a * ez * f3
    df3 = (-1j * p.b * ez * (f1 + df1) + 1j * p.a * ez * (f2 + df2)) / p.omega
    eqs = _firstorder_equations((f1, f2, f3), (df1, df2, df3), p, z)
    assert len(eqs) == 4
    for lhs, scale in eqs:
        assert lhs.shape == scale.shape == (50,)
        assert np.all(np.abs(lhs) <= 1e-12 * np.maximum(scale, 1.0))


def test_plane_wave_example_at_origin():
    fv = plane_wave_special(+1, 2.0, 0.0, 0.0)
    assert abs(fv.c1 - 1.0) < 1e-15
    assert abs(fv.c2 - 1j) < 1e-15
    assert fv.c3 == 0.0
    assert fv.E == (1.0, 0.0, 0.0)
    assert fv.B == (0.0, 1.0, 0.0)


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.sampled_from([+1, -1]))
@settings(max_examples=100, deadline=None)
def test_plane_wave_poynting_direction(t, z, sign):
    fv = plane_wave_special(sign, 1.3, t, z)
    E, B = np.array(fv.E), np.array(fv.B)
    cr = np.cross(E, B)
    cr = cr / np.linalg.norm(cr)
    assert np.max(np.abs(cr - [0.0, 0.0, sign])) < 1e-12


def test_plane_wave_residual():
    p = ModeParams(2.0, 0.0, 0.0)
    for sign in (+1, -1):
        for z in (-2.0, 0.0, 1.0):
            amps = plane_wave_amplitudes(sign, 2.0, z)
            assert maxwell_residual_firstorder(amps, p) < 1e-12
            assert maxwell_residual_matrix(amps, p) < 1e-12


def test_plane_wave_validation():
    with pytest.raises(DomainError):
        plane_wave_special(0, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        plane_wave_special(+1, -1.0, 0.0, 0.0)


def test_assemble_field_phase_factor():
    p = ModeParams(2.0, 1.0, 0.5)
    base = assemble_field(BasisBranch.HANKEL1, p, 0.0, 0.0, 0.0, 0.3)
    shifted = assemble_field(BasisBranch.HANKEL1, p, 0.5, 0.7, -0.2, 0.3)
    phase = cmath.exp(-1j * p.omega * 0.5 + 1j * p.a * 0.7 - 1j * p.b * 0.2)
    for got, ref in ((shifted.c1, base.c1), (shifted.c2, base.c2),
                     (shifted.c3, base.c3)):
        assert abs(got - phase * ref) <= 1e-13 * max(abs(got), 1e-300)


def test_heun_form_residual_small():
    res = heun_form_residual(BasisBranch.HANKEL1, P_DEFAULT,
                             np.linspace(-4.0, 0.0, 21))
    assert res < 1e-5


def test_heun_form_symmetric_under_ab_swap():
    # with a = b the equation is unchanged by the swap
    grid = np.linspace(-4.0, 0.0, 11)
    r1 = heun_form_residual(BasisBranch.HANKEL1, ModeParams(2.0, 1.0, 1.0), grid)
    r2 = heun_form_residual(BasisBranch.HANKEL1, ModeParams(2.0, 1.0, 1.0), grid)
    assert abs(r1 - r2) < 1e-10


def test_heun_form_guards():
    with pytest.raises(DomainError):
        heun_form_residual(BasisBranch.HANKEL1, ModeParams(2.0, 0.0, 1.0),
                           [-1.0])
    # grid point at the singular point Z = sqrt(omega)/a, i.e. e^z = omega/a
    z_sing = math.log(2.0 / 1.0)
    with pytest.raises(DomainError):
        heun_form_residual(BasisBranch.HANKEL1, P_DEFAULT, [z_sing])


def test_field_vector_split():
    fv = FieldVector(1.0 + 2.0j, -0.5 + 0.25j, 0.0)
    assert fv.E == (1.0, -0.5, 0.0)
    assert fv.B == (2.0, 0.25, 0.0)


def _recorded(monkeypatch, module, name):
    """Wrap module.name so that each call's positional args are recorded."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _maxwell_grids(monkeypatch):
    """The (branch, mode, z grid) of each amplitudes_at call of one
    uncached pass of checks._maxwell_worst."""
    with monkeypatch.context() as m:
        calls = _recorded(m, checks, "amplitudes_at")
        checks._maxwell_worst.__wrapped__()
    return calls


def test_maxwell_worst_makes_one_stack_per_grid(monkeypatch):
    # 6 modes x {hankel1, bessel+} on 200 heights, then every branch on 11
    grids = _maxwell_grids(monkeypatch)
    assert len(grids) == 18
    assert sum(zs.size for _, _, zs in grids) == 2466
    assert {br for br, _, _ in grids} == set(BasisBranch)


def test_grid_stack_matches_points(monkeypatch):
    # every field of a grid stack against the float calls, to 1e-12 of the
    # stack's size at that height: |(G1, G2)| = |(F1, F2)|, times e^z for
    # f1, f2 and kappa e^{2z} / omega for f3 (single fields cancel to 0).
    # A grid residual is the worst over its heights; the residuals are
    # already relative to the largest term, so they agree to 1e-12 outright
    fields = ("G1", "G2", "F1", "F2", "f1", "f2", "f3")
    for br, p, zs in _maxwell_grids(monkeypatch):
        grid = amplitudes_at(br, p, zs)
        points = [amplitudes_at(br, p, z) for z in zs.tolist()]
        size = np.array([math.hypot(abs(a.G1), abs(a.G2)) for a in points])
        ez = np.exp(zs)
        weight = dict.fromkeys(("G1", "G2", "F1", "F2"), size)
        weight.update(f1=ez * size, f2=ez * size,
                      f3=p.kappa * ez * ez * size / p.omega)
        for name in fields:
            got = getattr(grid, name)
            ref = np.array([getattr(a, name) for a in points])
            assert got.shape == zs.shape
            assert np.all(np.abs(got - ref) <= 1e-12 * weight[name]), \
                (br, p, name)
        assert np.array_equal(grid.z, zs)
        for residual in (maxwell_residual_firstorder, maxwell_residual_matrix):
            worst = max(residual(a, p) for a in points)
            assert abs(residual(grid, p) - worst) <= 1e-12, (br, p, residual)
            # the same stack values, one height at a time
            sliced = max(residual(modes.ModeAmplitudes(
                *(getattr(grid, name)[i] for name in fields), z=float(z)), p)
                for i, z in enumerate(zs.tolist()))
            assert residual(grid, p) == pytest.approx(sliced, rel=1e-12)


def test_heun_form_residual_one_eval_G_call(monkeypatch):
    calls = _recorded(monkeypatch, modes, "eval_G")
    zs = np.linspace(-4.0, 0.0, 21)
    res = heun_form_residual(BasisBranch.HANKEL1, P_DEFAULT, zs)
    assert len(calls) == 1
    assert calls[0][2].shape == (5 * zs.size,)
    assert res < 1e-5


def test_one_quadrature_call_per_k_route_call(monkeypatch):
    # every X = kappa e^z below is in the quadrature band 0.1 < X <= 1.05 w.
    # A float eval_G takes K at i w twice and at i w + 1 once: 3 calls.
    # heun_form_residual's 10 stencil heights fit one block of the same 3
    calls = []
    quad = specfun.quad_adaptive

    def counted(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(specfun, "quad_adaptive", counted)
    eval_G(BasisBranch.HANKEL1, ModeParams(2.0, 1.0, 0.0), 0.0)
    assert len(calls) == 3
    calls.clear()
    heun_form_residual(BasisBranch.HANKEL1, P_DEFAULT, [-1.0, -0.5])
    assert len(calls) == 3


def test_ode_deviation_one_grid_call(monkeypatch):
    calls = _recorded(monkeypatch, checks, "eval_G")
    seeds = [_recorded(monkeypatch, checks, name)
             for name in ("basis_G1", "recurrence_shift")]
    p = ModeParams(1.0, 1.0, 0.0)
    dev = checks._ode_deviation(BasisBranch.BESSEL_PLUS, p, (-6.0, 3.0))
    assert dev < 1e-7
    # the seed from one float call of each kernel at X = kappa e^{span[0]},
    # then the 25 heights as one grid
    for seed in seeds:
        assert seed == [(BasisBranch.BESSEL_PLUS, 1.0, math.exp(-6.0))]
    assert [np.shape(args[2]) for args in calls] == [(25,)]


def test_float_height_past_exp_range_raises_range_error():
    # e^710 is past the double range: a float z raises the RangeError a
    # grid raises (X = inf), not a bare OverflowError
    # (heun_form_residual takes a grid: a list and an array)
    br, p = BasisBranch.HANKEL1, P_DEFAULT
    for fn, heights in ((eval_G, 710.0), (amplitudes_at, 710.0),
                        (heun_form_residual, [710.0])):
        messages = []
        for z in (heights, np.array([710.0])):
            with pytest.raises(RangeError) as err:
                fn(br, p, z)
            messages.append(str(err.value))
        assert messages == ["X = inf overflows e^X in double precision"] * 2, fn
