import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobwave import modes
from lobwave.errors import DegenerateModeError, DomainError
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
