import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobwave.errors import DomainError, RangeError
from lobwave.geometry import (
    EmbeddingPoint,
    PoincarePoint,
    QuasiCartesian,
    effective_tensors,
    embedding_to_poincare,
    energy_density,
    poincare_to_quasi,
    to_embedding,
    volume_weight,
)

coord = st.floats(-3.0, 3.0, allow_nan=False)
height = st.floats(-4.0, 4.0, allow_nan=False)


def test_origin_maps_to_hyperboloid_apex():
    u = to_embedding(QuasiCartesian(0.0, 0.0, 0.0))
    assert (u.u0, u.u1, u.u2, u.u3) == (1.0, 0.0, 0.0, 0.0)
    q = embedding_to_poincare(u)
    assert (q.q1, q.q2, q.q3) == (0.0, 0.0, 0.0)


def test_pure_height_shift():
    u = to_embedding(QuasiCartesian(0.0, 0.0, 1.0))
    assert u.u0 == pytest.approx(math.cosh(1.0), rel=1e-15)
    assert u.u3 == pytest.approx(math.sinh(1.0), rel=1e-15)
    assert u.u1 == u.u2 == 0.0


@given(coord, coord, height)
@settings(max_examples=200, deadline=None)
def test_roundtrip_quasi_poincare_quasi(x, y, z):
    p = QuasiCartesian(x, y, z)
    back = poincare_to_quasi(embedding_to_poincare(to_embedding(p)))
    scale = max(1.0, abs(x), abs(y), abs(z))
    assert abs(back.x - x) <= 1e-10 * scale
    assert abs(back.y - y) <= 1e-10 * scale
    assert abs(back.z - z) <= 1e-10 * scale


@given(coord, coord, height)
@settings(max_examples=200, deadline=None)
def test_embedding_stays_on_sheet(x, y, z):
    u = to_embedding(QuasiCartesian(x, y, z))
    assert u.u0 >= 1.0 - 1e-12
    assert abs(u.constraint_defect()) <= 1e-12 * max(1.0, u.u0 * u.u0)


@given(coord, coord, height)
@settings(max_examples=100, deadline=None)
def test_poincare_point_inside_ball(x, y, z):
    q = embedding_to_poincare(to_embedding(QuasiCartesian(x, y, z)))
    assert q.norm_sq() < 1.0


def test_ideal_boundary_rejected():
    with pytest.raises(DomainError):
        PoincarePoint(0.0, 0.0, 1.0)
    q = PoincarePoint(0.0, 0.0, 0.999999)
    p = poincare_to_quasi(q)
    assert p.z > 5.0 and math.isfinite(p.z)


def test_embedding_constructor_validates():
    with pytest.raises(DomainError):
        EmbeddingPoint(1.0, 0.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        EmbeddingPoint(0.5, 0.0, 0.0, 0.0)


def test_nonfinite_rejected():
    with pytest.raises(DomainError):
        QuasiCartesian(math.nan, 0.0, 0.0)
    with pytest.raises(DomainError):
        QuasiCartesian(0.0, math.inf, 0.0)


def test_height_overflow_guard():
    with pytest.raises(RangeError):
        to_embedding(QuasiCartesian(0.0, 0.0, 400.0))
    # x^2 overflows to inf; the finiteness check raises
    with pytest.raises(RangeError, match="embedding overflow"):
        to_embedding(QuasiCartesian(1e200, 0.0, 0.0))
    with pytest.raises(RangeError):
        effective_tensors(200.0)


def test_effective_tensors_shape():
    m = effective_tensors(0.7)
    assert m.eps_diag == m.mu_diag
    assert m.eps_diag[0] == m.eps_diag[1] == 1.0
    assert m.eps_diag[2] == pytest.approx(math.exp(-1.4), rel=1e-15)
    assert m.mu_inverse_diag[2] == pytest.approx(math.exp(1.4), rel=1e-15)


def test_volume_weight_matches_metric_determinant():
    for z in (-2.0, 0.0, 1.5):
        assert volume_weight(z) == pytest.approx(math.exp(-2.0 * z), rel=1e-15)


def test_energy_density_weighting():
    E = (1.0, 0.0, 0.0)
    B = (0.0, 1.0, 0.0)
    assert energy_density(E, B, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert energy_density(E, B, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
