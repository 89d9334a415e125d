"""Coordinate charts and effective-medium data of 3-D hyperbolic space.

Works in curvature-radius units throughout: the hyperboloid has unit
radius and the quasi-Cartesian chart (x, y, z) carries the metric
dt^2 - e^{-2z}(dx^2 + dy^2) - dz^2.  The constant-negative-curvature
geometry acts on electromagnetic fields like a diagonal medium with
identical permittivity and permeability tensors diag(1, 1, e^{-2z}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, RangeError

# e^{|z|} must stay inside double range with headroom for x^2 + y^2 factors
_Z_LIMIT = 300.0

_HYPERBOLOID_TOL = 1e-9


def _require_finite(name, *values):
    for v in values:
        if not math.isfinite(v):
            raise DomainError(f"{name}: non-finite coordinate {v!r}")


@dataclass(frozen=True)
class QuasiCartesian:
    """Point in the quasi-Cartesian chart; all three coordinates real."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        _require_finite("QuasiCartesian", self.x, self.y, self.z)


@dataclass(frozen=True)
class EmbeddingPoint:
    """Point on the upper sheet u0^2 - u1^2 - u2^2 - u3^2 = 1, u0 >= 1."""

    u0: float
    u1: float
    u2: float
    u3: float

    def __post_init__(self):
        _require_finite("EmbeddingPoint", self.u0, self.u1, self.u2, self.u3)
        if self.u0 < 1.0 - 1e-12:
            raise DomainError(f"EmbeddingPoint: u0 = {self.u0} < 1")
        c = self.constraint_defect()
        scale = max(1.0, self.u0 * self.u0)
        if abs(c) > _HYPERBOLOID_TOL * scale:
            raise DomainError(
                f"EmbeddingPoint: hyperboloid constraint violated by {c:.3e}"
            )

    def constraint_defect(self) -> float:
        """u0^2 - u1^2 - u2^2 - u3^2 - 1 (zero on the sheet)."""
        return (
            self.u0 * self.u0
            - self.u1 * self.u1
            - self.u2 * self.u2
            - self.u3 * self.u3
            - 1.0
        )


@dataclass(frozen=True)
class PoincarePoint:
    """Point of the open-unit-ball realization, |q| < 1."""

    q1: float
    q2: float
    q3: float

    def __post_init__(self):
        _require_finite("PoincarePoint", self.q1, self.q2, self.q3)
        if self.norm_sq() >= 1.0:
            raise DomainError(
                f"PoincarePoint: |q|^2 = {self.norm_sq()} not inside the unit ball"
            )

    def norm_sq(self) -> float:
        return self.q1 * self.q1 + self.q2 * self.q2 + self.q3 * self.q3


@dataclass(frozen=True)
class MediumTensors:
    """Diagonal constitutive tensors; the two diagonals coincide exactly."""

    eps_diag: tuple
    mu_diag: tuple

    def __post_init__(self):
        if self.eps_diag != self.mu_diag:
            raise DomainError("MediumTensors: eps and mu diagonals must coincide")
        if self.eps_diag[0] != 1.0 or self.eps_diag[1] != 1.0:
            raise DomainError("MediumTensors: transverse entries must equal 1")
        if not self.eps_diag[2] > 0.0:
            raise DomainError("MediumTensors: longitudinal entry must be positive")

    @property
    def mu_inverse_diag(self) -> tuple:
        return (1.0, 1.0, 1.0 / self.mu_diag[2])


def _checked_exp(z: float) -> float:
    if abs(z) > _Z_LIMIT:
        raise RangeError(f"|z| = {abs(z)} exceeds supported bound {_Z_LIMIT}")
    return math.exp(z)


def to_embedding(p: QuasiCartesian) -> EmbeddingPoint:
    """Map the quasi-Cartesian chart onto the unit hyperboloid sheet."""
    ez = _checked_exp(p.z)
    emz = _checked_exp(-p.z)
    r2 = p.x * p.x + p.y * p.y
    u1 = p.x * emz
    u2 = p.y * emz
    u3 = 0.5 * ((ez - emz) + r2 * emz)
    u0 = 0.5 * ((ez + emz) + r2 * emz)
    # float products overflow to inf without raising
    if not (math.isfinite(u0) and math.isfinite(u3)):
        raise RangeError(f"embedding overflow at {p}")
    return EmbeddingPoint(u0, u1, u2, u3)


def embedding_to_poincare(u: EmbeddingPoint) -> PoincarePoint:
    """Project the hyperboloid sheet into the open unit ball, q_i = u_i/u0."""
    return PoincarePoint(u.u1 / u.u0, u.u2 / u.u0, u.u3 / u.u0)


def poincare_to_quasi(q: PoincarePoint) -> QuasiCartesian:
    """Invert the ball projection back to quasi-Cartesian coordinates.

    The ideal boundary point q3 -> 1 has no finite preimage.
    """
    denom = 1.0 - q.q3
    if denom <= 0.0:
        raise DomainError("poincare_to_quasi: q3 >= 1 is an ideal boundary point")
    ez = math.sqrt(1.0 - q.norm_sq()) / denom
    if ez <= 0.0 or not math.isfinite(ez):
        raise DomainError(f"poincare_to_quasi: degenerate e^z = {ez}")
    return QuasiCartesian(q.q1 / denom, q.q2 / denom, math.log(ez))


def effective_tensors(z: float) -> MediumTensors:
    """Constitutive tensors diag(1, 1, e^{-2z}) of the simulated medium."""
    _require_finite("effective_tensors", z)
    w = _checked_exp(-2.0 * z)
    diag = (1.0, 1.0, w)
    return MediumTensors(diag, diag)


def volume_weight(z: float) -> float:
    """sqrt(-g) = e^{-2z}, the coordinate-volume weight."""
    _require_finite("volume_weight", z)
    return _checked_exp(-2.0 * z)


def energy_density(E, B, z: float) -> float:
    """Field energy per coordinate volume dx dy dz at height z.

    E and B are real 3-vectors in the local frame; the result is
    (|E|^2 + |B|^2)/2 weighted by the volume factor e^{-2z}.
    """
    e2 = sum(float(c) * float(c) for c in E)
    b2 = sum(float(c) * float(c) for c in B)
    _require_finite("energy_density", e2, b2, z)
    return 0.5 * (e2 + b2) * volume_weight(z)
