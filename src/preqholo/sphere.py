"""Geometry of the integer-level sphere: points, rotations, charts and potentials.

Points are stored as unit vectors in R^3; the spherical chart (theta, phi) is
a derived view, never the storage format, because chart expressions degenerate
at the poles while the underlying geometry does not.  The symplectic structure
is the rescaled area 2-form

    omega = (k / 2) * sin(theta) dtheta ^ dphi,      k = n / (2 pi),

whose total integral over the sphere is the integer level ``n``.  The two
local frames of the line bundle each carry a primitive of omega (a
"potential"): ``alpha_N = (k/2) (1 - cos theta) dphi``, regular everywhere
except the south pole, and ``alpha_S = -(k/2) (1 + cos theta) dphi``.
Their difference is ``k dphi``, so the frame transition function is
``exp(-i n phi)``, single valued exactly because ``k = n / (2 pi)``.  The
transport in ``holonomy`` needs no frame; the potentials serve the tests'
frame-based reference transport and line-integral checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi

_POLE_SIN_TOL = 1e-14


class ChartDomainError(ValueError):
    """A chart potential was evaluated at (or too close to) its excluded pole."""


class Chart(Enum):
    """Tag for the two local frames of the line bundle."""

    NORTH = "north"
    SOUTH = "south"

    @property
    def sign(self) -> float:
        """+1 for the north frame, -1 for the south frame."""
        return 1.0 if self is Chart.NORTH else -1.0

    def other(self) -> "Chart":
        return Chart.SOUTH if self is Chart.NORTH else Chart.NORTH


@dataclass(frozen=True)
class OrbitSphere:
    """The sphere at integer level ``n``: the area form integrates to n."""

    n: int

    def __post_init__(self) -> None:
        if self.n == 0:
            raise ValueError("level n must be a nonzero integer")

    @property
    def k(self) -> float:
        return self.n / TWO_PI


def unit_vector(p) -> np.ndarray:
    u = np.asarray(p, dtype=float)
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return u / nrm


def sphere_point(theta: float, phi: float) -> np.ndarray:
    """Unit vector with colatitude theta in [0, pi] and azimuth phi."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def spherical_coords(p) -> tuple[float, float]:
    """Colatitude in [0, pi] and azimuth in [0, 2 pi); azimuth 0 at the poles."""
    u = np.asarray(p, dtype=float)
    theta = math.acos(min(1.0, max(-1.0, float(u[2]))))
    if math.hypot(u[0], u[1]) < _POLE_SIN_TOL:
        return theta, 0.0
    return theta, math.atan2(u[1], u[0]) % TWO_PI


def potential_eval(M: OrbitSphere, frame: Chart, p, v) -> float:
    """Chart primitive of the area form, evaluated on a tangent vector.

    In Cartesian terms alpha_N(v) = (k/2) (u x v)_z / (1 + u_z), which makes
    the regularity at the north pole explicit; the south frame mirrors it:
    alpha_S(v) = -(k/2) (u x v)_z / (1 - u_z).
    """
    u = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    denom = 1.0 + frame.sign * u[2]
    if denom <= 1e-13:
        raise ChartDomainError(
            f"{frame.value}-frame potential is singular at the {frame.other().value} pole"
        )
    return 0.5 * M.k * frame.sign * float(u[0] * v[1] - u[1] * v[0]) / denom


def fibonacci_sphere(count: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Quasi-uniform lattice of ``count`` points; optionally randomly rotated."""
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = golden * i
    r = np.sqrt(np.maximum(0.0, 1.0 - z**2))
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
    if rng is not None:
        pts = pts @ random_rotation_matrix(rng).T
    return pts


def random_rotation_matrix(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_tangent(rng: np.random.Generator, p) -> np.ndarray:
    """Unit tangent vector at ``p`` drawn from the rotation-invariant law."""
    u = unit_vector(p)
    while True:
        v = rng.normal(size=3)
        v -= np.dot(v, u) * u
        nrm = np.linalg.norm(v)
        if nrm > 1e-12:
            return v / nrm
