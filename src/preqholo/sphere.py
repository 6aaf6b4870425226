"""Geometry of the integer-level sphere: points, charts, area form, quadrature.

Points are stored as unit vectors in R^3; the spherical chart (theta, phi) is
a derived view, never the storage format, because chart expressions degenerate
at the poles while the underlying geometry does not.  The symplectic structure
is the rescaled area 2-form

    omega = (k / 2) * sin(theta) dtheta ^ dphi,      k = n / (2 pi),

whose total integral over the sphere is the integer level ``n``.  Each chart
carries a primitive of omega (a "potential"): the north frame uses
``alpha_N = (k/2) (1 - cos theta) dphi``, regular everywhere except the south
pole, and the south frame uses ``alpha_S = -(k/2) (1 + cos theta) dphi``.
Their difference is ``k dphi``, so the frame transition function is
``exp(-i n phi)``, single valued exactly because ``k = n / (2 pi)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

TWO_PI = 2.0 * math.pi

# Colatitude thresholds of the hysteresis band used when switching chart
# frames along a trajectory: leave the north frame above the second angle,
# return to it below the first.  Both poles sit deep inside one frame's
# regular zone, so trajectories may cross the poles freely.
DEFAULT_SWITCH_THETA = (math.pi / 3.0, 2.0 * math.pi / 3.0)

_POLE_SIN_TOL = 1e-14


class ChartDomainError(ValueError):
    """A chart potential was evaluated at (or too close to) its excluded pole."""


class Chart(Enum):
    """Tag for the two local frames of the line bundle."""

    NORTH = "north"
    SOUTH = "south"

    @property
    def excluded_pole(self) -> np.ndarray:
        z = -1.0 if self is Chart.NORTH else 1.0
        return np.array([0.0, 0.0, z])

    @property
    def sign(self) -> float:
        """+1 for the north frame, -1 for the south frame."""
        return 1.0 if self is Chart.NORTH else -1.0

    def other(self) -> "Chart":
        return Chart.SOUTH if self is Chart.NORTH else Chart.NORTH


@dataclass(frozen=True)
class OrbitSphere:
    """The sphere at integer level ``n`` with its quadrature resolution.

    ``quadrature_order`` is the number of Gauss-Legendre nodes in cos(theta);
    the azimuthal trapezoid rule uses twice as many nodes.
    """

    n: int
    quadrature_order: int = 64

    def __post_init__(self) -> None:
        if self.n == 0:
            raise ValueError("level n must be a nonzero integer")
        if self.quadrature_order < 1:
            raise ValueError("quadrature_order must be positive")

    @property
    def k(self) -> float:
        return self.n / TWO_PI

    @property
    def total_area(self) -> float:
        """Integral of the area form over the whole sphere; equals n."""
        return float(self.n)


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


def chart_tangents(p) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate tangent vectors (d/dtheta, d/dphi) at a point off the poles.

    d/dphi is the coordinate vector of length sin(theta), not normalized.
    """
    theta, phi = spherical_coords(p)
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    e_theta = np.array([ct * cp, ct * sp, -st])
    e_phi = np.array([-st * sp, st * cp, 0.0])
    return e_theta, e_phi


def area_form(M: OrbitSphere, p, v, w, tangency_tol: float = 1e-10) -> float:
    """Area form on a pair of tangent vectors: (k/2) * u . (v x w)."""
    u = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    for vec in (v, w):
        if abs(float(np.dot(u, vec))) > tangency_tol * max(1.0, float(np.linalg.norm(vec))):
            raise ValueError("area_form requires tangent vectors (u . v = 0)")
    return 0.5 * M.k * float(np.dot(u, np.cross(v, w)))


def potential_eval(M: OrbitSphere, frame, p, v):
    """Chart primitive of the area form, evaluated on a tangent vector.

    In Cartesian terms alpha_N(v) = (k/2) (u x v)_z / (1 + u_z), which makes
    the regularity at the north pole explicit; the south frame mirrors it:
    alpha_S(v) = -(k/2) (u x v)_z / (1 - u_z).  ``p`` and ``v`` are single
    vectors ``(3,)`` or batches ``(N, 3)``; ``frame`` is a Chart, or for a
    batch an array of chart signs (``Chart.sign``), one per row.
    """
    u = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    sign = frame.sign if isinstance(frame, Chart) else np.asarray(frame, dtype=float)
    ux, uy, uz = u.T
    vx, vy, _ = v.T
    denom = 1.0 + sign * uz
    if denom.min() <= 1e-13:
        north = np.any((denom <= 1e-13) & (sign > 0))
        raise ChartDomainError(
            "north-frame potential is singular at the south pole"
            if north
            else "south-frame potential is singular at the north pole"
        )
    return 0.5 * M.k * sign * (ux * vy - uy * vx) / denom


@lru_cache(maxsize=8)
def _grid(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-sphere quadrature nodes and solid-angle weights (k excluded)."""
    n_phi = 2 * order
    x, w_gl = leggauss(order)
    phis = TWO_PI * np.arange(n_phi) / n_phi
    st = np.sqrt(1.0 - x**2)
    px = np.outer(st, np.cos(phis))
    py = np.outer(st, np.sin(phis))
    pz = np.outer(x, np.ones(n_phi))
    pts = np.stack([px.ravel(), py.ravel(), pz.ravel()], axis=-1)
    wts = np.outer(w_gl, np.full(n_phi, TWO_PI / n_phi)).ravel()
    return pts, wts


def quadrature_grid(M: OrbitSphere) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature points and weights for the area form of ``M``."""
    pts, wts = _grid(M.quadrature_order)
    return pts, 0.5 * M.k * wts


def integrate_over_sphere(M: OrbitSphere, f) -> float:
    """Integral of f against the area form; f maps an (N, 3) batch to (N,)."""
    pts, wts = quadrature_grid(M)
    vals = np.asarray(f(pts), dtype=float)
    return float(wts @ vals)


def omega_area_triangle(M: OrbitSphere, a, b, c) -> float:
    """Signed integral of the area form over the spherical triangle (a, b, c).

    Uses the closed-form solid angle of the geodesic triangle; the sign
    follows the orientation of the vertex order.
    """
    a = unit_vector(a)
    b = unit_vector(b)
    c = unit_vector(c)
    numer = float(np.dot(a, np.cross(b, c)))
    denom = 1.0 + float(np.dot(a, b)) + float(np.dot(b, c)) + float(np.dot(a, c))
    return 0.5 * M.k * 2.0 * math.atan2(numer, denom)


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
