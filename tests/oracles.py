"""Closed-form oracles that only the tests use: chart tangents, the area of a
geodesic triangle, the invariant fields and the exact mixing flow."""

from __future__ import annotations

import math

import numpy as np

from preqholo.sphere import OrbitSphere, spherical_coords, unit_vector
from preqholo.su2 import DIR_A, DIR_Z, AlgebraDirection, act, exp_su2, profile_functions


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


def invariant_field(M: OrbitSphere, direction: AlgebraDirection, p) -> np.ndarray:
    """The invariant vector field X_dir at p; smooth at the poles."""
    u = np.asarray(p, dtype=float)
    return 2.0 * np.cross(direction.axis(), u)


def mixing_flow(amplitude: float, profile: str = "cosine-ramp"):
    """Exact flow map (t, p) -> point for the mixing loop."""
    g_fn, _ = profile_functions(profile)
    amp = float(amplitude)

    def flow(t, p):
        g = exp_su2(DIR_Z, amp * g_fn(t)) @ exp_su2(DIR_A, math.pi * t)
        return act(g, p)

    return flow
