"""Closed-form oracles that only the tests use: chart tangents, the area form
and its quadrature, the area of a geodesic triangle, the invariant fields, the
exact mixing flow, and the closure probes of loops and families."""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from preqholo.dynamics import HamiltonianLoop, _state_points, _transport
from preqholo.families import LoopFamily
from preqholo.sphere import TWO_PI, OrbitSphere, fibonacci_sphere, spherical_coords, unit_vector
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


def area_form(M: OrbitSphere, p, v, w, tangency_tol: float = 1e-10) -> float:
    """Area form on a pair of tangent vectors: (k/2) * u . (v x w)."""
    u = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    for vec in (v, w):
        if abs(float(np.dot(u, vec))) > tangency_tol * max(1.0, float(np.linalg.norm(vec))):
            raise ValueError("area_form requires tangent vectors (u . v = 0)")
    return 0.5 * M.k * float(np.dot(u, np.cross(v, w)))


def integrate_over_sphere(M: OrbitSphere, f) -> float:
    """Integral of f against the area form; f maps an (N, 3) batch to (N,).

    64 Gauss-Legendre nodes in cos(theta) times a 128-node trapezoid rule in phi.
    """
    x, w_gl = leggauss(64)
    phis = TWO_PI * np.arange(128) / 128
    st = np.sqrt(1.0 - x**2)
    pts = np.stack(
        [np.outer(st, np.cos(phis)), np.outer(st, np.sin(phis)), np.outer(x, np.ones(128))], axis=-1
    ).reshape(-1, 3)
    wts = np.outer(w_gl, np.full(128, TWO_PI / 128)).ravel()
    return float(0.5 * M.k * wts @ np.asarray(f(pts), dtype=float))


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


def closure_defect(M: OrbitSphere, loop: HamiltonianLoop) -> float:
    """Largest distance of psi_1(q) from q over 20 probe points, in one batched solve."""
    u0 = fibonacci_sphere(20)
    y = _transport(M, loop.hamiltonian, u0, 1e-10)[-1]
    return float(np.max(np.linalg.norm(_state_points(y) - u0, axis=1)))


def closure_defect_in_s(fam: LoopFamily) -> float:
    """Largest |f^0_t - f^1_t| over a probe grid; zero for closed families."""
    probe_points = fibonacci_sphere(12)
    f0 = fam.loop_at(0.0).hamiltonian
    f1 = fam.loop_at(1.0).hamiltonian
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 7):
        d = np.abs(np.asarray(f0.eval(t, probe_points)) - np.asarray(f1.eval(t, probe_points)))
        worst = max(worst, float(np.max(d)))
    return worst
