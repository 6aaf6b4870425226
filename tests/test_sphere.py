import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from preqholo import (
    Chart,
    ChartDomainError,
    OrbitSphere,
    area_form,
    fibonacci_sphere,
    integrate_over_sphere,
    potential_eval,
    sphere_point,
    spherical_coords,
    unit_vector,
)
from preqholo.sphere import random_tangent

from conftest import geodesic, line_integral_potential
from oracles import chart_tangents, omega_area_triangle

TWO_PI = 2.0 * math.pi

angles = st.tuples(st.floats(0.05, math.pi - 0.05), st.floats(0.0, TWO_PI - 1e-9))


def test_orbit_sphere_validation():
    with pytest.raises(ValueError):
        OrbitSphere(0)
    with pytest.raises(ValueError):
        OrbitSphere(2, quadrature_order=0)
    assert OrbitSphere(3).k == pytest.approx(3 / TWO_PI)
    assert OrbitSphere(-2).total_area == -2.0


def test_spherical_coords_reference_points():
    assert spherical_coords([0, 0, 1]) == (0.0, 0.0)
    theta, phi = spherical_coords([1, 0, 0])
    assert theta == pytest.approx(math.pi / 2)
    assert phi == pytest.approx(0.0)
    theta, phi = spherical_coords([0, -1, 0])
    assert theta == pytest.approx(math.pi / 2)
    assert phi == pytest.approx(3 * math.pi / 2)


def test_south_pole_phi_convention():
    theta, phi = spherical_coords([0.0, 0.0, -1.0])
    assert theta == pytest.approx(math.pi)
    assert phi == 0.0


@given(angles)
def test_coords_roundtrip(ang):
    theta, phi = ang
    u = sphere_point(theta, phi)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
    th2, ph2 = spherical_coords(u)
    assert th2 == pytest.approx(theta, abs=1e-12)
    assert ph2 % TWO_PI == pytest.approx(phi % TWO_PI, abs=1e-9)


def test_omega_on_coordinate_frame_n1(sphere1):
    p = sphere_point(math.pi / 2, 0.0)
    e_th, e_ph = chart_tangents(p)
    val = area_form(sphere1, p, e_th, e_ph)
    assert val == pytest.approx(sphere1.k / 2, rel=1e-12)
    assert val == pytest.approx(1.0 / (4 * math.pi), rel=1e-12)


def test_omega_chart_formula_n2(sphere2):
    # oracle: (k/2) sin(theta) evaluated from the chart expression
    theta = math.pi / 3
    p = sphere_point(theta, 0.0)
    e_th, e_ph = chart_tangents(p)
    assert area_form(sphere2, p, e_th, e_ph) == pytest.approx(
        0.5 * sphere2.k * math.sin(theta), rel=1e-12
    )


def test_omega_rejects_non_tangent(sphere1):
    p = sphere_point(1.0, 1.0)
    with pytest.raises(ValueError):
        area_form(sphere1, p, p, np.array([0.0, 0.0, 1.0]))


def test_omega_antisymmetry_bilinearity(sphere2, rng):
    M = sphere2
    worst = 0.0
    for _ in range(1000):
        p = unit_vector(rng.normal(size=3))
        v = random_tangent(rng, p)
        w = random_tangent(rng, p)
        a, b = rng.normal(size=2)
        worst = max(worst, abs(area_form(M, p, v, w) + area_form(M, p, w, v)))
        worst = max(worst, abs(area_form(M, p, v, v)))
        lin = area_form(M, p, a * v + b * w, w) - (
            a * area_form(M, p, v, w) + b * area_form(M, p, w, w)
        )
        worst = max(worst, abs(lin))
    assert worst < 1e-12


def test_total_area_levels():
    for n in (1, 2, 3, 5):
        M = OrbitSphere(n)
        area = integrate_over_sphere(M, lambda pts: np.ones(len(pts)))
        assert area == pytest.approx(n, abs=1e-10)


def test_invariant_hamiltonians_have_zero_mean(sphere2):
    # h_A by the stated symmetry, h_B by the same argument via quadrature
    from preqholo import DIR_A, DIR_B, invariant_hamiltonian

    for direction in (DIR_A, DIR_B):
        h = invariant_hamiltonian(sphere2, direction)
        val = integrate_over_sphere(sphere2, lambda pts: h.eval(0.0, pts))
        assert abs(val) < 1e-12


def test_potential_vanishes_at_regular_pole(sphere1):
    v = np.array([0.0, 1.0, 0.0])
    for theta in (1e-3, 1e-5, 1e-7):
        p = sphere_point(theta, 0.0)
        val = potential_eval(sphere1, Chart.NORTH, p, v)
        assert abs(val) <= sphere1.k * theta


def test_potential_errors_at_excluded_pole(sphere1):
    v = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ChartDomainError):
        potential_eval(sphere1, Chart.NORTH, np.array([0.0, 0.0, -1.0]), v)
    with pytest.raises(ChartDomainError):
        potential_eval(sphere1, Chart.SOUTH, np.array([0.0, 0.0, 1.0]), v)


@pytest.mark.parametrize("n", [1, 3])
def test_equator_circuit_gives_half_level(n):
    # the north-frame potential around the equator equals the area of the
    # bounded hemisphere, k * pi = n / 2
    M = OrbitSphere(n)

    def point(tau):
        return sphere_point(math.pi / 2, TWO_PI * tau)

    def velocity(tau):
        return TWO_PI * chart_tangents(point(tau))[1]

    val = line_integral_potential(M, Chart.NORTH, point, velocity, nodes=96)
    assert val == pytest.approx(n / 2, rel=1e-12)


@pytest.mark.parametrize("theta", [0.4, 1.2, 2.0, 2.8])
def test_frame_difference_is_full_level_per_circuit(theta):
    # oracle: alpha_N - alpha_S = k dphi integrates to n over a phi circuit
    M = OrbitSphere(3)

    def point(tau):
        return sphere_point(theta, TWO_PI * tau)

    def velocity(tau):
        return TWO_PI * chart_tangents(point(tau))[1]

    val_n = line_integral_potential(M, Chart.NORTH, point, velocity, nodes=96)
    val_s = line_integral_potential(M, Chart.SOUTH, point, velocity, nodes=96)
    assert val_n - val_s == pytest.approx(M.n, rel=1e-12)


def test_chart_transition_pointwise(sphere2, rng):
    # (alpha_N - alpha_S)(v) = k dphi(v) away from the poles
    M = sphere2
    for _ in range(200):
        p = unit_vector(rng.normal(size=3))
        if 1.0 - abs(p[2]) < 1e-3:
            continue
        v = random_tangent(rng, p)
        diff = potential_eval(M, Chart.NORTH, p, v) - potential_eval(M, Chart.SOUTH, p, v)
        dphi = (p[0] * v[1] - p[1] * v[0]) / (p[0] ** 2 + p[1] ** 2)
        assert diff == pytest.approx(M.k * dphi, abs=1e-12 * max(1, abs(M.k * dphi)))


def test_stokes_on_small_triangles(sphere1, rng):
    # line integral of the potential over the boundary against the enclosed
    # area, for 50 random small geodesic triangles
    M = sphere1
    count = 0
    while count < 50:
        c = unit_vector(rng.normal(size=3))
        if c[2] < -0.3:
            continue  # keep well away from the excluded pole of the north frame
        e1 = random_tangent(rng, c)
        e2 = np.cross(c, e1)
        r = 0.08
        verts = []
        for ang in (0.0, 2.2, 4.1):
            v = c + r * (math.cos(ang) * e1 + math.sin(ang) * e2)
            verts.append(unit_vector(v))
        a, b, cc = verts
        line = 0.0
        for p0, p1 in ((a, b), (b, cc), (cc, a)):
            pf, vf = geodesic(p0, p1)
            line += line_integral_potential(M, Chart.NORTH, pf, vf, nodes=24)
        area = omega_area_triangle(M, a, b, cc)
        assert line == pytest.approx(area, abs=1e-6)
        count += 1


def test_fibonacci_sphere_deterministic():
    a = fibonacci_sphere(32, rng=np.random.default_rng(5))
    b = fibonacci_sphere(32, rng=np.random.default_rng(5))
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
