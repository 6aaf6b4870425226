import math

import numpy as np
import pytest

from preqholo import (
    DIR_A,
    DIR_B,
    AlgebraDirection,
    closed_form_flow,
    constant_hamiltonian,
    fibonacci_sphere,
    hamiltonian_vector_field,
    integrate_isotopy,
    integrate_over_sphere,
    invariant_hamiltonian,
    invariant_loop,
    mixing_loop,
    normalize,
    product_loop,
    scale_hamiltonian,
    sphere_point,
    transport_phase,
    unit_vector,
    zero_hamiltonian,
)
from preqholo.sphere import random_tangent

from conftest import quadratic_hamiltonian
from oracles import chart_tangents, omega_area_triangle


def minus_h(M, direction):
    return scale_hamiltonian(invariant_hamiltonian(M, direction), -1.0)


def test_field_of_minus_h_a_matches_chart_formula(sphere1):
    # at (pi/2, pi/2) the chart expression collapses to 2 d/dtheta
    p = sphere_point(math.pi / 2, math.pi / 2)
    X = hamiltonian_vector_field(sphere1, minus_h(sphere1, DIR_A), 0.0, p)
    e_th, _ = chart_tangents(p)
    assert np.allclose(X, 2.0 * e_th, atol=1e-12)


def test_field_of_constant_vanishes(sphere1):
    p = sphere_point(1.0, 2.0)
    X = hamiltonian_vector_field(sphere1, constant_hamiltonian(3.7), 0.0, p)
    assert np.allclose(X, 0.0)


def test_field_of_minus_h_b_matches_chart_formula(sphere1):
    p = sphere_point(math.pi / 2, 0.0)
    X = hamiltonian_vector_field(sphere1, minus_h(sphere1, DIR_B), 0.0, p)
    e_th, _ = chart_tangents(p)
    assert np.allclose(X, 2.0 * e_th, atol=1e-12)


def test_defining_identity_bulk(sphere2, rng):
    # omega(X_f, v) + df(v) = 0 at random times, points, tangents
    M = sphere2
    hams = [minus_h(M, AlgebraDirection(0.6, 0.8)), quadratic_hamiltonian(1.3)]
    worst = 0.0
    for _ in range(5000):
        f = hams[rng.integers(len(hams))]
        p = unit_vector(rng.normal(size=3))
        v = random_tangent(rng, p)
        t = float(rng.uniform())
        X = hamiltonian_vector_field(M, f, t, p)
        lhs = 0.5 * M.k * float(np.dot(p, np.cross(X, v)))
        rhs = float(np.asarray(f.grad(t, p)) @ v)
        worst = max(worst, abs(lhs + rhs))
    assert worst < 1e-8


def test_gradients_are_tangent(sphere2, rng):
    M = sphere2
    hams = [invariant_hamiltonian(M, AlgebraDirection(0.6, 0.8)), quadratic_hamiltonian(1.1)]
    for f in hams:
        for _ in range(200):
            p = unit_vector(rng.normal(size=3))
            g = np.asarray(f.grad(float(rng.uniform()), p))
            assert abs(float(g @ p)) < 1e-10


def test_gradients_match_finite_differences(sphere2, rng):
    M = sphere2
    hams = [invariant_hamiltonian(M, AlgebraDirection(0.28, -0.96)), quadratic_hamiltonian(0.9)]
    h = 1e-6
    for f in hams:
        for _ in range(50):
            p = unit_vector(rng.normal(size=3))
            v = random_tangent(rng, p)
            t = float(rng.uniform())
            fd = (
                float(f.eval(t, unit_vector(p + h * v)))
                - float(f.eval(t, unit_vector(p - h * v)))
            ) / (2 * h)
            an = float(np.asarray(f.grad(t, p)) @ v)
            assert fd == pytest.approx(an, rel=1e-6, abs=1e-9)


def test_zero_hamiltonian_constant_trajectory(sphere1):
    q = sphere_point(0.9, 4.0)
    traj = integrate_isotopy(sphere1, zero_hamiltonian(), q)
    for t in (0.0, 0.3, 1.0):
        assert np.allclose(traj.at(t), q, atol=1e-12)


def test_rel_tol_validation(sphere1):
    q = sphere_point(1.0, 1.0)
    with pytest.raises(ValueError):
        integrate_isotopy(sphere1, zero_hamiltonian(), q, rel_tol=1e-2)
    with pytest.raises(ValueError):
        integrate_isotopy(sphere1, zero_hamiltonian(), q, rel_tol=1e-14)


def test_north_pole_meridian_loop(sphere1):
    # the unit-period loop from -h_A sends the north pole down one meridian
    # and back up the opposite one
    loop = invariant_loop(sphere1, DIR_A)
    q = sphere_point(0.0, 0.0)
    traj = integrate_isotopy(sphere1, loop.hamiltonian, q)
    quarter = traj.at(0.25)
    theta, phi = math.acos(quarter[2]), math.atan2(quarter[1], quarter[0])
    assert theta == pytest.approx(math.pi / 2, abs=1e-8)
    assert phi == pytest.approx(math.pi / 2, abs=1e-8)
    assert np.linalg.norm(traj.endpoint - q) < 1e-8


def test_integrator_against_group_flow(sphere1, rng):
    for _ in range(10):
        a, b = rng.normal(size=2)
        direction = AlgebraDirection(a, b).unit()
        q = unit_vector(rng.normal(size=3))
        loop = invariant_loop(sphere1, direction)
        traj = integrate_isotopy(sphere1, loop.hamiltonian, q)
        for t in np.linspace(0.0, 1.0, 100):
            exact = closed_form_flow(direction, math.pi * t, q)
            assert np.linalg.norm(traj.at(t) - exact) < 1e-7


def test_trajectory_samples_unit_norm_and_increasing(sphere1, rng):
    q = unit_vector(rng.normal(size=3))
    traj = integrate_isotopy(sphere1, invariant_loop(sphere1, DIR_B).hamiltonian, q)
    assert np.all(np.diff(traj.ts) > 0)
    assert traj.ts[0] == 0.0 and traj.ts[-1] == 1.0
    assert np.max(np.abs(np.linalg.norm(traj.points, axis=1) - 1.0)) < 1e-12


def test_energy_conservation(sphere1, rng):
    for f in (invariant_loop(sphere1, DIR_A).hamiltonian, quadratic_hamiltonian(2.0)):
        q = unit_vector(rng.normal(size=3))
        traj = integrate_isotopy(sphere1, f, q)
        f0 = float(f.eval(0.0, q))
        for t in np.linspace(0.0, 1.0, 40):
            assert abs(float(f.eval(0.0, traj.at(t))) - f0) < 1e-7


def test_flow_preserves_area_of_small_triangles(sphere1, rng):
    # time-1 map of a non-rotation flow, checked on vertex triangles; the
    # flow must stay mild so the vertex triangle tracks the curved image
    f = quadratic_hamiltonian(0.05)
    for _ in range(20):
        c = unit_vector(rng.normal(size=3))
        e1 = random_tangent(rng, c)
        e2 = np.cross(c, e1)
        verts = [unit_vector(c + 0.03 * (math.cos(a) * e1 + math.sin(a) * e2)) for a in (0, 2.1, 4.4)]
        images = [integrate_isotopy(sphere1, f, v).endpoint for v in verts]
        a0 = omega_area_triangle(sphere1, *verts)
        a1 = omega_area_triangle(sphere1, *images)
        assert a1 == pytest.approx(a0, abs=1e-5)


def shifted_by(f, c):
    from preqholo import TimeDepHamiltonian

    return TimeDepHamiltonian(
        eval=lambda t, u: f.eval(t, u) + c,
        grad=f.grad,
        label=f"{f.label}+{c}",
        time_independent=f.time_independent,
    )


def test_normalize_examples(sphere2):
    M = sphere2
    h_a = invariant_hamiltonian(M, DIR_A)
    pts = fibonacci_sphere(10)

    unchanged = normalize(M, h_a)
    assert np.allclose(unchanged.eval(0.0, pts), h_a.eval(0.0, pts), atol=1e-13)

    flat = normalize(M, constant_hamiltonian(4.2))
    assert np.allclose(flat.eval(0.0, pts), 0.0, atol=1e-12)

    assert np.allclose(
        normalize(M, shifted_by(h_a, 5.0)).eval(0.0, pts), h_a.eval(0.0, pts), atol=1e-12
    )


def test_normalize_time_dependent_and_idempotent(sphere1):
    M = sphere1
    h_a = invariant_hamiltonian(M, DIR_A)

    from preqholo import TimeDepHamiltonian

    wobble = TimeDepHamiltonian(
        eval=lambda t, u: h_a.eval(t, u) + math.sin(2 * math.pi * t) + 0.3,
        grad=h_a.grad,
        label="wobble",
    )
    g = normalize(M, wobble)
    for t in (0.0, 0.21, 0.77, 1.0):
        mean = integrate_over_sphere(M, lambda pts, tt=t: np.asarray(g.eval(tt, pts))) / M.n
        assert abs(mean) < 1e-9
    gg = normalize(M, g)
    pts = fibonacci_sphere(7)
    for t in (0.1, 0.9):
        assert np.allclose(gg.eval(t, pts), g.eval(t, pts), atol=1e-12)


def test_closure_probe_detects_open_isotopy(sphere1):
    from preqholo import HamiltonianLoop

    f = scale_hamiltonian(invariant_hamiltonian(sphere1, DIR_A), -0.5 * math.pi)
    open_loop = HamiltonianLoop(f, closure_tol=1e-6, label="half turn")
    assert open_loop.closure_defect(sphere1) > 0.1
    # one batched solve over the 20 probe points, as if each were alone
    per_point = max(
        np.linalg.norm(integrate_isotopy(sphere1, f, q).endpoint - unit_vector(q))
        for q in fibonacci_sphere(20)
    )
    assert open_loop.closure_defect(sphere1) == pytest.approx(per_point, abs=1e-9)


def test_flow_is_the_transport_solve(sphere1):
    # integrate_isotopy is the one-point dense view of the transport's
    # solve, so both end at the same point, breakpoints included
    loops = [
        invariant_loop(sphere1, DIR_A),
        mixing_loop(sphere1, 0.8),
        mixing_loop(sphere1, 2.0 * math.pi, profile="constant"),
        product_loop(invariant_loop(sphere1, DIR_B), mixing_loop(sphere1, 0.8)),
    ]
    for loop in loops:
        for q in fibonacci_sphere(8):
            flow_end = integrate_isotopy(sphere1, loop.hamiltonian, q).endpoint
            assert np.linalg.norm(flow_end - transport_phase(sphere1, loop, q).point) < 1e-14
