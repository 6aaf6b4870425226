import math

import numpy as np
import pytest

from preqholo import (
    DIR_A,
    DIR_B,
    AlgebraDirection,
    OrbitSphere,
    TimeDepHamiltonian,
    closed_form_flow,
    closed_mixing_family,
    dynamics,
    fibonacci_sphere,
    hamiltonian_vector_field,
    integrate_isotopy,
    invariant_hamiltonian,
    invariant_loop,
    linear_axis,
    mixing_family,
    mixing_loop,
    product_loop,
    scale_hamiltonian,
    sphere_point,
    subgroup_rotation_family,
    transport_phase,
    unit_vector,
    zero_hamiltonian,
)
from preqholo.config import Tolerances, build_family
from preqholo.sphere import random_tangent

from conftest import constant_hamiltonian, quadratic_hamiltonian
from oracles import chart_tangents, closure_defect, omega_area_triangle


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
        direction = AlgebraDirection(*unit_vector(rng.normal(size=2)))
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


def test_closure_probe_detects_open_isotopy(sphere1):
    from preqholo import HamiltonianLoop

    f = scale_hamiltonian(invariant_hamiltonian(sphere1, DIR_A), -0.5 * math.pi)
    open_loop = HamiltonianLoop(f, closure_tol=1e-6, label="half turn")
    assert closure_defect(sphere1, open_loop) > 0.1
    # one batched solve over the 20 probe points, as if each were alone
    per_point = max(
        np.linalg.norm(integrate_isotopy(sphere1, f, q).endpoint - unit_vector(q))
        for q in fibonacci_sphere(20)
    )
    assert closure_defect(sphere1, open_loop) == pytest.approx(per_point, abs=1e-9)


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


def _both_rhs(M, f, n_rows, sdot=None):
    """The linear and the general right-hand side of one chunk of rows (f, sdot)."""
    fs, fslot = dynamics._distinct(f, n_rows)
    sdots, sslot = dynamics._distinct(sdot, n_rows) if sdot is not None else ([], None)
    rows = (fs, fslot, sdots, sslot)
    return dynamics._linear_rhs(M, *rows), dynamics._general_rhs(M, *rows)


def _linear_rows(M, case):
    """(f, sdot, n_rows) of a chunk whose rows are all linear."""
    points = 18
    if case == "shared-1":
        return mixing_loop(M, 1.3).hamiltonian, None, 1
    if case == "shared-18":
        return mixing_loop(M, 1.3).hamiltonian, None, points
    if case == "one-row-sdot":
        # a single row always takes the one shared C
        return [mixing_loop(M, 0.4).hamiltonian], [invariant_hamiltonian(M, DIR_B)], 1
    if case == "per-row-18":
        return [mixing_loop(M, 0.1 * i).hamiltonian for i in range(points)], None, points
    if case == "family-sdot":
        fam = closed_mixing_family(M, 0.9)
        svals = np.repeat(np.linspace(0.0, 1.0, 9), 2)
        return [fam.loop_at(s).hamiltonian for s in svals], [fam.s_deriv(s) for s in svals], points
    if case == "shared-sdot":
        fam = mixing_family(M, 1.1)
        return fam.loop_at(0.3).hamiltonian, fam.s_deriv(0.3), 4
    assert case == "breakpoint"
    return product_loop(mixing_loop(M, 0.8), invariant_loop(M, DIR_A)).hamiltonian, None, 5


@pytest.mark.parametrize(
    "case", ["shared-1", "shared-18", "one-row-sdot", "per-row-18", "family-sdot", "shared-sdot", "breakpoint"]
)
def test_linear_rhs_matches_general_rhs(case):
    # (i/k)(w . sigma - f) chi against the Bloch-vector form of the same
    # equation, at unnormalized states: the spinor block within 1e-15 of its
    # largest entry, and each integrand within 1e-15 of its axis's length,
    # the largest value it takes on the sphere
    rng = np.random.default_rng(3)
    M = OrbitSphere(3)
    f, sdot, n = _linear_rows(M, case)
    lin, gen = _both_rhs(M, f, n, sdot)
    assert lin is not None

    def scale(h, t):
        hs = [h] * n if isinstance(h, TimeDepHamiltonian) else h
        return max(np.linalg.norm(linear_axis(g)(t)) for g in hs) if h is not None else 0.0

    times = [0.5 - 1e-9, 0.5 + 1e-9] if case == "breakpoint" else []
    for t in [*rng.uniform(size=6), *times]:
        y = (rng.normal(size=3 * n) + 1j * rng.normal(size=3 * n)) * rng.uniform(0.1, 10.0)
        a, b = np.empty_like(y), np.empty_like(y)
        lin(t, y, a)
        gen(t, y, b)
        a, b = a.reshape(n, 3), b.reshape(n, 3)
        assert np.max(np.abs(a[:, :2] - b[:, :2])) <= 1e-15 * np.max(np.abs(b[:, :2]))
        assert np.max(np.abs(a[:, 2].real - b[:, 2].real)) <= 1e-15 * scale(f, t)
        assert np.max(np.abs(a[:, 2].imag - b[:, 2].imag)) <= 1e-15 * scale(sdot, t)


def test_a_non_linear_row_or_sdot_takes_the_general_rhs():
    M = OrbitSphere(1)
    mix, quad = mixing_loop(M, 0.7).hamiltonian, quadratic_hamiltonian(1.5)
    zero = zero_hamiltonian()
    assert _both_rhs(M, [mix, quad, mix], 3)[0] is None
    assert _both_rhs(M, [mix, mix], 2, sdot=[zero, constant_hamiltonian(0.2)])[0] is None
    assert _both_rhs(M, mix, 2, sdot=zero)[0] is not None


@pytest.mark.parametrize(
    "spec",
    [
        {"name": "constant"},
        {"name": "constant", "hamiltonian": {"name": "mix", "amplitude": 1.1}},
        {"name": "subgroup-rotation", "start_angle": 0.4, "turns": 2},
        {"name": "mixing", "amplitude": 1.3, "profile": "constant"},
        {"name": "closed-mixing", "amplitude": 0.9},
    ],
)
def test_family_axis_fields_match_their_members(spec):
    # axis(s, t) and s_axis(s, t), read at an array of s, give the axes of
    # loop_at(s) and s_deriv(s) row by row
    M = OrbitSphere(2)
    fam = build_family(M, spec, Tolerances())
    svals = np.linspace(0.0, 1.0, 7)
    for t in np.linspace(0.0, 1.0, 5):
        w, ws = fam.axis(svals, t), fam.s_axis(svals, t)
        assert w.shape == ws.shape == (len(svals), 3)
        for s, w_s, ws_s in zip(svals, w, ws):
            assert np.array_equal(w_s, linear_axis(fam.loop_at(s).hamiltonian)(t))
            assert np.array_equal(ws_s, linear_axis(fam.s_deriv(s))(t))


def test_family_axes_match_the_su2_loops(sphere2):
    # the vectorized fields against the closed-form loops they stand for
    svals = np.linspace(0.0, 1.0, 6)
    fam = closed_mixing_family(sphere2, 0.9, profile="cosine-ramp")
    sub = subgroup_rotation_family(sphere2, start_angle=0.4, turns=2.0)
    for t in (0.0, 0.3, 0.8):
        for s, w_mix, w_sub in zip(svals, fam.axis(svals, t), sub.axis(svals, t)):
            mix = mixing_loop(sphere2, 0.9 * math.sin(math.pi * s) ** 2).hamiltonian
            lam = 0.4 + 4.0 * math.pi * s
            inv = invariant_loop(sphere2, AlgebraDirection(math.cos(lam), math.sin(lam))).hamiltonian
            assert np.allclose(w_mix, linear_axis(mix)(t), rtol=0, atol=1e-14)
            assert np.allclose(w_sub, linear_axis(inv)(t), rtol=0, atol=1e-14)
