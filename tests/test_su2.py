import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from preqholo import (
    DIR_A,
    DIR_B,
    AlgebraDirection,
    OrbitSphere,
    SU2Element,
    act,
    area_form,
    closed_form_flow,
    exp_su2,
    hamiltonian_vector_field,
    invariant_hamiltonian,
    invariant_loop,
    kappa,
    integrate_isotopy,
    mixing_loop,
    scale_hamiltonian,
    sphere_point,
    unit_vector,
)

from oracles import chart_tangents, invariant_field, mixing_flow

su2_elements = st.builds(
    lambda lam, t: exp_su2(AlgebraDirection(math.cos(lam), math.sin(lam), 0.0), t),
    st.floats(0, 2 * math.pi),
    st.floats(-4.0, 4.0),
)


def test_exp_identity():
    g = exp_su2(DIR_A, 0.0)
    assert g.x == 1.0 and g.y == 0.0
    assert exp_su2(AlgebraDirection(0, 0, 0), 1.0).x == 1.0


def test_exp_a_quarter_turn():
    g = exp_su2(DIR_A, math.pi / 2)
    assert abs(g.x) < 1e-15
    assert g.y == pytest.approx(1j, abs=1e-15)


def test_exp_a_half_turn_is_minus_identity_on_group():
    g = exp_su2(DIR_A, math.pi)
    assert g.x == pytest.approx(-1.0, abs=1e-15)
    assert abs(g.y) < 1e-15
    p = sphere_point(1.1, 0.4)
    assert np.allclose(act(g, p), p, atol=1e-12)


@given(su2_elements)
def test_exp_unitary(g):
    m = g.matrix
    assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)
    assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


@given(su2_elements, su2_elements)
def test_action_is_homomorphism(g, h):
    p = sphere_point(0.9, 2.4)
    lhs = act(g @ h, p)
    rhs = act(g, act(h, p))
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_identity_action():
    p = sphere_point(2.2, 5.1)
    assert np.allclose(act(SU2Element.identity(), p), p, atol=1e-15)


@pytest.mark.parametrize("t", [0.2, 0.7, 1.2, math.pi / 2])
def test_north_pole_descends_meridian(t):
    # under exp(t(aA+bB)) the north pole moves to (theta, phi) = (2t, alpha)
    # with alpha the phase of b + i a
    for a, b in [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)]:
        alpha = math.atan2(a, b)
        got = act(exp_su2(AlgebraDirection(a, b), t), sphere_point(0.0, 0.0))
        want = np.array(
            [math.sin(2 * t) * math.cos(alpha), math.sin(2 * t) * math.sin(alpha), math.cos(2 * t)]
        )
        assert np.allclose(got, want, atol=1e-12)


def test_north_pole_return_branch():
    # for t in [pi/2, pi] the point runs the opposite meridian back up
    a, b = 0.6, 0.8
    alpha = math.atan2(a, b)
    t = 2.2
    got = act(exp_su2(AlgebraDirection(a, b), t), sphere_point(0.0, 0.0))
    theta = 2 * math.pi - 2 * t
    want = sphere_point(theta, math.pi + alpha)
    assert np.allclose(got, want, atol=1e-12)


def test_moment_values(sphere1):
    M = sphere1
    h_a = invariant_hamiltonian(M, DIR_A)
    assert float(h_a.eval(0.0, sphere_point(math.pi / 2, 0.0))) == pytest.approx(-M.k, rel=1e-14)
    assert abs(float(h_a.eval(0.0, sphere_point(0.0, 0.0)))) < 1e-15


@given(st.floats(0.05, math.pi - 0.05), st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
def test_moment_general_formula(theta, phi, lam):
    # h for axis (a,b) equals k sin(theta) sin(phi - alpha), alpha = arg(b + i a)
    M = OrbitSphere(2)
    a, b = math.cos(lam), math.sin(lam)
    h = invariant_hamiltonian(M, AlgebraDirection(a, b))
    alpha = math.atan2(a, b)
    want = M.k * math.sin(theta) * math.sin(phi - alpha)
    assert float(h.eval(0.0, sphere_point(theta, phi))) == pytest.approx(want, abs=1e-12)


def test_invariant_field_values(sphere1):
    p = sphere_point(math.pi / 2, 0.0)
    e_th, _ = chart_tangents(p)
    assert np.allclose(invariant_field(sphere1, DIR_B, p), 2.0 * e_th, atol=1e-14)
    assert np.allclose(invariant_field(sphere1, DIR_A, p), 0.0, atol=1e-14)


def test_invariant_field_north_pole_limit(sphere1):
    # oracle: finite difference of the group action at the pole
    p = sphere_point(0.0, 0.0)
    X = invariant_field(sphere1, DIR_A, p)
    eps = 1e-6
    fd = (act(exp_su2(DIR_A, eps), p) - p) / eps
    assert np.allclose(X, fd, atol=1e-5)
    assert np.linalg.norm(X) == pytest.approx(2.0, rel=1e-12)
    assert math.atan2(X[1], X[0]) == pytest.approx(math.pi / 2, abs=1e-12)


def test_invariant_field_is_derivative_of_flow(sphere2, rng):
    for _ in range(25):
        lam = rng.uniform(0, 2 * math.pi)
        direction = AlgebraDirection(math.cos(lam), math.sin(lam))
        p = unit_vector(rng.normal(size=3))
        X = invariant_field(sphere2, direction, p)
        eps = 1e-7
        fd = (closed_form_flow(direction, eps, p) - closed_form_flow(direction, -eps, p)) / (2 * eps)
        assert np.allclose(X, fd, atol=1e-9)


def test_invariant_field_matches_hamiltonian_field(sphere2, rng):
    # the sign convention cross-check: X_dir is the field of -h_dir
    M = sphere2
    for _ in range(20):
        lam = rng.uniform(0, 2 * math.pi)
        direction = AlgebraDirection(math.cos(lam), math.sin(lam))
        p = unit_vector(rng.normal(size=3))
        if 1 - abs(p[2]) < 1e-3:
            continue
        f = scale_hamiltonian(invariant_hamiltonian(M, direction), -1.0)
        assert np.allclose(
            invariant_field(M, direction, p),
            hamiltonian_vector_field(M, f, 0.0, p),
            atol=1e-8,
        )


@given(st.floats(0.05, math.pi - 0.05), st.floats(0, 2 * math.pi))
def test_omega_pairing_of_invariant_fields(theta, phi):
    # omega(X_A, X_B) = -2 k cos(theta)
    M = OrbitSphere(3)
    p = sphere_point(theta, phi)
    val = area_form(M, p, invariant_field(M, DIR_A, p), invariant_field(M, DIR_B, p))
    assert val == pytest.approx(-2 * M.k * math.cos(theta), abs=1e-9)


def test_closed_form_flow_basics(sphere1, rng):
    p = unit_vector(rng.normal(size=3))
    assert np.allclose(closed_form_flow(DIR_A, 0.0, p), p, atol=1e-15)
    assert np.allclose(closed_form_flow(DIR_A, math.pi, p), p, atol=1e-12)


def test_flow_oracle_bulk(sphere1, rng):
    # integrator against the closed form: 100 random cases, 50 times each
    worst = 0.0
    times = np.linspace(0.0, 1.0, 50)
    for _ in range(100):
        lam = rng.uniform(0, 2 * math.pi)
        direction = AlgebraDirection(math.cos(lam), math.sin(lam))
        q = unit_vector(rng.normal(size=3))
        loop = invariant_loop(sphere1, direction)
        traj = integrate_isotopy(sphere1, loop.hamiltonian, q)
        for t in times:
            worst = max(
                worst,
                float(np.linalg.norm(traj.at(t) - closed_form_flow(direction, math.pi * t, q))),
            )
    assert worst < 1e-7


def test_invariant_loop_requires_unit_direction(sphere1):
    with pytest.raises(ValueError):
        invariant_loop(sphere1, AlgebraDirection(0.5, 0.5))


def test_invariant_loop_holonomy_parity():
    q = sphere_point(0.8, 0.8)
    assert kappa(OrbitSphere(1), invariant_loop(OrbitSphere(1), DIR_A), q).distance_to(0.5) < 1e-8
    M2 = OrbitSphere(2)
    assert kappa(M2, invariant_loop(M2, AlgebraDirection(0.6, 0.8)), q).distance_to(0.0) < 1e-8


def test_invariant_loop_axis_independent():
    M = OrbitSphere(1)
    q = sphere_point(1.3, 2.0)
    va = kappa(M, invariant_loop(M, DIR_A), q)
    vb = kappa(M, invariant_loop(M, DIR_B), q)
    assert va.distance_to(vb) < 1e-8


def test_mixing_flow_is_oracle_for_mixing_loop(sphere1, rng):
    for amp, profile in [(0.8, "cosine-ramp"), (math.pi, "constant")]:
        loop = mixing_loop(sphere1, amp, profile=profile)
        flow = mixing_flow(amp, profile=profile)
        q = unit_vector(rng.normal(size=3))
        traj = integrate_isotopy(sphere1, loop.hamiltonian, q)
        for t in np.linspace(0.0, 1.0, 21):
            assert np.linalg.norm(traj.at(t) - flow(t, q)) < 1e-7


def test_mixing_loop_closure(sphere1):
    assert mixing_loop(sphere1, 1.3).closure_defect(sphere1) < 1e-8
    assert mixing_loop(sphere1, math.pi, profile="constant").closure_defect(sphere1) < 1e-8
    # a constant drift that is not a multiple of pi does not close
    assert mixing_loop(sphere1, 1.0, profile="constant").closure_defect(sphere1) > 0.1


def test_bad_profile_rejected(sphere1):
    with pytest.raises(ValueError):
        mixing_loop(sphere1, 1.0, profile="sawtooth")
