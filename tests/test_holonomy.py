import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from conftest import quadratic_hamiltonian
from reference_transport import DEFAULT_SWITCH_THETA, reference_transport_phase

from preqholo import (
    DIR_A,
    DIR_B,
    DIR_Z,
    AlgebraDirection,
    HamiltonianLoop,
    LoopClosureError,
    OrbitSphere,
    UnitPhase,
    circle_distance,
    fibonacci_sphere,
    invariant_hamiltonian,
    invariant_loop,
    kappa,
    kappa_at_fixed_point,
    kappas,
    mixing_loop,
    product_loop,
    scale_hamiltonian,
    sphere_point,
    transport_phase,
    transport_phases,
    unit_vector,
    zero_hamiltonian,
)
from preqholo.config import Tolerances, build_loop
from preqholo.holonomy import phase_spread
from scipy.integrate import quad


def zero_loop():
    return HamiltonianLoop(zero_hamiltonian(), label="zero")


revs = st.floats(-10.0, 10.0, allow_nan=False)


@given(revs)
def test_unit_phase_range_and_complex(x):
    p = UnitPhase.from_revolutions(x)
    assert 0.0 <= p.value < 1.0
    assert abs(p.as_complex) == pytest.approx(1.0, abs=1e-12)


@given(revs, revs)
def test_unit_phase_group_law(x, y):
    a, b = UnitPhase.from_revolutions(x), UnitPhase.from_revolutions(y)
    assert circle_distance((a + b).value, x + y) < 1e-9
    assert circle_distance((a - b).value, x - y) < 1e-9


def test_unit_phase_rejects_out_of_range():
    with pytest.raises(ValueError):
        UnitPhase(1.5)


def test_trivial_loop_phase_zero(sphere1):
    st_ = transport_phase(sphere1, zero_loop(), sphere_point(1.0, 0.5))
    assert st_.phase == 0.0
    assert kappa(sphere1, zero_loop(), sphere_point(1.0, 0.5)).as_complex == pytest.approx(1.0)


def test_basic_loop_at_north_pole(sphere1):
    # the trajectory crosses both poles
    st_ = transport_phase(sphere1, invariant_loop(sphere1, DIR_A), sphere_point(0.0, 0.0))
    assert circle_distance(st_.phase, 0.5) < 1e-8


def test_basic_loop_at_equator_point_n2(sphere2):
    st_ = transport_phase(sphere2, invariant_loop(sphere2, DIR_A), sphere_point(math.pi / 2, math.pi / 2))
    assert circle_distance(st_.phase, 0.0) < 1e-8


def test_kappa_examples():
    q = sphere_point(0.4, 2.2)
    M1 = OrbitSphere(1)
    assert kappa(M1, invariant_loop(M1, DIR_B), q).distance_to(0.5) < 1e-8
    M4 = OrbitSphere(4)
    assert kappa(M4, invariant_loop(M4, AlgebraDirection(0.28, 0.96)), q).distance_to(0.0) < 1e-8
    doubled = product_loop(invariant_loop(M1, DIR_A), invariant_loop(M1, DIR_A))
    assert kappa(M1, doubled, q).distance_to(0.0) < 1e-8


def test_action_integral_values():
    q = sphere_point(1.0, 1.0)
    assert circle_distance(kappa(OrbitSphere(1), zero_loop(), q).value, 0.0) < 1e-12
    M1 = OrbitSphere(1)
    assert circle_distance(kappa(M1, invariant_loop(M1, DIR_A), q).value, 0.5) < 1e-8
    # oracle for n=3: the critical value of the generator, (-f(p)) mod 1 = 1/2
    M3 = OrbitSphere(3)
    assert circle_distance(kappa(M3, invariant_loop(M3, DIR_B), q).value, 0.5) < 1e-8


def test_fixed_point_shortcut(sphere1):
    M = sphere1
    loop = invariant_loop(M, DIR_A)
    f = loop.hamiltonian
    p = sphere_point(math.pi / 2, 0.0)  # f(p) = pi k = n/2 there
    val = kappa_at_fixed_point(M, f, p)
    assert val.distance_to((M.n % 2) / 2) < 1e-12
    # both critical values give the same holonomy; the values differ by n
    p2 = sphere_point(math.pi / 2, math.pi)
    val2 = kappa_at_fixed_point(M, f, p2)
    assert val.distance_to(val2) < 1e-12
    assert abs(abs(float(f.eval(0, p)) - float(f.eval(0, p2))) - abs(M.n)) < 1e-12


def test_fixed_point_zero_value(sphere1):
    f = zero_hamiltonian()
    assert kappa_at_fixed_point(sphere1, f, sphere_point(1.0, 1.0)).value == 0.0


def test_fixed_point_requires_critical(sphere1):
    f = invariant_loop(sphere1, DIR_A).hamiltonian
    with pytest.raises(ValueError):
        kappa_at_fixed_point(sphere1, f, sphere_point(0.3, 0.3))


def test_fixed_point_agrees_with_transport(sphere2):
    M = sphere2
    direction = AlgebraDirection(0.6, 0.8)
    loop = invariant_loop(M, direction)
    shortcut = kappa_at_fixed_point(M, loop.hamiltonian, direction.axis())
    integrated = kappa(M, loop, sphere_point(1.2, 0.1))
    assert shortcut.distance_to(integrated) < 1e-6


def test_spread_constant_loop(sphere1):
    assert phase_spread(kappas(sphere1, zero_loop(), fibonacci_sphere(50))) == 0.0


def test_spread_three_reference_points(sphere1):
    pts = [sphere_point(0, 0), sphere_point(math.pi / 2, 0), sphere_point(math.pi / 2, math.pi / 2)]
    loop = invariant_loop(sphere1, DIR_A)
    assert phase_spread(kappas(sphere1, loop, pts)) < 1e-6
    for q in pts:
        assert kappa(sphere1, loop, q).distance_to(0.5) < 1e-6


def test_spread_random_axis_n2(sphere2, rng):
    lam = rng.uniform(0, 2 * math.pi)
    loop = invariant_loop(sphere2, AlgebraDirection(math.cos(lam), math.sin(lam)))
    pts = fibonacci_sphere(100)
    assert phase_spread(kappas(sphere2, loop, pts)) < 1e-6
    assert kappa(sphere2, loop, pts[0]).distance_to(0.0) < 1e-6


def test_product_with_constant_loop(sphere1):
    q = sphere_point(0.9, 5.0)
    psi = invariant_loop(sphere1, DIR_A)
    prod = product_loop(zero_loop(), psi)
    assert kappa(sphere1, prod, q).distance_to(kappa(sphere1, psi, q)) < 1e-8


def test_product_two_axes(sphere1):
    q = sphere_point(1.4, 0.2)
    pa = invariant_loop(sphere1, DIR_A)
    pb = invariant_loop(sphere1, DIR_B)
    assert kappa(sphere1, product_loop(pb, pa), q).distance_to(0.0) < 1e-8


def test_multiplicativity_random_pairs(sphere2, rng):
    M = sphere2
    worst = 0.0
    for _ in range(20):
        la, lb = rng.uniform(0, 2 * math.pi, size=2)
        xi = invariant_loop(M, AlgebraDirection(math.cos(la), math.sin(la)))
        psi = mixing_loop(M, rng.uniform(0.2, 1.2))
        q = unit_vector(rng.normal(size=3))
        lhs = kappa(M, product_loop(xi, psi), q).value
        rhs = kappa(M, xi, q).value + kappa(M, psi, q).value
        worst = max(worst, circle_distance(lhs, rhs))
    assert worst < 1e-5


def test_frame_threshold_independence(sphere2, rng):
    # the chart-free holonomy against the frame transport at two different
    # hysteresis bands
    M = sphere2
    worst = 0.0
    for i in range(20):
        if i % 2 == 0:
            lam = rng.uniform(0, 2 * math.pi)
            loop = invariant_loop(M, AlgebraDirection(math.cos(lam), math.sin(lam)))
        else:
            loop = mixing_loop(M, rng.uniform(0.2, 1.5))
        q = unit_vector(rng.normal(size=3))
        k = kappa(M, loop, q)
        for thresholds in (DEFAULT_SWITCH_THETA, (math.pi / 4, 3 * math.pi / 4)):
            ref = reference_transport_phase(M, loop, q, thresholds=thresholds)
            worst = max(worst, k.distance_to(ref.phase))
    assert worst < 1e-8


def test_kappa_modulus_is_exactly_one(sphere1):
    v = kappa(sphere1, invariant_loop(sphere1, DIR_A), sphere_point(0.3, 0.3))
    assert abs(v.as_complex) == pytest.approx(1.0, abs=1e-15)


def test_closure_error_at_base_point(sphere1):
    f = scale_hamiltonian(invariant_hamiltonian(sphere1, DIR_A), -0.37 * math.pi)
    broken = HamiltonianLoop(f, closure_tol=1e-6, label="open")
    with pytest.raises(LoopClosureError):
        transport_phase(sphere1, broken, sphere_point(1.0, 1.0))


def test_mixing_loop_holonomy_parity(rng):
    # derived by hand: the ramped two-axis loop has the same holonomy as the
    # bare loop for every amplitude, and the pi-drift variant is trivial
    for n in (1, 2, 3):
        M = OrbitSphere(n)
        q = unit_vector(rng.normal(size=3))
        assert kappa(M, mixing_loop(M, 1.1), q).distance_to((n % 2) / 2) < 1e-8
        assert kappa(M, mixing_loop(M, math.pi, profile="constant"), q).distance_to(0.0) < 1e-8


def test_polar_axis_loop_single_chart_oracle():
    # trajectories of the polar-axis loop stay at fixed height; the phase
    # lift is exactly (n/2)(1 - cos t0) + (n/2) cos t0 in the north frame
    for n, theta0 in [(1, 0.6), (2, 1.0), (3, 1.4)]:
        M = OrbitSphere(n)
        loop = invariant_loop(M, DIR_Z)
        st_ = transport_phase(M, loop, sphere_point(theta0, 0.8))
        assert st_.phase == pytest.approx(0.5 * n, abs=1e-8)
    # southern base point: the south-frame lift is -n/2 unreduced
    M = OrbitSphere(2)
    st_ = transport_phase(M, invariant_loop(M, DIR_Z), sphere_point(2.5, 0.8))
    assert st_.phase == pytest.approx(-1.0 * M.n / 2, abs=1e-8)


def test_small_circle_loop_unreduced_oracle():
    # base points near the fixed point of the A-axis loop trace small
    # circles; the lift splits into a cap term and a generator term:
    # -(n/2)(1 - cos r) - (n/2) cos r = -n/2 exactly, for every radius
    for n, r in [(1, 0.2), (3, 0.45)]:
        M = OrbitSphere(n)
        loop = invariant_loop(M, DIR_A)
        q = np.array([math.cos(r), 0.0, math.sin(r)])
        st_ = transport_phase(M, loop, q)
        cap_term = -(n / 2) * (1 - math.cos(r))
        generator_term = -(n / 2) * math.cos(r)
        assert st_.phase == pytest.approx(cap_term + generator_term, abs=1e-6)


def test_transport_oracle_with_independent_quadrature(sphere2):
    # same scenario, but the generator term recomputed by quadrature of the
    # Hamiltonian along the closed-form circle rather than trusted analytics
    from preqholo import closed_form_flow

    M = sphere2
    r = 0.3
    loop = invariant_loop(M, DIR_A)
    q = np.array([math.cos(r), 0.0, math.sin(r)])
    st_ = transport_phase(M, loop, q)
    f_term, _ = quad(
        lambda t: float(loop.hamiltonian.eval(t, closed_form_flow(DIR_A, math.pi * t, q))),
        0.0,
        1.0,
        epsabs=1e-12,
    )
    cap_term = -(M.n / 2) * (1 - math.cos(r))
    assert st_.phase == pytest.approx(cap_term - f_term, abs=1e-6)


_AXIS = {"name": "invariant", "a": 0.48, "b": -0.6, "z": 0.64}
REGISTRY_SPECS = [
    {"name": "zero"},
    _AXIS,
    {"name": "mix", "amplitude": 1.3, "profile": "cosine-ramp"},
    {"name": "mix", "amplitude": math.pi, "profile": "constant"},
    {"name": "mix", "amplitude": 2.0 * math.pi, "profile": "constant"},
    {"name": "scaled", "base": _AXIS, "factor": 2},
    {"name": "scaled", "base": _AXIS, "factor": 3},
]


def quadratic_there_and_back():
    f = quadratic_hamiltonian(1.5)
    forth = HamiltonianLoop(f, label="xy")
    back = HamiltonianLoop(scale_hamiltonian(f, -1.0), label="-xy")
    return product_loop(back, forth)


@pytest.mark.parametrize(
    "n, loop_fn",
    [(i % 3 + 1, lambda M, spec=spec: build_loop(M, spec, Tolerances()))
     for i, spec in enumerate(REGISTRY_SPECS)]
    + [(2, lambda M: quadratic_there_and_back())],
    ids=[spec["name"] + str(i) for i, spec in enumerate(REGISTRY_SPECS)] + ["quadratic"],
)
def test_batched_transport_matches_reference(n, loop_fn):
    # 1e-8 rev is the frame-independence bound; the unreduced lifts may
    # differ by an integer, so phases are compared on the circle
    M = OrbitSphere(n)
    loop = loop_fn(M)
    pts = fibonacci_sphere(10, rng=np.random.default_rng(n))
    ref = [reference_transport_phase(M, loop, q) for q in pts]
    for batch in (transport_phases(M, loop, pts), [transport_phase(M, loop, pts[0])]):
        for r, b in zip(ref, batch):
            assert circle_distance(b.phase, r.phase) < 1e-8
            assert np.linalg.norm(b.point - r.point) < 1e-8


def test_batch_with_repeated_point_gives_equal_results(sphere1):
    # rows of the batched state are integrated independently, bit for bit
    loop = mixing_loop(sphere1, 0.9)
    q = sphere_point(0.1, 0.4)
    a, other, b = transport_phases(sphere1, loop, [q, sphere_point(2.0, 1.0), q])
    assert a.phase == b.phase
    assert np.array_equal(a.point, b.point)


def test_tight_tolerance_batch_stays_above_solver_floor():
    # 40 points at rel_tol 1e-13 are split so rtol / sqrt(N) never reaches
    # scipy's 100 eps floor, which would warn and loosen the control
    M = OrbitSphere(1)
    loop = mixing_loop(M, 0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = transport_phases(M, loop, fibonacci_sphere(40), rel_tol=1e-13)
    assert len(states) == 40
    assert max(circle_distance(st_.phase, 0.5) for st_ in states) < 1e-8


def test_closure_error_names_failing_base_point(sphere1):
    f = scale_hamiltonian(invariant_hamiltonian(sphere1, DIR_A), -0.37 * math.pi)
    broken = HamiltonianLoop(f, closure_tol=1e-6, label="open")
    fixed_point = DIR_A.axis()  # the rotation axis closes, the other point does not
    with pytest.raises(LoopClosureError, match="base point 1:"):
        transport_phases(sphere1, broken, [fixed_point, sphere_point(1.0, 1.0)])
