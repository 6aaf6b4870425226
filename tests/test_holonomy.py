import dataclasses
import functools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from conftest import plain_loop, quadratic_hamiltonian
from reference_transport import DEFAULT_SWITCH_THETA, reference_transport_phase

import preqholo
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
    closed_form_flow,
    fibonacci_sphere,
    invariant_hamiltonian,
    invariant_loop,
    kappa,
    kappa_at_fixed_point,
    kappas,
    linear_axis,
    linear_hamiltonian,
    mixing_loop,
    product_loop,
    scale_hamiltonian,
    sphere_point,
    transport_phase,
    trajectories,
    transport_phases,
    unit_vector,
    zero_hamiltonian,
)
from preqholo import dynamics, families, holonomy, verify
from preqholo.config import Tolerances, build_loop
from preqholo.holonomy import phase_spread
from preqholo.sphere import random_rotation_matrix, random_tangent
from preqholo.verify import verify_level
from scipy.integrate import quad


def zero_loop():
    return HamiltonianLoop(zero_hamiltonian(), label="zero")


revs = st.floats(-10.0, 10.0, allow_nan=False)


@given(revs)
def test_unit_phase_range_and_complex(x):
    p = UnitPhase.from_revolutions(x)
    assert 0.0 <= p.value < 1.0
    assert abs(np.exp(2j * math.pi * p.value)) == pytest.approx(1.0, abs=1e-12)


def test_unit_phase_rejects_out_of_range():
    with pytest.raises(ValueError):
        UnitPhase(1.5)


def test_trivial_loop_phase_zero(sphere1):
    st_ = transport_phase(sphere1, zero_loop(), sphere_point(1.0, 0.5))
    assert st_.phase == 0.0
    k = kappa(sphere1, zero_loop(), sphere_point(1.0, 0.5))
    assert np.exp(2j * math.pi * k.value) == pytest.approx(1.0)


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


def _all_pairs_spread(phases):
    diffs = np.abs(np.subtract.outer(phases, phases)) % 1.0
    return float(np.max(np.minimum(diffs, 1.0 - diffs))) if len(phases) else 0.0


def test_spread_equals_all_pairs_maximum():
    rng = np.random.default_rng(7)
    sets = [np.array([]), np.array([0.3]), np.array([0.0, 0.5]), np.array([0.1, 0.6, 0.6, 0.35])]
    for _ in range(200):
        n = int(rng.integers(2, 60))
        centre = rng.uniform()
        sets += [
            rng.uniform(size=n),
            (centre + rng.normal(0.0, 1e-12, n)) % 1.0,  # a cluster, often across 0
            (centre + np.repeat([0.0, 0.5], n) + rng.normal(0.0, 1e-15, 2 * n)) % 1.0,  # near antipodes
            np.round(rng.uniform(size=n) * 8) / 8,  # exact ties
            rng.uniform(-3.0, 3.0, n),  # unreduced lifts
        ]
    for phases in sets:
        assert phase_spread(phases) == _all_pairs_spread(phases)


def test_spread_memory_is_linear():
    # 4,096 phases: the all-pairs matrix and its temporaries would be ~400 MB
    phases = np.random.default_rng(1).uniform(size=4096)
    tracemalloc.start()
    try:
        phase_spread(phases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


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
    assert abs(np.exp(2j * math.pi * v.value)) == pytest.approx(1.0, abs=1e-15)


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


def _propagator_loops(M):
    """An invariant loop, both mix profiles, a scaled loop and a product: every one linear."""
    return [
        build_loop(M, _AXIS, Tolerances()),
        build_loop(M, {"name": "mix", "amplitude": 1.3, "profile": "cosine-ramp"}, Tolerances()),
        build_loop(M, {"name": "mix", "amplitude": math.pi, "profile": "constant"}, Tolerances()),
        build_loop(M, {"name": "scaled", "base": _AXIS, "factor": 3}, Tolerances()),
        product_loop(mixing_loop(M, 0.9), invariant_loop(M, DIR_B)),
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_propagator_rows_match_reference(n):
    # each row's phase rebuilt from its loop's propagator against the frame
    # transport of that point in its own solve; the reference runs at
    # rel_tol 1e-11, where its own error stays under 2e-10 rev
    M = OrbitSphere(n)
    pts = fibonacci_sphere(3, rng=np.random.default_rng(n))
    for loop in _propagator_loops(M):
        assert linear_axis(loop.hamiltonian) is not None
        ref = [reference_transport_phase(M, loop, q, rel_tol=1e-11) for q in pts]
        for r, b in zip(ref, transport_phases(M, loop, pts)):
            assert circle_distance(b.phase, r.phase) < 1e-9, loop.label


def test_kappas_of_a_linear_loop_are_one_five_number_solve(monkeypatch):
    # the base points leave the solve: 10 of them share one propagator
    sizes = []

    def counted(fun, t_span, y0, *args, _inner=dynamics.solve_ivp, **kwargs):
        sizes.append(len(y0))
        return _inner(fun, t_span, y0, *args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", counted)
    M = OrbitSphere(2)
    # behind a plain function, so that it is solved and not read as a word
    vals = kappas(M, plain_loop(mixing_loop(M, 1.3)), fibonacci_sphere(10))
    assert sizes == [5]
    assert max(circle_distance(v, 0.0) for v in vals) < 1e-9


@pytest.mark.parametrize("n", [1, 2])
def test_base_point_checks_on_a_non_linear_loop(n):
    # on a linear loop the action terms cancel, and verify's base-point
    # checks see only the closure of one propagator; the product of the
    # mixing loop and a non-linear there-and-back loop takes the general
    # path, one spinor per point, with kappa = kappa(mix) = n/2 mod 1
    M = OrbitSphere(n)
    tol = Tolerances()
    loop = product_loop(mixing_loop(M, 0.8, closure_tol=tol.closure_tol), quadratic_there_and_back())
    assert linear_axis(loop.hamiltonian) is None
    parity = (n % 2) / 2.0
    ref_points = [sphere_point(0.0, 0.0), sphere_point(math.pi / 2, 0.0), sphere_point(math.pi / 2, math.pi / 2)]
    vals = kappas(M, loop, ref_points + list(fibonacci_sphere(7)), rel_tol=tol.flow_rel_tol)
    # three-point-agreement and base-point-independence, at verify's thresholds
    three = vals[:3]
    assert max(max(circle_distance(v, parity) for v in three), phase_spread(three)) <= tol.phase_tol
    assert phase_spread(vals) <= 1e-5
    assert max(circle_distance(v, parity) for v in vals) <= tol.phase_tol


def test_batch_with_repeated_point_gives_equal_results(sphere1):
    # rows of the batched state are integrated independently, bit for bit
    loop = mixing_loop(sphere1, 0.9)
    q = sphere_point(0.1, 0.4)
    a, other, b = transport_phases(sphere1, loop, [q, sphere_point(2.0, 1.0), q])
    assert a.phase == b.phase
    assert np.array_equal(a.point, b.point)


def test_tight_tolerance_batch_stays_above_solver_floor(monkeypatch):
    # a linear batch carries one propagator per distinct loop, so 40 points
    # of one loop at rel_tol 1e-13 are one solve at that rtol, and 40
    # distinct loops are split so rtol / sqrt(P) never falls below the
    # stepper's floor of 100 eps, where solve_ivp raises
    rtols = []

    def counted(*args, _inner=dynamics.solve_ivp, **kwargs):
        rtols.append(kwargs["rtol"])
        return _inner(*args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", counted)
    # (each mix axis behind a plain function, so that it is solved)
    M = OrbitSphere(1)
    pts = fibonacci_sphere(40)
    states = transport_phases(M, plain_loop(mixing_loop(M, 0.8)), pts, rel_tol=1e-13)
    assert rtols == [1e-13]
    rtols.clear()
    loops = [plain_loop(mixing_loop(M, 0.8 + 0.01 * i)) for i in range(40)]
    states += transport_phases(M, loops, pts, rel_tol=1e-13)
    assert len(rtols) > 1
    assert min(rtols) >= 100 * np.finfo(float).eps
    assert len(states) == 80
    assert max(circle_distance(st_.phase, 0.5) for st_ in states) < 1e-8


def test_closure_error_names_failing_base_point(sphere1):
    f = scale_hamiltonian(invariant_hamiltonian(sphere1, DIR_A), -0.37 * math.pi)
    broken = HamiltonianLoop(f, closure_tol=1e-6, label="open")
    fixed_point = DIR_A.axis()  # the rotation axis closes, the other point does not
    with pytest.raises(LoopClosureError, match="base point 1:"):
        transport_phases(sphere1, broken, [fixed_point, sphere_point(1.0, 1.0)])


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize(
    "spec, eps",
    [
        (_AXIS, 1),
        ({"name": "mix", "amplitude": 2.0 * math.pi, "profile": "constant"}, 1),
        ({"name": "mix", "amplitude": math.pi, "profile": "constant"}, 0),
        ({"name": "mix", "amplitude": 1.3, "profile": "cosine-ramp"}, 1),
    ],
    ids=["invariant", "mix-2pi", "mix-pi", "mix-ramp"],
)
def test_kappa_error_scales_with_rel_tol(spec, eps, n):
    # closed form: kappa = (n eps / 2) mod 1, where eps = 1 iff the SU(2)
    # lift of the loop ends at -I; the error must follow rel_tol down
    M = OrbitSphere(n)
    loop = build_loop(M, spec, Tolerances())
    pts = fibonacci_sphere(12, rng=np.random.default_rng(7))
    exact = (n * eps / 2) % 1.0
    for rel_tol in (1e-8, 1e-10):
        single = [kappa(M, loop, q, rel_tol=rel_tol).value for q in pts]
        batch = kappas(M, loop, pts, rel_tol=rel_tol)
        assert max(circle_distance(k, exact) for k in single + batch) < 10 * rel_tol


_NAN_LOOP = """
import sys
from preqholo import OrbitSphere, kappa, mixing_loop
from preqholo.dynamics import IntegrationError, integrate_isotopy
M = OrbitSphere(1)
loop = mixing_loop(M, float("nan"))
try:
    {call}
except IntegrationError as exc:
    sys.exit(0 if exc.t == 0.0 else 3)
sys.exit(4)
"""


@pytest.mark.parametrize(
    "call", ["kappa(M, loop, [0.0, 0.0, 1.0])", "integrate_isotopy(M, loop.hamiltonian, [0.0, 0.0, 1.0], [1.0])"]
)
def test_non_finite_hamiltonian_raises_instead_of_hanging(call):
    # scipy's step-size loop never ends on a NaN first step, so the call
    # runs in a subprocess and a hang fails the test instead of the suite
    paths = [os.path.dirname(os.path.dirname(preqholo.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", _NAN_LOOP.format(call=call)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def _rows_of_distinct_loops(M):
    # linear loops with constant and moving axes, a rotated-axis scaling, a
    # product with its breakpoint at 0.5, and a non-linear product
    return [
        invariant_loop(M, DIR_A),
        mixing_loop(M, 1.3),
        product_loop(invariant_loop(M, DIR_B), mixing_loop(M, 0.8)),
        build_loop(M, {"name": "scaled", "base": _AXIS, "factor": 2}, Tolerances()),
        quadratic_there_and_back(),
        mixing_loop(M, 2.0 * math.pi, profile="constant"),
    ]


@pytest.mark.parametrize("n", [1, 2])
def test_rows_of_distinct_loops_match_their_own_solves(n):
    # one batch of (loop, point) rows against one solve per row
    M = OrbitSphere(n)
    loops = _rows_of_distinct_loops(M)
    pts = fibonacci_sphere(len(loops), rng=np.random.default_rng(n))
    batch = transport_phases(M, loops, pts)
    for loop, q, b in zip(loops, pts, batch):
        own = transport_phase(M, loop, q)
        assert circle_distance(b.phase, own.phase) < 1e-9
        assert np.linalg.norm(b.point - own.point) < 1e-9


def test_rows_of_one_loop_are_the_single_loop_batch(sphere1):
    # a per-row list of one loop groups into one Hamiltonian, bit for bit
    loop = mixing_loop(sphere1, 0.9)
    pts = fibonacci_sphere(5)
    shared = transport_phases(sphere1, loop, pts)
    rows = transport_phases(sphere1, [loop] * 5, pts)
    assert [st_.phase for st_ in shared] == [st_.phase for st_ in rows]


def test_many_distinct_rows_at_tight_tolerance_split_into_chunks():
    # 24 distinct loops at rel_tol 1e-13 are more rows than one chunk (20)
    # can carry; each chunk must take its own rows' Hamiltonians
    M = OrbitSphere(1)
    rng = np.random.default_rng(3)
    loops = []
    for i in range(24):
        lam = rng.uniform(0.0, 2.0 * math.pi)
        direction = AlgebraDirection(math.cos(lam), math.sin(lam))
        loops.append(invariant_loop(M, direction) if i % 3 else mixing_loop(M, rng.uniform(0.3, 1.5)))
    loops[7] = quadratic_there_and_back()
    loops[21] = quadratic_there_and_back()
    pts = fibonacci_sphere(24, rng=rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = transport_phases(M, loops, pts, rel_tol=1e-13)
        own = [transport_phase(M, loop, q, rel_tol=1e-13) for loop, q in zip(loops, pts)]
    for b, o in zip(batch, own):
        assert circle_distance(b.phase, o.phase) < 1e-9
    linear = [b for i, b in enumerate(batch) if i not in (7, 21)]
    assert max(circle_distance(b.phase, 0.5) for b in linear) < 1e-9


def test_closure_error_names_the_failing_row(sphere1):
    f = scale_hamiltonian(invariant_hamiltonian(sphere1, DIR_A), -0.37 * math.pi)
    loops = [invariant_loop(sphere1, DIR_B), mixing_loop(sphere1, 0.8), HamiltonianLoop(f, label="open")]
    pts = [sphere_point(1.0, 1.0)] * 3
    with pytest.raises(LoopClosureError, match="loop 'open' does not close at base point 2:"):
        transport_phases(sphere1, loops, pts)


@pytest.mark.parametrize(
    "shift",
    [lambda t: 0.3, lambda t: 0.6 * t, lambda t: 0.6 * math.sin(2.0 * math.pi * t) ** 2],
    ids=["constant", "zero-at-start", "zero-at-start-and-middle"],
)
def test_replaced_eval_is_not_read_off_a_stale_axis(sphere1, shift):
    # dataclasses.replace keeps the axis of the original; a shifted eval
    # f + c(t) must still be integrated, so its holonomy moves by -0.3, the
    # integral of every shift, also when the shift vanishes at t = 0 and 1/2
    loop = mixing_loop(sphere1, 1.3)
    f = loop.hamiltonian
    shifted = dataclasses.replace(f, eval=lambda t, u: f.eval(t, u) + shift(t))
    assert shifted.axis is f.axis
    q = sphere_point(0.7, 2.0)
    expected = 0.5 - 0.3
    alone = transport_phase(sphere1, HamiltonianLoop(shifted, label="shifted"), q)
    assert circle_distance(alone.phase, expected) < 1e-9
    rows = transport_phases(sphere1, [loop, HamiltonianLoop(shifted, label="shifted")], [q, q])
    assert circle_distance(rows[0].phase, 0.5) < 1e-9
    assert circle_distance(rows[1].phase, expected) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("j, amplitude", [(1, 0.3), (20, 0.3), (40, 0.7)])
@pytest.mark.parametrize("kind", ["invariant", "mix"])
def test_general_action_column_steers_the_step(kind, j, amplitude, n):
    # on the general path the action column holds the integral of f_t
    # itself, which nothing cancels: an offset A sin^2(2 pi j t) that moves
    # no point, however fast, moves the holonomy by exactly -A/2
    M = OrbitSphere(n)
    loop = invariant_loop(M, AlgebraDirection(0.6, 0.8)) if kind == "invariant" else mixing_loop(M, 0.8)
    f = loop.hamiltonian
    offset = dataclasses.replace(f, eval=lambda t, u: f.eval(t, u) + amplitude * np.sin(2.0 * math.pi * j * t) ** 2)
    pts = fibonacci_sphere(3, rng=np.random.default_rng(9))
    plain = kappas(M, loop, pts)
    moved = kappas(M, HamiltonianLoop(offset, label="offset"), pts)
    phase_tol = Tolerances().phase_tol
    assert max(circle_distance(a - amplitude / 2, b) for a, b in zip(plain, moved)) < phase_tol


def test_replaced_grad_is_not_read_off_a_stale_axis(sphere1):
    # the B-axis flow under the A-axis Hamiltonian's stale axis
    f_a = invariant_loop(sphere1, DIR_A).hamiltonian
    f_b = invariant_loop(sphere1, DIR_B).hamiltonian
    g = dataclasses.replace(f_a, eval=f_b.eval, grad=f_b.grad)
    q = sphere_point(0.9, 0.4)
    traj_a, traj_g = trajectories(sphere1, [f_a, g], [q, q], [0.3])
    assert np.linalg.norm(traj_a.at(0.3) - closed_form_flow(DIR_A, 0.3 * math.pi, q)) < 1e-8
    assert np.linalg.norm(traj_g.at(0.3) - closed_form_flow(DIR_B, 0.3 * math.pi, q)) < 1e-8


def test_axis_is_vouched_for_only_by_its_own_derivation(sphere1):
    # a wrapper made with functools.wraps keeps the derivation (and the
    # arithmetic); a replaced eval or another loop's grad does not
    f = mixing_loop(sphere1, 1.3).hamiltonian
    other = invariant_loop(sphere1, DIR_B).hamiltonian
    wrapped = dataclasses.replace(f, grad=functools.wraps(f.grad)(lambda t, u: f.grad(t, u)))
    assert linear_axis(f) is f.axis
    assert linear_axis(wrapped) is f.axis
    assert linear_axis(dataclasses.replace(f, eval=lambda t, u: f.eval(t, u))) is None
    assert linear_axis(dataclasses.replace(f, grad=other.grad)) is None
    assert linear_axis(quadratic_there_and_back().hamiltonian) is None
    q = sphere_point(0.7, 2.0)
    assert transport_phase(sphere1, HamiltonianLoop(wrapped), q).phase == transport_phase(
        sphere1, HamiltonianLoop(f), q
    ).phase


def test_carried_axes_stay_derived(sphere1):
    # scaling, the path product and verify's rotation keep a linear loop linear
    a, b = invariant_loop(sphere1, DIR_A), mixing_loop(sphere1, 0.8)
    R = random_rotation_matrix(np.random.default_rng(0))
    for f in (
        scale_hamiltonian(a.hamiltonian, 2.0),
        product_loop(a, b).hamiltonian,
        verify._rotated(b, R).hamiltonian,
    ):
        assert linear_axis(f) is not None
    assert linear_axis(product_loop(a, quadratic_there_and_back()).hamiltonian) is None


def test_verify_level_makes_one_solve_per_check(monkeypatch):
    # rows of (loop, point) put each check's transports into one batch: 15
    # batches at n = 1, where one per point makes about 90.  A batch is
    # solved segment by segment, split at breakpoints and at the times a
    # flow is read, so a batch is a solve that starts at t = 0
    starts = []

    def counted(fun, t_span, *args, _inner=dynamics.solve_ivp, **kwargs):
        starts.append(t_span[0])
        return _inner(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", counted)
    checks = verify_level(1)
    assert all(c["passed"] for c in checks)
    assert starts.count(0.0) <= 20


def test_verify_level_transports_at_the_given_closure_tol(monkeypatch):
    # every loop a verify level transports, the members of its families
    # included, carries the closure_tol it is given
    tols = []

    def recorded(M, loop, *args, _inner=holonomy.transport_phases, **kwargs):
        tols.extend(lp.closure_tol for lp in ([loop] if isinstance(loop, HamiltonianLoop) else loop))
        return _inner(M, loop, *args, **kwargs)

    for module in (holonomy, families, verify):
        monkeypatch.setattr(module, "transport_phases", recorded)
    verify_level(1, tol=Tolerances(closure_tol=3e-6))
    assert tols and set(tols) == {3e-6}


def _recording_pieces(path, reads):
    """Four loops whose generators log, as (piece, local t), every time they are read.

    On the "axis" path each is linear and logs every time of an array read
    through its axis; on the "generic" path each is a non-linear quadratic
    c u_x u_y and logs through its own eval and grad.
    """
    rng = np.random.default_rng(7)
    loops = []
    for k in range(4):
        w = rng.normal(size=3)
        if path == "axis":

            def axis(t, k=k, w=w):
                reads.extend((k, tt) for tt in np.atleast_1d(t).tolist())
                return np.broadcast_to(w, (*np.shape(t), 3))

            f = linear_hamiltonian(axis, label=f"p{k}")
        else:
            q = quadratic_hamiltonian(1.0 + 0.5 * k)

            def ev(t, u, k=k, q=q):
                reads.append((k, t))
                return q.eval(t, u)

            def gr(t, u, k=k, q=q):
                reads.append((k, t))
                return q.grad(t, u)

            f = preqholo.TimeDepHamiltonian(eval=ev, grad=gr, label=f"p{k}")
        loops.append(HamiltonianLoop(f, label=f"p{k}"))
    return loops


@pytest.mark.parametrize("path", ["axis", "generic"])
def test_each_segment_reads_only_its_own_piece(sphere1, path):
    # the nested path product runs p0, p1, p2, p3 on the quarters of [0, 1];
    # a breakpoint ends the solves on both sides of it, so a piece may be
    # read exactly at its own ends only where they are the loop's ends; the
    # flow is read at each breakpoint and at two times inside the pieces
    reads = []
    p0, p1, p2, p3 = _recording_pieces(path, reads)
    f = product_loop(product_loop(p3, p2), product_loop(p1, p0)).hamiltonian
    assert f.breakpoints == (0.25, 0.5, 0.75)
    assert (linear_axis(f) is not None) == (path == "axis")
    trajectories(sphere1, f, fibonacci_sphere(3, rng=np.random.default_rng(0)), [0.1, 0.25, 0.5, 0.6, 0.75, 1.0])
    for k in range(4):
        local = np.array([t for j, t in reads if j == k])
        inside = (local > 0.0) & (local < 1.0)
        at_loop_end = (local == 0.0) & (k == 0) | (local == 1.0) & (k == 3)
        assert len(local) and np.all(inside | at_loop_end)


def test_breakpoints_one_ulp_apart_leave_no_empty_solve(sphere1, monkeypatch):
    # the segment between them is empty once each end moves one ulp inside,
    # so it is skipped; the generator is the smooth rotation about the pole,
    # its axis behind a plain function, so that it is solved and not read
    # in closed form
    spans = []

    def counted(fun, t_span, *args, _inner=dynamics.solve_ivp, **kwargs):
        spans.append(t_span)
        return _inner(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", counted)
    b, b_next = 0.5, math.nextafter(0.5, 1.0)
    loop = plain_loop(invariant_loop(sphere1, DIR_Z))
    f = dataclasses.replace(loop.hamiltonian, breakpoints=(b, b_next))
    q = sphere_point(0.6, 0.2)
    split = transport_phase(sphere1, dataclasses.replace(loop, hamiltonian=f), q)
    assert spans == [(0.0, math.nextafter(b, 0.0)), (math.nextafter(b_next, 1.0), 1.0)]
    assert circle_distance(split.phase, transport_phase(sphere1, loop, q).phase) < 1e-9


@pytest.mark.parametrize("path", ["axis", "generic"])
def test_closed_convention_at_a_breakpoint_reads_only_its_own_piece(sphere1, path):
    # a hand-built there-and-back generator that switches on t <= 1/2, with
    # an sdot read on every row: neither is read at the breakpoint itself
    reads, sdot_reads = [], []
    if path == "axis":
        w = np.array([0.3, -0.5, 0.8])

        def axis(t):
            reads.extend(np.atleast_1d(t).tolist())
            return np.where(np.expand_dims(t, -1) <= 0.5, 2.0 * w, -2.0 * w)

        f = linear_hamiltonian(axis, label="closed", breakpoints=(0.5,))
    else:
        q = quadratic_hamiltonian(1.5)

        def ev(t, u):
            reads.append(t)
            return (2.0 if t <= 0.5 else -2.0) * q.eval(t, u)

        def gr(t, u):
            reads.append(t)
            return (2.0 if t <= 0.5 else -2.0) * q.grad(t, u)

        f = preqholo.TimeDepHamiltonian(eval=ev, grad=gr, label="closed", breakpoints=(0.5,))

    def zero_axis(t):
        sdot_reads.extend(np.atleast_1d(t).tolist())
        return np.zeros((*np.shape(t), 3))

    sdot = linear_hamiltonian(zero_axis)

    pts = fibonacci_sphere(3, rng=np.random.default_rng(1))
    states = transport_phases(sphere1, HamiltonianLoop(f, label="closed"), pts, sdot=sdot)
    # every trajectory retraces itself, so the phase is 0
    assert max(circle_distance(st.phase, 0.0) for st in states) < 1e-9
    for ts in (np.array(reads), np.array(sdot_reads)):
        assert len(ts) and not np.any(ts == 0.5)
        assert ts.min() == 0.0 and ts.max() == 1.0


def _scaled_xy_product(factor):
    """A nested path product of four non-linear xy pieces, each scaled by +-factor, the last twice."""
    pieces = [scale_hamiltonian(quadratic_hamiltonian(1.0 + 0.5 * k), factor * (-1) ** k) for k in range(4)]
    pieces[3] = scale_hamiltonian(pieces[3], factor)
    p0, p1, p2, p3 = (HamiltonianLoop(f, label=f"p{k}") for k, f in enumerate(pieces))
    return product_loop(product_loop(p3, p2), product_loop(p1, p0)).hamiltonian


def _own_closures(f):
    """f with its own eval and grad and no parts: the transport reads it as a whole."""
    return preqholo.TimeDepHamiltonian(eval=f.eval, grad=f.grad, breakpoints=f.breakpoints)


@pytest.mark.parametrize("factor, tol", [(-1.0, 0.0), (0.5, 0.0), (-0.37 * math.pi, 1e-13)])
def test_parts_give_the_phases_of_the_closures(factor, tol):
    # the transport reads each quarter as c * xy(4t - j); the closures apply
    # each level's factor in turn, the same doubles for powers of two
    M = OrbitSphere(2)
    f = _scaled_xy_product(factor)
    for lo, hi in [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]:
        base, a, _, _ = dynamics._resolve(f, math.nextafter(lo, hi), math.nextafter(hi, lo))
        assert not base.parts and a == 4.0
    u0 = fibonacci_sphere(3, rng=np.random.default_rng(2))
    y = dynamics._transport(M, f, u0, 1e-10)[-1]
    y_ref = dynamics._transport(M, _own_closures(f), u0, 1e-10)[-1]
    assert np.max(np.abs(y - y_ref)) <= tol
    if tol == 0.0:
        assert np.array_equal(y, y_ref)


@pytest.mark.parametrize("field", ["eval", "grad"])
def test_a_replaced_eval_or_grad_of_a_product_is_called(field):
    # dataclasses.replace keeps the parts but not the functions derived from
    # them, so the transport must call the replacement, a functools.wraps
    # wrapper like the bench tracer's, and not read the pieces behind it
    calls = []
    loop = quadratic_there_and_back()
    inner = getattr(loop.hamiltonian, field)

    @functools.wraps(inner)
    def logging(t, u):
        calls.append(t)
        return inner(t, u)

    f = dataclasses.replace(loop.hamiltonian, **{field: logging})
    assert f.parts is loop.hamiltonian.parts
    q = unit_vector([0.3, 0.4, 0.866])
    phase = transport_phase(OrbitSphere(1), dataclasses.replace(loop, hamiltonian=f), q).phase
    assert len(calls) > 1000
    assert phase == transport_phase(OrbitSphere(1), loop, q).phase


def test_a_part_end_dropped_near_zero_is_read_by_its_own_closures(sphere1):
    # the inner end 2e-14 maps to 1e-14, a breakpoint the transport drops as
    # too close to 0, so the solve of [0, 1/2] crosses it: the transport
    # reads that level through its own eval and grad, which pick the piece
    # at each time, and every read lands on the right side of the end
    reads = []
    p0, p1, _, _ = _recording_pieces("generic", reads)
    inner = preqholo.compose_hamiltonian(
        [(2e-14, p0.hamiltonian, 1.0, 0.0, 1.0), (math.inf, p1.hamiltonian, 1.0, 0.0, 1.0)]
    )
    assert inner.breakpoints == (2e-14,)
    back = scale_hamiltonian(quadratic_hamiltonian(0.5), -1.0)
    f = product_loop(HamiltonianLoop(back), HamiltonianLoop(inner)).hamiltonian
    assert f.breakpoints == (1e-14, 0.5)
    base, a, b, c = dynamics._resolve(f, 0.0, math.nextafter(0.5, 0.0))
    assert (base, a, b, c) == (inner, 2.0, 0.0, 2.0)
    u0 = fibonacci_sphere(3, rng=np.random.default_rng(0))
    y = dynamics._transport(sphere1, f, u0, 1e-10)[-1]
    by_piece = {k: np.array([t for j, t in reads if j == k]) for k in (0, 1)}
    assert len(by_piece[0]) and np.all(by_piece[0] < 2e-14)
    assert len(by_piece[1]) and np.all(by_piece[1] >= 2e-14)
    assert np.array_equal(y, dynamics._transport(sphere1, _own_closures(f), u0, 1e-10)[-1])


def test_there_and_back_segments_cost_alike(monkeypatch):
    # the back segment mirrors the forth one, so their solves should cost
    # about the same; a forth solve that reads the back piece at t = 1/2
    # rejects its steps there and costs 1,730 evaluations against 1,046
    nfev = []

    def counted(*args, _inner=dynamics.solve_ivp, **kwargs):
        sol = _inner(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(dynamics, "solve_ivp", counted)
    transport_phase(OrbitSphere(1), quadratic_there_and_back(), unit_vector([0.3, 0.4, 0.866]))
    forth, back = nfev
    # DOP853 makes 12 evaluations per step attempt, so 36 is 3 attempts.
    # The exact counts (1,034 vs 1,046) are pinned by the package's own
    # stepper, not by an installed solver; the defect this guards against
    # moves them by ~700.
    assert abs(forth - back) <= 36


def test_verify_level_makes_one_solve(monkeypatch):
    # every loop verify reads is a word but the solver-oracle check's, whose
    # mix axis is behind a plain function: one DOP853 solve, of 8 points
    calls = []

    def counted(fun, t_span, y0, *args, _inner=dynamics.solve_ivp, **kwargs):
        calls.append(len(y0))
        return _inner(fun, t_span, y0, *args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", counted)
    checks = verify_level(1)
    assert all(c["passed"] for c in checks)
    assert calls == [5]
    assert [c for c in checks if c["name"] == "solver-oracle"][0]["residual"] < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_field_identity_is_the_residual_of_its_loop(monkeypatch, n):
    # the batched field-identity check draws its times and tangents in the
    # order of the per-point loop it replaced, and its residual is that
    # loop's within 1e-15
    states = []

    def recorded(count, rng=None, _inner=verify.fibonacci_sphere):
        if count == 200:
            states.append(rng.bit_generator.state)
        return _inner(count, rng=rng)

    monkeypatch.setattr(verify, "fibonacci_sphere", recorded)
    check = [c for c in verify_level(n) if c["name"] == "field-identity"][0]
    rng = np.random.default_rng()
    rng.bit_generator.state = states[0]
    M = OrbitSphere(n)
    f = mixing_loop(M, 0.8).hamiltonian
    res = 0.0
    for q in fibonacci_sphere(200, rng=rng):
        t = rng.uniform()
        x_vec = dynamics.hamiltonian_vector_field(M, f, t, q)
        v = random_tangent(rng, q)
        lhs = 0.5 * M.k * float(np.dot(q, np.cross(x_vec, v)))
        res = max(res, abs(lhs + float(np.asarray(f.grad(t, q)) @ v)))
    assert abs(check["residual"] - res) <= 1e-15
