import dataclasses
import math

import numpy as np
import pytest

from preqholo import (
    DIR_A,
    DIR_B,
    AlgebraDirection,
    OrbitSphere,
    TimeDepHamiltonian,
    circle_distance,
    closed_form_flow,
    closed_mixing_family,
    concatenate,
    dynamics,
    fibonacci_sphere,
    hamiltonian_vector_field,
    integrate_isotopy,
    invariant_hamiltonian,
    invariant_loop,
    linear_axis,
    linear_hamiltonian,
    member_states,
    mixing_family,
    mixing_loop,
    product_loop,
    scale_hamiltonian,
    sphere_point,
    subgroup_rotation_family,
    trajectories,
    transport_phase,
    transport_phases,
    unit_vector,
    verify,
    zero_hamiltonian,
)
from preqholo.config import Tolerances, build_family, build_loop
from preqholo.dynamics import HamiltonianLoop, MemberAxis, constant_axis
from preqholo.families import linear_family
from preqholo.sphere import random_rotation_matrix, random_tangent

from conftest import (
    constant_hamiltonian,
    fields,
    plain,
    plain_family,
    plain_hamiltonian,
    plain_loop,
    quadratic_hamiltonian,
)
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
    traj = integrate_isotopy(sphere1, zero_hamiltonian(), q, (0.0, 0.3, 1.0))
    for t in (0.0, 0.3, 1.0):
        assert np.allclose(traj.at(t), q, atol=1e-12)


def test_rel_tol_validation(sphere1):
    # a rel_tol outside its range, and a time outside [0, 1] or NaN
    q = sphere_point(1.0, 1.0)
    bad = [
        (1e-2, [1.0]),
        (1e-14, [1.0]),
        (1e-10, [-1e-300]),
        (1e-10, [0.5, math.nextafter(1.0, 2.0)]),
        (1e-10, [math.nan]),
        (1e-10, [[0.5]]),
    ]
    for rel_tol, times in bad:
        with pytest.raises(ValueError):
            integrate_isotopy(sphere1, zero_hamiltonian(), q, times, rel_tol=rel_tol)


def test_trajectory_reads_only_requested_times(sphere1):
    q = sphere_point(0.7, 0.3)
    traj = integrate_isotopy(sphere1, invariant_loop(sphere1, DIR_A).hamiltonian, q, (0.25, 1.0))
    assert np.array_equal(traj.at(0.25), traj.points[0])
    for t in (0.0, 0.5, math.nextafter(0.25, 0.0), math.nan):
        with pytest.raises(ValueError, match="not a sampled time"):
            traj.at(t)


def test_product_loop_is_read_at_its_breakpoint(sphere1):
    # the A loop runs on [0, 1/2] and closes there; 1/2 is the breakpoint,
    # read one ulp before it, as is the stop one ulp inside (the solve's
    # convention: the axis is behind a plain function, so that the product
    # is solved and not read as a word)
    loop = plain_loop(product_loop(invariant_loop(sphere1, DIR_B), invariant_loop(sphere1, DIR_A)))
    assert loop.hamiltonian.breakpoints == (0.5,)
    times = (0.25, math.nextafter(0.5, 0.0), 0.5, 1.0)
    for q in fibonacci_sphere(4, rng=np.random.default_rng(1)):
        traj = integrate_isotopy(sphere1, loop.hamiltonian, q, times)
        assert np.linalg.norm(traj.at(0.25) - closed_form_flow(DIR_A, math.pi / 2, q)) < 1e-7
        for t in times[1:]:
            assert np.linalg.norm(traj.at(t) - q) < loop.closure_tol
        assert np.array_equal(traj.at(0.5), traj.at(math.nextafter(0.5, 0.0)))


def test_north_pole_meridian_loop(sphere1):
    # the unit-period loop from -h_A sends the north pole down one meridian
    # and back up the opposite one
    loop = invariant_loop(sphere1, DIR_A)
    q = sphere_point(0.0, 0.0)
    traj = integrate_isotopy(sphere1, loop.hamiltonian, q, (0.25, 1.0))
    quarter = traj.at(0.25)
    theta, phi = math.acos(quarter[2]), math.atan2(quarter[1], quarter[0])
    assert theta == pytest.approx(math.pi / 2, abs=1e-8)
    assert phi == pytest.approx(math.pi / 2, abs=1e-8)
    assert np.linalg.norm(traj.at(1.0) - q) < 1e-8


def test_integrator_against_group_flow(sphere1, rng):
    for _ in range(10):
        direction = AlgebraDirection(*unit_vector(rng.normal(size=2)))
        q = unit_vector(rng.normal(size=3))
        loop = invariant_loop(sphere1, direction)
        times = np.linspace(0.0, 1.0, 100)
        traj = integrate_isotopy(sphere1, loop.hamiltonian, q, times)
        for t in times:
            exact = closed_form_flow(direction, math.pi * t, q)
            assert np.linalg.norm(traj.at(t) - exact) < 1e-7


def test_trajectory_samples_unit_norm_and_increasing(sphere1, rng):
    # the samples are the requested times in the order asked for, and the
    # same solve whatever that order
    q = unit_vector(rng.normal(size=3))
    f = invariant_loop(sphere1, DIR_B).hamiltonian
    times = np.linspace(0.0, 1.0, 11)
    traj = integrate_isotopy(sphere1, f, q, times)
    assert np.array_equal(traj.ts, times)
    assert np.max(np.abs(np.linalg.norm(traj.points, axis=1) - 1.0)) < 1e-12
    assert np.array_equal(integrate_isotopy(sphere1, f, q, times[::-1]).points, traj.points[::-1])


def test_energy_conservation(sphere1, rng):
    for f in (invariant_loop(sphere1, DIR_A).hamiltonian, quadratic_hamiltonian(2.0)):
        q = unit_vector(rng.normal(size=3))
        times = np.linspace(0.0, 1.0, 40)
        traj = integrate_isotopy(sphere1, f, q, times)
        f0 = float(f.eval(0.0, q))
        for t in times:
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
        images = [integrate_isotopy(sphere1, f, v, [1.0]).at(1.0) for v in verts]
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
        np.linalg.norm(integrate_isotopy(sphere1, f, q, [1.0]).at(1.0) - unit_vector(q))
        for q in fibonacci_sphere(20)
    )
    assert closure_defect(sphere1, open_loop) == pytest.approx(per_point, abs=1e-9)


def test_flow_is_the_transport_solve(sphere1, monkeypatch):
    # read at t = 1, integrate_isotopy is the one-point transport's own
    # solve, so both end at the same point, breakpoints included; a linear
    # loop's flow reads V(t) off its one propagator, 5 numbers per solve
    # (each axis behind a plain function, so that it is solved)
    loops = [
        invariant_loop(sphere1, DIR_A),
        mixing_loop(sphere1, 0.8),
        mixing_loop(sphere1, 2.0 * math.pi, profile="constant"),
        product_loop(invariant_loop(sphere1, DIR_B), mixing_loop(sphere1, 0.8)),
    ]
    loops = [plain_loop(loop) for loop in loops]
    sizes = _state_sizes(monkeypatch)
    for loop in loops:
        for q in fibonacci_sphere(8):
            flow_end = integrate_isotopy(sphere1, loop.hamiltonian, q, [1.0]).at(1.0)
            assert np.linalg.norm(flow_end - transport_phase(sphere1, loop, q).point) < 1e-14
    assert set(sizes) == {5}


def _state_sizes(monkeypatch):
    """The size of the initial state of every solve made while it is patched in."""
    sizes = []

    def logged(fun, t_span, y0, *args, _inner=dynamics.solve_ivp, **kwargs):
        sizes.append(len(y0))
        return _inner(fun, t_span, y0, *args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", logged)
    return sizes


def _both_rhs(M, f, n_rows, sdot=None):
    """The propagator and the general right-hand side of one chunk of rows (f, sdot), and each row's propagator."""
    fs, fslot = dynamics._distinct(f, n_rows)
    sdots, sslot = dynamics._distinct(sdot, n_rows) if sdot is not None else ([], None)
    first, slot = dynamics._index(zip(fslot.tolist(), (sslot if sdots else fslot).tolist()))
    pairs = (fs, fslot[first], sdots, sslot[first] if sdots else None)
    return dynamics._propagator_rhs(M, *pairs), dynamics._general_rhs(M, fs, fslot, sdots, sslot), slot


def _linear_rows(M, case):
    """(f, sdot, n_rows) of a chunk whose rows are all linear."""
    points = 18
    if case == "shared-1":
        return mixing_loop(M, 1.3).hamiltonian, None, 1
    if case == "shared-18":
        return mixing_loop(M, 1.3).hamiltonian, None, points
    if case == "one-row-sdot":
        # a single row always takes the one shared L
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
    # a row with base point u0 on a propagator V carries chi = V chi0, and
    # its spinor turns by (i/k)(w . sigma - f) chi = V' chi0 - (i/k) f chi
    # with f = h' . u0; its sdot is h_s' . u0.  Against the Bloch-vector
    # form of the same equation at random V: the spinor block within 1e-15
    # of its largest entry, and each integrand within 1e-15 of its axis's
    # length, the largest value it takes on the sphere
    rng = np.random.default_rng(3)
    M = OrbitSphere(3)
    f, sdot, n = _linear_rows(M, case)
    prop, gen, slot = _both_rhs(M, f, n, sdot)
    assert prop is not None
    count = int(slot.max()) + 1
    fs = [f] * n if isinstance(f, TimeDepHamiltonian) else f
    sdots = [sdot] * n if sdot is None or isinstance(sdot, TimeDepHamiltonian) else sdot
    assert count == len({(id(h), id(hs)) for h, hs in zip(fs, sdots)})

    def scale(h, t):
        hs = [h] * n if isinstance(h, TimeDepHamiltonian) else h
        return max(np.linalg.norm(linear_axis(g)(t)) for g in hs) if h is not None else 0.0

    times = [0.5 - 1e-9, 0.5 + 1e-9] if case == "breakpoint" else []
    for t in [*rng.uniform(size=6), *times]:
        ab = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
        v = np.zeros((count, 5), dtype=complex)
        v[:, :2] = ab / np.linalg.norm(ab, axis=1, keepdims=True)
        u0 = fibonacci_sphere(n, rng=rng)
        chi = dynamics._turned(v[slot], dynamics._spinors(u0))
        y = np.zeros((n, 3), dtype=complex)
        y[:, :2] = chi
        a, b = np.empty(5 * count, dtype=complex), np.empty(3 * n, dtype=complex)
        prop(t, v.ravel(), a)
        gen(t, y.ravel(), b)
        a, b = a.reshape(count, 5)[slot], b.reshape(n, 3)
        action = (a[:, 2:] * u0).sum(axis=1)
        turn = dynamics._turned(a, dynamics._spinors(u0)) - (1j / M.k) * action.real[:, None] * chi
        assert np.max(np.abs(turn - b[:, :2])) <= 1e-15 * np.max(np.abs(b[:, :2]))
        assert np.max(np.abs(action.real - b[:, 2].real)) <= 1e-15 * scale(f, t)
        assert np.max(np.abs(action.imag - b[:, 2].imag)) <= 1e-15 * scale(sdot, t)


def test_a_non_linear_row_or_sdot_takes_the_general_rhs(monkeypatch):
    # any non-linear f or sdot puts every row on its own 3-number spinor
    # state; an all-linear batch is one 5-number propagator per (f, sdot)
    # (mix behind a plain function, so that it is solved and not read as a
    # word)
    M = OrbitSphere(1)
    mix, quad = plain_hamiltonian(mixing_loop(M, 0.7).hamiltonian), quadratic_hamiltonian(1.5)
    zero = zero_hamiltonian()
    sizes = _state_sizes(monkeypatch)
    dynamics._transport(M, [mix, quad, mix], fibonacci_sphere(3), 1e-10)
    dynamics._transport(M, [mix, mix], fibonacci_sphere(2), 1e-10, sdot=[zero, constant_hamiltonian(0.2)])
    dynamics._transport(M, mix, fibonacci_sphere(2), 1e-10, sdot=zero)
    assert sizes == [9, 6, 5]


def test_general_rhs_reads_only_the_eval_of_sdot():
    # a non-linear sdot puts the rows on the general right-hand side, which
    # integrates sdot's values and never needs its gradient
    M = OrbitSphere(2)
    loop = mixing_loop(M, 0.9)
    sdot = quadratic_hamiltonian(0.7)
    calls = []

    def counted(t, u):
        calls.append(t)
        return sdot.grad(t, u)

    pts = fibonacci_sphere(3, rng=np.random.default_rng(4))
    plain = transport_phases(M, loop, pts, sdot=sdot)
    wrapped = transport_phases(M, loop, pts, sdot=dataclasses.replace(sdot, grad=counted))
    assert calls == []
    assert [(s.phase, s.omega) for s in wrapped] == [(s.phase, s.omega) for s in plain]
    assert any(s.omega != 0.0 for s in plain)


def _eval_wrapped(f):
    """f with its eval wrapped: linear_axis no longer vouches for it, so it takes the general path."""
    return dataclasses.replace(f, eval=lambda t, u: f.eval(t, u))


def _propagator_and_general_rows(M, case):
    """(f, sdot, u0) of a batch of linear rows, each row's f and sdot one object."""
    rng = np.random.default_rng(11)
    if case == "family":
        fam = closed_mixing_family(M, 0.9)
        svals = np.repeat([0.1, 0.35, 0.7], 3)
        return [fam.loop_at(s).hamiltonian for s in svals], [fam.s_deriv(s) for s in svals], fibonacci_sphere(9, rng=rng)
    if case == "mixing":
        fam = mixing_family(M, 1.3, profile="constant")
        svals = np.repeat([0.2, 0.8], 3)
        return [fam.loop_at(s).hamiltonian for s in svals], [fam.s_deriv(s) for s in svals], fibonacci_sphere(6, rng=rng)
    if case == "subgroup":
        fam = subgroup_rotation_family(M, start_angle=0.4, turns=2.0)
        return fam.loop_at(0.3).hamiltonian, fam.s_deriv(0.3), fibonacci_sphere(4, rng=rng)
    loops = {
        "invariant": invariant_loop(M, AlgebraDirection(0.6, 0.8)),
        "mix-ramp": mixing_loop(M, 1.3),
        "mix-constant": mixing_loop(M, math.pi, profile="constant"),
        "scaled": build_loop(M, {"name": "scaled", "base": {"name": "mix", "amplitude": 0.7}, "factor": 3}, Tolerances()),
        "product": product_loop(mixing_loop(M, 0.9), invariant_loop(M, DIR_B)),
    }
    return loops[case].hamiltonian, None, fibonacci_sphere(4, rng=rng)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "case", ["invariant", "mix-ramp", "mix-constant", "scaled", "product", "family", "mixing", "subgroup"]
)
def test_propagator_columns_match_the_general_path(case, n):
    # the action h . u0 and Omega h_s . u0 read off the propagators against
    # the integrals of f and sdot along each row's own spinor solve
    M = OrbitSphere(n)
    f, sdot, u0 = _propagator_and_general_rows(M, case)
    general = _eval_wrapped(f) if isinstance(f, TimeDepHamiltonian) else [_eval_wrapped(h) for h in f]
    y = dynamics._transport(M, f, u0, 1e-10, sdot=sdot)[-1]
    y_gen = dynamics._transport(M, general, u0, 1e-10, sdot=sdot)[-1]
    assert np.max(np.abs(y[:, 2].real - y_gen[:, 2].real)) < 1e-9
    assert np.max(np.abs(y[:, 2].imag - y_gen[:, 2].imag)) < 1e-9
    assert np.max(np.linalg.norm(dynamics._state_points(y) - dynamics._state_points(y_gen), axis=1)) < 1e-9


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("j", [5, 20, 40])
def test_omega_column_steers_the_step(n, j):
    # h_s, unlike h, cancels from nothing: an s-derivative that turns much
    # faster than the flow, with the spinor on a constant axis, must still
    # be resolved.  The reference is the general path at rel_tol 1e-12.
    # The flow turns u once about e_x, so sin(2 pi j t) is orthogonal to
    # sdot's axis . u(t) and Omega is 0: an error shows whole.  The constant
    # axis is behind a plain function, so that the batch is solved and not
    # read as a word (``test_a_fast_sdot_is_resolved_by_the_quadrature``)
    M = OrbitSphere(n)
    k = M.k
    f = linear_hamiltonian(plain(constant_axis([k * math.pi, 0.0, 0.0])))
    sdot = linear_hamiltonian(lambda t: k * np.multiply.outer(np.sin(2.0 * math.pi * j * t), [0.0, 0.3, 0.9]))
    pts = fibonacci_sphere(4, rng=np.random.default_rng(12))
    states = transport_phases(M, HamiltonianLoop(f), pts, sdot=sdot)
    reference = transport_phases(M, HamiltonianLoop(_eval_wrapped(f)), pts, rel_tol=1e-12, sdot=sdot)
    assert max(abs(a.omega - b.omega) for a, b in zip(states, reference)) < 1e-9
    assert max(abs(b.omega) for b in reference) < 1e-12


@pytest.mark.parametrize("nonlinear", [False, True])
def test_one_hamiltonian_is_a_list_of_copies(nonlinear):
    # one Hamiltonian for every row skips the pairing of rows to
    # Hamiltonians and propagators, with the same doubles as n copies of it
    M = OrbitSphere(2)
    f = quadratic_hamiltonian(0.7) if nonlinear else mixing_loop(M, 0.9).hamiltonian
    u0 = fibonacci_sphere(64, rng=np.random.default_rng(8))
    times = (0.25, 1.0)
    alone = dynamics._transport(M, f, u0, 1e-10, times=times)
    copies = dynamics._transport(M, [f] * len(u0), u0, 1e-10, times=times)
    assert _same(alone, copies)


# Every registry family kind, the mixing profiles both ways, and a
# concatenation of two families with fields.
FAMILY_SPECS = [
    {"name": "constant"},
    {"name": "constant", "hamiltonian": {"name": "mix", "amplitude": 1.1}},
    {"name": "subgroup-rotation", "start_angle": 0.4, "turns": 2},
    {"name": "mixing", "amplitude": 1.3, "profile": "constant"},
    {"name": "closed-mixing", "amplitude": 0.9},
    {"name": "mixing", "amplitude": 0.8},
    {"name": "closed-mixing", "amplitude": 0.6, "profile": "constant"},
    "concatenate",
]


def _halves(M):
    """The two halves of the "concatenate" spec: a closed-mixing family, then a subgroup rotation."""
    tol = Tolerances()
    first = build_family(M, {"name": "closed-mixing", "amplitude": 0.9}, tol)
    return first, build_family(M, {"name": "subgroup-rotation", "turns": 1}, tol)


def _family(M, spec):
    """The registry family of spec, or for "concatenate" the path product of ``_halves``."""
    if spec == "concatenate":
        return concatenate(*_halves(M))
    return build_family(M, spec, Tolerances())


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_family_axis_fields_match_their_members(spec):
    # a field family's members share its two fields, which, read at an
    # array of s, give the axes of loop_at(s) and s_deriv(s) row by row; a
    # constant family's members are its loop with a zero s-derivative, and
    # a concatenation's are its halves' members with twice their
    # s-derivatives, bit for bit
    M = OrbitSphere(2)
    fam = _family(M, spec)
    svals = np.linspace(0.0, 1.0, 7)
    ts = np.linspace(0.0, 1.0, 5)
    if spec == "concatenate":
        first, second = _halves(M)
        for s in svals:
            half, x = (first, 2.0 * s) if s < 0.5 else (second, 2.0 * s - 1.0)
            w, ws = linear_axis(fam.loop_at(s).hamiltonian), linear_axis(fam.s_deriv(s))
            assert _same(w(ts), linear_axis(half.loop_at(x).hamiltonian)(ts))
            assert _same(ws(ts), 2.0 * linear_axis(half.s_deriv(x))(ts))
        return
    if spec["name"] == "constant":
        loop = fam.loop_at(0.0)
        for s in svals:
            assert fam.loop_at(s) is loop
            assert _same(linear_axis(fam.s_deriv(s))(ts), np.zeros((len(ts), 3)))
        return
    field, s_field = fields(fam)
    for s in svals:
        assert fam.loop_at(s).hamiltonian.axis.field is field and fam.s_deriv(s).axis.field is s_field
    for t in ts:
        w, ws = field(svals, t), s_field(svals, t)
        assert w.shape == ws.shape == (len(svals), 3)
        for s, w_s, ws_s in zip(svals, w, ws):
            assert np.array_equal(w_s, linear_axis(fam.loop_at(s).hamiltonian)(t))
            assert np.array_equal(ws_s, linear_axis(fam.s_deriv(s))(t))


def test_family_axes_match_the_su2_loops(sphere2):
    # the vectorized fields against the closed-form loops they stand for
    svals = np.linspace(0.0, 1.0, 6)
    fam = closed_mixing_family(sphere2, 0.9, profile="cosine-ramp")
    sub = subgroup_rotation_family(sphere2, start_angle=0.4, turns=2.0)
    mix_field, sub_field = fields(fam)[0], fields(sub)[0]
    for t in (0.0, 0.3, 0.8):
        for s, w_mix, w_sub in zip(svals, mix_field(svals, t), sub_field(svals, t)):
            mix = mixing_loop(sphere2, 0.9 * math.sin(math.pi * s) ** 2).hamiltonian
            lam = 0.4 + 4.0 * math.pi * s
            inv = invariant_loop(sphere2, AlgebraDirection(math.cos(lam), math.sin(lam))).hamiltonian
            assert np.allclose(w_mix, linear_axis(mix)(t), rtol=0, atol=1e-14)
            assert np.allclose(w_sub, linear_axis(inv)(t), rtol=0, atol=1e-14)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _times(breakpoints=()):
    """Times in [0, 1], with the neighbours of every breakpoint on both sides and the breakpoint itself."""
    ts = [0.0, 0.07, 0.3, 0.61, 0.93, 1.0]
    for b in breakpoints:
        ts += [b - 1e-3, math.nextafter(b, 0.0), b, math.nextafter(b, 1.0), b + 1e-3]
    return np.array(ts)


def _package_loops(M):
    R = random_rotation_matrix(np.random.default_rng(4))
    inv, inv_b = invariant_loop(M, AlgebraDirection(0.6, 0.8)), invariant_loop(M, DIR_B)
    mix, mix_const = mixing_loop(M, 1.3), mixing_loop(M, 2.0 * math.pi, profile="constant")
    rotated = verify._rotated(mix, R)
    return [
        inv,
        mix,
        mix_const,
        build_loop(M, {"name": "scaled", "base": {"name": "mix", "amplitude": 0.7}, "factor": 3}, Tolerances()),
        HamiltonianLoop(zero_hamiltonian()),
        rotated,
        product_loop(product_loop(inv, mix_const), product_loop(rotated, inv_b)),
        product_loop(mix, product_loop(inv_b, mix_const)),
    ]


def test_array_reads_equal_scalar_reads():
    # every axis and field the package builds, read over an array of times,
    # is the stack of its reads at each time, bit for bit
    M = OrbitSphere(2)
    for loop in _package_loops(M):
        axis = linear_axis(loop.hamiltonian)
        ts = _times(loop.hamiltonian.breakpoints)
        assert _same(axis(ts), np.array([axis(t) for t in ts])), loop.label
        assert axis(ts[:0]).shape == (0, 3)
    svals = np.linspace(0.0, 1.0, 7)
    ts = _times((0.5,))
    for spec in FAMILY_SPECS:
        fam = _family(M, spec)
        axes = [linear_axis(h) for s in svals for h in (fam.loop_at(s).hamiltonian, fam.s_deriv(s))]
        for axis in axes:
            assert _same(axis(ts), np.array([axis(t) for t in ts])), spec
        # the fields the members read, once each
        fields = {id(axis.field): axis.field for axis in axes if isinstance(axis, MemberAxis)}
        for field in fields.values():
            assert _same(field(svals, ts), np.array([field(svals, t) for t in ts])), spec
            assert field(svals, ts[:0]).shape == (0, len(svals), 3)


def _counted(fn, counts, key):
    def counted(*args):
        counts[key] += 1
        return fn(*args)

    return counted


def _solve_log(monkeypatch):
    """nfev of every solve made while it is patched in."""
    solves = []

    def logged(fun, t_span, y0, rtol, atol, _inner=dynamics.solve_ivp):
        sol = _inner(fun, t_span, y0, rtol=rtol, atol=atol)
        solves.append(sol.nfev)
        return sol

    monkeypatch.setattr(dynamics, "solve_ivp", logged)
    return solves


def _reads_allowed(solves):
    """One read per step attempt and the 2 of each solve's start.

    A step attempt makes 12 evaluations; the first derivative and the
    initial-step probe make the 2 others.
    """
    total = 0
    for nfev in solves:
        attempts, rest = divmod(nfev - 2, 12)
        assert rest == 0
        total += attempts + 2
    return total


def test_family_fields_are_read_once_per_step_attempt(monkeypatch):
    # an omega batch of 6 members at 3 points: each field is one group,
    # where one read per evaluation would make 12 per attempt.  loop_at
    # builds each member once, so the 3 rows of a member share one
    # propagator: a state of 6 x 5 numbers, where one member per row
    # would make 18 x 5
    M = OrbitSphere(2)
    field, s_field = fields(closed_mixing_family(M, 0.9))
    counts = {"axis": 0, "s_axis": 0}
    counted = linear_family(
        _counted(field, counts, "axis"),
        _counted(s_field, counts, "s_axis"),
        lambda s: f"member {s}",
        1e-6,
        closed=True,
        label="counted",
    )
    solves = _solve_log(monkeypatch)
    sizes = _state_sizes(monkeypatch)
    member_states(M, counted, np.linspace(0.05, 0.95, 6), fibonacci_sphere(3))
    assert len(solves) == 1
    assert sizes == [30]
    assert 0 < counts["axis"] <= _reads_allowed(solves)
    assert 0 < counts["s_axis"] <= _reads_allowed(solves)


def test_product_loop_axes_are_read_once_per_step_attempt(monkeypatch):
    # trajectories of distinct rows, read at each quarter, two of them nested
    # products with breakpoints at 1/4, 1/2 and 3/4: each row's axis is its
    # own group
    M = OrbitSphere(1)
    counts = {}
    rows = []
    for i, loop in enumerate(_package_loops(M)[5:]):
        f = loop.hamiltonian
        counts[i] = 0
        rows.append(linear_hamiltonian(_counted(linear_axis(f), counts, i), breakpoints=f.breakpoints))
    solves = _solve_log(monkeypatch)
    trajectories(M, rows, fibonacci_sphere(len(rows)), (0.25, 0.5, 0.75, 1.0))
    assert len(solves) == 4
    for i, reads in counts.items():
        assert 0 < reads <= _reads_allowed(solves), i


def test_a_constant_axis_does_not_write_through():
    # a constant axis keeps its value as the read-only letter of a
    # one-letter word: writing into it raises, and writing into a read, at
    # a scalar time or at an array of times, or into the array it was built
    # from leaves the Hamiltonian as it was; a value that is not one
    # 3-vector is refused
    M = OrbitSphere(1)
    f = invariant_hamiltonian(M, DIR_A)
    u = np.array([1.0, 0.0, 0.0])
    before = f.eval(0.7, u)
    for read in (f.axis(0.0), f.axis(np.array([0.1, 0.2]))):
        if read.flags.writeable:
            read[..., 0] = 99.0
    ((x, *_),) = f.axis.letters
    with pytest.raises(ValueError):
        x[0] = 99.0
    assert f.eval(0.7, u) == before
    w = np.array([1.0, 2.0, 3.0])
    axis = constant_axis(w)
    w[0] = 99.0
    assert axis(0.5).tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        constant_axis(np.zeros((2, 3)))


def _constant_rows(M, plain=False):
    """(fs, sdots) of an all-constant batch, or of the same axes each behind a plain function.

    invariant, scaled x2 and x3 of it and zero, with the zero s-derivative;
    zero with a nonzero s-derivative, and invariant with one that is
    neither along nor across its axis; and three subgroup-rotation members
    with theirs.
    """
    inv, zero = invariant_hamiltonian(M, DIR_A), zero_hamiltonian()
    tilted = invariant_hamiltonian(M, AlgebraDirection(0.6, 0.0, 0.8))
    fam = subgroup_rotation_family(M, start_angle=0.4, turns=2)
    if plain:
        inv, zero, tilted = map(plain_hamiltonian, (inv, zero, tilted))
        fam = plain_family(fam)
    svals = (0.1, 0.35, 0.8)
    fs = [inv, scale_hamiltonian(inv, 2.0), scale_hamiltonian(inv, 3.0), zero, zero, inv]
    fs += [fam.loop_at(s).hamiltonian for s in svals]
    sdots = [zero] * 4 + [inv, tilted] + [fam.s_deriv(s) for s in svals]
    return fs, sdots


def test_an_all_constant_batch_makes_no_solve(monkeypatch):
    # an all-constant batch read at 21 times, as energy-conservation reads a
    # flow: its states are a closed form, with one read of each axis reader
    # and no solve
    M = OrbitSphere(2)
    u0 = fibonacci_sphere(9, rng=np.random.default_rng(21))
    reads, solves = [], []

    def row_axes(hs, slot, _inner=dynamics._row_axes):
        read = _inner(hs, slot)
        return lambda ts: reads.append(len(ts)) or read(ts)

    monkeypatch.setattr(dynamics, "_row_axes", row_axes)
    monkeypatch.setattr(dynamics, "solve_ivp", lambda *args, **kwargs: solves.append(1))
    fs, sdots = _constant_rows(M)
    y = dynamics._transport(M, fs, u0, 1e-10, sdot=sdots, times=np.linspace(0.0, 1.0, 21))
    assert solves == [] and reads == [1, 1]
    assert y.shape == (21, 9, 3) and np.isfinite(y).all()


def test_constant_rows_among_words_are_read_in_closed_form(monkeypatch):
    # the all-constant batch with the mix loop and three closed-mixing
    # members among its rows: one quadrature per group that is no steady
    # letter (the mix word and the members' field), and the constant rows'
    # states are those of the all-constant batch, bit for bit
    M = OrbitSphere(2)
    times = np.linspace(0.0, 1.0, 21)
    fs, sdots = _constant_rows(M)
    u0 = fibonacci_sphere(len(fs) + 5, rng=np.random.default_rng(21))
    fam = closed_mixing_family(M, 0.9)
    svals = (0.2, 0.5, 0.7)
    mix = mixing_loop(M, 0.8).hamiltonian
    words = [mix, mix] + [fam.loop_at(s).hamiltonian for s in svals]
    word_sdots = [zero_hamiltonian()] * 2 + [fam.s_deriv(s) for s in svals]
    calls = []

    def span_integrals(*args, _inner=dynamics._span_integrals):
        calls.append(1)
        return _inner(*args)

    monkeypatch.setattr(dynamics, "_span_integrals", span_integrals)
    y = dynamics._transport(M, fs + words, u0, 1e-10, sdot=sdots + word_sdots, times=times)
    assert len(calls) == 2
    alone = dynamics._transport(M, fs, u0[: len(fs)], 1e-10, sdot=sdots, times=times)
    assert _same(y[:, : len(fs)], alone)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_matches_a_solve_of_the_same_axes(n):
    # the closed form of an all-constant batch against DOP853 solves of the
    # same rows with each axis and field behind a plain function, in every
    # component of every state (spinor, action and Omega integral) at 21
    # times
    M = OrbitSphere(n)
    u0 = fibonacci_sphere(9, rng=np.random.default_rng(21))
    times = np.linspace(0.0, 1.0, 21)
    fs, sdots = _constant_rows(M)
    y = dynamics._transport(M, fs, u0, 1e-10, sdot=sdots, times=times)
    fs, sdots = _constant_rows(M, plain=True)
    y_plain = dynamics._transport(M, fs, u0, 1e-10, sdot=sdots, times=times)
    assert np.abs(y.imag).max() > 0.1
    assert np.abs(y - y_plain).max() < 1e-10


def test_a_rotated_constant_loop_stays_constant():
    # verify's rotated copy of a one-parameter subgroup is one too, with the
    # axis R w of the per-time read; a rotated time-dependent loop is not
    M = OrbitSphere(2)
    R = random_rotation_matrix(np.random.default_rng(4))
    loop = invariant_loop(M, DIR_A)
    axis = linear_axis(verify._rotated(loop, R).hamiltonian)
    assert dynamics._constant(axis)
    w = linear_axis(loop.hamiltonian)(0.0)
    assert _same(axis(0.4), (R @ w[..., None])[..., 0])
    assert not dynamics._constant(linear_axis(verify._rotated(mixing_loop(M, 0.9), R).hamiltonian))


def test_a_rotated_word_is_the_word_of_its_rotated_letters():
    # verify's rotated copy of a word is a word, whose axis is R w(t) of the
    # original's at every time: rotation-covariance cannot tell, since a
    # loop's holonomy is the same from every base point
    M = OrbitSphere(2)
    R = random_rotation_matrix(np.random.default_rng(4))
    loop = product_loop(mixing_loop(M, 0.9), invariant_loop(M, DIR_B))
    axis = linear_axis(verify._rotated(loop, R).hamiltonian)
    assert isinstance(axis, dynamics.SubgroupWord) and axis.k == M.k
    ts = _times(loop.hamiltonian.breakpoints)
    assert np.abs(axis(ts) - linear_axis(loop.hamiltonian)(ts) @ R.T).max() < 1e-13


def _word_rows(M, case):
    """(fs, sdots) of a batch of words, and of the same axes each behind a plain function.

    "mix": the mix loop with both profiles at a in {0.8, 1.7, pi};
    "closed-mixing": its members at 9 values of s with their s-derivatives;
    "product": the path product of two invariant loops; "rotated": verify's
    rotated copy of a mix loop; "constant": constant loops whose
    s-derivative, the mix loop's axis, depends on t, so that h_s is no
    closed form.
    """
    zero = zero_hamiltonian()
    if case == "constant":
        fs = [invariant_hamiltonian(M, DIR_A), zero, invariant_hamiltonian(M, AlgebraDirection(0.6, 0.0, 0.8))]
        sdots = [mixing_loop(M, 0.8).hamiltonian] * len(fs)
        return (fs, sdots), ([plain_hamiltonian(f) for f in fs], [plain_hamiltonian(h) for h in sdots])
    if case == "closed-mixing":
        fam = closed_mixing_family(M, 0.9)
        svals = np.linspace(0.05, 0.95, 9)
        words = ([fam.loop_at(s).hamiltonian for s in svals], [fam.s_deriv(s) for s in svals])
        fam = plain_family(fam)
        return words, ([fam.loop_at(s).hamiltonian for s in svals], [fam.s_deriv(s) for s in svals])
    if case == "mix":
        profiles = ("cosine-ramp", "constant")
        fs = [mixing_loop(M, a, profile=p).hamiltonian for a in (0.8, 1.7, math.pi) for p in profiles]
    elif case == "product":
        fs = [product_loop(invariant_loop(M, DIR_A), invariant_loop(M, AlgebraDirection(0.6, 0.8))).hamiltonian]
    else:
        assert case == "rotated"
        fs = [verify._rotated(mixing_loop(M, 0.8), random_rotation_matrix(np.random.default_rng(4))).hamiltonian]
    tilted = invariant_hamiltonian(M, AlgebraDirection(0.6, 0.0, 0.8))
    sdots = [zero if i % 2 else tilted for i in range(len(fs))]
    return (fs, sdots), ([plain_hamiltonian(f) for f in fs], [plain_hamiltonian(h) for h in sdots])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("case", ["mix", "closed-mixing", "product", "rotated", "constant"])
def test_word_matches_a_solve_of_the_same_axes(case, n):
    # a batch of words is read in closed form: V from its letters, h and
    # h_s by Gauss-Legendre panels.  Against DOP853 solves of the same rows
    # with every axis and field behind a plain function, at a tighter
    # rel_tol than the word's, in every component of every state (spinor,
    # action and Omega integral) at 21 times: the spinors carry V, and
    # the integrals h . u0 and h_s . u0 from 9 base points carry h and h_s
    M = OrbitSphere(n)
    times = np.linspace(0.0, 1.0, 21)
    (fs, sdots), (plain_fs, plain_sdots) = _word_rows(M, case)
    assert all(isinstance(linear_axis(f), (dynamics.SubgroupWord, MemberAxis)) for f in fs)
    u0 = fibonacci_sphere(9, rng=np.random.default_rng(21))
    rows = [i % len(fs) for i in range(9)]
    y = dynamics._transport(M, [fs[i] for i in rows], u0, 1e-10, sdot=[sdots[i] for i in rows], times=times)
    ref = dynamics._transport(
        M, [plain_fs[i] for i in rows], u0, 1e-12, sdot=[plain_sdots[i] for i in rows], times=times
    )
    assert np.abs(y.imag[..., 2]).max() > 0.01
    assert np.abs(y - ref).max() < 1e-10


def test_an_all_word_batch_makes_no_solve(monkeypatch):
    # mix loops, closed-mixing members with their Omega column, a product of
    # a mix loop and an invariant one and a rotated mix loop, read at 21
    # times: all words, so nothing is solved
    M = OrbitSphere(2)
    solves = []
    monkeypatch.setattr(dynamics, "solve_ivp", lambda *args, **kwargs: solves.append(1))
    fs, sdots = [], []
    for case in ("mix", "closed-mixing", "rotated"):
        (f, sdot), _ = _word_rows(M, case)
        fs += f
        sdots += sdot
    fs.append(product_loop(mixing_loop(M, 0.8), invariant_loop(M, DIR_B)).hamiltonian)
    sdots.append(zero_hamiltonian())
    u0 = fibonacci_sphere(len(fs), rng=np.random.default_rng(3))
    y = dynamics._transport(M, fs, u0, 1e-10, sdot=sdots, times=np.linspace(0.0, 1.0, 21))
    assert solves == []
    assert y.shape == (21, len(fs), 3) and np.isfinite(y).all()


def test_a_word_past_its_node_budget_raises():
    # a letter turning 1e9 times faster than the loop's own turn: V is still
    # its closed form, but R(V)^T w_s of a constant sdot across it oscillates
    # as fast, and no panel count within MAX_RHS_EVALS nodes resolves it.
    # Its angle t is behind a plain function, so that the letter is no
    # steady one, whose h_s would be a closed form
    M = OrbitSphere(1)
    word = dynamics.SubgroupWord(((np.array([0.0, 0.0, 1e9]), plain(dynamics.steady_angle), dynamics.unit_rate),))
    f, sdot = linear_hamiltonian(word), invariant_hamiltonian(M, DIR_A)
    with pytest.raises(dynamics.IntegrationError, match=f"quadrature passed its budget of {dynamics.MAX_RHS_EVALS}"):
        dynamics._transport(M, f, fibonacci_sphere(2), 1e-10, sdot=sdot)


@pytest.mark.parametrize("n", [1, 2])
def test_a_fast_sdot_is_resolved_by_the_quadrature(n):
    # test_omega_column_steers_the_step on the word path: a constant f is a
    # word, so a fast s-derivative behind a plain function is integrated by
    # panels, which double until it is resolved.  The reference is the
    # general path at rel_tol 1e-12
    M = OrbitSphere(n)
    k = M.k
    f = linear_hamiltonian(constant_axis([k * math.pi, 0.0, 0.0]))
    sdot = linear_hamiltonian(lambda t: k * np.multiply.outer(np.sin(2.0 * math.pi * 40 * t), [0.0, 0.3, 0.9]))
    pts = fibonacci_sphere(4, rng=np.random.default_rng(12))
    states = transport_phases(M, HamiltonianLoop(f), pts, sdot=sdot)
    reference = transport_phases(M, HamiltonianLoop(_eval_wrapped(f)), pts, rel_tol=1e-12, sdot=sdot)
    assert max(abs(a.omega - b.omega) for a, b in zip(states, reference)) < 1e-9


def test_which_compositions_are_words():
    # the path product of words is one, at the k of its longer words;
    # scaling a one-letter word gives one, scaling a longer word does not
    # (it is no reparametrization of it), and neither does a part whose
    # multi-letter inner starts away from its own start
    M = OrbitSphere(2)
    mix, inv = mixing_loop(M, 0.8), invariant_loop(M, DIR_B)
    one_letter = linear_hamiltonian(dynamics.SubgroupWord(((M.k * DIR_A.axis(), np.sin, np.cos),)))
    product = linear_axis(product_loop(mix, inv).hamiltonian)
    assert isinstance(product, dynamics.SubgroupWord) and product.k == M.k and len(product.letters) == 3
    constant_product = linear_axis(product_loop(inv, inv).hamiltonian)
    assert isinstance(constant_product, dynamics.SubgroupWord) and constant_product.k is None
    assert isinstance(linear_axis(scale_hamiltonian(one_letter, 3.0)), dynamics.SubgroupWord)
    assert not isinstance(linear_axis(scale_hamiltonian(mix.hamiltonian, 3.0)), dynamics.SubgroupWord)
    shifted = dynamics.compose_hamiltonian([(math.inf, mix.hamiltonian, 1.0, 0.25, 1.0)])
    assert not isinstance(linear_axis(shifted), dynamics.SubgroupWord)
    # the product's axis is the generator it stands for, built part by part
    ts = _times(product_loop(mix, inv).hamiltonian.breakpoints)
    generator = linear_axis(product_loop(plain_loop(mix), inv).hamiltonian)
    assert np.abs(product(ts) - generator(ts)).max() < 1e-13


def test_a_scaled_mix_loop_is_solved_and_has_its_closed_form_kappa(monkeypatch):
    # 3 f of the constant-drift mix loop at a = 2 pi is a loop, V(1) =
    # exp(-2 pi i sigma_z) exp(i t (3 pi sigma_x - 4 pi sigma_z)) = -I, so
    # kappa = n/2 mod 1; it is no word, so it is solved
    solves = _solve_log(monkeypatch)
    for n in (1, 2, 3):
        M = OrbitSphere(n)
        spec = {"name": "scaled", "base": {"name": "mix", "amplitude": 2.0 * math.pi, "profile": "constant"}}
        loop = build_loop(M, {**spec, "factor": 3}, Tolerances())
        vals = [st.phase for st in transport_phases(M, loop, fibonacci_sphere(5))]
        assert max(circle_distance(v, (n % 2) / 2.0) for v in vals) < Tolerances().phase_tol
    assert len(solves) == 3


def test_gauss_legendre_rule_is_numpys():
    # the quadrature's own 16-point rule on [0, 1], and the 8-point rule of
    # verify's double-integral check, against numpy's
    for n in (8, 16):
        x, w = np.polynomial.legendre.leggauss(n)
        nodes, weights = dynamics._gauss_legendre(n)
        order = np.argsort(nodes)
        assert np.abs(nodes[order] - 0.5 * (x + 1.0)).max() <= 1e-15
        assert np.abs(weights[order] - 0.5 * w).max() <= 1e-15
