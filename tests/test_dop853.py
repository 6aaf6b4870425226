"""The package's DOP853 stepper against scipy's, bit for bit, and its free components.

Without free components, ``dop853.solve_ivp`` replicates the arithmetic
of scipy's ``solve_ivp(method="DOP853")``.  Every solve a transport or a
flow makes is captured here and solved again by both, without the
right-hand side's ``free``: every right-hand-side call, rejected step
attempts included, must pass the same time and state, and the evaluation
counts, end times and end states must be the same doubles.  Free
components have no scipy twin; they are checked against the stepper
itself and against what the transport reads of them.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from conftest import plain_family, plain_hamiltonian, plain_loop, quadratic_hamiltonian

from preqholo import (
    DIR_A,
    DIR_B,
    DIR_Z,
    HamiltonianLoop,
    OrbitSphere,
    circle_distance,
    closed_mixing_family,
    concatenate,
    dop853,
    dynamics,
    fibonacci_sphere,
    invariant_loop,
    mixing_family,
    mixing_loop,
    product_loop,
    scale_hamiltonian,
    subgroup_rotation_family,
    trajectories,
    transport_phases,
    verify,
    zero_hamiltonian,
)
from preqholo.sphere import random_rotation_matrix
from preqholo.su2 import AlgebraDirection


def _captured_solves(monkeypatch, run):
    """(fun, t_span, y0, rtol, atol) of every solve ``run`` makes."""
    calls = []

    def capture(fun, t_span, y0, rtol, atol, _inner=dynamics.solve_ivp):
        calls.append((fun, t_span, np.array(y0), rtol, atol))
        return _inner(fun, t_span, y0, rtol=rtol, atol=atol)

    monkeypatch.setattr(dynamics, "solve_ivp", capture)
    run()
    monkeypatch.undo()
    assert calls
    return calls


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _logged(fun, calls):
    """``fun`` appending each call's t and y, as exact bytes, to ``calls``; its ``prefetch`` is kept.

    Its ``free`` is not: scipy has no free components, so the parity tests
    check the stepper without them, on the right-hand sides the package
    solves.
    """

    def logged(t, y, out):
        calls.append((float(t).hex(), y.dtype, y.shape, y.tobytes()))
        fun(t, y, out)

    if hasattr(fun, "prefetch"):
        logged.prefetch = fun.prefetch
    return logged


def _assert_same_solve(fun, t_span, y0, rtol, atol):
    ref_calls, own_calls = [], []
    ref_fun = _logged(fun, ref_calls)

    def returning(t, y):
        out = np.empty_like(y)
        ref_fun(t, y, out)
        return out

    ref = scipy.integrate.solve_ivp(returning, t_span, y0, method="DOP853", rtol=rtol, atol=atol)
    own = dop853.solve_ivp(_logged(fun, own_calls), t_span, y0, rtol=rtol, atol=atol)
    assert own.success and ref.success
    assert own_calls == ref_calls
    assert own.nfev == ref.nfev == len(own_calls)
    assert own.t == ref.t[-1]
    assert _same(own.y, ref.y[:, -1])


def test_linear_rows_match_scipy(monkeypatch):
    # the invariant loop's axis behind a plain function, so that it is
    # solved and not read in closed form
    M = OrbitSphere(2)
    loop = plain_loop(invariant_loop(M, AlgebraDirection(0.6, 0.8)))
    for fun, *rest in _captured_solves(monkeypatch, lambda: transport_phases(M, loop, fibonacci_sphere(1))):
        _assert_same_solve(fun, *rest)


def test_generic_rows_match_scipy(monkeypatch):
    # u_x u_y is not linear in u, so the right-hand side calls its own eval
    # and grad; its time-1 flow is no loop, so closure is not checked
    M = OrbitSphere(1)
    loop = HamiltonianLoop(quadratic_hamiltonian(1.5), closure_tol=2.0)
    pts = fibonacci_sphere(2, rng=np.random.default_rng(3))
    for fun, *rest in _captured_solves(monkeypatch, lambda: transport_phases(M, loop, pts)):
        _assert_same_solve(fun, *rest)


def test_piecewise_segments_match_scipy(monkeypatch):
    # a product loop is solved as two segments, each ending one ulp inside 1/2
    # (its axis behind a plain function, so that it is solved and not read as
    # a word)
    M = OrbitSphere(1)
    loop = plain_loop(product_loop(mixing_loop(M, 0.9), invariant_loop(M, DIR_A)))
    calls = _captured_solves(monkeypatch, lambda: transport_phases(M, loop, fibonacci_sphere(3)))
    assert [c[1] for c in calls] == [(0.0, math.nextafter(0.5, 0.0)), (math.nextafter(0.5, 1.0), 1.0)]
    for fun, *rest in calls:
        _assert_same_solve(fun, *rest)


def test_batch_of_distinct_rows_with_omega_column_matches_scipy(monkeypatch):
    # rows of distinct loops of a family with its s-derivative column, one
    # s-derivative per member, as member_states builds them (both fields
    # behind plain functions, so that the members are solved and not read
    # as words)
    M = OrbitSphere(3)
    fam = plain_family(mixing_family(M, amplitude=1.1))
    svals = [0.0, 0.3, 0.7]
    pts = fibonacci_sphere(2, rng=np.random.default_rng(5))
    loops = [fam.loop_at(s) for s in svals for _ in pts]
    sdots = {s: fam.s_deriv(s) for s in svals}
    sdot = [sdots[s] for s in svals for _ in pts]
    rows = np.concatenate([pts] * len(svals))
    calls = _captured_solves(monkeypatch, lambda: transport_phases(M, loops, rows, sdot=sdot))
    # one propagator (a, b, h + i h_s) per distinct (loop, sdot) pair
    assert calls[0][2].shape == (5 * len(svals),)
    for fun, *rest in calls:
        _assert_same_solve(fun, *rest)


def test_field_rows_among_distinct_rows_match_scipy(monkeypatch):
    # the stepper hands the right-hand side each step's stage times and it
    # reads every axis group over them at once; scipy hands over none, so
    # each of its calls reads its own time.  Rows: nested products of
    # invariant loops, a rotated mix loop and the members of a
    # concatenation, with its Omega column and the zero sdot elsewhere.  The
    # first two are behind plain functions: a batch with a row that is no
    # word is solved whole, so the members' word fields are read by the solve
    M = OrbitSphere(2)
    inv = [invariant_loop(M, d) for d in (DIR_A, DIR_B, DIR_Z, AlgebraDirection(0.6, 0.8))]
    nested = plain_loop(product_loop(product_loop(inv[0], inv[1]), product_loop(inv[2], inv[3])))
    rotated = plain_loop(verify._rotated(mixing_loop(M, 0.9), random_rotation_matrix(np.random.default_rng(2))))
    fam = concatenate(closed_mixing_family(M, 0.8), subgroup_rotation_family(M))
    svals = [0.2, 0.5, 0.85]
    loops = [nested, rotated, *(fam.loop_at(s) for s in svals)]
    zero = zero_hamiltonian()
    sdot = [zero, zero, *(fam.s_deriv(s) for s in svals)]
    pts = fibonacci_sphere(len(loops), rng=np.random.default_rng(6))
    phases = _captured_solves(monkeypatch, lambda: transport_phases(M, loops, pts, sdot=sdot))
    # the flows read at two more times, each the end of one more segment
    times = (0.1, 0.25, 0.5, 0.6, 1.0)
    flows = _captured_solves(monkeypatch, lambda: trajectories(M, [lp.hamiltonian for lp in loops], pts, times))
    assert len(phases) == 4 and len(flows) == 6
    for fun, *rest in phases + flows:
        assert hasattr(fun, "prefetch")
        _assert_same_solve(fun, *rest)
    # the rows of an all-constant batch, field rows of subgroup-rotation
    # members with their Omega column among invariant, scaled and zero rows,
    # each axis and field behind a plain function, so that they are solved
    # and not read in closed form
    inv = invariant_loop(M, DIR_B)
    sub = plain_family(subgroup_rotation_family(M, start_angle=0.3))
    loops = [inv, HamiltonianLoop(scale_hamiltonian(inv.hamiltonian, 2.0)), HamiltonianLoop(zero)]
    loops = [plain_loop(loop) for loop in loops] + [sub.loop_at(s) for s in svals]
    sdot = [plain_hamiltonian(zero)] * 3 + [sub.s_deriv(s) for s in svals]
    pts = fibonacci_sphere(len(loops), rng=np.random.default_rng(7))
    phases = _captured_solves(monkeypatch, lambda: transport_phases(M, loops, pts, sdot=sdot))
    flows = _captured_solves(monkeypatch, lambda: trajectories(M, [lp.hamiltonian for lp in loops], pts, times))
    assert len(phases) == 1 and len(flows) == 5
    for fun, *rest in phases + flows:
        assert hasattr(fun, "prefetch")
        _assert_same_solve(fun, *rest)


def test_driven_nonlinear_oscillator_matches_scipy():
    # off the package's path: a driven, damped oscillator whose frequency
    # grows with its amplitude, over several periods
    def fun(t, y, out):
        out[:] = (1j * (1.0 + np.abs(y) ** 2) - 0.1) * y + 0.5 * math.cos(3 * t)

    _assert_same_solve(fun, (0.0, 7.5), np.array([1.0 + 0j, 0.5j]), 1e-9, 1e-12)


def test_rtol_below_the_floor_raises():
    with pytest.raises(ValueError, match="below the floor"):
        dop853.solve_ivp(lambda t, y, out: None, (0.0, 1.0), np.ones(2, dtype=complex), rtol=1e-15, atol=1e-13)


@pytest.mark.filterwarnings("error")
def test_state_that_turns_non_finite_stops_at_the_minimum_step():
    # finite at the start, NaN from t = 0.3 on: every step across 0.3 is
    # rejected until it is shorter than 10 ulps of t
    def fun(t, y, out):
        out[:] = -y if t < 0.3 else math.nan

    sol = dop853.solve_ivp(fun, (0.0, 1.0), np.ones(3, dtype=complex), rtol=1e-10, atol=1e-13)
    assert not sol.success
    assert "spacing between numbers" in sol.message
    assert sol.t < 0.3
    assert sol.nfev < 2000


def test_a_solve_keeps_only_its_end_state():
    # a solve holds its stages and its current state, not one state per
    # accepted step: the memory peak of a non-linear transport of 1,024
    # points stays within a small multiple of its state
    M = OrbitSphere(1)
    loop = HamiltonianLoop(quadratic_hamiltonian(1.5), closure_tol=2.0)
    pts = fibonacci_sphere(1024)
    state_bytes = 1024 * 3 * 16
    tracemalloc.start()
    try:
        transport_phases(M, loop, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * state_bytes

    y0 = np.ones(4, dtype=complex)
    sol = dop853.solve_ivp(lambda t, y, out: np.negative(y, out=out), (0.0, 1.0), y0, rtol=1e-10, atol=1e-13)
    assert sol.success and sol.t == 1.0
    assert sol.y.shape == y0.shape


def _driven_solve(drive: bool, free):
    """The times of every call, and the end state, of a solve of y = (z, q), z' = i z and q' = cos(50 t) or 0."""
    times = []

    def fun(t, y, out):
        times.append(t)
        out[0] = 1j * y[0]
        out[1] = math.cos(50.0 * t) if drive else 0.0

    if free is not None:
        fun.free = free
    sol = dop853.solve_ivp(fun, (0.0, 3.0), np.array([1.0 + 0j, 0j]), rtol=1e-10, atol=1e-13)
    assert sol.success
    return times, sol.y


def test_free_components_never_steer_the_step():
    # Re q is free: driven or not, the solve calls the right-hand side at
    # the same times, from the initial step on, and z ends on the same
    # doubles.  Without free, the drive sets the step
    free = np.array([2])
    driven, y_driven = _driven_solve(True, free)
    still, y_still = _driven_solve(False, free)
    assert driven == still
    assert y_driven[0] == y_still[0]
    assert _driven_solve(True, None)[0] != _driven_solve(False, None)[0]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["mix", "invariant"])
def test_action_column_cancels_from_every_phase(monkeypatch, kind, n):
    # the free h of every propagator, shifted by a constant after each
    # solve, leaves every phase the same mod 1: the spinor carries
    # exp(-i h . u0 / k), the phase subtracts h . u0 again, and
    # n / (2 pi k) = 1.  Its unreduced value moves by whole multiples of n
    # (each loop's axis behind a plain function, so that it is solved and
    # not read in closed form)
    M = OrbitSphere(n)
    loop = plain_loop(mixing_loop(M, 0.9) if kind == "mix" else invariant_loop(M, AlgebraDirection(0.6, 0.8)))
    pts = fibonacci_sphere(8, rng=np.random.default_rng(7))
    plain = transport_phases(M, loop, pts)

    def shifted(fun, t_span, y0, rtol, atol, _inner=dynamics.solve_ivp):
        sol = _inner(fun, t_span, y0, rtol=rtol, atol=atol)
        sol.y.view(float)[fun.free] += 0.37
        return sol

    monkeypatch.setattr(dynamics, "solve_ivp", shifted)
    moved = transport_phases(M, loop, pts)
    for a, b in zip(plain, moved):
        assert circle_distance(a.phase, b.phase) <= 1e-15
        turns = (b.phase - a.phase) / n
        assert abs(turns - round(turns)) < 1e-12
