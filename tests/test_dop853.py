"""The package's DOP853 stepper against scipy's, bit for bit.

``dynamics.solve_ivp`` replicates the arithmetic of scipy's
``solve_ivp(method="DOP853")``.  Every solve a transport makes is captured
here and solved again by both, with dense output, and the step grids, the
states, the evaluation counts and the dense reads must be the same doubles.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.integrate

from conftest import quadratic_hamiltonian

from preqholo import (
    DIR_A,
    HamiltonianLoop,
    OrbitSphere,
    dynamics,
    fibonacci_sphere,
    invariant_loop,
    mixing_family,
    mixing_loop,
    product_loop,
    transport_phases,
)
from preqholo.su2 import AlgebraDirection


def _captured_solves(monkeypatch, run):
    """(fun, t_span, y0, rtol, atol) of every solve ``run`` makes."""
    calls = []

    def capture(fun, t_span, y0, rtol, atol, dense_output=False, _inner=dynamics.solve_ivp):
        calls.append((fun, t_span, np.array(y0), rtol, atol))
        return _inner(fun, t_span, y0, rtol=rtol, atol=atol, dense_output=dense_output)

    monkeypatch.setattr(dynamics, "solve_ivp", capture)
    run()
    monkeypatch.undo()
    assert calls
    return calls


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_solve(fun, t_span, y0, rtol, atol):
    def returning(t, y):
        out = np.empty_like(y)
        fun(t, y, out)
        return out

    ref = scipy.integrate.solve_ivp(returning, t_span, y0, method="DOP853", rtol=rtol, atol=atol, dense_output=True)
    own = dynamics.solve_ivp(fun, t_span, y0, rtol=rtol, atol=atol, dense_output=True)
    assert own.success and ref.success
    assert own.nfev == ref.nfev
    assert _same(own.t, ref.t)
    assert _same(own.y, ref.y)
    # interior reads: the middle of every step, points a third of the way,
    # every step boundary and the span's ends
    ts = np.concatenate([0.5 * (ref.t[1:] + ref.t[:-1]), ref.t[:-1] + (ref.t[1:] - ref.t[:-1]) / 3, ref.t])
    for t in ts:
        assert _same(own.sol(t), ref.sol(t)), t
    # the undense solve takes the same steps with 3 fewer evaluations each
    plain = dynamics.solve_ivp(fun, t_span, y0, rtol=rtol, atol=atol)
    assert plain.sol is None and _same(plain.y, ref.y)
    assert plain.nfev == ref.nfev - 3 * (len(ref.t) - 1)


def test_linear_rows_match_scipy(monkeypatch):
    M = OrbitSphere(2)
    loop = invariant_loop(M, AlgebraDirection(0.6, 0.8))
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
    M = OrbitSphere(1)
    loop = product_loop(mixing_loop(M, 0.9), invariant_loop(M, DIR_A))
    calls = _captured_solves(monkeypatch, lambda: transport_phases(M, loop, fibonacci_sphere(3)))
    assert [c[1] for c in calls] == [(0.0, math.nextafter(0.5, 0.0)), (math.nextafter(0.5, 1.0), 1.0)]
    for fun, *rest in calls:
        _assert_same_solve(fun, *rest)


def test_batch_of_distinct_rows_with_omega_column_matches_scipy(monkeypatch):
    # rows of distinct loops of a family with its s-derivative column
    M = OrbitSphere(3)
    fam = mixing_family(M, amplitude=1.1)
    svals = [0.0, 0.3, 0.7]
    pts = fibonacci_sphere(2, rng=np.random.default_rng(5))
    loops = [fam.loop_at(s) for s in svals for _ in pts]
    sdot = [fam.s_deriv(s) for s in svals for _ in pts]
    rows = np.concatenate([pts] * len(svals))
    calls = _captured_solves(monkeypatch, lambda: transport_phases(M, loops, rows, sdot=sdot))
    assert calls[0][2].shape == (3 * len(rows),)
    for fun, *rest in calls:
        _assert_same_solve(fun, *rest)


def test_driven_nonlinear_oscillator_matches_scipy():
    # off the package's path: a driven, damped oscillator whose frequency
    # grows with its amplitude, over several periods
    def fun(t, y, out):
        out[:] = (1j * (1.0 + np.abs(y) ** 2) - 0.1) * y + 0.5 * math.cos(3 * t)

    _assert_same_solve(fun, (0.0, 7.5), np.array([1.0 + 0j, 0.5j]), 1e-9, 1e-12)


def test_rtol_below_the_floor_raises():
    with pytest.raises(ValueError, match="below the floor"):
        dynamics.solve_ivp(lambda t, y, out: None, (0.0, 1.0), np.ones(2, dtype=complex), rtol=1e-15, atol=1e-13)


@pytest.mark.filterwarnings("error")
def test_state_that_turns_non_finite_stops_at_the_minimum_step():
    # finite at the start, NaN from t = 0.3 on: every step across 0.3 is
    # rejected until it is shorter than 10 ulps of t
    def fun(t, y, out):
        out[:] = -y if t < 0.3 else math.nan

    sol = dynamics.solve_ivp(fun, (0.0, 1.0), np.ones(3, dtype=complex), rtol=1e-10, atol=1e-13)
    assert not sol.success
    assert "spacing between numbers" in sol.message
    assert sol.t[-1] < 0.3
    assert sol.nfev < 2000
