"""Time-dependent Hamiltonians, their vector fields, and the one integrator.

Every trajectory in the package is integrated as a spinor.  A trajectory
u(t) on the sphere is the Bloch vector u = chi^dag sigma chi / |chi|^2 of a
spinor chi in C^2 that turns with the angular velocity w = u x X_t(u) of
the trajectory,

    d(chi)/dt = -(i/2) (w . sigma) chi.

w has no component along u, so chi is the horizontal (Berry) lift of u(t),
and it needs no chart anywhere on the sphere.  ``_transport`` carries a
batch of base points this way, together with the integral of f_t along each
trajectory, with the 8th-order Dormand-Prince pair (DOP853): one adaptive
solve per piecewise-smooth segment of the Hamiltonian.  At the tight
tolerances of this package that pair needs 2-4x fewer right-hand-side
evaluations than a 5th-order one.  The holonomy transport reads its end
state; ``integrate_isotopy`` is its dense one-point view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .sphere import OrbitSphere, fibonacci_sphere, integrate_over_sphere, unit_vector

REL_TOL_RANGE = (1e-13, 1e-3)

# The one adaptive solve uses scipy's 8(5,3) Dormand-Prince pair with this
# absolute tolerance.
_METHOD = "DOP853"
_ATOL = 1e-13
_MEAN_GRID = 257
# Component i of a x b is a[i+1] b[i+2] - a[i+2] b[i+1], indices mod 3.
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def check_rel_tol(rel_tol: float) -> None:
    """Raise ValueError unless rel_tol lies in REL_TOL_RANGE."""
    lo, hi = REL_TOL_RANGE
    if not (lo <= rel_tol <= hi):
        raise ValueError(f"rel_tol must lie in [{lo:g}, {hi:g}]")


class IntegrationError(RuntimeError):
    """Flow or transport integration failed; carries the offending time."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message if t is None else f"{message} (at t={t:.6g})")
        self.t = t


class LoopClosureError(RuntimeError):
    """A time-1 flow expected to be the identity failed the closure check."""


@dataclass(frozen=True)
class TimeDepHamiltonian:
    """A function f_t on the sphere together with its surface gradient.

    ``eval(t, u)`` and ``grad(t, u)`` take a scalar time and either a single
    unit vector ``(3,)`` or a batch ``(N, 3)``.  ``breakpoints`` lists
    interior times where f_t is only piecewise smooth; integrators split there.
    """

    eval: Callable
    grad: Callable
    label: str = ""
    time_independent: bool = False
    breakpoints: tuple = ()


def zero_hamiltonian() -> TimeDepHamiltonian:
    return constant_hamiltonian(0.0, label="zero")


def constant_hamiltonian(c: float, label: str | None = None) -> TimeDepHamiltonian:
    c = float(c)

    def ev(t, u):
        u = np.asarray(u, dtype=float)
        return c if u.ndim == 1 else np.full(u.shape[0], c)

    def gr(t, u):
        return np.zeros_like(np.asarray(u, dtype=float))

    return TimeDepHamiltonian(
        eval=ev, grad=gr, label=label or f"const[{c}]", time_independent=True
    )


def scale_hamiltonian(f: TimeDepHamiltonian, c: float, label: str | None = None) -> TimeDepHamiltonian:
    c = float(c)
    return TimeDepHamiltonian(
        eval=lambda t, u: c * f.eval(t, u),
        grad=lambda t, u: c * np.asarray(f.grad(t, u), dtype=float),
        label=label or f"{c}*{f.label}",
        time_independent=f.time_independent,
        breakpoints=f.breakpoints,
    )


def hamiltonian_vector_field(M: OrbitSphere, f: TimeDepHamiltonian, t: float, p) -> np.ndarray:
    """Vector field X with omega(X, .) = -df_t, i.e. X = (2/k) u x grad f.

    ``p`` is one point ``(3,)`` or a batch ``(N, 3)``.  The cross product is
    built from cyclically shifted components, with the same arithmetic as
    ``np.cross`` and a fraction of its call overhead on small inputs.
    """
    u = np.asarray(p, dtype=float)
    g = np.asarray(f.grad(t, u), dtype=float)
    cross = u.take(_NEXT, axis=-1) * g.take(_PREV, axis=-1) - u.take(_PREV, axis=-1) * g.take(_NEXT, axis=-1)
    return (2.0 / M.k) * cross


# The spinor equation works on the real view (Re a, Im a, Re b, Im b) of each
# spinor, where a complex 2 x 2 matrix acts as the real 4 x 4 matrix _real(m)
# and every product is one small matrix product for the whole batch.
def _real(m: np.ndarray) -> np.ndarray:
    r = np.empty((4, 4))
    r[0::2, 0::2] = r[1::2, 1::2] = m.real
    r[1::2, 0::2] = m.imag
    r[0::2, 1::2] = -m.imag
    return r


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# chi^dag sigma_j chi and |chi|^2 as quadratic forms in x (x) x.
_FORMS = np.stack([_real(m).ravel() for m in (*_PAULI, np.eye(2))], axis=1)
# -(i/2) (w . sigma) chi as a bilinear form in w (x) x.
_TURN = np.concatenate([_real(-0.5j * m).T for m in _PAULI])


def _spinors(u: np.ndarray) -> np.ndarray:
    """Unit spinors (a, b) with Bloch vectors u, one row each; the overall phase is arbitrary."""
    x, y, z = u.T
    north = z >= 0.0
    chi = np.empty((len(u), 2), dtype=complex)
    chi[:, 0] = np.where(north, 1.0 + z, x - 1j * y)
    chi[:, 1] = np.where(north, x + 1j * y, 1.0 - z)
    return chi / np.sqrt(2.0 * (1.0 + np.abs(z)))[:, None]


def _bloch(x: np.ndarray) -> np.ndarray:
    """Unit Bloch vectors chi^dag sigma chi / |chi|^2 of spinors in real view (N, 4)."""
    q = (x[:, :, None] * x[:, None, :]).reshape(len(x), 16) @ _FORMS
    return q[:, :3] / q[:, 3:]


def _chunk_size(rel_tol: float) -> int:
    """Most points one solve can carry at rel_tol / sqrt(N) above scipy's floor.

    scipy raises any rtol below 100 eps to 100 eps (with a warning), for
    DOP853 as for every explicit Runge-Kutta pair, which would quietly
    loosen the per-point error control of a large batch.
    """
    floor = 100.0 * np.finfo(float).eps
    size = max(1, int((rel_tol / floor) ** 2))
    while size > 1 and rel_tol / math.sqrt(size) < floor:
        size -= 1
    return size


def _transport(M, f, u0, rel_tol, sdot=None, dense=False):
    """Carry the spinors of the unit base points u0 (N, 3) along the flow of f over [0, 1].

    Returns the N x 3 complex end state, one row per point: the spinor
    (a, b), and the integrals of f_t and of ``sdot(t, u)`` (0 without it)
    along the trajectory as the real and imaginary part of the third
    column.  Also returns the solution of every solve, with dense output
    when ``dense``.  Each breakpoint segment is one DOP853 solve of the
    whole batch.  Its error norm, |h| |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2)
    len), is taken over the whole state and, like an RMS norm, gives N
    identical copies of one point the norm of that point.  rtol and atol
    are therefore divided by sqrt(N), so that the others cannot average
    away the error of one point; batches too large for that are split.
    """
    check_rel_tol(rel_tol)
    # For unit u, w = u x X_t(u) = (2/k) (u (u . g) - g) with g = grad f.
    turn = (2.0 / M.k) * _TURN

    def rhs(t, yy):
        x = yy.reshape(-1, 3)[:, :2].view(float)
        u = _bloch(x)
        g = np.asarray(f.grad(t, u), dtype=float)
        v = u * (u * g).sum(axis=1, keepdims=True) - g
        out = np.empty((len(x), 6))
        out[:, :4] = (v[:, :, None] * x[:, None, :]).reshape(-1, 12) @ turn
        out[:, 4] = f.eval(t, u)
        out[:, 5] = 0.0 if sdot is None else sdot(t, u)
        return out.view(complex).ravel()

    stops = [0.0, *sorted(b for b in f.breakpoints if 1e-14 < b < 1.0 - 1e-14), 1.0]
    y = np.zeros((len(u0), 3), dtype=complex)
    y[:, :2] = _spinors(u0)
    size = _chunk_size(rel_tol)
    sols = []
    for lo in range(0, len(u0), size):
        # A copy: the first dense step keeps y0, and y takes the end state.
        yy = y[lo : lo + size].flatten()
        scale = 1.0 / math.sqrt(len(yy) // 3)
        for t0, t1 in zip(stops[:-1], stops[1:]):
            # scipy's step-size control never ends when the first step is not finite.
            if not np.all(np.isfinite(rhs(t0, yy))):
                raise IntegrationError("right-hand side is not finite", t=t0)
            sol = solve_ivp(
                rhs, (t0, t1), yy, method=_METHOD, rtol=rel_tol * scale, atol=_ATOL * scale,
                dense_output=dense,
            )
            if not sol.success:
                raise IntegrationError(f"transport integration failed: {sol.message}", t=float(sol.t[-1]))
            sols.append(sol)
            yy = sol.y[:, -1]
        y[lo : lo + size] = yy.reshape(-1, 3)
    return y, sols


def _state_points(y: np.ndarray) -> np.ndarray:
    """Trajectory points of states y (N, 3) of ``_transport``: the spinors' Bloch vectors."""
    return _bloch(np.ascontiguousarray(y[:, :2]).view(float))


@dataclass
class Trajectory:
    """Flow curve t -> psi_t(q) on [0, 1]: the Bloch vector of the transported spinor.

    ``ts`` are the solver's steps and ``points`` the trajectory there; ``at``
    reads the dense spinor between them.
    """

    ts: np.ndarray
    points: np.ndarray
    _sols: list = field(default_factory=list, repr=False)

    def at(self, t: float) -> np.ndarray:
        sol = next((s for s in self._sols if t <= s.t[-1]), self._sols[-1])
        return _state_points(sol.sol(t)[None, :])[0]

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]


def integrate_isotopy(
    M: OrbitSphere,
    f: TimeDepHamiltonian,
    q,
    rel_tol: float = 1e-10,
) -> Trajectory:
    """Trajectory of du/dt = X_t(u) from q over [0, 1], with dense output.

    The one-point case of the spinor solve that every transport makes; the
    points are Bloch vectors, unit by construction.
    """
    _, sols = _transport(M, f, unit_vector(q)[None, :], rel_tol, dense=True)
    ts = np.concatenate([sols[0].t[:1]] + [s.t[1:] for s in sols])
    ys = np.concatenate([sols[0].y[:, :1]] + [s.y[:, 1:] for s in sols], axis=1)
    return Trajectory(ts=ts, points=_state_points(ys.T), _sols=sols)


def normalize(M: OrbitSphere, f: TimeDepHamiltonian) -> TimeDepHamiltonian:
    """Subtract the area-form mean of f_t at every time.

    For time-dependent Hamiltonians the mean is sampled on a uniform time
    grid and interpolated with a cubic spline; the output has zero mean at
    every t and normalize is idempotent up to quadrature roundoff.
    """
    if f.time_independent:
        mean = integrate_over_sphere(M, lambda pts: np.asarray(f.eval(0.0, pts), dtype=float))
        mean /= M.total_area
        return TimeDepHamiltonian(
            eval=lambda t, u: f.eval(t, u) - mean,
            grad=f.grad,
            label=f"{f.label} - mean",
            time_independent=True,
            breakpoints=f.breakpoints,
        )

    ts = np.linspace(0.0, 1.0, _MEAN_GRID)
    means = np.array(
        [
            integrate_over_sphere(M, lambda pts, tt=t: np.asarray(f.eval(tt, pts), dtype=float))
            for t in ts
        ]
    )
    means /= M.total_area
    spline = CubicSpline(ts, means)

    return TimeDepHamiltonian(
        eval=lambda t, u: f.eval(t, u) - float(spline(t)),
        grad=f.grad,
        label=f"{f.label} - mean(t)",
        time_independent=False,
        breakpoints=f.breakpoints,
    )


@dataclass(frozen=True)
class HamiltonianLoop:
    """A unit-period isotopy expected to close up to ``closure_tol``.

    ``closure_defect`` measures closure on a probe set of points;
    ``transport_phases`` checks it at every base point it transports.
    """

    hamiltonian: TimeDepHamiltonian
    closure_tol: float = 1e-6
    label: str = ""

    def closure_defect(self, M: OrbitSphere) -> float:
        """Largest distance of psi_1(q) from q over 20 probe points, in one batched solve."""
        u0 = fibonacci_sphere(20)
        y, _ = _transport(M, self.hamiltonian, u0, 1e-10)
        return float(np.max(np.linalg.norm(_state_points(y) - u0, axis=1)))
