"""Time-dependent Hamiltonians, their vector fields, and the flow integrator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .sphere import OrbitSphere, fibonacci_sphere, integrate_over_sphere, unit_vector

REL_TOL_RANGE = (1e-13, 1e-3)

# Every adaptive solve in the package (this flow and the holonomy transport)
# uses scipy's 8(5,3) Dormand-Prince pair with this absolute tolerance.
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


def check_finite_rhs(value, t: float) -> None:
    """Raise IntegrationError at t unless every entry of the right-hand side is finite.

    scipy's step-size control never ends when the first step of a solve is
    not finite, so each segment is checked before it is integrated.
    """
    if not np.all(np.isfinite(value)):
        raise IntegrationError("right-hand side is not finite", t=t)


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


@dataclass
class Trajectory:
    """Flow curve t -> psi_t(q) with dense interpolation on [t0, t1]."""

    ts: np.ndarray
    points: np.ndarray
    _sols: list = field(default_factory=list, repr=False)
    _seg_ends: np.ndarray | None = field(default=None, repr=False)

    def at(self, t: float) -> np.ndarray:
        idx = int(np.searchsorted(self._seg_ends[:-1], t, side="right"))
        u = self._sols[idx].sol(t)
        return u / np.linalg.norm(u)

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]


def _segment_times(t0: float, t1: float, breakpoints) -> list[float]:
    inner = sorted(b for b in breakpoints if t0 + 1e-14 < b < t1 - 1e-14)
    return [t0, *inner, t1]


def integrate_isotopy(
    M: OrbitSphere,
    f: TimeDepHamiltonian,
    q,
    rel_tol: float = 1e-10,
) -> Trajectory:
    """Adaptive Dormand-Prince 8(5,3) solution of du/dt = X_t(u) from q over [0, 1].

    The right-hand side is orthogonal to u for any state, so |u| is a first
    integral; samples and segment joints are renormalized to the unit sphere.
    """
    check_rel_tol(rel_tol)
    u0 = unit_vector(q)
    stops = _segment_times(0.0, 1.0, f.breakpoints)

    sols = []
    all_t: list[np.ndarray] = []
    all_u: list[np.ndarray] = []
    y = u0
    for a, b in zip(stops[:-1], stops[1:]):
        check_finite_rhs(hamiltonian_vector_field(M, f, a, y), a)
        sol = solve_ivp(
            lambda t, u: hamiltonian_vector_field(M, f, t, u),
            (a, b),
            y,
            method=_METHOD,
            rtol=rel_tol,
            atol=_ATOL,
            dense_output=True,
        )
        if not sol.success:
            raise IntegrationError(f"flow integration failed: {sol.message}", t=float(sol.t[-1]))
        sols.append(sol)
        pts = sol.y.T / np.linalg.norm(sol.y.T, axis=1, keepdims=True)
        skip = 1 if all_t else 0
        all_t.append(sol.t[skip:])
        all_u.append(pts[skip:])
        y = pts[-1]

    traj = Trajectory(
        ts=np.concatenate(all_t),
        points=np.concatenate(all_u),
        _sols=sols,
        _seg_ends=np.array(stops[1:]),
    )
    return traj


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

    def closure_defect(self, M: OrbitSphere, points=None, rel_tol: float = 1e-10) -> float:
        if points is None:
            points = fibonacci_sphere(20)
        worst = 0.0
        for q in points:
            traj = integrate_isotopy(M, self.hamiltonian, q, rel_tol)
            worst = max(worst, float(np.linalg.norm(traj.endpoint - unit_vector(q))))
        return worst

