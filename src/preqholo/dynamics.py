"""Time-dependent Hamiltonians, their vector fields, and the one integrator.

Every trajectory in the package is integrated as a spinor.  A trajectory
u(t) on the sphere is the Bloch vector u = chi^dag sigma chi / |chi|^2 of a
spinor chi in C^2 that turns with the angular velocity w = u x X_t(u) of
the trajectory,

    d(chi)/dt = -(i/2) (w . sigma) chi.

w has no component along u, so chi is the horizontal (Berry) lift of u(t),
and it needs no chart anywhere on the sphere.  Most generators are moment
maps of SU(2), linear Hamiltonians f_t(u) = v(t) . u, and for them this is
the SU(2) action itself: (u . sigma) chi = chi turns the equation into

    d(chi)/dt = (i/k) (v . sigma - f_t(u)) chi,   f_t(u) = chi^dag (v . sigma) chi / |chi|^2,

which needs no Bloch vector either.  ``_transport`` carries a
batch of rows this way, each a (Hamiltonian, base point) pair, together
with the integral of f_t along each trajectory, with the package's own
8th-order Dormand-Prince pair (DOP853, ``solve_ivp``): one adaptive solve
per piecewise-smooth segment of the rows' Hamiltonians.  At the tight
tolerances of this package that pair needs 2-4x fewer right-hand-side
evaluations than a 5th-order one.  The holonomy transport reads its end
state; ``trajectories`` and ``integrate_isotopy`` are its dense views.
The runtime needs numpy only.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import dop853
from .sphere import OrbitSphere, unit_vector

REL_TOL_RANGE = (1e-13, 1e-3)

# The absolute tolerance of the one adaptive solve.
_ATOL = 1e-13
# The budget of right-hand-side evaluations of one solve (one segment of one
# chunk): ``solve_ivp`` stops at the first step attempt past it.  The step
# count grows with the speed of the flow, and no input bounds that.  The
# largest count a test, a verify check or a bench op makes is 1,952 (the
# generic pieces of test_each_segment_reads_only_its_own_piece), under
# 1/130 of the budget, while a `mix` amplitude of 1e5 would otherwise run
# for hours.
MAX_RHS_EVALS = 2**18
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
    """A time-1 flow expected to be the identity failed the closure check.

    ``row`` is the failing row of the batch and ``defect`` says by how much
    it missed, when the error comes from a batch.
    """

    def __init__(self, message: str, row: int | None = None, defect: str = ""):
        super().__init__(message)
        self.row = row
        self.defect = defect


@dataclass(frozen=True)
class TimeDepHamiltonian:
    """A function f_t on the sphere together with its surface gradient.

    ``eval(t, u)`` and ``grad(t, u)`` take a scalar time and either a single
    unit vector ``(3,)`` or a batch ``(N, 3)``.  ``breakpoints`` lists
    interior times where f_t is only piecewise smooth; the integrator solves
    each segment between them apart, from and to one ulp inside each
    breakpoint.  It reads f_t only strictly inside a segment, so a generator
    may switch pieces on ``t < b`` or on ``t <= b``.
    ``time_independent`` is a caller's flag; the package never reads it.
    ``axis(t)``, when given, is the vector w(t) of a linear Hamiltonian
    f_t(u) = w(t) . u built by ``linear_hamiltonian``; ``linear_axis``
    says whether it may stand in for ``eval`` and ``grad``.
    """

    eval: Callable
    grad: Callable
    label: str = ""
    time_independent: bool = False
    breakpoints: tuple = ()
    axis: Callable | None = None


def zero_hamiltonian() -> TimeDepHamiltonian:
    """f_t = 0, the linear Hamiltonian with the zero axis."""
    return linear_hamiltonian(lambda t: np.zeros(3), label="zero")


def linear_hamiltonian(axis: Callable, label: str = "", breakpoints: tuple = ()) -> TimeDepHamiltonian:
    """The Hamiltonian f_t(u) = axis(t) . u, with eval and grad derived from the axis.

    Its surface gradient is the tangent part axis(t) - (u . axis(t)) u.  It
    has zero mean on the sphere.  Both functions carry the axis they come
    from as ``_axis``, which ``functools.wraps`` copies to a wrapper.
    """

    def ev(t, u):
        return np.asarray(u, dtype=float) @ axis(t)

    def gr(t, u):
        u = np.asarray(u, dtype=float)
        w = axis(t)
        return w - (u @ w)[..., None] * u

    ev._axis = gr._axis = axis
    return TimeDepHamiltonian(eval=ev, grad=gr, label=label, breakpoints=breakpoints, axis=axis)


@dataclass(frozen=True)
class MemberAxis:
    """The axis t -> field(s, t) of the member s of a family of linear Hamiltonians.

    ``field(svals, t)`` takes an array of s and returns their axes at t,
    one row each.  ``_transport`` reads the axes of all rows that share a
    field in one call of it per right-hand-side evaluation.
    """

    field: Callable
    s: float

    def __call__(self, t) -> np.ndarray:
        return self.field(np.array([self.s]), t)[0]


def linear_axis(f: TimeDepHamiltonian) -> Callable | None:
    """f's axis if its eval and grad are the ones ``linear_hamiltonian`` derived from it, else None.

    ``dataclasses.replace(f, eval=...)`` keeps the axis but not the
    derivation, so such an f counts as non-linear.
    """
    axis = f.axis
    derived = axis is not None and all(getattr(fn, "_axis", None) is axis for fn in (f.eval, f.grad))
    return axis if derived else None


def scale_hamiltonian(f: TimeDepHamiltonian, c: float, label: str | None = None) -> TimeDepHamiltonian:
    c = float(c)
    label = label or f"{c}*{f.label}"
    axis = linear_axis(f)
    if axis is not None:
        return linear_hamiltonian(lambda t: c * axis(t), label=label, breakpoints=f.breakpoints)
    return TimeDepHamiltonian(
        eval=lambda t, u: c * f.eval(t, u),
        grad=lambda t, u: c * np.asarray(f.grad(t, u), dtype=float),
        label=label,
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


# Step-size control of the DOP853 pair: the step grows or shrinks by
# SAFETY * err^(-1/8) (err is the error norm, below 1 on an accepted step)
# within [MIN_FACTOR, MAX_FACTOR], and never grows right after a rejection.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_EXPONENT = -1 / 8
# The smallest rtol a solve accepts.
RTOL_FLOOR = 100 * np.finfo(float).eps
# The tableau cast to complex once, as numpy would cast it in every product
# with the complex stages: (node, weights of the earlier stages) for stages
# 1-11 of a step and the dense output's extra stages 13-15, then the weights
# of the solution, of the two error estimates and of the interpolant.
_STAGES = [(dop853.C[s], dop853.A[s].astype(complex)) for s in range(1, dop853.N_STAGES)]
_EXTRA_STAGES = [
    (dop853.C[s], dop853.A[s].astype(complex)) for s in range(dop853.N_STAGES + 1, dop853.N_STAGES_EXTENDED)
]
_B, _E5, _E3, _D = (v.astype(complex) for v in (dop853.B, dop853.E5, dop853.E3, dop853.D))


@dataclass
class Solution:
    """What ``solve_ivp`` returns: the accepted step times ``t`` and states
    ``y`` (one column each), the right-hand-side evaluation count ``nfev``,
    ``success`` and ``message``, and ``sol``, the dense output, or None."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    success: bool
    message: str
    sol: DenseOutput | None


class DenseOutput:
    """The DOP853 interpolants of a solve: ``sol(t)`` is the state at a scalar t.

    Step i covers [ts[i], ts[i + 1]] with the 7th-degree polynomial whose
    coefficients are ``F[i]``; a time on a step boundary reads the earlier
    step, and times outside the solve read the first or last step.
    """

    def __init__(self, ts: list, steps: list):
        self.ts = ts
        self.steps = steps

    def __call__(self, t) -> np.ndarray:
        i = min(max(bisect.bisect_left(self.ts, t) - 1, 0), len(self.steps) - 1)
        t_old, h, y_old, F = self.steps[i]
        x = (t - t_old) / h
        y = np.zeros_like(y_old)
        for j, f in enumerate(F[::-1]):
            y += f
            y *= x if j % 2 == 0 else 1 - x
        return y + y_old


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size**0.5


def _initial_step(fun, t0, y0, t1, f0, f1, rtol, atol):
    """The first step size of a solve from (t0, y0) with derivative f0 (Hairer et al., Sec. II.4).

    Evaluates the right-hand side once more, into ``f1``.
    """
    interval = t1 - t0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    fun(t0 + h0, y0 + h0 * f0, f1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


# A state that turns non-finite makes the error norm NaN, and every step
# across it is rejected until the solve stops at the minimum step with its
# own message; numpy's warning about the NaN would only repeat that.
@np.errstate(invalid="ignore")
def solve_ivp(fun, t_span, y0, rtol, atol, dense_output=False) -> Solution:
    """Solve y' = fun(t, y) for a complex y over t_span = (t0, t1), t0 < t1, with the DOP853 pair.

    ``fun(t, y, out)`` writes the derivative at (t, y) into ``out``, an array
    like y: each stage is one call that fills its own row of the stage
    array, with no copy.  The arithmetic is that of scipy 1.17's
    ``solve_ivp(method="DOP853")``, operation for operation (initial step,
    stages, error norm, step control, minimum step of 10 ulps, dense
    output), so the results are the same doubles; scipy is not imported.  The solve fails (``success`` False, ``message`` says why, and
    ``t[-1]`` is the last time reached) when the first derivative is not
    finite, where the step control would never end; when a step would be
    shorter than 10 ulps of t; and once it has made more than
    ``MAX_RHS_EVALS`` right-hand-side evaluations.  An rtol below
    ``RTOL_FLOOR`` raises ValueError.
    """
    t0, t1 = map(float, t_span)
    if not t0 < t1:
        raise ValueError(f"solve_ivp needs t0 < t1, got ({t0!r}, {t1!r})")
    if rtol < RTOL_FLOOR:
        raise ValueError(f"rtol {rtol:g} is below the floor {RTOL_FLOOR:g}")
    y = np.asarray(y0, dtype=complex)
    # K[s] is stage s; K[12] is the derivative at the current point.
    K = np.empty((dop853.N_STAGES_EXTENDED, y.size), dtype=complex)
    KT = [K[:s].T for s in range(dop853.N_STAGES_EXTENDED + 1)]
    ts, ys, steps = [t0], [y], [] if dense_output else None

    def result(success, message):
        sol = DenseOutput(ts, steps) if dense_output and success else None
        return Solution(np.array(ts), np.vstack(ys).T, nfev, success, message, sol)

    fun(t0, y, K[12])
    nfev = 1
    if not np.isfinite(K[12]).all():
        return result(False, "right-hand side is not finite")
    h_abs = _initial_step(fun, t0, y, t1, K[12], K[1], rtol, atol)
    nfev += 1
    t = t0
    while t < t1:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        K[0] = K[12]
        rejected = False
        while True:
            if h_abs < min_step:
                return result(False, "Required step size is less than spacing between numbers.")
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = abs(h)
            for s, (c, a) in enumerate(_STAGES, start=1):
                fun(t + c * h, y + np.dot(KT[s], a) * h, K[s])
            y_new = y + h * np.dot(KT[12], _B)
            fun(t + h, y_new, K[12])
            nfev += 12
            if nfev > MAX_RHS_EVALS:
                return result(False, f"solve passed its budget of {MAX_RHS_EVALS} right-hand-side evaluations")
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.dot(KT[13], _E5) / scale
            err3 = np.dot(KT[13], _E3) / scale
            err5_2 = np.linalg.norm(err5) ** 2
            err3_2 = np.linalg.norm(err3) ** 2
            if err5_2 == 0 and err3_2 == 0:
                error_norm = 0.0
            else:
                error_norm = np.abs(h) * err5_2 / np.sqrt((err5_2 + 0.01 * err3_2) * len(scale))
            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else min(_MAX_FACTOR, _SAFETY * error_norm**_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_EXPONENT)
            rejected = True
        if dense_output:
            for s, (c, a) in enumerate(_EXTRA_STAGES, start=dop853.N_STAGES + 1):
                fun(t + c * h, y + np.dot(KT[s], a) * h, K[s])
            nfev += 3
            F = np.empty((7, y.size), dtype=complex)
            delta_y = y_new - y
            F[0] = delta_y
            F[1] = h * K[0] - delta_y
            F[2] = 2 * delta_y - h * (K[12] + K[0])
            F[3:] = h * np.dot(_D, K)
            steps.append((t, h, y, F))
        t, y = t_new, y_new
        ts.append(t)
        ys.append(y)
    return result(True, "The solver successfully reached the end of the integration interval.")


def _chunk_size(rel_tol: float) -> int:
    """Most points one solve can carry at rel_tol / sqrt(N) at or above ``RTOL_FLOOR``.

    ``solve_ivp`` refuses an rtol below that floor, where the rounding of
    a step is as large as the error the tolerance asks for.
    """
    size = max(1, int((rel_tol / RTOL_FLOOR) ** 2))
    while size > 1 and rel_tol / math.sqrt(size) < RTOL_FLOOR:
        size -= 1
    return size


def _distinct(items, n: int):
    """The distinct entries of a per-row sequence, and each row's index into them.

    One Hamiltonian stands for every row.  Entries are told apart by identity.
    """
    if isinstance(items, TimeDepHamiltonian):
        return [items], np.zeros(n, dtype=int)
    items = list(items)
    if len(items) != n:
        raise ValueError(f"{len(items)} per-row entries for {n} rows")
    distinct, index, slot = [], {}, np.empty(n, dtype=int)
    for i, item in enumerate(items):
        slot[i] = index.setdefault(id(item), len(distinct))
        if slot[i] == len(distinct):
            distinct.append(item)
    return distinct, slot


def _groups(slot: np.ndarray) -> list:
    """(j, rows with slot j) for every index j that occurs in slot, in order of j.

    A contiguous run of rows is a slice, so that indexing by it copies nothing.
    """
    out = []
    for j in sorted(set(slot.tolist())):
        idx = np.flatnonzero(slot == j)
        out.append((j, slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] + 1 == len(idx) else idx))
    return out


def _hamiltonian_terms(fs, slot):
    """(t, u) -> (f_t(u), grad f_t(u)) for the rows of one chunk.

    Row i has the Hamiltonian ``fs[slot[i]]``; each one calls its own eval
    and grad on its rows.
    """
    groups = [(fs[j], idx) for j, idx in _groups(slot)]

    def terms(t, u):
        e = np.empty(len(u))
        g = np.empty((len(u), 3))
        for f, idx in groups:
            e[idx] = f.eval(t, u[idx])
            g[idx] = f.grad(t, u[idx])
        return e, g

    return terms


def _general_rhs(M, fs, fslot, sdots, sslot):
    """The right-hand side of a chunk of rows with any Hamiltonians (see ``_transport``).

    For unit u, w = u x X_t(u) = (2/k) (u (u . g) - g) with g = grad f.
    """
    turn = (2.0 / M.k) * _TURN
    ham = _hamiltonian_terms(fs, fslot)
    sd = _hamiltonian_terms(sdots, sslot) if sdots else None

    def rhs(t, yy, out):
        x = yy.reshape(-1, 3)[:, :2].view(float)
        u = _bloch(x)
        e, g = ham(t, u)
        v = u * (u * g).sum(axis=1, keepdims=True) - g
        o = out.view(float).reshape(-1, 6)
        o[:, :4] = (v[:, :, None] * x[:, None, :]).reshape(-1, 12) @ turn
        o[:, 4] = e
        o[:, 5] = sd(t, u)[0] if sd else 0.0

    return rhs


def _row_axes(hs, slot):
    """t -> the axes of the rows' Hamiltonians ``hs[slot[i]]``, or None unless each is linear.

    The reader returns one axis (3,) when all rows share one Hamiltonian
    and one per row (N, 3) otherwise.  The rows whose axes are members of
    one field (``MemberAxis``) are read in one call of that field, and the
    rows that share any other axis in one call of it.
    """
    js = sorted(set(slot.tolist()))
    axes = [linear_axis(hs[j]) for j in js]
    if any(axis is None for axis in axes):
        return None
    if len(axes) == 1:
        return axes[0]
    groups = {}
    for j, axis in zip(js, axes):
        key = axis.field if isinstance(axis, MemberAxis) else axis
        groups.setdefault(id(key), (key, []))[1].append((j, axis))
    reads, at, count = [], {}, 0
    for key, members in groups.values():
        if isinstance(members[0][1], MemberAxis):
            svals = np.array([axis.s for _, axis in members])
            reads.append(lambda t, field=key, svals=svals: field(svals, t))
            at.update((j, count + i) for i, (j, _) in enumerate(members))
            count += len(members)
        else:
            reads.append(lambda t, axis=key: axis(t)[None])
            at.update((j, count) for j, _ in members)
            count += 1
    rows = np.array([at[j] for j in slot.tolist()])

    if len(reads) == 1:
        return lambda t: reads[0](t)[rows]
    return lambda t: np.concatenate([read(t) for read in reads])[rows]


def _linear_basis(k: float) -> np.ndarray:
    """B, 7 x 80: (w, 1, w_s) @ B is the 4 x 20 matrix C of a linear row's right-hand side.

    w is the axis of f and w_s that of ``sdot``.  In the real view x (4,)
    of a spinor chi, x @ C is the real view of -(i/k) (w . sigma) chi,
    -(i/k) chi, (w . sigma) chi, (w_s . sigma) chi and chi, four entries
    each: the last three give chi^dag (w . sigma) chi,
    chi^dag (w_s . sigma) chi and |chi|^2 as dot products with x.
    """
    B = np.zeros((7, 4, 5, 4))
    for j, m in enumerate(_PAULI):
        B[j, :, 0] = _real(-1j * m / k).T
        B[j, :, 2] = B[4 + j, :, 3] = _real(m).T
    B[3, :, 1] = _real(-1j * np.eye(2) / k).T
    B[3, :, 4] = np.eye(4)
    return B.reshape(7, 80)


def _linear_rhs(M, fs, fslot, sdots, sslot):
    """The right-hand side of a chunk whose f and ``sdot`` are all linear, or None.

    The general right-hand side turns chi by -(i/k) (u (u . g) - g) . sigma,
    and (u . sigma) chi = chi, so with g the axis w of f_t(u) = w . u it is
    chi' = (i/k) (w . sigma - f_t(u)) chi, and f_t(u) is the quadratic form
    chi^dag (w . sigma) chi / |chi|^2, unnormalized chi included.  ``sdot``
    is read as the quadratic form of its own axis.  One product x @ C
    (``_linear_basis``) per evaluation gives all three; C is one matrix
    when every row has the same f and ``sdot``, and one per row otherwise.
    """
    w_at = _row_axes(fs, fslot)
    ws_at = _row_axes(sdots, sslot) if sdots else None
    if w_at is None or (sdots and ws_at is None):
        return None
    basis = _linear_basis(M.k)
    shared = len(set(fslot.tolist())) == 1 and (not sdots or len(set(sslot.tolist())) == 1)
    coef = np.zeros(7 if shared else (len(fslot), 7))
    coef[..., 3] = 1.0

    def rhs(t, yy, out):
        coef[..., :3] = w_at(t)
        if ws_at is not None:
            coef[..., 4:] = ws_at(t)
        c = coef @ basis
        x = yy.reshape(-1, 3)[:, :2].view(float)
        p = x @ c.reshape(4, 20) if shared else np.matmul(x[:, None], c.reshape(-1, 4, 20))[:, 0]
        s = np.matmul(p[:, 8:].reshape(-1, 3, 4), x[:, :, None])[:, :, 0]
        o = out.view(float).reshape(-1, 6)
        o[:, 4:] = s[:, :2] / s[:, 2:]
        o[:, :4] = o[:, 4:5] * p[:, 4:8] - p[:, :4]

    return rhs


def _transport(M, f, u0, rel_tol, sdot=None, dense=False):
    """Carry the spinors of the rows' unit base points u0 (N, 3) along their flows over [0, 1].

    A row is a (Hamiltonian, base point, ``sdot``) triple: ``f`` is one
    Hamiltonian for every row or a sequence with one per row, and
    ``sdot`` likewise, or None.  Returns the N x 3 complex end state, one
    row each: the spinor (a, b), and the integrals of f_t and of
    ``sdot`` (0 without it) along the trajectory as the real and imaginary
    part of the third column.  Both integrands are Hamiltonians and are
    evaluated alike.  A chunk whose f and ``sdot`` are all linear
    (``linear_axis``) turns its spinors by the SU(2) action, one small
    matrix product per evaluation (``_linear_rhs``); any other chunk forms
    the Bloch vectors and calls each Hamiltonian's own eval and grad
    (``_general_rhs``).  Also returns,
    for each chunk of rows in order, the solution of its every solve, with
    dense output when ``dense``.  Each segment between the union of the
    rows' breakpoints is one DOP853 solve (``solve_ivp``) of the chunk.  DOP853 evaluates
    the right-hand side at both ends of the time span it solves, so at an
    end that is a breakpoint the span stops one ulp inside the segment: a
    segment reads f_t and ``sdot`` only on its own piece, and its steps are
    not rejected over and over at a jump of the generator that belongs to
    the next one.  The two ulps skipped at each breakpoint are far below
    the solver's tolerance, and so is a segment that leaves no span.
    A solve's error norm, |h| |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) len), is
    taken over the whole state and, like an RMS norm, gives N identical
    copies of one row the norm of that row.  rtol and atol are therefore
    divided by sqrt(N), so that the others cannot average away the error of
    one row; batches too large for that are split.  A solve that passes
    ``MAX_RHS_EVALS`` raises IntegrationError.
    """
    check_rel_tol(rel_tol)
    fs, fslot = _distinct(f, len(u0))
    sdots, sslot = _distinct(sdot, len(u0)) if sdot is not None else ([], None)
    breaks = {b for h in fs for b in h.breakpoints if 1e-14 < b < 1.0 - 1e-14}
    stops = [0.0, *sorted(breaks), 1.0]
    y = np.zeros((len(u0), 3), dtype=complex)
    y[:, :2] = _spinors(u0)
    size = _chunk_size(rel_tol)
    chunks = []
    for lo in range(0, len(u0), size):
        # A copy: the first dense step keeps y0, and y takes the end state.
        yy = y[lo : lo + size].flatten()
        scale = 1.0 / math.sqrt(len(yy) // 3)
        rows = (fs, fslot[lo : lo + size], sdots, sslot[lo : lo + size] if sdots else None)
        rhs = _linear_rhs(M, *rows) or _general_rhs(M, *rows)

        sols = []
        for t0, t1 in zip(stops[:-1], stops[1:]):
            # The solve starts and ends one ulp inside each breakpoint end,
            # so it reads f_t and sdot only on its own piece.
            t_lo = math.nextafter(t0, t1) if t0 in breaks else t0
            t_hi = math.nextafter(t1, t0) if t1 in breaks else t1
            if t_lo >= t_hi:
                # Breakpoints at most two ulps apart leave nothing to solve.
                continue
            sol = solve_ivp(rhs, (t_lo, t_hi), yy, rtol=rel_tol * scale, atol=_ATOL * scale, dense_output=dense)
            if not sol.success:
                raise IntegrationError(f"transport integration failed: {sol.message}", t=float(sol.t[-1]))
            sols.append(sol)
            yy = sol.y[:, -1]
        y[lo : lo + size] = yy.reshape(-1, 3)
        chunks.append(sols)
    return y, chunks


def _state_points(y: np.ndarray) -> np.ndarray:
    """Trajectory points of states y (N, 3) of ``_transport``: the spinors' Bloch vectors."""
    return _bloch(np.ascontiguousarray(y[:, :2]).view(float))


@dataclass
class Trajectory:
    """Flow curve t -> psi_t(q) on [0, 1]: the Bloch vector of the transported spinor.

    ``ts`` are the solver's steps and ``points`` the trajectory there; ``at``
    reads the dense spinor between them.  The solve may carry other rows;
    this trajectory is its row ``row``.
    """

    ts: np.ndarray
    points: np.ndarray
    _sols: list = field(default_factory=list, repr=False)
    row: int = 0

    def at(self, t: float) -> np.ndarray:
        sol = next((s for s in self._sols if t <= s.t[-1]), self._sols[-1])
        return _state_points(sol.sol(t)[3 * self.row : 3 * self.row + 3][None, :])[0]

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]


def trajectories(M: OrbitSphere, f, points, rel_tol: float = 1e-10) -> list[Trajectory]:
    """Trajectories of du/dt = X_t(u) over [0, 1] from every base point, with dense output.

    ``f`` is one Hamiltonian or one per point; all rows are carried by one
    batched spinor solve.  The points are Bloch vectors, unit by
    construction.
    """
    u0 = np.array([unit_vector(q) for q in points], dtype=float).reshape(-1, 3)
    _, chunks = _transport(M, f, u0, rel_tol, dense=True)
    out = []
    for sols in chunks:
        ts = np.concatenate([sols[0].t[:1]] + [s.t[1:] for s in sols])
        ys = np.concatenate([sols[0].y[:, :1]] + [s.y[:, 1:] for s in sols], axis=1)
        out += [
            Trajectory(ts=ts, points=_state_points(ys[3 * row : 3 * row + 3].T), _sols=sols, row=row)
            for row in range(len(ys) // 3)
        ]
    return out


def integrate_isotopy(
    M: OrbitSphere,
    f: TimeDepHamiltonian,
    q,
    rel_tol: float = 1e-10,
) -> Trajectory:
    """Trajectory of du/dt = X_t(u) from q over [0, 1], with dense output.

    The one-row case of ``trajectories``.
    """
    return trajectories(M, f, [q], rel_tol=rel_tol)[0]


@dataclass(frozen=True)
class HamiltonianLoop:
    """A unit-period isotopy expected to close up to ``closure_tol``.

    ``transport_phases`` checks closure at every base point it transports.
    """

    hamiltonian: TimeDepHamiltonian
    closure_tol: float = 1e-6
    label: str = ""
