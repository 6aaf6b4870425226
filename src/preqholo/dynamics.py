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

    d(chi)/dt = (i/k) (v . sigma - f_t(u)) chi,

so chi(t) = V(t) chi(0) exp(-i h(t) . u(0) / k), where the propagator
V' = (i/k) (v . sigma) V, V(0) = I, and h' = R(V)^T v do not depend on
the base point.  ``_transport`` carries a batch of rows, each a
(Hamiltonian, base point) pair, together with the integral of f_t along
each trajectory, with the package's own 8th-order Dormand-Prince pair
(DOP853, ``solve_ivp``): one adaptive solve per piecewise-smooth segment
of the rows' Hamiltonians, of one propagator per distinct linear
Hamiltonian, or of one spinor per row when any is not linear.  At the
tight tolerances of this package that pair needs 2-4x fewer
right-hand-side evaluations than a 5th-order one.  The holonomy transport
reads its state at t = 1; ``trajectories`` and ``integrate_isotopy`` read
it at requested times, each of which ends one more segment of the solve.
The runtime needs numpy only.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dop853 import RTOL_FLOOR, solve_ivp
from .sphere import OrbitSphere, unit_vector

REL_TOL_RANGE = (1e-13, 1e-3)

# The absolute tolerance of the one adaptive solve.
_ATOL = 1e-13
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
    says whether it may stand in for ``eval`` and ``grad``.  An axis reads
    a scalar t as (3,) and a 1-D array of times as (T, 3), one row per
    time, each the same doubles as the scalar read: the transport reads
    it over all stage times of a step at once.  An axis that does not
    depend on t says so by its type, ``ConstantAxis`` or a ``MemberAxis``
    of a ``ConstantField``, as those of ``zero_hamiltonian``,
    ``su2.invariant_hamiltonian``, one-part compositions of them and the
    subgroup-rotation members and s-derivatives do; a batch of them only
    forms its matrix once per chunk, with no ``prefetch``
    (``_propagator_rhs``).
    ``parts``, when given, says that f is made of other Hamiltonians: a
    tuple of ``(end, inner, a, b, c)`` with rising ends, the last inf,
    meaning f_t = c inner_{a t + b} on the first part whose end lies above
    t.  ``compose_hamiltonian`` builds such an f and derives its eval,
    grad, breakpoints and (when every inner is linear) axis from the
    parts; every part end inside (0, 1) is a breakpoint.  The transport
    reads a non-linear f on a segment through its parts, as its innermost
    Hamiltonian at the mapped time times the product of the factors, but
    only while f's eval and grad are the ones derived from the parts: each
    carries them as ``_parts``, which ``functools.wraps`` does not copy.
    ``dataclasses.replace(f, grad=...)`` keeps the parts but not the
    derivation, so the transport calls the replaced function.  A linear
    f's eval and grad are derived from its axis (``linear_axis``), so the
    transport reads it as a whole.
    """

    eval: Callable
    grad: Callable
    label: str = ""
    time_independent: bool = False
    breakpoints: tuple = ()
    axis: Callable | None = None
    parts: tuple = ()


def _over_times(t, value: np.ndarray) -> np.ndarray:
    """``value`` at a scalar t, and a read-only view of one copy per time at an array of times."""
    return value if np.ndim(t) == 0 else np.broadcast_to(value, np.shape(t) + np.shape(value))


@dataclass(frozen=True, eq=False)
class ConstantAxis:
    """An axis that does not depend on t: ``value`` (3,), kept as a read-only copy, at every time."""

    value: np.ndarray

    def __post_init__(self):
        value = np.array(self.value, dtype=float)
        if value.shape != (3,):
            raise ValueError(f"a constant axis is one 3-vector, got shape {value.shape}")
        value.flags.writeable = False
        object.__setattr__(self, "value", value)

    def __call__(self, t) -> np.ndarray:
        return _over_times(t, self.value)


@dataclass(frozen=True, eq=False)
class ConstantField:
    """A family's field (``MemberAxis``) that does not depend on t: ``value(svals)`` (S, 3) at every time."""

    value: Callable

    def __call__(self, svals, t) -> np.ndarray:
        return _over_times(t, self.value(svals))


def zero_hamiltonian() -> TimeDepHamiltonian:
    """f_t = 0, the linear Hamiltonian with the zero axis."""
    return linear_hamiltonian(ConstantAxis(np.zeros(3)), label="zero")


def linear_hamiltonian(axis: Callable, label: str = "", breakpoints: tuple = ()) -> TimeDepHamiltonian:
    """The Hamiltonian f_t(u) = axis(t) . u, with eval and grad derived from the axis.

    ``axis`` follows the contract of ``TimeDepHamiltonian.axis``: (3,) at a
    scalar t, (T, 3) at an array of times.  Give an axis that does not
    depend on t as ``ConstantAxis(w)``: any other callable is read on
    every step attempt (``_propagator_rhs``).  Its surface gradient is the
    tangent part axis(t) - (u . axis(t)) u.  It has zero mean on the
    sphere.  Both functions carry the axis they come from as ``_axis``,
    which ``functools.wraps`` copies to a wrapper.
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

    ``field(svals, t)`` takes an array of s and returns their axes, one row
    each: (S, 3) at a scalar t and (T, S, 3) at an array of times.
    ``_transport`` reads the axes of all rows that share a field in one
    call of it per step attempt.
    """

    field: Callable
    s: float

    def __call__(self, t) -> np.ndarray:
        return self.field(np.array([self.s]), t)[..., 0, :]


def _constant(axis) -> bool:
    """Whether a linear axis is a ``ConstantAxis`` or a member of a ``ConstantField``."""
    return isinstance(axis, ConstantAxis) or isinstance(axis, MemberAxis) and isinstance(axis.field, ConstantField)


def linear_axis(f: TimeDepHamiltonian) -> Callable | None:
    """f's axis if its eval and grad are the ones ``linear_hamiltonian`` derived from it, else None.

    ``dataclasses.replace(f, eval=...)`` keeps the axis but not the
    derivation, so such an f counts as non-linear.
    """
    axis = f.axis
    derived = axis is not None and all(getattr(fn, "_axis", None) is axis for fn in (f.eval, f.grad))
    return axis if derived else None


class _PartRead:
    """The eval or the grad (``name``) of a Hamiltonian composed of ``parts``.

    At t it reads c inner_{a t + b} on t's part, with that part's own
    factor: the doubles of a hand-written closure over the inner
    Hamiltonian.  A slotted object, so that ``functools.wraps`` copies no
    ``_parts`` to a wrapper.
    """

    __slots__ = ("_parts", "_ends", "_name")

    def __init__(self, parts: tuple, name: str):
        self._parts = parts
        self._ends = [end for end, *_ in parts[:-1]]
        self._name = name

    def __call__(self, t, u):
        _, inner, a, b, c = self._parts[bisect.bisect_right(self._ends, t)]
        value = getattr(inner, self._name)(a * t + b, u)
        return c * (value if self._name == "eval" else np.asarray(value, dtype=float))


def compose_hamiltonian(parts, label: str = "") -> TimeDepHamiltonian:
    """The Hamiltonian f_t = c inner_{a t + b} on the part of t, one part per ``(end, inner, a, b, c)``.

    A part holds for t < end, from the end of the part before it; the ends
    rise and the last is inf.  The breakpoints are the part ends inside
    (0, 1) and each inner's breakpoints mapped into its part's times.  When
    every inner is linear (``linear_axis``), so is f, with the axis
    c inner_axis(a t + b) read part by part (one part of a constant inner
    is a ``ConstantAxis``); otherwise eval and grad read the inner's own
    (``_PartRead``).  Either way f carries ``parts``, and the doubles are
    those of closures that apply each part's factor to its inner's value
    (or axis) in turn.
    """
    parts = tuple((float(end), inner, float(a), float(b), float(c)) for end, inner, a, b, c in parts)
    ends = [end for end, *_ in parts]
    if not ends or ends[-1] != math.inf or any(lo >= hi for lo, hi in zip(ends, ends[1:])):
        raise ValueError(f"part ends must rise to inf, got {ends}")
    breaks, start = set(), -math.inf
    for end, inner, a, b, _ in parts:
        breaks.update(t for t in ((beta - b) / a for beta in inner.breakpoints) if start < t < end and 0.0 < t < 1.0)
        if 0.0 < end < 1.0:
            breaks.add(end)
        start = end
    breaks = tuple(sorted(breaks))
    axes = [linear_axis(inner) for _, inner, *_ in parts]
    if None in axes:
        return TimeDepHamiltonian(
            eval=_PartRead(parts, "eval"), grad=_PartRead(parts, "grad"), label=label, breakpoints=breaks, parts=parts
        )

    def part_axis(part, inner_axis):
        _, _, a, b, c = part
        if (a, b) == (1.0, 0.0):
            return lambda t: c * inner_axis(t)
        return lambda t: c * inner_axis(a * t + b)

    if len(parts) == 1 and _constant(axes[0]):
        axis = ConstantAxis(parts[0][4] * axes[0](0.0))
    elif len(parts) == 1:
        axis = part_axis(parts[0], axes[0])
    else:
        readers = [part_axis(part, inner_axis) for part, inner_axis in zip(parts, axes)]
        inner_ends = ends[:-1]

        def axis(t):
            # The times of one step lie in one part; others are split.
            times = np.asarray(t, dtype=float)
            if times.size:
                first, last = (bisect.bisect_right(inner_ends, x) for x in (times.min(), times.max()))
                if first == last:
                    return readers[first](t)
            part = np.searchsorted(inner_ends, times, side="right")
            w = np.empty((*times.shape, 3))
            for j in range(len(parts)):
                here = part == j
                if here.any():
                    w[here] = readers[j](times[here])
            return w

    return replace(linear_hamiltonian(axis, label=label, breakpoints=breaks), parts=parts)


def scale_hamiltonian(f: TimeDepHamiltonian, c: float, label: str | None = None) -> TimeDepHamiltonian:
    """c f_t, one part."""
    c = float(c)
    return compose_hamiltonian([(math.inf, f, 1.0, 0.0, c)], label=label or f"{c}*{f.label}")


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
    """Most points one solve can carry at rel_tol / sqrt(N) at or above ``RTOL_FLOOR``.

    ``solve_ivp`` refuses an rtol below that floor, where the rounding of
    a step is as large as the error the tolerance asks for.
    """
    size = max(1, int((rel_tol / RTOL_FLOOR) ** 2))
    while size > 1 and rel_tol / math.sqrt(size) < RTOL_FLOOR:
        size -= 1
    return size


def _index(keys):
    """(first, slot) of one hashable key per row: each distinct key's first row, and each row's key.

    Keys are numbered in the order of their first rows.  Python's dict,
    not numpy's sort kernels, which would page ~0.4 MB into the peak
    memory of a short run.
    """
    index, slot, first = {}, [], []
    for i, key in enumerate(keys):
        j = index.setdefault(key, len(first))
        if j == len(first):
            first.append(i)
        slot.append(j)
    return np.array(first, dtype=int), np.array(slot, dtype=int)


def _distinct(items, n: int):
    """The distinct entries of a per-row sequence, and each row's index into them (``_index``).

    One Hamiltonian stands for every row.  Entries are told apart by identity.
    """
    if isinstance(items, TimeDepHamiltonian):
        return [items], np.zeros(n, dtype=int)
    items = list(items)
    if len(items) != n:
        raise ValueError(f"{len(items)} per-row entries for {n} rows")
    first, slot = _index(map(id, items))
    return [items[i] for i in first], slot


def _parts_of(f: TimeDepHamiltonian) -> tuple:
    """f's parts if its eval and grad are the ones derived from them (``_PartRead``), else ()."""
    derived = f.parts and all(getattr(fn, "_parts", None) is f.parts for fn in (f.eval, f.grad))
    return f.parts if derived else ()


def _resolve(f: TimeDepHamiltonian, t0: float, t1: float):
    """(base, a, b, c) with f_t = c base_{a t + b} for every t in [t0, t1].

    Descends f's parts (``_parts_of``) while [t0, t1] lies in one part.  A
    span across a part end, one that ``_transport`` dropped within 1e-14 of
    0 or 1, stops the descent there: that level's own eval and grad pick
    the part at each time.
    """
    a, b, c = 1.0, 0.0, 1.0
    while parts := _parts_of(f):
        j = bisect.bisect_right([end for end, *_ in parts[:-1]], t0)
        end, inner, pa, pb, pc = parts[j]
        if not t1 < end:
            break
        t0, t1 = sorted((pa * t0 + pb, pa * t1 + pb))
        f, a, b, c = inner, pa * a, pa * b + pb, c * pc
    return f, a, b, c


def _hamiltonian_terms(fs, slot, span, grad=True):
    """(terms, c) for the rows of one chunk at the times ``span`` of one segment.

    Row i has the Hamiltonian ``fs[slot[i]]``, read as c base_{a t + b}
    (``_resolve``): its base generator's eval and, unless ``grad`` is
    False, its grad at the mapped time (None in its place otherwise).
    The rows that share a base and a map (``_index``) are read in one
    call, by an index array.  When one covers every row, ``terms(t, u)``
    returns its values (f_t(u), grad f_t(u)) / c, with no scatter, and c
    is left for the caller to apply once; otherwise ``terms`` applies
    each row's own c and the common factor is 1.
    """
    reads = [_resolve(f, *span) for f in fs]
    first, at = _index((id(base), a, b, c) for base, a, b, c in reads)
    rows = at[slot]
    groups = [(reads[i], np.flatnonzero(rows == j)) for j, i in enumerate(first)]
    groups = [(read, idx) for read, idx in groups if idx.size]

    if len(groups) == 1:
        (base, a, b, c), _ = groups[0]

        def terms(t, u):
            tau = a * t + b
            return base.eval(tau, u), base.grad(tau, u) if grad else None

        return terms, c

    def terms(t, u):
        e = np.empty(len(u))
        g = np.empty((len(u), 3)) if grad else None
        for (base, a, b, c), idx in groups:
            tau = a * t + b
            e[idx] = c * base.eval(tau, u[idx])
            if grad:
                g[idx] = c * np.asarray(base.grad(tau, u[idx]), dtype=float)
        return e, g

    return terms, 1.0


def _general_rhs(M, fs, fslot, sdots, sslot, span=(0.0, 1.0)):
    """The right-hand side of a chunk of rows with any Hamiltonians (see ``_transport``).

    It is read only at times in ``span``, one segment, where each row's
    Hamiltonian is resolved to its base generator (``_hamiltonian_terms``).
    For unit u, w = u x X_t(u) = (2/k) (u (u . g) - g) with g = grad f.
    The turn is linear in g, so a factor c common to every row is applied
    to its matrix once, and to f_t as it is written: for a power of two
    the very doubles of scaling g and f_t.
    """
    ham, c = _hamiltonian_terms(fs, fslot, span)
    turn = c * ((2.0 / M.k) * _TURN)
    sd, c_sd = _hamiltonian_terms(sdots, sslot, span, grad=False) if sdots else (None, 0.0)

    def rhs(t, yy, out):
        x = yy.reshape(-1, 3)[:, :2].view(float)
        u = _bloch(x)
        e, g = ham(t, u)
        v = u * (u * g).sum(axis=1, keepdims=True) - g
        o = out.view(float).reshape(-1, 6)
        o[:, :4] = (v[:, :, None] * x[:, None, :]).reshape(-1, 12) @ turn
        np.multiply(e, c, out=o[:, 4])
        if sd:
            np.multiply(sd(t, u)[0], c_sd, out=o[:, 5])
        else:
            o[:, 5] = 0.0

    return rhs


def _row_axes(hs, slot):
    """times -> the axes of the rows' Hamiltonians ``hs[slot[i]]``, each linear.

    The reader takes a 1-D array of T times and returns one axis per time
    (T, 3) when all rows share one Hamiltonian and one per time and row
    (T, N, 3) otherwise.  The rows whose axes are members of one field
    (``MemberAxis``) are read in one call of that field, and the rows that
    share any other axis in one call of it.
    """
    js = sorted(set(slot.tolist()))
    axes = [linear_axis(hs[j]) for j in js]
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
            reads.append(lambda ts, field=key, svals=svals: field(svals, ts))
            at.update((j, count + i) for i, (j, _) in enumerate(members))
            count += len(members)
        else:
            reads.append(lambda ts, axis=key: axis(ts)[:, None])
            at.update((j, count) for j, _ in members)
            count += 1
    rows = np.array([at[j] for j in slot.tolist()])

    if len(reads) == 1:
        return lambda ts: reads[0](ts)[:, rows]
    return lambda ts: np.concatenate([read(ts) for read in reads], axis=1)[:, rows]


def _propagator_basis(k: float) -> np.ndarray:
    """B, 6 x 200: (w, w_s) @ B is the 20 x 10 matrix L of a propagator's right-hand side.

    w is the axis of f and w_s that of ``sdot``.  A propagator's state is
    (a, b, h + i h_s), five complex numbers, with V = [[a, -b*], [b, a*]]
    and real 3-vectors h and h_s.  With x (4,) the real view of (a, b),
    [x, x (x) x] @ L is the real view of the state's derivative:
    V' = (i/k) (w . sigma) V, linear in x, and h' = R(V)^T w,
    h_s' = R(V)^T w_s, quadratic in x, where R(V) is the rotation that V
    acts as.  With (p, q) = (w . sigma)(a, b), (R^T w)_3 = Re(a* p + b* q)
    and (R^T w)_1 + i (R^T w)_2 = a q - b p.
    """
    B = np.zeros((6, 20, 10))
    # Unit vector i of the real view is the spinor with the entry phase[i]
    # in component [0, 0, 1, 1][i]; a q - b p is (a, b) (swap m) (a, b)^T.
    phase = np.array([1, 1j, 1, 1j])
    comp = np.array([0, 0, 1, 1])
    for j, m in enumerate(_PAULI):
        B[j, :4, :4] = _real(1j * m / k).T
        swap_m = np.array([m[1], -m[0]])
        cross = phase[:, None] * phase * swap_m[comp][:, comp]
        along = _real(m)
        for c, form in enumerate((cross.real, cross.imag, along)):
            B[j, 4:, 4 + 2 * c] = B[3 + j, 4:, 5 + 2 * c] = form.ravel()
    return B.reshape(6, 200)


def _propagator_rhs(M, fs, fslot, sdots, sslot):
    """The right-hand side of P propagators, one per (f, ``sdot``) pair, every f and ``sdot`` linear.

    Propagator p carries the pair ``(fs[fslot[p]], sdots[sslot[p]])``
    (no ``sdot`` without ``sdots``).  Each evaluation is one product
    [x, x (x) x] @ L (``_propagator_basis``), one shared L when P is 1
    and one per propagator otherwise.  L depends on t alone.  When every
    axis of the chunk is constant (``_constant``), L is formed once and
    holds on every segment, with no ``prefetch``.  Otherwise ``prefetch``
    (``solve_ivp``) reads every axis group (``_row_axes``) over all times
    of a step attempt in one call and holds each time's L, keyed by time,
    for the evaluations of that attempt.  A time not handed to
    ``prefetch`` is read as an array of one time by the same readers.

    The action vector h, the real parts of entries 2-4, is free in the
    solve (``free``, see ``solve_ivp``): it does not steer the step, and
    its error is not controlled.  No derivative reads it, h' = R(V)^T w is
    finite wherever V' is, and h cancels from every phase: a row's spinor
    carries exp(-i h . u0 / k), ``holonomy.transport_phases`` subtracts
    the action integral h . u0 again, and n / (2 pi k) = 1, so an error in
    h moves a phase by whole revolutions only.  The Omega vector h_s, the
    imaginary parts, has no such twin, so it steers with V.
    """
    w_at = _row_axes(fs, fslot)
    ws_at = _row_axes(sdots, sslot) if sdots else None
    basis = _propagator_basis(M.k)
    count = len(fslot)
    shape = (6,) if count == 1 else (count, 6)
    z = np.empty((count, 20))
    squares = z[:, 4:].reshape(count, 4, 4)

    def matrices(times):
        """L of the propagators at each time, (T, 20, 10) or (T, P, 20, 10)."""
        coef = np.zeros((len(times), *shape))
        for cols, at in ((slice(0, 3), w_at), (slice(3, 6), ws_at)):
            if at is not None:
                w = at(times)
                coef[..., cols] = w if w.ndim == coef.ndim else w[:, None]
        return (coef @ basis).reshape(*coef.shape[:-1], 20, 10)

    def apply(L, yy, out):
        x = yy.reshape(count, 5)[:, :2].view(float)
        z[:, :4] = x
        np.multiply(x[:, :, None], x[:, None, :], out=squares)
        o = out.view(float).reshape(count, 10)
        if count == 1:
            np.dot(z, L, out=o)
        else:
            np.matmul(z[:, None], L, out=o[:, None])

    slots = [(fs, fslot), (sdots, sslot)] if sdots else [(fs, fslot)]
    if all(_constant(linear_axis(hs[j])) for hs, slot in slots for j in set(slot.tolist())):
        L = matrices(np.zeros(1))[0]

        def rhs(t, yy, out):
            apply(L, yy, out)

    else:
        held = {}

        def prefetch(times):
            held.clear()
            held.update(zip(times.tolist(), matrices(times)))

        def rhs(t, yy, out):
            L = held.get(t)
            apply(matrices(np.array([t]))[0] if L is None else L, yy, out)

        rhs.prefetch = prefetch
    # h in the real view: components 4, 6 and 8 of each propagator's 10,
    # by arithmetic: numpy's set routines would page their sort kernels
    # into the peak memory of a short run (see ``_index``).
    rhs.free = (10 * np.arange(count)[:, None] + [4, 6, 8]).ravel()
    return rhs


def _turned(v: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """V chi, one row each, for propagator states v = (a, b, ...) with V = [[a, -b*], [b, a*]]."""
    a, b = v[..., 0], v[..., 1]
    return np.stack([a * chi[..., 0] - b.conj() * chi[..., 1], b * chi[..., 0] + a.conj() * chi[..., 1]], axis=-1)


def _transport(M, f, u0, rel_tol, sdot=None, times=(1.0,)):
    """Carry the spinors of the rows' unit base points u0 (N, 3) along their flows over [0, 1].

    A row is a (Hamiltonian, base point, ``sdot``) triple: ``f`` is one
    Hamiltonian for every row or a sequence with one per row, and
    ``sdot`` likewise, or None.  Returns the T x N x 3 complex states at
    the T ``times``, one per time and row: the spinor (a, b), and the
    integrals of f_t and of ``sdot`` (0 without it) along the trajectory
    up to that time as the real and imaginary part of the third column.
    ``times`` is a 1-D sequence in [0, 1]; anything else raises ValueError.

    When every f and ``sdot`` is linear (``linear_axis``), f_t(u) = w . u,
    the flow is the SU(2) action and no base point enters the solve: it
    carries one propagator per distinct (f, ``sdot``) pair
    (``_propagator_rhs``), V' = (i/k) (w . sigma) V from V(0) = I, with
    h' = R(V)^T w and h_s' = R(V)^T w_s.  The spinor of a row with base
    point u0 and spinor chi0 then turns by d chi/dt = (i/k)(w . sigma - f_t)
    chi, so chi(t) = V(t) chi0 exp(-i h(t) . u0 / k), the integral of f_t
    is h(t) . u0 and that of ``sdot`` is h_s(t) . u0, rebuilt at every
    requested time at once.  Otherwise every row carries its own spinor:
    the right-hand side forms the Bloch vectors and calls, for each row,
    the eval and grad of the base generator its Hamiltonian resolves to on
    the segment (``_resolve``, once per segment; ``_general_rhs``), and
    only the eval of ``sdot``'s.

    The union of the rows' breakpoints and the requested times splits
    [0, 1] into segments, each one DOP853 solve (``solve_ivp``), and the
    state at a requested time is the end state of the segment that ends
    there.  DOP853 evaluates
    the right-hand side at both ends of the time span it solves, so at an
    end that is a breakpoint the span stops one ulp inside the segment: a
    segment reads f_t and ``sdot`` only on its own piece, and its steps are
    not rejected over and over at a jump of the generator that belongs to
    the next one.  A time at a breakpoint reads the state one ulp before
    it.  The two ulps skipped at each breakpoint are far below
    the solver's tolerance, and so is a segment that leaves no span.
    A solve's error norm, |dt| |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) len)
    with dt the step size, is taken over the state and, like an RMS norm,
    gives N identical copies of one row the norm of that row.  rtol and
    atol are therefore divided by sqrt(P), P the number of propagators or
    rows the solve carries, so that the others cannot average away the
    error of one; batches too large for that are split.  On the propagator
    path the action vector h is left out of that norm (``_propagator_rhs``):
    it cancels from every phase mod 1, while V and the Omega vector h_s
    steer the step.  On the general path the real part of the third column
    is the action integral of f_t itself, which nothing cancels, so the
    whole state steers.  An offset c(t) added to f_t, constant on the
    sphere, moves no point, so its integral cancels from nothing either: it
    must go into a column that steers, never into a free one, or a fast
    c(t) would go unresolved.  A solve that passes its budget of
    right-hand-side evaluations raises IntegrationError.
    """
    check_rel_tol(rel_tol)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not ((0.0 <= times) & (times <= 1.0)).all():
        raise ValueError(f"times must be a 1-D sequence in [0, 1], got {times}")
    n = len(u0)
    fs, fslot = _distinct(f, n)
    sdots, sslot = _distinct(sdot, n) if sdot is not None else ([], None)
    breaks = {b for h in fs for b in h.breakpoints if 1e-14 < b < 1.0 - 1e-14}
    stops = sorted({0.0, 1.0, *breaks, *times.tolist()})
    chi0 = _spinors(u0)
    linear = all(linear_axis(h) is not None for h in (*fs, *sdots))
    # states[i] is the state at stops[i], one row per propagator or base point.
    if linear:
        # One propagator per distinct (f, sdot) pair; without sdot, the
        # pairs are the distinct f in the order ``_distinct`` numbers them.
        if sdots:
            first, slot = _index(zip(fslot.tolist(), sslot.tolist()))
            fslot, sslot = fslot[first], sslot[first]
        else:
            fslot, slot = np.arange(len(fs)), fslot
        states = np.zeros((len(stops), len(fslot), 5), dtype=complex)
        states[0, :, 0] = 1.0
    else:
        states = np.zeros((len(stops), n, 3), dtype=complex)
        states[0, :, :2] = chi0
    width = states.shape[2]
    size = _chunk_size(rel_tol)
    for lo in range(0, states.shape[1], size):
        yy = states[0, lo : lo + size].ravel()
        scale = 1.0 / math.sqrt(len(yy) // width)
        rows = (fs, fslot[lo : lo + size], sdots, sslot[lo : lo + size] if sdots else None)
        propagators = _propagator_rhs(M, *rows) if linear else None
        for i, (t0, t1) in enumerate(zip(stops[:-1], stops[1:]), start=1):
            # The solve starts and ends one ulp inside each breakpoint end,
            # so it reads f_t and sdot only on its own piece.  Breakpoints
            # at most two ulps apart leave nothing to solve.
            t_lo = math.nextafter(t0, t1) if t0 in breaks else t0
            t_hi = math.nextafter(t1, t0) if t1 in breaks else t1
            if t_lo < t_hi:
                rhs = propagators or _general_rhs(M, *rows, (t_lo, t_hi))
                sol = solve_ivp(rhs, (t_lo, t_hi), yy, rtol=rel_tol * scale, atol=_ATOL * scale)
                if not sol.success:
                    raise IntegrationError(f"transport integration failed: {sol.message}", t=float(sol.t))
                yy = sol.y
            states[i, lo : lo + size] = yy.reshape(-1, width)
    states = states[np.searchsorted(stops, times)]
    if not linear:
        return states
    v = states[:, slot]
    y = np.empty((len(times), n, 3), dtype=complex)
    y[..., 2] = (v[..., 2:] * u0).sum(axis=-1)
    y[..., :2] = _turned(v, chi0) * np.exp(-1j * y[..., 2].real / M.k)[..., None]
    return y


def _state_points(y: np.ndarray) -> np.ndarray:
    """Trajectory points of states y (..., 3) of ``_transport``: the spinors' Bloch vectors (..., 3)."""
    chi = np.ascontiguousarray(y[..., :2]).reshape(-1, 2)
    return _bloch(chi.view(float)).reshape(y.shape)


@dataclass
class Trajectory:
    """The flow t -> psi_t(q) sampled at requested times: ``points[i]`` is psi at ``ts[i]``.

    Each point is the Bloch vector of the transported spinor.
    """

    ts: np.ndarray
    points: np.ndarray

    def at(self, t: float) -> np.ndarray:
        """The sample at t, which must be one of ``ts``; any other t raises ValueError."""
        hit = np.flatnonzero(self.ts == t)
        if not hit.size:
            raise ValueError(f"t={t!r} is not a sampled time of this trajectory")
        return self.points[hit[0]]


def trajectories(M: OrbitSphere, f, points, times, rel_tol: float = 1e-10) -> list[Trajectory]:
    """Trajectories of du/dt = X_t(u) from every base point, sampled at ``times`` in [0, 1].

    ``f`` is one Hamiltonian or one per point; all rows are carried by one
    batched solve (``_transport``), linear ones by their propagators, and
    each time ends a segment of it.  The points are Bloch vectors, unit by
    construction.
    """
    u0 = np.array([unit_vector(q) for q in points], dtype=float).reshape(-1, 3)
    ts = np.array(times, dtype=float)
    samples = _state_points(_transport(M, f, u0, rel_tol, times=ts))
    return [Trajectory(ts=ts, points=samples[:, i]) for i in range(len(u0))]


def integrate_isotopy(
    M: OrbitSphere,
    f: TimeDepHamiltonian,
    q,
    times,
    rel_tol: float = 1e-10,
) -> Trajectory:
    """Trajectory of du/dt = X_t(u) from q, sampled at ``times`` in [0, 1].

    The one-row case of ``trajectories``.
    """
    return trajectories(M, f, [q], times, rel_tol=rel_tol)[0]


@dataclass(frozen=True)
class HamiltonianLoop:
    """A unit-period isotopy expected to close up to ``closure_tol``.

    ``transport_phases`` checks closure at every base point it transports.
    """

    hamiltonian: TimeDepHamiltonian
    closure_tol: float = 1e-6
    label: str = ""
