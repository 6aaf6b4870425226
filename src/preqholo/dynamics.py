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
right-hand-side evaluations than a 5th-order one.  Most loops of the
package are solved by none of that.  A propagator that is a word in
one-parameter subgroups, V(t) = exp(i phi_1(t) X_1) ... exp(i phi_m(t) X_m)
(``SubgroupWord``), is that product at every time, and h and h_s are then
integrals of known smooth functions of t, taken by Gauss-Legendre panels
(``_word_states``).  An axis that does not depend on t is the one-letter
word with phi = t (``constant_axis``); the mix loop and the closed-mixing
members, and products and reparametrizations of words are words too.  A
word of one such letter whose s-derivative does not depend on t either has
closed-form h and h_s (``_closed_form``).  Only a batch with an axis that
is no word, or a non-linear row, is solved.  The holonomy transport reads
its state at t = 1; ``trajectories`` and ``integrate_isotopy`` read it at
requested times, each of which ends one more segment of the solve or of
the quadrature.  The runtime needs numpy only.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dop853 import MAX_RHS_EVALS, RTOL_FLOOR, solve_ivp
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
    it over all stage times of a step at once.  An axis whose propagator
    is a word in one-parameter subgroups says so by its type,
    ``SubgroupWord`` or a ``MemberAxis`` of a ``WordField``, as those of
    ``su2.mixing_loop``, the mixing families' members, path products and
    one-letter scalings of words and verify's rotated copies do.  An axis
    that does not depend on t is the one-letter word with phi = t
    (``constant_axis``), as those of ``zero_hamiltonian``,
    ``su2.invariant_hamiltonian``, one-part compositions of them and the
    subgroup-rotation members and s-derivatives are.  A batch of words is
    read in closed form, with no solve (``_word_states``); a batch with
    any other axis is solved.
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


def steady_angle(t):
    """The angle phi = t of a letter that turns at a constant rate: a constant axis is that one-letter word."""
    return t


def unit_rate(t):
    """d phi / dt = 1, the rate of ``steady_angle``, at a scalar t or at each of an array of times."""
    return np.ones_like(t, dtype=float)


@dataclass(frozen=True, eq=False)
class SubgroupWord:
    """The axis of a word in one-parameter subgroups, V(t) = L_1(t) ... L_m(t), L_j = exp(i phi_j(t) (x_j . sigma) / k).

    ``letters`` is a tuple of (x_j, phi_j, dphi_j): a 3-vector x_j, kept
    as a read-only copy, its angle phi_j with phi_j(0) = 0, and the
    derivative of that angle; phi_j and dphi_j read a scalar t or an array
    of times elementwise.  The axis is derived from the letters,

        w(t) = sum_j dphi_j(t) R(L_1 ... L_{j-1}) x_j,

    R(U) the rotation that U acts as, so that V' = (i/k) (w . sigma) V and
    a word and its axis cannot disagree.  ``k`` is the k of the sphere
    whose exponentials the letters are.  None says that each letter turns
    only while the letters before it stand at phi = 0, as in a composition
    of one-letter parts (``compose_hamiltonian``): the axis is then
    sum_j dphi_j x_j, and the word is one at every k.  It reads times as
    ``TimeDepHamiltonian.axis`` does, a scalar t as the array of that one
    time.  ``_transport`` reads a batch of words in closed form.
    """

    letters: tuple
    k: float | None = None

    def __post_init__(self):
        if not self.letters:
            raise ValueError("a word has at least one letter")
        letters = []
        for x, phi, dphi in self.letters:
            x = np.array(x, dtype=float)
            if x.shape != (3,):
                raise ValueError(f"a letter's axis is one 3-vector, got shape {x.shape}")
            x.flags.writeable = False
            letters.append((x, phi, dphi))
        object.__setattr__(self, "letters", tuple(letters))

    def __call__(self, t) -> np.ndarray:
        w = _word_axis(self.k, [x[None] for x, *_ in self.letters], self.letters, np.atleast_1d(np.asarray(t, float)))
        return w[:, 0] if np.ndim(t) else w[0, 0]


@dataclass(frozen=True, eq=False)
class WordField:
    """A family's field (``MemberAxis``) whose member at s is the word of the letters (x_j(s), phi_j, dphi_j).

    ``letters`` holds each x_j as a reader of an array of s, (S, 3), and
    phi_j and dphi_j of t alone, as ``SubgroupWord`` does; ``k`` likewise.
    ``field(svals, t)`` is the words' axes, one row per s, so that
    ``_transport`` reads the letters of a batch of members in one call.
    """

    letters: tuple
    k: float | None = None

    def __call__(self, svals, t) -> np.ndarray:
        xs = [x(np.asarray(svals, dtype=float)) for x, *_ in self.letters]
        w = _word_axis(self.k, xs, self.letters, np.atleast_1d(np.asarray(t, float)))
        return w if np.ndim(t) else w[0]


def constant_axis(w) -> SubgroupWord:
    """The axis w (3,) at every time: the one-letter word of w with phi = t, w kept as a read-only copy."""
    return SubgroupWord(((w, steady_angle, unit_rate),))


def zero_hamiltonian() -> TimeDepHamiltonian:
    """f_t = 0, the linear Hamiltonian with the zero axis."""
    return linear_hamiltonian(constant_axis(np.zeros(3)), label="zero")


def linear_hamiltonian(axis: Callable, label: str = "", breakpoints: tuple = ()) -> TimeDepHamiltonian:
    """The Hamiltonian f_t(u) = axis(t) . u, with eval and grad derived from the axis.

    ``axis`` follows the contract of ``TimeDepHamiltonian.axis``: (3,) at a
    scalar t, (T, 3) at an array of times.  Give an axis that does not
    depend on t as ``constant_axis(w)``, and one whose propagator is a
    product of one-parameter subgroups as a ``SubgroupWord``: any other
    callable is solved for, and read on every step attempt
    (``_propagator_rhs``).  Its surface
    gradient is the tangent part axis(t) - (u . axis(t)) u.  It has zero
    mean on the sphere.  Both functions carry the axis they come from as
    ``_axis``, which ``functools.wraps`` copies to a wrapper.
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


def _steady(letters) -> bool:
    """Whether a word is one letter with the angle ``steady_angle``: an axis that does not depend on t."""
    return len(letters) == 1 and letters[0][1] is steady_angle


def _constant(axis) -> bool:
    """Whether a linear axis is a steady one-letter word (``_steady``, ``constant_axis``) or a member of one."""
    found = _letters_of(axis)
    return found is not None and _steady(found[0])


def _letters_of(axis, k=None):
    """(letters, k) of an axis that is a word at k (any k if None), or None.

    A ``SubgroupWord`` is one at its own k.  A member of a ``WordField``
    gives its letters with each x_j still a reader of s.
    """
    source = axis.field if isinstance(axis, MemberAxis) else axis
    if isinstance(source, (SubgroupWord, WordField)) and (k is None or source.k in (None, k)):
        return source.letters, source.k
    return None


def _part_letter(letter, lo: float, hi: float, start: float, a: float, b: float, c: float):
    """The letter of c inner_{a t + b} on the part [lo, hi] made of an inner letter (x, phi, dphi).

    Its angle is phi(a t + b) - phi(a start + b) with t held in [lo, hi],
    so that it stands at 0 before the part and at its end value after it;
    its axis is x c / a.
    """
    x, phi, dphi = letter
    origin = phi(a * start + b)

    def angle(t):
        return phi(a * np.clip(t, lo, hi) + b) - origin

    def rate(t):
        t = np.asarray(t, dtype=float)
        return np.where((lo <= t) & (t < hi), a * dphi(a * np.clip(t, lo, hi) + b), 0.0)

    return (c / a) * x, angle, rate


def _composed_word(parts, axes) -> SubgroupWord | None:
    """The word of f_t = c inner_{a t + b} part by part, or None where the algebra does not give one.

    Each part that holds somewhere in [0, 1] gives its inner's letters
    (``_part_letter``), the parts' in reverse order: V(t) is the word of
    t's part times the words of the parts before it at their ends.  A
    one-letter inner gives one in any part with a != 0.  A longer word
    gives one only where the part is a reparametrization of it that starts
    at its own start, c = a and a t + b = 0 at the part's start, as
    ``holonomy.product_loop`` builds; and only if every such inner is a
    word at one k.
    """
    letters, ks, lo = [], set(), -math.inf
    for (end, _, a, b, c), axis in zip(parts, axes):
        if end > 0.0 and lo < 1.0:
            inner = _letters_of(axis)
            if inner is None or isinstance(axis, MemberAxis) or a == 0.0:
                return None
            inner_letters, k = inner
            start = max(lo, 0.0)
            if len(inner_letters) > 1:
                if c != a or a * start + b != 0.0:
                    return None
                ks.add(k)
            letters[:0] = [_part_letter(letter, lo, end, start, a, b, c) for letter in inner_letters]
        lo = end
    ks.discard(None)
    if len(ks) > 1:
        return None
    return SubgroupWord(tuple(letters), k=ks.pop() if ks else None)


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
    c inner_axis(a t + b) read part by part: one part of a constant inner
    is a constant axis (``constant_axis``), parts of words are a word
    where the algebra gives one (``_composed_word``), and any other axis
    is read through its parts.  Otherwise eval and grad read the inner's
    own (``_PartRead``).  Either way f carries ``parts``, and the doubles
    are those of closures that apply each part's factor to its inner's
    value (or axis) in turn.
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
        axis = constant_axis(parts[0][4] * axes[0](0.0))
    elif (word := _composed_word(parts, axes)) is not None:
        axis = word
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

    ``p`` is one point ``(3,)`` or a batch ``(N, 3)``.  The cross product
    (``_cross``) is built from cyclically shifted components, with the same
    arithmetic as ``np.cross`` and a fraction of its call overhead on small
    inputs.
    """
    u = np.asarray(p, dtype=float)
    return (2.0 / M.k) * _cross(u, np.asarray(f.grad(t, u), dtype=float))


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
    each row's own c and the common factor is 1.  A linear base
    (``linear_axis``) is read once per call for both, with the arithmetic
    of the eval and grad ``linear_hamiltonian`` derives.
    """
    reads = [_resolve(f, *span) for f in fs]
    first, at = _index((id(base), a, b, c) for base, a, b, c in reads)
    rows = at[slot]
    groups = []
    for j, i in enumerate(first):
        base, a, b, c = reads[i]
        idx = np.flatnonzero(rows == j)
        if idx.size:
            groups.append((_values(base, grad), a, b, c, idx))

    if len(groups) == 1:
        values, a, b, c, _ = groups[0]
        return (lambda t, u: values(a * t + b, u)), c

    def terms(t, u):
        e = np.empty(len(u))
        g = np.empty((len(u), 3)) if grad else None
        for values, a, b, c, idx in groups:
            e_j, g_j = values(a * t + b, u[idx])
            e[idx] = c * e_j
            if grad:
                g[idx] = c * np.asarray(g_j, dtype=float)
        return e, g

    return terms, 1.0


def _values(f: TimeDepHamiltonian, grad: bool):
    """(tau, u) -> (f(tau, u), grad f(tau, u), or None without ``grad``); a linear f's axis is read once."""
    axis = linear_axis(f)
    if axis is None:
        return lambda tau, u: (f.eval(tau, u), f.grad(tau, u) if grad else None)

    def values(tau, u):
        w = axis(tau)
        e = u @ w
        return e, w - e[..., None] * u if grad else None

    return values


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
    and one per propagator otherwise.  L depends on t alone: ``prefetch``
    (``solve_ivp``) reads every axis group (``_row_axes``) over all times
    of a step attempt in one call and holds each time's L, keyed by time,
    for the evaluations of that attempt.  A time not handed to
    ``prefetch`` is read as an array of one time by the same readers.  A
    batch whose every f is a word is never solved (``_word_states``).

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
    held = {}
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

    def prefetch(times):
        held.clear()
        held.update(zip(times.tolist(), matrices(times)))

    def rhs(t, yy, out):
        L = held.get(t)
        if L is None:
            L = matrices(np.array([t]))[0]
        x = yy.reshape(count, 5)[:, :2].view(float)
        z[:, :4] = x
        np.multiply(x[:, :, None], x[:, None, :], out=squares)
        o = out.view(float).reshape(count, 10)
        if count == 1:
            np.dot(z, L, out=o)
        else:
            np.matmul(z[:, None], L, out=o[:, None])

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


def _turning(k: float, x: np.ndarray, angle: np.ndarray):
    """(cos, sin) of the turn omega phi of letters exp(i phi (x . sigma) / k), their unit axes e and rates omega.

    x is (P, 3) and the angles phi (T, 1) or (T, P); cos and sin are (T, P),
    e = x / |x| (0 at x = 0) and omega = |x| / k.  An axis whose norm is not
    a finite double raises IntegrationError, as the right-hand side of its
    solve would turn non-finite at t = 0.
    """
    with np.errstate(over="ignore"):
        norm = np.sqrt((x * x).sum(axis=-1))
    if not np.isfinite(norm).all():
        raise IntegrationError("transport integration failed: right-hand side is not finite", t=0.0)
    e = x / np.where(norm > 0.0, norm, 1.0)[:, None]
    omega = norm / k
    return np.cos(omega * angle), np.sin(omega * angle), e, omega


# An element of SU(2) is written V = q0 I + i (q . sigma) with real q0 and
# q (..., 3), q0^2 + |q|^2 = 1: its first column is (a, b) = (q0 + i q_z,
# -q_y + i q_x).  Its products and rotations below are real arithmetic only,
# each operation rounded once whatever the shapes: numpy's complex products
# round a broadcast operand apart from a contiguous one.
def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u.take(_NEXT, axis=-1) * v.take(_PREV, axis=-1) - u.take(_PREV, axis=-1) * v.take(_NEXT, axis=-1)


def _letter(k: float, x: np.ndarray, angle: np.ndarray):
    """(q0, q) of exp(i phi (x . sigma) / k) = cos(omega phi) I + i sin(omega phi) (e . sigma) (``_turning``)."""
    cos, sin, e, _ = _turning(k, x, angle)
    return cos, sin[..., None] * e


def _times(p, r):
    """(q0, q) of the product V W of V = (p0, p) and W = (r0, r): (p0 r0 - p . r, p0 r + r0 p - p x r)."""
    (p0, p), (r0, r) = p, r
    return p0 * r0 - _dot(p, r), p0[..., None] * r + r0[..., None] * p - _cross(p, r)


def _rotated_back(v, x: np.ndarray) -> np.ndarray:
    """R(V)^T x = x + 2 q0 (q x x) + 2 q x (q x x) for V = (q0, q), R(V) the rotation V acts as.

    x (..., 3) broadcasts against q; R(V) x is R(V^-1)^T x, V^-1 = (q0, -q).
    """
    q0, q = v
    qx = _cross(q, x)
    return x + 2.0 * (q0[..., None] * qx + _cross(q, qx))


def _column(v) -> tuple:
    """The first column (a, b) of V = (q0, q)."""
    q0, q = v
    return q0 + 1j * q[..., 2], -q[..., 1] + 1j * q[..., 0]


def _word_v(k: float, xs, angles):
    """(q0, q) (T, P) of the words V = L_1 ... L_m of letters with axes xs[j] (P, 3) at angles[j] (T, 1) or (T, P)."""
    v = None
    for x, angle in zip(xs, angles):
        letter = _letter(k, x, angle)
        v = letter if v is None else _times(v, letter)
    return v


def _word_axis(k, xs, letters, ts: np.ndarray) -> np.ndarray:
    """The axes w(t) = sum_j dphi_j R(L_1 ... L_{j-1}) x_j (T, P, 3) of words at the times ts (``SubgroupWord``).

    xs[j] (P, 3) are the axes of the letters, and ``letters`` their angles
    and rates.  Without k, every R(L_1 ... L_{j-1}) is the identity.
    """
    w = prefix = None
    for j, (x, (_, phi, dphi)) in enumerate(zip(xs, letters)):
        # R(P) x = R(P^-1)^T x, and P^-1 = (q0, -q).
        turned = x if prefix is None else _rotated_back((prefix[0], -prefix[1]), x)
        term = np.asarray(dphi(ts), dtype=float)[:, None, None] * turned
        w = term if w is None else w + term
        if k is not None and j < len(xs) - 1:
            letter = _letter(k, x, np.asarray(phi(ts), dtype=float)[:, None])
            prefix = letter if prefix is None else _times(prefix, letter)
    return w


def _closed_form(k: float, w: np.ndarray, ws: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The states (T, P, 5) at ``times`` of P propagators whose axes w and w_s (P, 3) do not depend on t.

    The propagator is the one-letter word V(t) = exp(i t (w . sigma) / k)
    (``_word_v``).  With omega = |w| / k and the unit axis e = w / |w| (0
    at w = 0), R(V) turns by -2 omega t about e: it leaves w where it is,
    h = w t, and h_s = (w_s . e) e t + sin(2 omega t) / (2 omega) w_s_perp
    + sin(omega t)^2 / omega (e x w_s), w_s_perp the part of w_s across e;
    at w = 0, V = I and h_s = w_s t.  An axis whose norm is not a finite
    double raises IntegrationError (``_turning``).
    """
    t = times[:, None]
    cos, sin, e, omega = _turning(k, w, t)
    if not np.isfinite(ws).all():
        raise IntegrationError("transport integration failed: right-hand side is not finite", t=0.0)
    # sin(omega t) / omega, and its limit t at omega = 0.
    reach = np.divide(sin, omega, out=np.broadcast_to(t, sin.shape).copy(), where=omega > 0.0)
    along = (ws * e).sum(axis=1)[:, None] * e
    h_s = along * t[..., None] + (reach * cos)[..., None] * (ws - along)
    h_s += (reach * sin)[..., None] * _cross(e, ws)
    v = np.empty((len(times), len(w), 5), dtype=complex)
    v[..., 0], v[..., 1] = _column(_word_v(k, [w], [t]))
    v[..., 2:] = w * t[..., None] + 1j * h_s
    return v


def _word_groups(k: float, fs, fslot):
    """The propagators' words, grouped by their letters' angles: [(rows, letters, xs)], or None.

    Propagator p is the word of ``fs[fslot[p]]``; None unless every one is
    a word at k (``_letters_of``).  The words of one group share their
    angles and rates (``letters``), and ``xs[j]`` (G, 3) holds the axes of
    letter j, one row per propagator in ``rows``.  The members of one field
    are one group, whose letter axes are read in one call per letter.
    """
    words = {}
    for j in set(fslot.tolist()):
        axis = linear_axis(fs[j])
        found = _letters_of(axis, k)
        if found is None:
            return None
        letters = found[0]
        if isinstance(axis, MemberAxis):
            key, source = ("field", id(axis.field)), axis.s
        else:
            key, source = ("word", *(id(fn) for _, *fns in letters for fn in fns)), letters
        words[j] = key, letters, source
    groups = {}
    for p, j in enumerate(fslot.tolist()):
        key, letters, source = words[j]
        group = groups.setdefault(key, (letters, [], []))
        group[1].append(p)
        group[2].append(source)
    out = []
    for (kind, *_), (letters, rows, sources) in groups.items():
        if kind == "field":
            svals = np.array(sources, dtype=float)
            xs = [np.broadcast_to(x(svals), (len(svals), 3)) for x, *_ in letters]
        else:
            xs = [np.array([source[j][0] for source in sources]) for j in range(len(letters))]
        out.append((np.array(rows), letters, xs))
    return out


def _word_integrand(k: float, letters, xs, ws_at):
    """ts -> the integrands (R(V)^T w, R(V)^T w_s) (T, P, 6) of h and h_s for words V with letter axes xs.

    w is the words' axis (``_word_axis``) and ``ws_at`` the reader of the
    ``sdot`` axes (``_row_axes``, None without them).  R(V)^T w is
    sum_j dphi_j R(L_{j+1} ... L_m)^T x_j, as R(L_j) leaves x_j where it
    is, so the suffixes of each word are built from its end.
    """

    def integrand(ts):
        g = np.zeros((len(ts), len(xs[0]), 6))
        suffix = None
        for x, (_, phi, dphi) in zip(reversed(xs), reversed(letters)):
            rate = np.asarray(dphi(ts), dtype=float)[:, None, None]
            g[..., :3] += rate * (x if suffix is None else _rotated_back(suffix, x))
            letter = _letter(k, x, np.asarray(phi(ts), dtype=float)[:, None])
            suffix = letter if suffix is None else _times(letter, suffix)
        if ws_at is not None:
            ws = ws_at(ts)
            g[..., 3:] = _rotated_back(suffix, ws if ws.ndim == 3 else ws[:, None])
        return g

    return integrand


def _gauss_legendre(n: int):
    """The nodes and weights of the n-point Gauss-Legendre rule on [0, 1].

    Newton's method on the Legendre polynomial P_n from Chebyshev-like
    guesses, by its three-term recurrence: numpy's ``leggauss`` solves an
    eigenproblem, which would page LAPACK into the peak memory of a run.
    """

    def legendre(x):
        """P_n(x) and P_n'(x)."""
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    x = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p, slope = legendre(x)
        x = x - p / slope
        if np.abs(p / slope).max() < 1e-15:
            break
    slope = legendre(x)[1]
    return 0.5 * (1.0 - x), 1.0 / ((1.0 - x * x) * slope * slope)


# One panel of the quadrature: 16 Gauss-Legendre nodes and weights on [0, 1].
_GL_X, _GL_W = _gauss_legendre(16)
# Most values of one component an integrand is read for at once, and most
# propagators of one group read together: bounds the memory of a level.
_NODE_BLOCK = 2**16
_WORD_CHUNK = 2**10


def _panel_sums(integrand, spans: np.ndarray, panels: int, count: int):
    """The Gauss-Legendre sums (A, count, 6) of ``integrand`` over ``panels`` equal panels of each span (A, 2).

    Also returns the sums of its absolute value.  ``integrand(ts)`` is
    (len(ts), count, 6); it is read at most ``_NODE_BLOCK`` values per
    component at a time.
    """
    width = np.repeat((spans[:, 1] - spans[:, 0]) / panels, panels)
    starts = np.repeat(spans[:, 0], panels) + width * np.tile(np.arange(panels), len(spans))
    span_of = np.repeat(np.arange(len(spans)), panels)
    sums, sizes = np.zeros((2, len(spans), count, 6))
    block = max(1, _NODE_BLOCK // (_GL_X.size * count))
    for lo in range(0, len(starts), block):
        part = slice(lo, lo + block)
        ts = (starts[part, None] + width[part, None] * _GL_X).ravel()
        g = integrand(ts).reshape(-1, _GL_X.size, count, 6) * (width[part, None] * _GL_W)[..., None, None]
        np.add.at(sums, span_of[part], g.sum(axis=1))
        np.add.at(sizes, span_of[part], np.abs(g).sum(axis=1))
    return sums, sizes


def _span_integrals(integrand, spans: np.ndarray, count: int, rel_tol: float) -> np.ndarray:
    """The integrals (A, count, 6) of ``integrand`` over each span [t0, t1] (A, 2).

    The panels of a span are doubled, from one, until two levels agree
    within atol + rel_tol times the integral of |integrand| in every
    component, and the finer level is kept.  Past ``MAX_RHS_EVALS`` nodes
    on one span, or at a value that is not finite, IntegrationError names
    the start of the span.
    """
    out = np.empty((len(spans), count, 6))
    active = np.arange(len(spans))
    coarse, _ = _panel_sums(integrand, spans, 1, count)
    panels = nodes = 1
    while active.size:
        panels *= 2
        nodes += panels
        if nodes * _GL_X.size > MAX_RHS_EVALS:
            budget = f"quadrature passed its budget of {MAX_RHS_EVALS} right-hand-side evaluations"
            raise IntegrationError(f"transport integration failed: {budget}", t=float(spans[active[0], 0]))
        fine, size = _panel_sums(integrand, spans[active], panels, count)
        finite = np.isfinite(fine).all(axis=(1, 2))
        if not finite.all():
            t = float(spans[active[~finite][0], 0])
            raise IntegrationError("transport integration failed: right-hand side is not finite", t=t)
        done = (np.abs(fine - coarse) <= _ATOL + rel_tol * size).all(axis=(1, 2))
        out[active[done]] = fine[done]
        active, coarse = active[~done], fine[~done]
    return out


def _stops(fs, times: np.ndarray):
    """(breaks, stops): the rows' breakpoints inside (0, 1), and the sorted union of 0, 1, those and ``times``.

    A breakpoint within 1e-14 of 0 or 1 is dropped.
    """
    breaks = {b for h in fs for b in h.breakpoints if 1e-14 < b < 1.0 - 1e-14}
    return breaks, sorted({0.0, 1.0, *breaks, *times.tolist()})


def _word_states(M, rows, groups, times: np.ndarray, rel_tol: float) -> np.ndarray:
    """The states (T, P, 5) at ``times`` of propagators that are words (``_word_groups``), with no solve.

    V is the product of the letters at each requested time.  A group of
    one steady letter (``_steady``) whose ``sdot`` axes do not depend on t
    either (``_constant``) is a closed form (``_closed_form``), with w the
    letter's x.  In any other group, h and h_s are integrals of known
    smooth functions of t (``_word_integrand``), taken by Gauss-Legendre
    panels on each segment between the rows' breakpoints and the requested
    times (``_span_integrals``) and summed up to each time.  The
    propagators of a group are read together, in chunks of ``_WORD_CHUNK``.
    """
    fs, _, sdots, sslot = rows
    spans = None
    v = np.empty((len(times), len(rows[1]), 5), dtype=complex)
    for group_rows, letters, group_xs in groups:
        for lo in range(0, len(group_rows), _WORD_CHUNK):
            chunk = group_rows[lo : lo + _WORD_CHUNK]
            xs = [x[lo : lo + _WORD_CHUNK] for x in group_xs]
            ws_at = _row_axes(sdots, sslot[chunk]) if sdots else None
            chunk_sdots = set(sslot[chunk].tolist()) if sdots else ()
            if _steady(letters) and all(_constant(linear_axis(sdots[j])) for j in chunk_sdots):
                shape = (len(chunk), 3)
                ws = np.zeros(shape) if ws_at is None else np.broadcast_to(ws_at(np.zeros(1))[0], shape)
                v[:, chunk] = _closed_form(M.k, xs[0], ws, times)
                continue
            if spans is None:
                stops = np.array(_stops(fs, times)[1])
                spans, at = np.stack([stops[:-1], stops[1:]], axis=1), np.searchsorted(stops, times)
            integrand = _word_integrand(M.k, letters, xs, ws_at)
            h = np.zeros((len(stops), len(chunk), 6))
            np.cumsum(_span_integrals(integrand, spans, len(chunk), rel_tol), axis=0, out=h[1:])
            angles = [np.asarray(phi(times), dtype=float)[:, None] for _, phi, _ in letters]
            v[:, chunk, 0], v[:, chunk, 1] = _column(_word_v(M.k, xs, angles))
            v[:, chunk, 2:] = h[at, :, :3] + 1j * h[at, :, 3:]
    return v


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
    requested time at once.  When every f is a word (``SubgroupWord``,
    ``_word_groups``), whatever its ``sdot``, V is the product of its
    letters, and h and h_s are closed forms for a constant f and
    ``sdot`` and taken by quadrature otherwise (``_word_states``): nothing
    is solved.  Any other linear batch is solved whole.  Otherwise every
    row carries its own spinor: the right-hand side forms the Bloch vectors
    and calls, for each row, the eval and grad of the base generator its
    Hamiltonian resolves to on the segment (``_resolve``, once per segment;
    ``_general_rhs``), and only the eval of ``sdot``'s.

    A batch that is solved (``_solved``) splits [0, 1] at the union of the
    rows' breakpoints and the requested times into segments, each one
    DOP853 solve (``solve_ivp``), and the state at a requested time is the
    end state of the segment that ends there.  DOP853 evaluates the
    right-hand side at both ends of the time span it solves, so at an
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
    chi0 = _spinors(u0)
    if any(linear_axis(h) is None for h in (*fs, *sdots)):
        states = np.zeros((n, 3), dtype=complex)
        states[:, :2] = chi0
        return _solved(M, (fs, fslot, sdots, sslot), states, times, rel_tol, linear=False)
    # One propagator per distinct (f, sdot) pair; without sdot, the pairs
    # are the distinct f in the order ``_distinct`` numbers them.
    if sdots:
        first, slot = _index(zip(fslot.tolist(), sslot.tolist()))
        fslot, sslot = fslot[first], sslot[first]
    else:
        fslot, slot = np.arange(len(fs)), fslot
    if (groups := _word_groups(M.k, fs, fslot)) is not None:
        v = _word_states(M, (fs, fslot, sdots, sslot), groups, times, rel_tol)
    else:
        states = np.zeros((len(fslot), 5), dtype=complex)
        states[:, 0] = 1.0
        v = _solved(M, (fs, fslot, sdots, sslot), states, times, rel_tol, linear=True)
    v = v[:, slot]
    y = np.empty((len(times), n, 3), dtype=complex)
    y[..., 2] = (v[..., 2:] * u0).sum(axis=-1)
    y[..., :2] = _turned(v, chi0) * np.exp(-1j * y[..., 2].real / M.k)[..., None]
    return y


def _solved(M, rows, start, times, rel_tol, linear):
    """The states (T, P, width) at ``times`` of the rows (fs, fslot, sdots, sslot) from ``start`` (P, width).

    Each row of ``start`` is a propagator when ``linear`` (``_propagator_rhs``)
    and a base point's state otherwise (``_general_rhs``); see ``_transport``
    for the segments, the chunks and the tolerances of the solves.
    """
    fs, fslot, sdots, sslot = rows
    breaks, stops = _stops(fs, times)
    # states[i] is the state at stops[i], one row per propagator or base point.
    states = np.empty((len(stops), *start.shape), dtype=complex)
    states[0] = start
    width = start.shape[1]
    size = _chunk_size(rel_tol)
    for lo in range(0, len(start), size):
        yy = states[0, lo : lo + size].ravel()
        scale = 1.0 / math.sqrt(len(yy) // width)
        chunk = (fs, fslot[lo : lo + size], sdots, sslot[lo : lo + size] if sdots else None)
        propagators = _propagator_rhs(M, *chunk) if linear else None
        for i, (t0, t1) in enumerate(zip(stops[:-1], stops[1:]), start=1):
            # The solve starts and ends one ulp inside each breakpoint end,
            # so it reads f_t and sdot only on its own piece.  Breakpoints
            # at most two ulps apart leave nothing to solve.
            t_lo = math.nextafter(t0, t1) if t0 in breaks else t0
            t_hi = math.nextafter(t1, t0) if t1 in breaks else t1
            if t_lo < t_hi:
                rhs = propagators or _general_rhs(M, *chunk, (t_lo, t_hi))
                sol = solve_ivp(rhs, (t_lo, t_hi), yy, rtol=rel_tol * scale, atol=_ATOL * scale)
                if not sol.success:
                    raise IntegrationError(f"transport integration failed: {sol.message}", t=float(sol.t))
                yy = sol.y
            states[i, lo : lo + size] = yy.reshape(-1, width)
    return states[np.searchsorted(stops, times)]


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
