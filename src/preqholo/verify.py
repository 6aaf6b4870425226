"""Bundled verification suite: structural checks run per level n.

Each check returns its numeric residual next to the threshold it must beat,
so a report is auditable without rerunning anything.  The suite is
deterministic given (n_values, seed).
"""

from __future__ import annotations

import math

import numpy as np

from .config import Tolerances
from .dynamics import (
    ConstantAxis,
    HamiltonianLoop,
    TimeDepHamiltonian,
    _constant,
    hamiltonian_vector_field,
    integrate_isotopy,
    linear_axis,
    linear_hamiltonian,
    trajectories,
)
from .families import (
    closed_mixing_family,
    concatenate,
    double_integral_check,
    kappa_derivative_check,
    member_states,
    subgroup_rotation_family,
    winding_number,
)
from .holonomy import (
    circle_distance,
    kappa,
    kappa_at_fixed_point,
    kappas,
    phase_spread,
    product_loop,
    transport_phase,
    transport_phases,
)
from .sphere import (
    OrbitSphere,
    fibonacci_sphere,
    random_rotation_matrix,
    random_tangent,
    sphere_point,
)
from .su2 import (
    DIR_A,
    AlgebraDirection,
    closed_form_flow,
    invariant_loop,
    mixing_loop,
)


def _check(name: str, residual: float, threshold: float, detail: str = "") -> dict:
    return {
        "name": name,
        "passed": bool(residual <= threshold),
        "residual": float(residual),
        "threshold": float(threshold),
        "detail": detail,
    }


def _random_axis(rng) -> AlgebraDirection:
    lam = rng.uniform(0.0, 2.0 * math.pi)
    return AlgebraDirection(math.cos(lam), math.sin(lam))


def _rotated(loop: HamiltonianLoop, R: np.ndarray) -> HamiltonianLoop:
    """The loop R psi_t R^-1, generated by f_t o R^-1 (rows u map to u @ R).

    A linear f_t(u) = w(t) . u becomes the linear f_t(u R) = (R w(t)) . u,
    with R @ w taken at each time apart, or once for a constant w.
    """
    f = loop.hamiltonian
    label = f"R.{f.label}"
    axis = linear_axis(f)
    if axis is not None:
        turned = lambda t: (R @ axis(t)[..., None])[..., 0]
        if _constant(axis):
            turned = ConstantAxis(turned(0.0))
        g = linear_hamiltonian(turned, label=label, breakpoints=f.breakpoints)
    else:
        g = TimeDepHamiltonian(
            eval=lambda t, u: f.eval(t, np.asarray(u) @ R),
            grad=lambda t, u: np.asarray(f.grad(t, np.asarray(u) @ R)) @ R.T,
            label=label,
            breakpoints=f.breakpoints,
        )
    return HamiltonianLoop(g, closure_tol=loop.closure_tol, label=f"R.{loop.label}")


def verify_level(n: int, seed: int = 0, tol: Tolerances | None = None) -> list[dict]:
    """Run every structural check at level n; returns one record per check."""
    tol = tol or Tolerances()
    rng = np.random.default_rng(seed + 1000 * abs(n))
    M = OrbitSphere(n)
    rel = tol.flow_rel_tol
    parity = (n % 2) / 2.0
    checks: list[dict] = []

    # Holonomy of invariant loops depends only on the parity of n.
    loops, qs = [], []
    for _ in range(3):
        loops.append(invariant_loop(M, _random_axis(rng), closure_tol=tol.closure_tol))
        qs.append(fibonacci_sphere(1, rng=rng)[0])
    res = max(circle_distance(st.phase, parity) for st in transport_phases(M, loops, qs, rel_tol=rel))
    checks.append(_check("invariant-holonomy-parity", res, tol.phase_tol))

    # One loop, three reference base points, equal phases.
    loop_a = invariant_loop(M, DIR_A, closure_tol=tol.closure_tol)
    ref_points = [
        sphere_point(0.0, 0.0),
        sphere_point(math.pi / 2, 0.0),
        sphere_point(math.pi / 2, math.pi / 2),
    ]
    vals = kappas(M, loop_a, ref_points, rel_tol=rel)
    res = max(max(circle_distance(v, parity) for v in vals), phase_spread(vals))
    checks.append(_check("three-point-agreement", res, tol.phase_tol))

    # Base-point independence on a time-dependent loop, and the same phases
    # against the closed form: the cosine-ramp drift returns to 0, so the
    # SU(2) lift ends at exp(pi A) = -I and kappa = n/2 mod 1.
    mix = mixing_loop(M, 0.8, closure_tol=tol.closure_tol)
    vals = kappas(M, mix, fibonacci_sphere(40), rel_tol=rel)
    checks.append(_check("base-point-independence", phase_spread(vals), 1e-5, "40 points, mixing loop"))
    res = max(circle_distance(v, parity) for v in vals)
    checks.append(_check("base-point-oracle", res, tol.phase_tol, "40 points, mixing loop"))

    # Holonomy is additive under the path product: rows (xi.psi, xi, psi) at q.
    loops, qs = [], []
    for _ in range(5):
        xi = invariant_loop(M, _random_axis(rng), closure_tol=tol.closure_tol)
        psi = invariant_loop(M, _random_axis(rng), closure_tol=tol.closure_tol)
        q = fibonacci_sphere(1, rng=rng)[0]
        loops += [product_loop(xi, psi), xi, psi]
        qs += [q, q, q]
    ph = [st.phase for st in transport_phases(M, loops, qs, rel_tol=rel)]
    res = max(circle_distance(ph[i], ph[i + 1] + ph[i + 2]) for i in range(0, len(ph), 3))
    checks.append(_check("multiplicativity", res, 1e-5))

    # Critical-point shortcut against the integrated holonomy, and the
    # integer gap between the two critical values.
    direction = _random_axis(rng)
    loop = invariant_loop(M, direction, closure_tol=tol.closure_tol)
    f = loop.hamiltonian
    p_plus = direction.axis()
    p_minus = -p_plus
    shortcut = kappa_at_fixed_point(M, f, p_plus)
    integrated = kappa(M, loop, fibonacci_sphere(1, rng=rng)[0], rel_tol=rel)
    checks.append(
        _check("fixed-point-shortcut", shortcut.distance_to(integrated), tol.phase_tol)
    )
    gap = abs(float(f.eval(0.0, p_plus)) - float(f.eval(0.0, p_minus)))
    checks.append(_check("critical-value-gap", abs(gap - abs(n)), 1e-9))

    # Transport against the closed-form single-chart value: a polar-axis loop
    # keeps each trajectory at fixed height, inside one frame.
    theta0 = 1.0
    z_loop = invariant_loop(M, AlgebraDirection(0.0, 0.0, 1.0), closure_tol=tol.closure_tol)
    state = transport_phase(M, z_loop, sphere_point(theta0, 0.3), rel_tol=rel)
    expected = 0.5 * n  # (n/2)(1 - cos t0) from the potential plus (n/2) cos t0
    checks.append(
        _check("single-chart-transport-oracle", abs(state.phase - expected), tol.phase_tol)
    )

    # Rotations preserve the area form, so conjugating a loop by one and
    # moving the base point with it leaves the holonomy unchanged.  The two
    # sides are separate solves: rows of one solve share its steps, which
    # would hide the integration error this check measures.
    qs, rotated, rotated_qs = [], [], []
    for test_loop in (loop_a, mix):
        q = fibonacci_sphere(1, rng=rng)[0]
        R = random_rotation_matrix(rng)
        qs.append(q)
        rotated.append(_rotated(test_loop, R))
        rotated_qs.append(R @ q)
    k1 = transport_phases(M, [loop_a, mix], qs, rel_tol=rel)
    k2 = transport_phases(M, rotated, rotated_qs, rel_tol=rel)
    res = max(circle_distance(a.phase, b.phase) for a, b in zip(k1, k2))
    checks.append(_check("rotation-covariance", res, 1e-8))

    # The loop-space one-form vanishes along subgroup families.
    sweep = subgroup_rotation_family(M, turns=0.5, closure_tol=tol.closure_tol)
    q = fibonacci_sphere(1, rng=rng)[0]
    rows = member_states(M, sweep, np.linspace(0.05, 0.95, 5), [q], rel_tol=rel)
    res = max(abs(row[0].omega) for row in rows)
    checks.append(_check("subgroup-one-form-vanishing", res, 1e-6))

    # Family-derivative identity on the closed two-axis mixing family.
    fam = closed_mixing_family(M, amplitude=0.6, closure_tol=tol.closure_tol)
    dc = kappa_derivative_check(M, fam, 0.3, q, rel_tol=rel)
    checks.append(
        _check(
            "derivative-identity",
            dc.rel_err,
            1e-3,
            f"lhs={dc.lhs:.3e} rhs={dc.rhs:.3e}",
        )
    )

    # Winding of closed families: zero for subgroup rotations, additive
    # under concatenation.
    rotation = subgroup_rotation_family(M, turns=1.0, closure_tol=tol.closure_tol)
    w1 = winding_number(M, rotation, q, s_samples=16, rel_tol=rel)
    checks.append(_check("winding-subgroup-zero", abs(w1), 0.5, f"winding={w1}"))
    w_cat = winding_number(M, concatenate(rotation, rotation), q, s_samples=16, rel_tol=rel)
    checks.append(_check("winding-additivity", abs(w_cat - 2 * w1), 0.5, f"winding={w_cat}"))

    # Double integral of the one-form over a closed degree-zero family.
    val = double_integral_check(M, rotation, q, s_nodes=8, rel_tol=rel)
    checks.append(_check("double-integral-vanishing", abs(val), 1e-4))

    # Flow integrator against the exact group flows, all ten in one solve.
    directions, qs = [], []
    for _ in range(10):
        directions.append(_random_axis(rng))
        qs.append(fibonacci_sphere(1, rng=rng)[0])
    times = np.linspace(0.0, 1.0, 9)
    trajs = trajectories(M, [invariant_loop(M, d).hamiltonian for d in directions], qs, times, rel_tol=rel)
    res = max(
        float(np.linalg.norm(traj.at(t) - closed_form_flow(d, math.pi * t, q)))
        for traj, d, q in zip(trajs, directions, qs)
        for t in times
    )
    checks.append(_check("flow-oracle", res, 1e-7))

    # Time-independent generators are constant along their own flow.
    direction = _random_axis(rng)
    f = invariant_loop(M, direction).hamiltonian
    q = fibonacci_sphere(1, rng=rng)[0]
    times = np.linspace(0.0, 1.0, 21)
    traj = integrate_isotopy(M, f, q, times, rel_tol=rel)
    f0 = float(f.eval(0.0, q))
    res = max(abs(float(f.eval(0.0, traj.at(t))) - f0) for t in times)
    checks.append(_check("energy-conservation", res, 1e-7))

    # Defining identity of the Hamiltonian field against the area form.
    res = 0.0
    pts = fibonacci_sphere(200, rng=rng)
    for q in pts:
        t = rng.uniform()
        x_vec = hamiltonian_vector_field(M, mix.hamiltonian, t, q)
        v = random_tangent(rng, q)
        lhs = 0.5 * M.k * float(np.dot(q, np.cross(x_vec, v)))
        rhs = float(np.asarray(mix.hamiltonian.grad(t, q)) @ v)
        res = max(res, abs(lhs + rhs))
    checks.append(_check("field-identity", res, 1e-8))

    return checks


def verify_suite(n_values, seed: int = 0, tol: Tolerances | None = None) -> dict:
    """Run the full suite for each level; deterministic given (n_values, seed)."""
    levels = []
    for n in n_values:
        checks = verify_level(n, seed=seed, tol=tol)
        levels.append(
            {
                "n": int(n),
                "checks": checks,
                "passed": all(c["passed"] for c in checks),
            }
        )
    return {
        "task": "verify",
        "seed": int(seed),
        "n_values": [int(n) for n in n_values],
        "levels": levels,
        "all_passed": all(level["passed"] for level in levels),
    }
