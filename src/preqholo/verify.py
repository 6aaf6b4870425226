"""Bundled verification suite: structural checks run per level n.

Each check returns its numeric residual next to the threshold it must beat,
so a report is auditable without rerunning anything.  The suite is
deterministic given (n_values, seed).
"""

from __future__ import annotations

import math

import numpy as np

from .config import Tolerances
from .dynamics import hamiltonian_vector_field, integrate_isotopy
from .families import (
    closed_mixing_family,
    concatenate,
    double_integral_check,
    kappa_derivative_check,
    omega_eval as family_omega,
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
)
from .sphere import OrbitSphere, fibonacci_sphere, random_tangent, sphere_point
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


def verify_level(n: int, seed: int = 0, tol: Tolerances | None = None) -> list[dict]:
    """Run every structural check at level n; returns one record per check."""
    tol = tol or Tolerances()
    rng = np.random.default_rng(seed + 1000 * abs(n))
    M = OrbitSphere(n)
    rel = tol.flow_rel_tol
    parity = (n % 2) / 2.0
    checks: list[dict] = []

    # Holonomy of invariant loops depends only on the parity of n.
    res = 0.0
    for _ in range(3):
        loop = invariant_loop(M, _random_axis(rng), closure_tol=tol.closure_tol)
        q = fibonacci_sphere(1, rng=rng)[0]
        res = max(res, circle_distance(kappa(M, loop, q, rel_tol=rel).value, parity))
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

    # Holonomy is additive under the path product.
    res = 0.0
    for _ in range(5):
        xi = invariant_loop(M, _random_axis(rng), closure_tol=tol.closure_tol)
        psi = invariant_loop(M, _random_axis(rng), closure_tol=tol.closure_tol)
        q = fibonacci_sphere(1, rng=rng)[0]
        lhs = kappa(M, product_loop(xi, psi), q, rel_tol=rel).value
        rhs = kappa(M, xi, q, rel_tol=rel).value + kappa(M, psi, q, rel_tol=rel).value
        res = max(res, circle_distance(lhs, rhs))
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

    # The holonomy must not depend on where the frames are switched.
    res = 0.0
    for test_loop in (loop_a, mix):
        q = fibonacci_sphere(1, rng=rng)[0]
        k1 = kappa(M, test_loop, q, rel_tol=rel)
        k2 = kappa(M, test_loop, q, rel_tol=rel, thresholds=(math.pi / 4, 3 * math.pi / 4))
        res = max(res, k1.distance_to(k2))
    checks.append(_check("frame-independence", res, 1e-8))

    # The loop-space one-form vanishes along subgroup families.
    sweep = subgroup_rotation_family(M, turns=0.5, closure_tol=tol.closure_tol)
    q = fibonacci_sphere(1, rng=rng)[0]
    res = max(abs(family_omega(M, sweep, s, q, rel_tol=rel)) for s in np.linspace(0.05, 0.95, 5))
    checks.append(_check("subgroup-one-form-vanishing", res, 1e-6))

    # Family-derivative identity on the closed two-axis mixing family.
    fam = closed_mixing_family(M, amplitude=0.6)
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

    # Flow integrator against the exact group flows.
    res = 0.0
    for _ in range(10):
        direction = _random_axis(rng)
        q = fibonacci_sphere(1, rng=rng)[0]
        traj = integrate_isotopy(M, invariant_loop(M, direction).hamiltonian, q, rel_tol=rel)
        for t in np.linspace(0.0, 1.0, 9):
            exact = closed_form_flow(direction, math.pi * t, q)
            res = max(res, float(np.linalg.norm(traj.at(t) - exact)))
    checks.append(_check("flow-oracle", res, 1e-7))

    # Time-independent generators are constant along their own flow.
    direction = _random_axis(rng)
    f = invariant_loop(M, direction).hamiltonian
    q = fibonacci_sphere(1, rng=rng)[0]
    traj = integrate_isotopy(M, f, q, rel_tol=rel)
    f0 = float(f.eval(0.0, q))
    res = max(abs(float(f.eval(0.0, traj.at(t))) - f0) for t in np.linspace(0.0, 1.0, 21))
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
