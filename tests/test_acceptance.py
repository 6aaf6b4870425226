"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines inline).
"""

import json
import math
import time

import numpy as np
from reference_transport import DEFAULT_SWITCH_THETA, reference_transport_phase
from scipy.integrate import quad

from preqholo import (
    DIR_A,
    DIR_Z,
    AlgebraDirection,
    OrbitSphere,
    circle_distance,
    closed_form_flow,
    closed_mixing_family,
    concatenate,
    double_integral_check,
    fibonacci_sphere,
    hamiltonian_vector_field,
    integrate_isotopy,
    invariant_loop,
    kappa,
    kappa_at_fixed_point,
    kappas,
    kappa_derivative_check,
    mixing_family,
    mixing_loop,
    product_loop,
    sphere_point,
    subgroup_rotation_family,
    transport_phase,
    unit_vector,
    winding_number,
)
from preqholo.cli import main
from preqholo.families import omega_eval as family_omega
from preqholo.holonomy import phase_spread
from preqholo.sphere import random_tangent


def report(cid, passed, detail):
    print(f"ACCEPTANCE {cid}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, detail


def test_criterion_1_invariant_holonomy_parity():
    # kappa phase equals (n mod 2)/2 for random equatorial axes, < 30 s total
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    worst = 0.0
    for n in (1, 2, 3, 4):
        M = OrbitSphere(n)
        for _ in range(5):
            lam = rng.uniform(0, 2 * math.pi)
            loop = invariant_loop(M, AlgebraDirection(math.cos(lam), math.sin(lam)))
            q = unit_vector(rng.normal(size=3))
            worst = max(worst, kappa(M, loop, q).distance_to((n % 2) / 2))
    elapsed = time.monotonic() - t0
    report(
        "1 parity of invariant-loop holonomy",
        worst < 1e-6 and elapsed < 30.0,
        f"worst residual {worst:.2e}, elapsed {elapsed:.1f}s",
    )


def test_criterion_2_three_point_agreement():
    M = OrbitSphere(1)
    loop = invariant_loop(M, DIR_A)
    pts = [sphere_point(0, 0), sphere_point(math.pi / 2, 0), sphere_point(math.pi / 2, math.pi / 2)]
    vals = [kappa(M, loop, q).value for q in pts]
    value_res = max(circle_distance(v, 0.5) for v in vals)
    spread = max(circle_distance(a, b) for a in vals for b in vals)
    report(
        "2 three-point agreement",
        value_res < 1e-6 and spread < 1e-6,
        f"values {vals}, spread {spread:.2e}",
    )


def test_criterion_3_base_point_independence():
    M = OrbitSphere(2)
    loop = mixing_loop(M, 0.9)
    spread = phase_spread(kappas(M, loop, fibonacci_sphere(100)))
    report("3 base-point independence (100 points)", spread < 1e-5, f"spread {spread:.2e}")


def test_criterion_4_multiplicativity():
    rng = np.random.default_rng(7)
    M = OrbitSphere(1)
    worst = 0.0
    for _ in range(20):
        la, lb = rng.uniform(0, 2 * math.pi, size=2)
        xi = invariant_loop(M, AlgebraDirection(math.cos(la), math.sin(la)))
        psi = invariant_loop(M, AlgebraDirection(math.cos(lb), math.sin(lb)))
        q = unit_vector(rng.normal(size=3))
        lhs = kappa(M, product_loop(xi, psi), q).value
        rhs = kappa(M, xi, q).value + kappa(M, psi, q).value
        worst = max(worst, circle_distance(lhs, rhs))
    report("4 multiplicativity (20 random pairs)", worst < 1e-5, f"worst residual {worst:.2e}")


def test_criterion_5_fixed_point_shortcut():
    rng = np.random.default_rng(11)
    worst_match = 0.0
    worst_gap = 0.0
    for n in (1, 3):
        M = OrbitSphere(n)
        lam = rng.uniform(0, 2 * math.pi)
        direction = AlgebraDirection(math.cos(lam), math.sin(lam))
        loop = invariant_loop(M, direction)
        f = loop.hamiltonian
        shortcut = kappa_at_fixed_point(M, f, direction.axis())
        integrated = kappa(M, loop, unit_vector(rng.normal(size=3)))
        worst_match = max(worst_match, shortcut.distance_to(integrated))
        gap = abs(float(f.eval(0, direction.axis())) - float(f.eval(0, -direction.axis())))
        worst_gap = max(worst_gap, abs(gap - abs(n)))
    report(
        "5 fixed-point shortcut and critical-value gap",
        worst_match < 1e-6 and worst_gap < 1e-9,
        f"shortcut residual {worst_match:.2e}, gap residual {worst_gap:.2e}",
    )


def test_criterion_6_transport_consistency():
    # single-chart curves: the transported phase lift against the
    # closed-form cap area minus independently quadratured generator term
    worst = 0.0
    for n, theta0 in [(1, 0.7), (2, 1.2)]:
        M = OrbitSphere(n)
        st_ = transport_phase(M, invariant_loop(M, DIR_Z), sphere_point(theta0, 1.0))
        worst = max(worst, abs(st_.phase - 0.5 * n))
    for n, r in [(1, 0.25), (3, 0.4)]:
        M = OrbitSphere(n)
        loop = invariant_loop(M, DIR_A)
        q = np.array([math.cos(r), 0.0, math.sin(r)])
        st_ = transport_phase(M, loop, q)
        f_term, _ = quad(
            lambda t: float(loop.hamiltonian.eval(t, closed_form_flow(DIR_A, math.pi * t, q))),
            0.0,
            1.0,
            epsabs=1e-12,
        )
        oracle = -(n / 2) * (1 - math.cos(r)) - f_term
        worst = max(worst, abs(st_.phase - oracle))

    # the chart-free holonomy against the frame transport, at two
    # hysteresis bands
    rng = np.random.default_rng(3)
    worst_frame = 0.0
    M = OrbitSphere(2)
    for _ in range(10):
        loop = mixing_loop(M, rng.uniform(0.3, 1.4))
        q = unit_vector(rng.normal(size=3))
        k = kappa(M, loop, q)
        for thresholds in (DEFAULT_SWITCH_THETA, (math.pi / 4, 3 * math.pi / 4)):
            ref = reference_transport_phase(M, loop, q, thresholds=thresholds)
            worst_frame = max(worst_frame, k.distance_to(ref.phase))
    report(
        "6 transport consistency (surface oracle, frame independence)",
        worst < 1e-6 and worst_frame < 1e-8,
        f"oracle residual {worst:.2e}, frame residual {worst_frame:.2e}",
    )


def test_criterion_7_one_form_and_derivative():
    M = OrbitSphere(1)
    q = sphere_point(1.1, 0.7)

    # derivative identity on the two-axis mixing family
    worst_rel = 0.0
    fam = mixing_family(M, amplitude=1.0)
    for s in (0.25, 0.5):
        dc = kappa_derivative_check(M, fam, s, q)
        worst_rel = max(worst_rel, dc.rel_err)

    # the one-form vanishes along subgroup families
    sweep = subgroup_rotation_family(M, turns=0.5)
    worst_omega = max(
        abs(family_omega(M, sweep, float(s), q)) for s in np.linspace(0.0, 1.0, 10)
    )
    report(
        "7 one-form and derivative identity",
        worst_rel < 1e-3 and worst_omega < 1e-6,
        f"derivative rel err {worst_rel:.2e}, subgroup one-form {worst_omega:.2e}",
    )


def test_criterion_8_winding_and_grading():
    M = OrbitSphere(1)
    q = sphere_point(1.1, 0.7)
    rot = subgroup_rotation_family(M, turns=1.0)
    const = closed_mixing_family(M, 0.0)

    w_const = winding_number(M, const, q, s_samples=8)
    w_rot = winding_number(M, rot, q, s_samples=16)
    w_rot2 = winding_number(M, rot, q, s_samples=32)
    mix = closed_mixing_family(M, 0.5)
    w_mix = winding_number(M, mix, q, s_samples=16)
    w_cat = winding_number(M, concatenate(rot, mix), q, s_samples=32)

    di_rot = double_integral_check(M, rot, q, s_nodes=8)
    di_mix = double_integral_check(M, mix, q, s_nodes=8)

    ok = (
        w_const == 0
        and w_rot == 0
        and w_rot2 == w_rot
        and w_cat == w_rot + w_mix
        and abs(di_rot) < 1e-4
        and abs(di_mix) < 1e-4
    )
    report(
        "8 winding and grading",
        ok,
        f"windings const={w_const} rot={w_rot}/{w_rot2} cat={w_cat}, "
        f"double integrals {di_rot:.2e} {di_mix:.2e}",
    )


def test_criterion_9_dynamics_oracle():
    rng = np.random.default_rng(5)
    M = OrbitSphere(2)

    worst_flow = 0.0
    for _ in range(100):
        lam = rng.uniform(0, 2 * math.pi)
        direction = AlgebraDirection(math.cos(lam), math.sin(lam))
        q = unit_vector(rng.normal(size=3))
        t = float(rng.uniform())
        traj = integrate_isotopy(M, invariant_loop(M, direction).hamiltonian, q, [t])
        worst_flow = max(
            worst_flow, float(np.linalg.norm(traj.at(t) - closed_form_flow(direction, math.pi * t, q)))
        )

    worst_energy = 0.0
    f = invariant_loop(M, AlgebraDirection(0.6, 0.8)).hamiltonian
    for _ in range(5):
        q = unit_vector(rng.normal(size=3))
        times = np.linspace(0, 1, 30)
        traj = integrate_isotopy(M, f, q, times)
        f0 = float(f.eval(0.0, q))
        for t in times:
            worst_energy = max(worst_energy, abs(float(f.eval(0.0, traj.at(t))) - f0))

    worst_identity = 0.0
    hams = [f, mixing_loop(M, 0.8).hamiltonian]
    for _ in range(10_000):
        g = hams[rng.integers(2)]
        p = unit_vector(rng.normal(size=3))
        v = random_tangent(rng, p)
        t = float(rng.uniform())
        x_vec = hamiltonian_vector_field(M, g, t, p)
        lhs = 0.5 * M.k * float(np.dot(p, np.cross(x_vec, v)))
        rhs = float(np.asarray(g.grad(t, p)) @ v)
        worst_identity = max(worst_identity, abs(lhs + rhs))

    report(
        "9 dynamics oracle",
        worst_flow < 1e-7 and worst_energy < 1e-7 and worst_identity < 1e-8,
        f"flow {worst_flow:.2e}, energy {worst_energy:.2e}, identity {worst_identity:.2e}",
    )


def test_criterion_10_determinism(tmp_path):
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        status = main(["verify", "--n", "1,2,3", "--out", str(out), "--seed", "0"])
        assert status == 0
        outs.append((out / "results.json").read_bytes())
    identical = outs[0] == outs[1]
    record = json.loads(outs[0])
    report(
        "10 determinism of the verification suite",
        identical and record["all_passed"],
        f"byte-identical={identical}, all_passed={record['all_passed']}",
    )
