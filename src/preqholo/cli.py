"""Scenario runner: executes configured computations and writes result files.

Exit codes: 0 on success with all suites passing, 1 for configuration
errors, 2 for numerical failures (loop non-closure, unwrap failure, step
control breakdown, a base-point spread past ``phase_tol``) or failing
verification checks.  Output files are deterministic for a fixed (config,
seed): no timestamps or durations are recorded.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    Scenario,
    build_family,
    build_loop,
    check_out_dir,
    read_config,
    resolve_base_points,
)
from .dynamics import IntegrationError, LoopClosureError
from .families import (
    MemberClosureError,
    UnwrapError,
    lift_circle_samples,
    member_states,
    phase_lift,
    winding_of,
)
from .holonomy import kappas, phase_spread
from .sphere import OrbitSphere, spherical_coords, sphere_point
from .su2 import DIR_A, DIR_B, AlgebraDirection, invariant_loop
from .verify import verify_suite

log = logging.getLogger("preqholo")

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging():
    level = os.environ.get("PREQ_LOG", "info").lower()
    if level not in _LOG_LEVELS:
        level = "info"
    logging.basicConfig(level=_LOG_LEVELS[level], format="%(levelname)s %(name)s: %(message)s")


def _meta(scenario: Scenario) -> dict:
    return {
        "package": "preqholo",
        "version": __version__,
        "numpy": np.__version__,
        "seed": scenario.seed,
        "config": scenario.echo(),
    }


class SpreadError(RuntimeError):
    """A base-point spread, 0 in exact arithmetic, exceeds ``phase_tol``; names the config element."""

    def __init__(self, message: str, element: str):
        super().__init__(message)
        self.element = element


def _check_spread(what: str, spread: float, tol: float, element: str) -> None:
    if spread > tol:
        raise SpreadError(f"{what} spread over base points {spread:.3e} exceeds phase_tol {tol:.3e}", element)


def _write_results(record: dict, out_dir: str) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    target = path / "results.json"
    target.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return target


def _write_csv(rows: list[dict], target: Path) -> None:
    """Write rows that share their keys as CSV: the keys, then each row's values by repr."""
    lines = [",".join(rows[0])] + [",".join(repr(v) for v in row.values()) for row in rows]
    target.write_text("\n".join(lines) + "\n")


def _phase_columns(phase) -> dict:
    """A phase in revolutions and its point exp(2 pi i phase) on the circle."""
    z = np.exp(2j * np.pi * float(phase))
    return {"phase_rev": float(phase), "kappa_re": float(z.real), "kappa_im": float(z.imag)}


def _point_records(points, phases) -> list[dict]:
    out = []
    for q, phase in zip(points, phases):
        theta, phi = spherical_coords(q)
        out.append({"theta": theta, "phi": phi, **_phase_columns(phase)})
    return out


def _run_kappa_task(scenario: Scenario) -> dict:
    M = OrbitSphere(scenario.n)
    loop = build_loop(M, scenario.hamiltonian, scenario.tolerances)
    points = resolve_base_points(scenario.base_points, scenario.seed)
    rel = scenario.tolerances.flow_rel_tol
    phases = kappas(M, loop, points, rel_tol=rel)
    spread = phase_spread(phases)
    _check_spread("holonomy", spread, scenario.tolerances.phase_tol, "hamiltonian")

    return {
        "loop": loop.label,
        "points": _point_records(points, phases),
        "spread": spread,
    }


def _run_omega_task(scenario: Scenario) -> dict:
    M = OrbitSphere(scenario.n)
    fam = build_family(M, scenario.family, scenario.tolerances)
    points = resolve_base_points(scenario.base_points, scenario.seed)
    rel = scenario.tolerances.flow_rel_tol
    omega_rows = []

    # The lift's first grid is one solve of the rows (s, point): Omega at up
    # to three points, and the holonomy at the first.  A finer grid solves
    # only the holonomy at the first point.
    def eval_phases(svals):
        if omega_rows:
            rows = member_states(M, fam, svals, points[:1], rel_tol=rel, omega=False)
            return [states[0].phase for states in rows]
        rows = member_states(M, fam, svals, points[:3], rel_tol=rel)
        for s, states in zip(svals, rows):
            vals = [st.omega for st in states]
            omega_rows.append(
                {"s": float(s), "omega": float(np.mean(vals)), "q_spread": float(np.ptp(vals))}
            )
        # Omega(s) = -d kappa / ds does not depend on the base point either.
        worst = max(row["q_spread"] for row in omega_rows)
        _check_spread("Omega", worst, scenario.tolerances.phase_tol, "family")
        return [states[0].phase for states in rows]

    lift_s, lift = lift_circle_samples(eval_phases, scenario.s_samples)
    return {
        "family": fam.label,
        "omega": omega_rows,
        "phase_rows": list(zip(lift_s, lift)),
    }


def _run_winding_task(scenario: Scenario) -> dict:
    M = OrbitSphere(scenario.n)
    fam = build_family(M, scenario.family, scenario.tolerances)
    points = resolve_base_points(scenario.base_points, scenario.seed)
    rel = scenario.tolerances.flow_rel_tol
    svals, lift = phase_lift(M, fam, points[0], s_samples=scenario.s_samples, rel_tol=rel)
    winding = winding_of(lift)
    return {
        "family": fam.label,
        "winding": winding,
        "degree": -winding,
        "lift_residual": abs(float(lift[-1] - lift[0]) - winding),
        "phase_rows": list(zip(svals, lift)),
    }


def _run_su2_demo(scenario: Scenario) -> dict:
    n = scenario.n
    M = OrbitSphere(n)
    tol = scenario.tolerances
    axes = {
        "A": DIR_A,
        "B": DIR_B,
        "3-4-5": AlgebraDirection(0.6, 0.8),
    }
    ref_points = {
        "north-pole": sphere_point(0.0, 0.0),
        "equator-0": sphere_point(np.pi / 2, 0.0),
        "equator-90": sphere_point(np.pi / 2, np.pi / 2),
    }
    table = {}
    for axis_name, direction in axes.items():
        loop = invariant_loop(M, direction, closure_tol=tol.closure_tol)
        phases = kappas(M, loop, list(ref_points.values()), rel_tol=tol.flow_rel_tol)
        table[axis_name] = dict(zip(ref_points, phases))
    return {
        "expected_phase": (n % 2) / 2.0,
        "holonomy_phases": table,
    }


# The runner of every task but verify, whose record also sets the exit status;
# run_scenario adds the task, the level and the meta block to each record.
_TASK_RUNNERS = {"kappa": _run_kappa_task, "action": _run_kappa_task, "omega": _run_omega_task,
                 "winding": _run_winding_task, "su2-demo": _run_su2_demo}


def run_scenario(scenario: Scenario) -> tuple[dict, int]:
    """Execute one scenario; returns (record, exit_status)."""
    if scenario.task == "verify":
        record = verify_suite(scenario.n_values, seed=scenario.seed, tol=scenario.tolerances)
        status = 0 if record["all_passed"] else 2
    else:
        record, status = {"task": scenario.task, "n": scenario.n}, 0
        record.update(_TASK_RUNNERS[scenario.task](scenario))
    record["meta"] = _meta(scenario)

    phase_rows = record.pop("phase_rows", None)
    target = _write_results(record, scenario.out_dir)
    if phase_rows is not None:
        rows = [{"s": float(s), **_phase_columns(phase)} for s, phase in phase_rows]
        _write_csv(rows, target.with_name("phases.csv"))
    if scenario.out_format == "csv" and "points" in record:
        _write_csv(record["points"], target.with_name("points.csv"))
    return record, status


# The config element a numerical failure names; a subclass comes before its base.
_FAILED_ELEMENT = {MemberClosureError: "family", LoopClosureError: "hamiltonian", UnwrapError: "family",
                   IntegrationError: "flow"}


def _write_error(out_dir: str, kind: str, message: str, element: str = "") -> None:
    """Write an error record to out_dir; where that is not possible, log that none was written."""
    try:
        _write_results({"error": {"kind": kind, "message": message, "element": element}}, out_dir)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        log.error("no error record written: %s", exc)


def main(argv=None) -> int:
    _configure_logging()
    parser = argparse.ArgumentParser(
        prog="preqholo",
        description="Holonomy, action, loop-space one-form and winding computations "
        "on the integer-level sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON scenario")
    p_run.add_argument("config", help="path to the scenario JSON file")
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--seed", type=int, default=None, help="seed (overrides config)")

    p_verify = sub.add_parser("verify", help="run the structural verification suite")
    p_verify.add_argument("--n", default="1,2,3", help="comma-separated levels, e.g. 1,2,3")
    p_verify.add_argument("--out", default="out", help="output directory")
    p_verify.add_argument("--seed", type=int, default=0)

    p_demo = sub.add_parser("su2-demo", help="holonomy of the reference loops at level n")
    p_demo.add_argument("--n", type=int, default=1)
    p_demo.add_argument("--out", default="out", help="output directory")
    p_demo.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    out_dir = args.out or "out"

    try:
        if args.out is not None:
            check_out_dir(args.out, "--out")
        if args.command == "run":
            data = read_config(args.config)
            # The error record of a config that fails validation goes where
            # the run's output would have gone.
            configured = data.get("output") if isinstance(data, dict) else None
            if args.out is None and isinstance(configured, dict) and isinstance(configured.get("dir"), str):
                out_dir = configured["dir"]
            if args.seed is not None and isinstance(data, dict):
                data = dict(data, seed=args.seed)
        elif args.command == "verify":
            try:
                n_values = [int(v) for v in str(args.n).split(",") if v.strip()]
            except ValueError as exc:
                raise ConfigError(f"bad --n list: {exc}") from exc
            # An empty list fails on n_values rather than on n.
            data = {"task": "verify", "n": n_values[0] if n_values else 1, "n_values": n_values,
                    "seed": args.seed, "output": {"dir": args.out}}
        else:
            data = {"task": "su2-demo", "n": args.n, "seed": args.seed, "output": {"dir": args.out}}
        scenario = Scenario.from_dict(data)
        if args.out is not None:
            scenario.out_dir = args.out
        out_dir = scenario.out_dir
        record, status = run_scenario(scenario)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        _write_error(out_dir, "config", str(exc))
        return 1
    except (SpreadError, *_FAILED_ELEMENT) as exc:
        element = exc.element if isinstance(exc, SpreadError) else next(
            name for kind, name in _FAILED_ELEMENT.items() if isinstance(exc, kind)
        )
        log.error("numerical failure in %s: %s", element, exc)
        _write_error(out_dir, "numerical", str(exc), element)
        return 2

    if args.command == "verify":
        for level in record["levels"]:
            for check in level["checks"]:
                log.info(
                    "n=%d %-32s %s residual=%.3e threshold=%.3e",
                    level["n"],
                    check["name"],
                    "pass" if check["passed"] else "FAIL",
                    check["residual"],
                    check["threshold"],
                )
        print("all checks passed" if record["all_passed"] else "SOME CHECKS FAILED")
    elif args.command == "su2-demo":
        print(json.dumps(record["holonomy_phases"], indent=2, sort_keys=True))
    else:
        log.info("task %s finished with status %d", scenario.task, status)
    return status


if __name__ == "__main__":
    sys.exit(main())
