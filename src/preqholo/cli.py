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
from .config import ConfigError, Scenario, build_family, build_loop, read_config, resolve_base_points
from .dynamics import IntegrationError, LoopClosureError
from .families import (
    MemberClosureError,
    UnwrapError,
    lift_circle_samples,
    member_kappas,
    member_states,
    phase_lift,
    winding_of,
)
from .holonomy import UnitPhase, kappa, kappas, phase_spread
from .sphere import OrbitSphere, spherical_coords, sphere_point
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


def write_phases_csv(rows, target) -> None:
    """Write (s, phase lift) rows as ``phases.csv`` text to the target file."""
    lines = ["s,phase_rev,kappa_re,kappa_im"]
    for s, phase in rows:
        s, phase = float(s), float(phase)
        z = np.exp(2j * np.pi * phase)
        lines.append(f"{s!r},{phase!r},{float(z.real)!r},{float(z.imag)!r}")
    Path(target).write_text("\n".join(lines) + "\n")


def _write_points_csv(points_data, target: Path) -> None:
    lines = ["theta,phi,phase_rev,kappa_re,kappa_im"]
    for entry in points_data:
        lines.append(
            f"{entry['theta']!r},{entry['phi']!r},{entry['phase_rev']!r},"
            f"{entry['kappa_re']!r},{entry['kappa_im']!r}"
        )
    target.write_text("\n".join(lines) + "\n")


def _point_records(points, phases) -> list[dict]:
    out = []
    for q, phase in zip(points, phases):
        theta, phi = spherical_coords(q)
        z = np.exp(2j * np.pi * phase)
        out.append(
            {
                "theta": theta,
                "phi": phi,
                "phase_rev": float(phase),
                "kappa_re": float(z.real),
                "kappa_im": float(z.imag),
            }
        )
    return out


def _run_kappa_task(scenario: Scenario) -> dict:
    M = OrbitSphere(scenario.n)
    loop = build_loop(M, scenario.hamiltonian, scenario.tolerances)
    points = resolve_base_points(scenario.base_points, scenario.seed)
    rel = scenario.tolerances.flow_rel_tol
    phases = kappas(M, loop, points, rel_tol=rel)
    spread = phase_spread(phases)
    _check_spread("holonomy", spread, scenario.tolerances.phase_tol, "hamiltonian")

    record = {
        "task": scenario.task,
        "n": scenario.n,
        "loop": loop.label,
        "points": _point_records(points, phases),
        "spread": spread,
        "meta": _meta(scenario),
    }
    if scenario.task == "action":
        record["action_rev"] = [float(p) for p in phases]
    return record


def _run_omega_task(scenario: Scenario) -> dict:
    M = OrbitSphere(scenario.n)
    fam = build_family(M, scenario.family, scenario.tolerances)
    points = resolve_base_points(scenario.base_points, scenario.seed)
    rel = scenario.tolerances.flow_rel_tol

    # One solve of the rows (s, point) on the first grid gives Omega at up to
    # three points and the holonomy at the first; the phase lift samples that
    # grid, and solves only to refine it.
    grid = np.linspace(0.0, 1.0, scenario.s_samples + 1)
    omega_rows = []
    phases = {}
    for s, states in zip(grid, member_states(M, fam, grid, points[:3], rel_tol=rel)):
        vals = [st.omega for st in states]
        phases[s] = UnitPhase.from_revolutions(states[0].phase).value
        omega_rows.append(
            {"s": float(s), "omega": float(np.mean(vals)), "q_spread": float(np.ptp(vals))}
        )
    # Omega(s) = -d kappa / ds does not depend on the base point either.
    worst = max(row["q_spread"] for row in omega_rows)
    _check_spread("Omega", worst, scenario.tolerances.phase_tol, "family")

    def eval_phases(svals):
        new = [s for s in svals if s not in phases]
        if new:
            phases.update(zip(new, member_kappas(M, fam, new, points[0], rel_tol=rel)))
        return [phases[s] for s in svals]

    lift_s, lift = lift_circle_samples(eval_phases, scenario.s_samples)
    return {
        "task": "omega",
        "n": scenario.n,
        "family": fam.label,
        "omega": omega_rows,
        "phase_rows": list(zip(lift_s, lift)),
        "meta": _meta(scenario),
    }


def _run_winding_task(scenario: Scenario) -> dict:
    M = OrbitSphere(scenario.n)
    fam = build_family(M, scenario.family, scenario.tolerances)
    points = resolve_base_points(scenario.base_points, scenario.seed)
    rel = scenario.tolerances.flow_rel_tol
    svals, lift = phase_lift(M, fam, points[0], s_samples=scenario.s_samples, rel_tol=rel)
    winding = winding_of(lift)
    return {
        "task": "winding",
        "n": scenario.n,
        "family": fam.label,
        "winding": winding,
        "degree": -winding,
        "lift_residual": abs(float(lift[-1] - lift[0]) - winding),
        "phase_rows": list(zip(svals, lift)),
        "meta": _meta(scenario),
    }


def _run_su2_demo(scenario: Scenario) -> dict:
    n = scenario.n
    M = OrbitSphere(n)
    tol = scenario.tolerances
    rel = tol.flow_rel_tol
    from .su2 import DIR_A, DIR_B, AlgebraDirection, invariant_loop

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
        table[axis_name] = {
            pt_name: kappa(M, loop, q, rel_tol=rel).value for pt_name, q in ref_points.items()
        }
    return {
        "task": "su2-demo",
        "n": n,
        "expected_phase": (n % 2) / 2.0,
        "holonomy_phases": table,
        "meta": _meta(scenario),
    }


def run_scenario(scenario: Scenario) -> tuple[dict, int]:
    """Execute one scenario; returns (record, exit_status)."""
    if scenario.task in ("kappa", "action"):
        record = _run_kappa_task(scenario)
        status = 0
    elif scenario.task == "omega":
        record = _run_omega_task(scenario)
        status = 0
    elif scenario.task == "winding":
        record = _run_winding_task(scenario)
        status = 0
    elif scenario.task == "verify":
        record = verify_suite(scenario.n_values, seed=scenario.seed, tol=scenario.tolerances)
        record["meta"] = _meta(scenario)
        status = 0 if record["all_passed"] else 2
    elif scenario.task == "su2-demo":
        record = _run_su2_demo(scenario)
        status = 0
    else:  # pragma: no cover - guarded by validation
        raise ConfigError(f"unhandled task {scenario.task!r}")

    phase_rows = record.pop("phase_rows", None)
    target = _write_results(record, scenario.out_dir)
    if phase_rows is not None:
        write_phases_csv(phase_rows, target.with_name("phases.csv"))
    if scenario.out_format == "csv" and "points" in record:
        _write_points_csv(record["points"], target.with_name("points.csv"))
    return record, status


def _error_record(kind: str, message: str, element: str = "") -> dict:
    return {"error": {"kind": kind, "message": message, "element": element}}


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
    out_dir = getattr(args, "out", None) or "out"

    try:
        if args.command == "run":
            data = read_config(args.config)
            # The error record of a config that fails validation goes where
            # the run's output would have gone.
            configured = data.get("output") if isinstance(data, dict) else None
            if args.out is None and isinstance(configured, dict) and isinstance(configured.get("dir"), str):
                out_dir = configured["dir"]
            if args.seed is not None and isinstance(data, dict):
                data = dict(data, seed=args.seed)
            scenario = Scenario.from_dict(data)
            if args.out is not None:
                scenario.out_dir = args.out
            out_dir = scenario.out_dir
            record, status = run_scenario(scenario)
            log.info("task %s finished with status %d", scenario.task, status)
            return status
        if args.command == "verify":
            try:
                n_values = [int(v) for v in str(args.n).split(",") if v.strip()]
            except ValueError as exc:
                raise ConfigError(f"bad --n list: {exc}") from exc
            # An empty list fails on n_values rather than on n.
            scenario = Scenario.from_dict(
                {"task": "verify", "n": n_values[0] if n_values else 1, "n_values": n_values,
                 "seed": args.seed, "output": {"dir": args.out}}
            )
            record, status = run_scenario(scenario)
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
            return status
        if args.command == "su2-demo":
            scenario = Scenario.from_dict(
                {"task": "su2-demo", "n": args.n, "seed": args.seed, "output": {"dir": args.out}}
            )
            record, status = run_scenario(scenario)
            print(json.dumps(record["holonomy_phases"], indent=2, sort_keys=True))
            return status
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        _write_results(_error_record("config", str(exc)), out_dir)
        return 1
    except LoopClosureError as exc:
        log.error("closure failure: %s", exc)
        element = "family" if isinstance(exc, MemberClosureError) else "hamiltonian"
        _write_results(_error_record("numerical", str(exc), element), out_dir)
        return 2
    except UnwrapError as exc:
        log.error("unwrap failure: %s", exc)
        _write_results(_error_record("numerical", str(exc), "family"), out_dir)
        return 2
    except SpreadError as exc:
        log.error("spread failure: %s", exc)
        _write_results(_error_record("numerical", str(exc), exc.element), out_dir)
        return 2
    except IntegrationError as exc:
        log.error("integration failure: %s", exc)
        _write_results(_error_record("numerical", str(exc), "flow"), out_dir)
        return 2


if __name__ == "__main__":
    sys.exit(main())
