"""Absolute oracles for every benchmark op.

Every registry loop is a loop of rotations, and its SU(2) lift built from
``su2.exp_su2`` ends at +I or -I.  With epsilon = 1 exactly when it ends at
-I, the holonomy is kappa = (n * epsilon / 2) mod 1.  A there-and-back loop
retraces every trajectory, so its holonomy is 0.

The thresholds are the repo's own check thresholds at the time the benchmark
was defined, fixed here so that a change to the program cannot loosen them:
``phase_tol`` of the default tolerances, the base-point spread bound and the
one-form bound of the verify suite.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from preqholo import su2
from preqholo.holonomy import circle_distance

PHASE_TOL = 1e-6
SPREAD_TOL = 1e-5
OMEGA_TOL = 1e-6
_LIFT_TOL = 1e-9


def lift_end(spec: dict) -> su2.SU2Element:
    """End point of the SU(2) lift of a registry loop."""
    name = spec["name"]
    if name == "zero":
        return su2.SU2Element.identity()
    if name == "invariant":
        direction = su2.AlgebraDirection(spec.get("a", 1.0), spec.get("b", 0.0), spec.get("z", 0.0))
        return su2.exp_su2(direction, math.pi)
    if name == "mix":
        g_fn, _ = su2.profile_functions(spec.get("profile", "cosine-ramp"))
        drift = su2.exp_su2(su2.DIR_Z, float(spec["amplitude"]) * g_fn(1.0))
        return drift @ su2.exp_su2(su2.DIR_A, math.pi)
    if name == "scaled" and spec["base"]["name"] == "invariant":
        base = spec["base"]
        direction = su2.AlgebraDirection(base.get("a", 1.0), base.get("b", 0.0), base.get("z", 0.0))
        return su2.exp_su2(direction, float(spec["factor"]) * math.pi)
    raise ValueError(f"no closed-form lift for {spec!r}")


def expected_kappa(n: int, spec: dict) -> float:
    """kappa = (n * epsilon / 2) mod 1 from the SU(2) lift of the loop."""
    g = lift_end(spec)
    if abs(g.y) > _LIFT_TOL or abs(abs(g.x.real) - 1.0) > _LIFT_TOL:
        raise ValueError(f"SU(2) lift of {spec!r} does not end at +-I")
    epsilon = 1 if g.x.real < 0 else 0
    return (n * epsilon / 2.0) % 1.0


def family_member(spec: dict, s: float) -> dict:
    """Registry loop spec of the member at ``s`` of a registry family."""
    if spec["name"] == "subgroup-rotation":
        lam = spec.get("start_angle", 0.0) + 2.0 * math.pi * spec.get("turns", 1.0) * s
        return {"name": "invariant", "a": math.cos(lam), "b": math.sin(lam)}
    if spec["name"] == "closed-mixing":
        amplitude = spec.get("amplitude", 0.5) * math.sin(math.pi * s) ** 2
        return {"name": "mix", "amplitude": amplitude, "profile": spec.get("profile", "cosine-ramp")}
    raise ValueError(f"no closed-form members for family {spec!r}")


class Verdict:
    """Outcome of one op's checks: pass or fail, and the worst kappa residual."""

    def __init__(self):
        self.ok = True
        self.kappa_resid = 0.0
        self.reasons: list[str] = []

    def require(self, cond: bool, reason: str) -> None:
        if not cond:
            self.ok = False
            self.reasons.append(reason)

    def kappa(self, value: float, expected: float, what: str) -> None:
        resid = circle_distance(value, expected)
        self.kappa_resid = max(self.kappa_resid, resid)
        self.require(resid <= PHASE_TOL, f"{what}: kappa {value!r} vs {expected!r}")


def _phase_rows(out_dir: Path) -> list[tuple[float, float]]:
    with open(out_dir / "phases.csv", newline="") as fh:
        return [(float(r["s"]), float(r["phase_rev"])) for r in csv.DictReader(fh)]


def check_scenario(cfg: dict, record: dict, status: int, out_dir: Path) -> Verdict:
    """Check a ``cli.run_scenario`` result and its files against the oracle."""
    v = Verdict()
    v.require(status == 0, f"status {status}")
    task, n = cfg["task"], cfg["n"]
    if task == "kappa":
        expected = expected_kappa(n, cfg["hamiltonian"])
        count = int(cfg["base_points"].split(":")[1])
        v.require(len(record["points"]) == count, "point count")
        for i, point in enumerate(record["points"]):
            v.kappa(point["phase_rev"], expected, f"point {i}")
        v.require(record["spread"] <= SPREAD_TOL, f"spread {record['spread']!r}")
    elif task in ("omega", "winding"):
        fam = cfg["family"]
        if task == "omega":
            v.require(len(record["omega"]) == cfg["s_samples"] + 1, "omega row count")
            for row in record["omega"]:
                v.require(abs(row["omega"]) <= OMEGA_TOL, f"omega {row['omega']!r} at s={row['s']}")
        else:
            v.require(record["winding"] == 0, f"winding {record['winding']}")
        rows = _phase_rows(out_dir)
        v.require(len(rows) >= cfg["s_samples"] + 1, "phase row count")
        for s, phase in rows:
            v.kappa(phase, expected_kappa(n, family_member(fam, s)), f"lift at s={s}")
    elif task == "verify":
        v.require(record["all_passed"], "verify checks failed")
        v.require(
            [level["n"] for level in record["levels"]] == cfg["n_values"], "verify levels"
        )
    else:
        raise ValueError(f"no oracle for task {task!r}")
    return v


def check_there_and_back(phases: list[float]) -> Verdict:
    """Every kappa of a there-and-back loop is 0, from every base point."""
    v = Verdict()
    for i, phase in enumerate(phases):
        v.kappa(phase, 0.0, f"point {i}")
    spread = max(circle_distance(x, y) for x in phases for y in phases)
    v.require(spread <= SPREAD_TOL, f"spread {spread!r}")
    return v
