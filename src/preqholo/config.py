"""Scenario configuration: JSON schema, validation, builtin registries."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import HamiltonianLoop, check_rel_tol, scale_hamiltonian, zero_hamiltonian
from .families import (
    MAX_LIFT_SAMPLES,
    LoopFamily,
    closed_mixing_family,
    constant_family,
    mixing_family,
    scaling_family,
    subgroup_rotation_family,
)
from .sphere import OrbitSphere, fibonacci_sphere, sphere_point
from .su2 import AlgebraDirection, invariant_loop, mixing_loop

TASKS = ("kappa", "action", "omega", "winding", "verify", "su2-demo")
HAMILTONIAN_NAMES = ("zero", "invariant", "mix", "scaled")
FAMILY_NAMES = ("constant", "subgroup-rotation", "mixing", "closed-mixing", "scaling")
OUTPUT_FORMATS = ("json", "csv")


class ConfigError(ValueError):
    """A scenario file failed validation; the message names the bad element."""


def _float(value, key: str) -> float:
    """The value as a finite float; NaN or infinite inputs would stall the integrators."""
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}") from exc
    if not math.isfinite(out):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return out


@dataclass(frozen=True)
class Tolerances:
    flow_rel_tol: float = 1e-10
    phase_tol: float = 1e-6
    closure_tol: float = 1e-6

    @classmethod
    def from_dict(cls, d: dict | None) -> "Tolerances":
        d = dict(_section(d, "tolerances"))
        out = cls(
            flow_rel_tol=_float(d.pop("flow_rel_tol", 1e-10), "tolerances.flow_rel_tol"),
            phase_tol=_float(d.pop("phase_tol", 1e-6), "tolerances.phase_tol"),
            closure_tol=_float(d.pop("closure_tol", 1e-6), "tolerances.closure_tol"),
        )
        if d:
            raise ConfigError(f"unknown tolerance keys: {sorted(d)}")
        try:
            check_rel_tol(out.flow_rel_tol)
        except ValueError as exc:
            raise ConfigError(f"tolerances.flow_rel_tol: {exc}") from exc
        for key in ("phase_tol", "closure_tol"):
            if getattr(out, key) <= 0.0:
                raise ConfigError(f"tolerances.{key} must be > 0, got {getattr(out, key)!r}")
        return out


def _section(value, key: str) -> dict:
    """A config section: an object, or {} when absent or null."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    return value


def read_config(path):
    """The parsed JSON of a scenario file; ConfigError if it cannot be read or parsed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


@dataclass
class Scenario:
    """Validated run description; see README for the JSON schema."""

    n: int
    task: str
    hamiltonian: dict | None = None
    family: dict | None = None
    base_points: object = "auto:10"
    s_samples: int = 32
    tolerances: Tolerances = field(default_factory=Tolerances)
    seed: int = 0
    out_dir: str = "out"
    out_format: str = "json"
    n_values: list[int] = field(default_factory=list)

    def __post_init__(self):
        # Also reached by scenarios built in code (su2-demo) and by
        # dataclasses.replace (command-line overrides), not only from_dict.
        _check_int(self.n, "n", lambda v: v != 0, "a nonzero integer")
        _check_int(self.seed, "seed", lambda v: v >= 0, "an integer >= 0")

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        if not isinstance(d, dict):
            raise ConfigError("config root must be a JSON object")
        task = d.get("task")
        if task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {task!r}")

        n = d.get("n", 1)

        ham = d.get("hamiltonian")
        fam = d.get("family")
        if task in ("kappa", "action") and ham is None:
            raise ConfigError(f"task '{task}' requires a hamiltonian spec")
        if task in ("omega", "winding") and fam is None:
            raise ConfigError(f"task '{task}' requires a family spec")
        if ham is not None:
            _validate_named(ham, HAMILTONIAN_NAMES, "hamiltonian")
        if fam is not None:
            _validate_named(fam, FAMILY_NAMES, "family")

        base_points = d.get("base_points", "auto:10")
        _validate_base_points(base_points)

        s_samples = d.get("s_samples", 32)
        _check_int(
            s_samples, "s_samples", lambda v: 2 <= v <= MAX_LIFT_SAMPLES,
            f"an integer in [2, {MAX_LIFT_SAMPLES}]",
        )

        output = _section(d.get("output"), "output")
        out_format = output.get("format", "json")
        if out_format not in OUTPUT_FORMATS:
            raise ConfigError(f"output.format must be one of {OUTPUT_FORMATS}")
        out_dir = output.get("dir", "out")
        if not isinstance(out_dir, str):
            raise ConfigError(f"output.dir must be a string, got {out_dir!r}")

        n_values = d.get("n_values", [n])
        if task == "verify":
            if not (
                isinstance(n_values, list)
                and n_values
                and all(isinstance(v, int) and not isinstance(v, bool) and v != 0 for v in n_values)
            ):
                raise ConfigError("verify requires n_values: a nonempty list of nonzero integers")

        known = {
            "n", "task", "hamiltonian", "family", "base_points", "s_samples",
            "tolerances", "seed", "output", "n_values",
        }
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

        return cls(
            n=n,
            task=task,
            hamiltonian=ham,
            family=fam,
            base_points=base_points,
            s_samples=s_samples,
            tolerances=Tolerances.from_dict(d.get("tolerances")),
            seed=d.get("seed", 0),
            out_dir=out_dir,
            out_format=out_format,
            n_values=list(n_values) if isinstance(n_values, list) else [n],
        )

    def echo(self) -> dict:
        return {
            "n": self.n,
            "task": self.task,
            "hamiltonian": self.hamiltonian,
            "family": self.family,
            "base_points": self.base_points,
            "s_samples": self.s_samples,
            "tolerances": {
                "flow_rel_tol": self.tolerances.flow_rel_tol,
                "phase_tol": self.tolerances.phase_tol,
                "closure_tol": self.tolerances.closure_tol,
            },
            "seed": self.seed,
            "n_values": self.n_values,
        }


def _check_int(value, key: str, ok, what: str) -> None:
    """Raise ConfigError unless value is an int (not a bool) accepted by ok."""
    if isinstance(value, bool) or not isinstance(value, int) or not ok(value):
        raise ConfigError(f"{key} must be {what}, got {value!r}")


def _validate_named(spec, names, what):
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError(f"{what} spec must be an object with a 'name' key")
    if spec["name"] not in names:
        raise ConfigError(f"{what} name must be one of {names}, got {spec['name']!r}")


def _validate_base_points(value):
    if isinstance(value, str):
        if not value.startswith("auto:"):
            raise ConfigError("base_points string must look like 'auto:<count>'")
        try:
            count = int(value.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError("base_points auto count must be an integer") from exc
        if count < 1:
            raise ConfigError("base_points auto count must be positive")
        return
    if isinstance(value, list):
        if not value:
            raise ConfigError("base_points must not be an empty list")
        for i, entry in enumerate(value):
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise ConfigError("base_points entries must be [theta, phi] pairs")
            for angle in entry:
                _float(angle, f"base_points[{i}]")
        return
    raise ConfigError("base_points must be 'auto:<count>' or a list of [theta, phi] pairs")


def resolve_base_points(value, seed: int) -> np.ndarray:
    """Materialize base points: explicit angles or a seeded quasi-uniform set."""
    if isinstance(value, str):
        count = int(value.split(":", 1)[1])
        return fibonacci_sphere(count, rng=np.random.default_rng(seed))
    return np.array([sphere_point(float(th), float(ph)) for th, ph in value])


def _require_unit_axis(a: float, b: float, z: float):
    nrm = math.sqrt(a * a + b * b + z * z)
    if abs(nrm - 1.0) > 1e-9:
        raise ConfigError(f"invariant axis must have unit norm, got |(a,b,z)| = {nrm:.6g}")


def build_loop(M: OrbitSphere, spec: dict, tol: Tolerances) -> HamiltonianLoop:
    """Build a registry Hamiltonian loop; closure is checked at run time."""
    name = spec["name"]
    params = {key: val for key, val in spec.items() if key != "name"}
    if name == "zero":
        if params:
            raise ConfigError(f"zero takes no parameters, got {sorted(params)}")
        return HamiltonianLoop(zero_hamiltonian(), closure_tol=tol.closure_tol, label="zero")
    if name == "invariant":
        a = _float(params.pop("a", 1.0), "invariant.a")
        b = _float(params.pop("b", 0.0), "invariant.b")
        z = _float(params.pop("z", 0.0), "invariant.z")
        if params:
            raise ConfigError(f"invariant takes a, b, z, got extra {sorted(params)}")
        _require_unit_axis(a, b, z)
        return invariant_loop(M, AlgebraDirection(a, b, z), closure_tol=tol.closure_tol)
    if name == "mix":
        amplitude = params.pop("amplitude", None)
        profile = params.pop("profile", "cosine-ramp")
        if params:
            raise ConfigError(f"mix takes amplitude, profile, got extra {sorted(params)}")
        if amplitude is None:
            raise ConfigError("mix requires an amplitude")
        amplitude = _float(amplitude, "mix.amplitude")
        try:
            return mixing_loop(M, amplitude, profile=profile, closure_tol=tol.closure_tol)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if name == "scaled":
        base = params.pop("base", None)
        factor = params.pop("factor", None)
        if params:
            raise ConfigError(f"scaled takes base, factor, got extra {sorted(params)}")
        if base is None or factor is None:
            raise ConfigError("scaled requires base and factor")
        _validate_named(base, HAMILTONIAN_NAMES, "scaled.base")
        inner = build_loop(M, base, tol)
        return HamiltonianLoop(
            scale_hamiltonian(inner.hamiltonian, _float(factor, "scaled.factor")),
            closure_tol=tol.closure_tol,
            label=f"{factor}*{inner.label}",
        )
    raise ConfigError(f"unknown hamiltonian '{name}'")


def build_family(M: OrbitSphere, spec: dict, tol: Tolerances) -> LoopFamily:
    name = spec["name"]
    params = {key: val for key, val in spec.items() if key != "name"}
    try:
        if name == "constant":
            base = params.pop("hamiltonian", {"name": "invariant", "a": 1.0, "b": 0.0})
            if params:
                raise ConfigError(f"constant family takes hamiltonian, got extra {sorted(params)}")
            _validate_named(base, HAMILTONIAN_NAMES, "family.hamiltonian")
            return constant_family(build_loop(M, base, tol))
        if name == "subgroup-rotation":
            start = _float(params.pop("start_angle", 0.0), "subgroup-rotation.start_angle")
            turns = _float(params.pop("turns", 1.0), "subgroup-rotation.turns")
            if params:
                raise ConfigError(
                    f"subgroup-rotation takes start_angle, turns, got extra {sorted(params)}"
                )
            return subgroup_rotation_family(M, start_angle=start, turns=turns, closure_tol=tol.closure_tol)
        if name in ("mixing", "closed-mixing"):
            amplitude = _float(params.pop("amplitude", 0.5), f"{name}.amplitude")
            profile = params.pop("profile", "cosine-ramp")
            if params:
                raise ConfigError(f"{name} takes amplitude, profile, got extra {sorted(params)}")
            builder = closed_mixing_family if name == "closed-mixing" else mixing_family
            return builder(M, amplitude=amplitude, profile=profile, closure_tol=tol.closure_tol)
        if name == "scaling":
            base = params.pop("base", {"name": "invariant", "a": 1.0, "b": 0.0})
            if params:
                raise ConfigError(f"scaling family takes base, got extra {sorted(params)}")
            _validate_named(base, HAMILTONIAN_NAMES, "family.base")
            return scaling_family(build_loop(M, base, tol))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown family '{name}'")
