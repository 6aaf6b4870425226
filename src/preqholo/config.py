"""Scenario configuration: JSON schema, validation, builtin registries."""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .dynamics import HamiltonianLoop, check_rel_tol, scale_hamiltonian, zero_hamiltonian
from .families import (
    MAX_LIFT_SAMPLES,
    LoopFamily,
    closed_mixing_family,
    constant_family,
    mixing_family,
    subgroup_rotation_family,
)
from .sphere import OrbitSphere, fibonacci_sphere, sphere_point
from .su2 import DIR_A, invariant_loop, mixing_loop

TASKS = ("kappa", "action", "omega", "winding", "verify", "su2-demo")
ROOT_KEYS = (
    "n", "task", "hamiltonian", "family", "base_points", "s_samples", "tolerances", "seed", "output", "n_values",
)
OUTPUT_FORMATS = ("json", "csv")
# Most base points a list or an 'auto:<count>' spec may give; a `preqholo run`
# of kappa on mix (amplitude 2.0, n = 3) at 'auto:16384' takes 0.5-0.6 s and
# 66 MB peak RSS on a 2-core Xeon with numpy 2.4.
MAX_BASE_POINTS = 2**14
# Deepest nesting of objects and lists in a config section; building a loop and
# echoing the config recurse per level, and a `scaled` chain 500 deep overflows.
MAX_DEPTH = 32
# Largest level |n|: a float holds every integer up to 2^53 exactly, and the
# level enters the computation as the float k = n / (2 pi).
MAX_LEVEL = 2**53


class ConfigError(ValueError):
    """A scenario file failed validation; the message names the bad element."""


def _float(value, key: str) -> float:
    """The value as a finite float; NaN or infinite inputs would stall the integrators."""
    try:
        out = float(value)
    except OverflowError as exc:
        raise ConfigError(f"{key} must be finite, got an integer too large for a float") from exc
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
        d = _section(d, "tolerances")
        _check_keys(d, [f.name for f in fields(cls)], "tolerances")
        out = cls(**{key: _float(value, f"tolerances.{key}") for key, value in d.items()})
        try:
            check_rel_tol(out.flow_rel_tol)
        except ValueError as exc:
            raise ConfigError(f"tolerances.flow_rel_tol: {exc}") from exc
        for key in ("phase_tol", "closure_tol"):
            if getattr(out, key) <= 0.0:
                raise ConfigError(f"tolerances.{key} must be > 0, got {getattr(out, key)!r}")
        return out


def _check_keys(section: dict, takes, key: str) -> None:
    """Raise ConfigError naming every key of section that is not in takes, and the keys it takes."""
    unknown = [k for k in section if k not in takes]
    if unknown:
        raise ConfigError(f"unknown {key} keys {unknown}: {key} takes {list(takes)}")


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
    except ValueError as exc:  # JSONDecodeError, or an integer literal past Python's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config is nested too deeply to parse: {exc}") from exc


@dataclass
class Scenario:
    """Validated run description, built by ``from_dict``; see README for the JSON schema."""

    n: int
    task: str
    hamiltonian: dict | None
    family: dict | None
    base_points: object
    s_samples: int
    tolerances: Tolerances
    seed: int
    out_dir: str
    out_format: str
    n_values: list[int]

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        """Validate every section the config gives, whether or not its task reads it."""
        if not isinstance(d, dict):
            raise ConfigError("config root must be a JSON object")
        _check_keys(d, ROOT_KEYS, "config")
        for key, value in d.items():
            _check_depth(value, key)
        task = d.get("task")
        if task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {task!r}")

        n = d.get("n", 1)
        level = "a nonzero integer of magnitude at most 2^53"
        _check_int(n, "n", _is_level, level)
        seed = d.get("seed", 0)
        _check_int(seed, "seed", lambda v: v >= 0, "an integer >= 0")
        n_values = d.get("n_values", [n])
        if not isinstance(n_values, list) or not n_values:
            raise ConfigError(f"n_values must be a nonempty list, got {n_values!r}")
        for i, v in enumerate(n_values):
            _check_int(v, f"n_values[{i}]", _is_level, level)
        tol = Tolerances.from_dict(d.get("tolerances"))

        ham = d.get("hamiltonian")
        fam = d.get("family")
        if task in ("kappa", "action") and ham is None:
            raise ConfigError(f"task '{task}' requires a hamiltonian spec")
        if task in ("omega", "winding") and fam is None:
            raise ConfigError(f"task '{task}' requires a family spec")
        M = OrbitSphere(n)
        if ham is not None:
            build_loop(M, ham, tol)
        if fam is not None:
            built = build_family(M, fam, tol)
            if task == "winding" and not built.closed:
                raise ConfigError(f"winding requires a closed family, '{built.label}' is not")

        base_points = d.get("base_points", "auto:10")
        _validate_base_points(base_points)

        s_samples = d.get("s_samples", 32)
        _check_int(
            s_samples, "s_samples", lambda v: 2 <= v <= MAX_LIFT_SAMPLES,
            f"an integer in [2, {MAX_LIFT_SAMPLES}]",
        )

        output = _section(d.get("output"), "output")
        _check_keys(output, ("dir", "format"), "output")
        out_format = output.get("format", "json")
        if out_format not in OUTPUT_FORMATS:
            raise ConfigError(f"output.format must be one of {OUTPUT_FORMATS}")
        out_dir = output.get("dir", "out")
        if not isinstance(out_dir, str):
            raise ConfigError(f"output.dir must be a string, got {out_dir!r}")
        check_out_dir(out_dir, "output.dir")

        return cls(
            n=n,
            task=task,
            hamiltonian=ham,
            family=fam,
            base_points=base_points,
            s_samples=s_samples,
            tolerances=tol,
            seed=seed,
            out_dir=out_dir,
            out_format=out_format,
            n_values=list(n_values),
        )

    def echo(self) -> dict:
        """The scenario as results.json records it: every field but the output settings."""
        out = asdict(self)
        del out["out_dir"], out["out_format"]
        return out


def check_out_dir(path: str, key: str) -> None:
    """Raise ConfigError if results.json cannot go under path: path, or its nearest existing ancestor, is a file."""
    if "\0" in path:
        raise ConfigError(f"{key} must not contain a NUL character, got {path!r}")
    existing = path
    while not os.path.lexists(existing) and os.path.dirname(existing) != existing:
        existing = os.path.dirname(existing) or "."
    if os.path.lexists(existing) and not os.path.isdir(existing):
        raise ConfigError(f"{key} must name a directory, but {existing!r} exists and is not one")


def _check_depth(value, key: str) -> None:
    """Raise ConfigError if value nests more than MAX_DEPTH objects or lists; measured level by level."""
    level = [value]
    for _ in range(MAX_DEPTH + 1):
        level = [c for c in level if isinstance(c, (dict, list))]
        if not level:
            return
        level = [v for c in level for v in (c.values() if isinstance(c, dict) else c)]
    raise ConfigError(f"{key} is nested more than {MAX_DEPTH} levels deep")


def _check_int(value, key: str, ok, what: str) -> None:
    """Raise ConfigError unless value is an int (not a bool) accepted by ok."""
    if isinstance(value, bool) or not isinstance(value, int) or not ok(value):
        raise ConfigError(f"{key} must be {what}, got {value!r}")


def _is_level(v: int) -> bool:
    return 0 < abs(v) <= MAX_LEVEL


def _validate_base_points(value):
    if isinstance(value, str):
        if not value.startswith("auto:"):
            raise ConfigError("base_points string must look like 'auto:<count>'")
        try:
            count = int(value.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError("base_points auto count must be an integer") from exc
        if not 1 <= count <= MAX_BASE_POINTS:
            raise ConfigError(f"base_points auto count must lie in [1, {MAX_BASE_POINTS}], got {count}")
        return
    if isinstance(value, list):
        if not 1 <= len(value) <= MAX_BASE_POINTS:
            raise ConfigError(f"base_points list length must lie in [1, {MAX_BASE_POINTS}], got {len(value)}")
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


def _invariant(M, tol, **axis):
    # a, b and z default to those of DIR_A
    return invariant_loop(M, replace(DIR_A, **axis), closure_tol=tol.closure_tol)


def _scaled(M, tol, base, factor):
    # the label shows the factor as given
    inner = _build(HAMILTONIANS, "scaled.base", M, base, tol)
    f = scale_hamiltonian(inner.hamiltonian, _float(factor, "scaled.factor"))
    return HamiltonianLoop(f, closure_tol=tol.closure_tol, label=f"{factor}*{inner.label}")


def _constant(M, tol, hamiltonian={"name": "invariant"}):
    return constant_family(_build(HAMILTONIANS, "constant.hamiltonian", M, hamiltonian, tol))


def _library(builder):
    return lambda M, tol, **params: builder(M, closure_tol=tol.closure_tol, **params)


# A registry maps a name to (build, readers, required).  build(M, tol, **params)
# gets only the parameters the spec gives, under the library's own keyword
# names, each read by readers[key] (None: passed as given), so a default lives
# in the library signature that takes it.  invariant_loop and mixing_loop are
# looked up at each build, so that a wrapper set in their place is called.
HAMILTONIANS = {
    "zero": (lambda M, tol: HamiltonianLoop(zero_hamiltonian(), closure_tol=tol.closure_tol, label="zero"), {}, ()),
    "invariant": (_invariant, {"a": _float, "b": _float, "z": _float}, ()),
    "mix": (
        lambda M, tol, **params: mixing_loop(M, closure_tol=tol.closure_tol, **params),
        {"amplitude": _float, "profile": None},
        ("amplitude",),
    ),
    "scaled": (_scaled, {"base": None, "factor": None}, ("base", "factor")),
}
FAMILIES = {
    "constant": (_constant, {"hamiltonian": None}, ()),
    "subgroup-rotation": (_library(subgroup_rotation_family), {"start_angle": _float, "turns": _float}, ()),
    "mixing": (_library(mixing_family), {"amplitude": _float, "profile": None}, ()),
    "closed-mixing": (_library(closed_mixing_family), {"amplitude": _float, "profile": None}, ()),
}
HAMILTONIAN_NAMES = tuple(HAMILTONIANS)
FAMILY_NAMES = tuple(FAMILIES)


def _build(registry: dict, what: str, M: OrbitSphere, spec, tol: Tolerances):
    """Build the entry of registry that spec names; any fault, a ValueError of the library too, is a ConfigError."""
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError(f"{what} spec must be an object with a 'name' key")
    name = spec["name"]
    if not isinstance(name, str) or name not in registry:  # a list or an object is no key
        raise ConfigError(f"{what} name must be one of {tuple(registry)}, got {name!r}")
    build, readers, required = registry[name]
    _check_keys(spec, ("name", *readers), name)
    missing = [key for key in required if key not in spec]
    if missing:
        raise ConfigError(f"{name} requires {missing}")
    params = {
        key: reader(spec[key], f"{name}.{key}") if reader else spec[key]
        for key, reader in readers.items()
        if key in spec
    }
    try:
        return build(M, tol, **params)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_loop(M: OrbitSphere, spec: dict, tol: Tolerances) -> HamiltonianLoop:
    """Build a registry Hamiltonian loop; closure is checked at run time."""
    return _build(HAMILTONIANS, "hamiltonian", M, spec, tol)


def build_family(M: OrbitSphere, spec: dict, tol: Tolerances) -> LoopFamily:
    return _build(FAMILIES, "family", M, spec, tol)
