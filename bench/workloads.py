"""Seeded workload generator for the preqholo benchmark.

A workload is an endless stream of passes.  Pass ``i`` of a workload under
seed ``s`` is drawn from ``numpy.random.default_rng([workload index, s, i])``,
so the same seed always gives the same ops.  An op is plain data: either a
scenario dict for ``cli.run_scenario`` or the parameters of a there-and-back
loop for ``holonomy.kappa``.  The program only sees these generated configs
and the loops built from them.

Each pass fixes its discrete mix (loop kinds, strata of the nonlinear
coupling) and draws only continuous parameters and levels, so passes of one
workload cost about the same whatever the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from preqholo import config, dynamics, holonomy
from preqholo.sphere import OrbitSphere

WORKLOADS = ("fanout", "nonlinear", "family", "verify")

FANOUT_POINTS = 10
# Flow speed, hence cost, grows with c: one loop per stratum of c in [1, 6]
# keeps the spread of pass costs low.
NONLINEAR_LOOPS = 6
NONLINEAR_POINTS = 4
FAMILY_POINTS = 2
FAMILY_S_SAMPLES = 8


def pass_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), int(seed), int(index)])


def _unit(rng) -> list[float]:
    v = rng.normal(size=3)
    return [float(x) for x in v / np.linalg.norm(v)]


def _scenario(rng, cfg: dict) -> dict:
    cfg = dict(cfg, seed=int(rng.integers(2**31)))
    return {"kind": "scenario", "config": cfg}


def _fanout(rng) -> list[dict]:
    # Every registry loop kind once per pass; both closing amplitudes of the
    # constant drift and both integer factors, so no pass is all-cheap.
    axis, base_axis = _unit(rng), _unit(rng)
    specs = [
        {"name": "invariant", "a": axis[0], "b": axis[1], "z": axis[2]},
        {"name": "mix", "amplitude": float(rng.uniform(0.3, 2.0)), "profile": "cosine-ramp"},
        {"name": "mix", "amplitude": math.pi, "profile": "constant"},
        {"name": "mix", "amplitude": 2.0 * math.pi, "profile": "constant"},
    ]
    base = {"name": "invariant", "a": base_axis[0], "b": base_axis[1], "z": base_axis[2]}
    specs += [{"name": "scaled", "base": base, "factor": m} for m in (2, 3)]
    return [
        _scenario(
            rng,
            {
                "task": "kappa",
                "n": int(rng.integers(1, 4)),
                "hamiltonian": spec,
                "base_points": f"auto:{FANOUT_POINTS}",
            },
        )
        for spec in specs
    ]


def _nonlinear(rng) -> list[dict]:
    ops = []
    width = 5.0 / NONLINEAR_LOOPS
    for i in range(NONLINEAR_LOOPS):
        ops.append(
            {
                "kind": "there-and-back",
                "n": int(rng.integers(1, 3)),
                "c": float(1.0 + width * (i + rng.uniform())),
                "a": _unit(rng),
                "b": _unit(rng),
                "points": [_unit(rng) for _ in range(NONLINEAR_POINTS)],
            }
        )
    return ops


def _family(rng) -> list[dict]:
    families = [
        {
            "name": "subgroup-rotation",
            "start_angle": float(rng.uniform(0.0, 2.0 * math.pi)),
            "turns": int(rng.choice([-1, 1, 2])),
        },
        {"name": "closed-mixing", "amplitude": float(rng.uniform(0.3, 1.5)), "profile": "cosine-ramp"},
    ]
    return [
        _scenario(
            rng,
            {
                "task": task,
                "n": int(rng.integers(1, 4)),
                "family": fam,
                "base_points": f"auto:{FAMILY_POINTS}",
                "s_samples": FAMILY_S_SAMPLES,
            },
        )
        for fam in families
        for task in ("omega", "winding")
    ]


def _verify(rng) -> list[dict]:
    return [_scenario(rng, {"task": "verify", "n": 1, "n_values": [1]})]


_GENERATORS = {"fanout": _fanout, "nonlinear": _nonlinear, "family": _family, "verify": _verify}


def generate_pass(workload: str, seed: int, index: int) -> list[dict]:
    """The ops of pass ``index`` of ``workload`` under ``seed``, as plain data."""
    return _GENERATORS[workload](pass_rng(workload, seed, index))


def bilinear_hamiltonian(M: OrbitSphere, a, b, c: float) -> dynamics.TimeDepHamiltonian:
    """H(u) = k c ((u.a)(u.b) - a.b/3): zero mean, flow not a rotation.

    The constant only fixes the mean; it changes neither the flow nor the
    there-and-back holonomy.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = M.k * float(c)
    mean = float(a @ b) / 3.0

    def ev(t, u):
        u = np.asarray(u, dtype=float)
        return scale * ((u @ a) * (u @ b) - mean)

    def gr(t, u):
        u = np.asarray(u, dtype=float)
        g = scale * (np.expand_dims(u @ b, -1) * a + np.expand_dims(u @ a, -1) * b)
        return g - np.expand_dims(np.sum(g * u, axis=-1), -1) * u

    return dynamics.TimeDepHamiltonian(
        eval=ev, grad=gr, label=f"bilinear[c={c:g}]", time_independent=True
    )


def there_and_back_loop(M: OrbitSphere, a, b, c: float) -> dynamics.HamiltonianLoop:
    """Flow of H for half the time, then of -H: every trajectory retraces itself."""
    h = bilinear_hamiltonian(M, a, b, c)
    forth = dynamics.HamiltonianLoop(h, label=h.label)
    back = dynamics.HamiltonianLoop(dynamics.scale_hamiltonian(h, -1.0), label=f"-{h.label}")
    return holonomy.product_loop(back, forth)


@dataclass
class Built:
    """An op made ready to run: a validated scenario, or a loop and its points."""

    op: dict
    scenario: config.Scenario | None = None
    sphere: OrbitSphere | None = None
    loop: dynamics.HamiltonianLoop | None = None
    points: np.ndarray | None = None


def build(op: dict) -> Built:
    """Validate an op's scenario and build its loops through ``config``."""
    if op["kind"] == "scenario":
        scenario = config.Scenario.from_dict(op["config"])
        M = OrbitSphere(scenario.n)
        if scenario.hamiltonian is not None:
            config.build_loop(M, scenario.hamiltonian, scenario.tolerances)
        if scenario.family is not None:
            config.build_family(M, scenario.family, scenario.tolerances)
        return Built(op, scenario=scenario)
    M = OrbitSphere(op["n"])
    loop = there_and_back_loop(M, op["a"], op["b"], op["c"])
    return Built(op, sphere=M, loop=loop, points=np.array(op["points"], dtype=float))
