"""Timed passes over generated ops: one op at a time, every output checked.

The load is closed-loop from one single-threaded process: each op starts
only after the previous one returned and was checked.  A pass's raw time is
the sum of its ops' entry-point calls; building ops, clearing output
directories and checking results happen outside the timer.  Its wall time
is the raw time at the nominal host speed (see ``speed``).
"""

from __future__ import annotations

import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from preqholo import cli, holonomy

import oracle
import speed
import workloads
from tracer import Recorder


@dataclass
class PassResult:
    raw_s: float = 0.0
    slowness: float = 1.0
    attempted: int = 0
    failed: int = 0
    kappa_resid_max: float = 0.0
    output_bytes: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.raw_s / self.slowness


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _run_op(built: workloads.Built, out_dir: Path, sampler: speed.Sampler):
    """Call the op's entry point once; returns (seconds, verdict, output bytes)."""
    t0 = sampler.clock()
    if built.scenario is not None:
        built.scenario.out_dir = str(out_dir)
        record, status = cli.run_scenario(built.scenario)
        dt = sampler.clock() - t0
        verdict = oracle.check_scenario(built.op["config"], record, status, out_dir)
        return dt, verdict, _dir_bytes(out_dir)
    phases = [holonomy.kappa(built.sphere, built.loop, q).value for q in built.points]
    dt = sampler.clock() - t0
    return dt, oracle.check_there_and_back(phases), 0


def run_pass(ops: list[dict], out_root: Path, recorder: Recorder | None = None) -> PassResult:
    """Build and run every op once, in order, and check each against its oracle."""
    with speed.Sampler() as sampler:
        if recorder is not None:
            recorder.clock = sampler.clock
        result = _run_ops(ops, out_root, recorder, sampler)
    result.slowness = speed.slowness(sampler.samples or [speed.time_reference()])
    return result


def _run_ops(ops, out_root, recorder, sampler) -> PassResult:
    result = PassResult()
    for i, op in enumerate(ops):
        out_dir = out_root / f"op{i}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        if recorder is not None:
            recorder.op += 1
        result.attempted += 1
        try:
            built = workloads.build(op)
            dt, verdict, nbytes = _run_op(built, out_dir, sampler)
        except Exception as exc:  # a raising op is a failed op, never a lost one
            result.failed += 1
            result.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            continue
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        result.raw_s += dt
        result.output_bytes += nbytes
        result.kappa_resid_max = max(result.kappa_resid_max, verdict.kappa_resid)
        if not verdict.ok:
            result.failed += 1
            result.failures.append(f"op {i}: " + "; ".join(verdict.reasons))
    return result


def warm_up(out_root: Path) -> None:
    """Finish lazy set-up (solver and quadrature code paths) before timing."""
    op = {
        "kind": "scenario",
        "config": {
            "task": "omega",
            "n": 1,
            "family": {"name": "subgroup-rotation"},
            "base_points": "auto:1",
            "s_samples": 2,
        },
    }
    res = run_pass([op], out_root)
    if res.failed:
        raise RuntimeError("warm-up op failed: " + "; ".join(res.failures))


@dataclass
class Run:
    """All passes of one benchmark run."""

    untraced: list[PassResult] = field(default_factory=list)
    traced: list[PassResult] = field(default_factory=list)

    @property
    def passes(self) -> list[PassResult]:
        return self.untraced + self.traced

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)


def run_for(workload: str, seed: int, seconds: float, out_root: Path,
            recorder: Recorder | None = None) -> Run:
    """Run passes 0, 1, ... while a pass like the last would end near ``seconds``.

    A pass starts while less than half of the last one's time remains
    unspent, so runs end within half a pass of ``seconds`` either way.  With
    a recorder, each pass runs untraced and then traced on the same ops.  At
    least one pass (or pair) always runs.
    """
    run = Run()
    start = perf_counter()
    index = 0
    while True:
        ops = workloads.generate_pass(workload, seed, index)
        t0 = perf_counter()
        run.untraced.append(run_pass(ops, out_root))
        if recorder is not None:
            recorder.install()
            try:
                run.traced.append(run_pass(ops, out_root, recorder))
            finally:
                recorder.uninstall()
        took = perf_counter() - t0
        index += 1
        if perf_counter() - start + took / 2 > seconds:
            return run


def median_wall(passes: list[PassResult]) -> float:
    return statistics.median(p.wall_s for p in passes)
