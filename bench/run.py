"""preqholo benchmark: one command, four seeded workloads, oracle-checked ops.

Run from the root of a source checkout:

    python3 bench/run.py --workload fanout --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout, never from an
installed copy.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics and ``--trace 1``
the per-layer metrics of a traced run (see BENCHMARK.json).  Times are
reported at the nominal host speed (see ``speed.py``); the raw seconds are
printed alongside.  Exit status is
0 when the run completed, even if ops failed their oracle (they are counted
in ``failed``), and non-zero when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 3


def _import_package() -> None:
    """Put the checkout's ``src`` first on the path and import preqholo from it."""
    if not (SRC / "preqholo" / "__init__.py").is_file():
        raise SystemExit(f"bench: no preqholo package under {SRC}")
    sys.path.insert(0, str(SRC))
    import preqholo

    if Path(preqholo.__file__).resolve().parent != SRC / "preqholo":
        raise SystemExit(f"bench: preqholo imported from {preqholo.__file__}, not {SRC}")


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall times of fresh processes that only import the package and build ops."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
        times.append(perf_counter() - t0)
    return times


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    _import_package()
    import harness
    import workloads
    from tracer import Recorder

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if args.setup_only:
        # What set-up costs: the imports above, then building the first pass.
        for op in workloads.generate_pass(args.workload, args.seed, 0):
            workloads.build(op)
        return 0

    setup_raw = _setup_seconds(args.workload, args.seed)
    out_root = BENCH / ".out" / f"{args.workload}-{args.seed}"
    shutil.rmtree(out_root, ignore_errors=True)
    recorder = Recorder() if args.trace else None
    try:
        harness.warm_up(out_root)
        run = harness.run_for(args.workload, args.seed, args.seconds, out_root, recorder)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    wall = harness.median_wall(run.untraced)
    # Set-up runs in short child processes, too short to sample the host's
    # speed well; the speed sampled over the whole timed run stands in.
    slowness = statistics.fmean(p.slowness for p in run.untraced)
    setup = statistics.median(setup_raw) / slowness
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 process, "
          f"{len(run.untraced)} untraced and {len(run.traced)} traced passes")
    for res in run.passes:
        for failure in res.failures:
            print(f"FAILED {failure}")
    print(f"wall_s = {wall!r} s at nominal speed (median of {len(run.untraced)} passes: "
          f"{[p.wall_s for p in run.untraced]}; raw {[p.raw_s for p in run.untraced]})")
    print(f"setup_s = {setup!r} s at nominal speed (median of {SETUP_PROBES} processes, "
          f"raw {setup_raw}, host slowness {slowness!r})")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(f"peak_rss_mb = {peak_mb!r} MB")
    print(f"failed_share = {run.failed / run.attempted!r} share ({run.failed}/{run.attempted} ops)")

    if args.trace:
        traced_wall = harness.median_wall(run.traced)
        passes = len(run.traced)
        traced_slowness = statistics.fmean(p.slowness for p in run.traced)
        units = {m["name"]: m["unit"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {}
        for name, value in recorder.layer_metrics().items():
            # Ratios stay ratios; totals become per-pass averages, and
            # seconds are taken to nominal host speed like wall_s.
            if not name.endswith(("_ratio", "_per_transport")):
                value /= passes
            if units[name] == "s":
                value /= traced_slowness
            metrics[name] = value
        metrics["holonomy.oracle_resid_max"] = max(p.kappa_resid_max for p in run.traced)
        metrics["cli.output_bytes"] = sum(p.output_bytes for p in run.traced) / passes
        metrics["trace.overhead_s"] = traced_wall - wall
        result_metrics = {name: _metric(metrics[name], units[name]) for name in units}
        spans_path = BENCH / ".trace" / f"{args.workload}-seed{args.seed}.json"
        recorder.write(spans_path)
        print(f"traced wall_s = {traced_wall!r} s; spans in {spans_path.relative_to(ROOT)}")
    else:
        result_metrics = {
            "wall_s": _metric(wall, "s"),
            "setup_s": _metric(setup, "s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
        }
    for name, m in result_metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
