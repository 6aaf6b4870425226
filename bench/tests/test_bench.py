"""Tests of the benchmark itself: generator, oracles, harness and tracer.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import json
import math
from pathlib import Path

import pytest

import harness
import oracle
import workloads
from tracer import Recorder

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def tiny(op: dict) -> dict:
    """The same op with fewer base points and samples, for a quick smoke pass."""
    op = json.loads(json.dumps(op))
    if op["kind"] == "there-and-back":
        op["points"] = op["points"][:2]
        return op
    cfg = op["config"]
    if cfg["task"] == "kappa":
        cfg["base_points"] = "auto:2"
    elif cfg["task"] in ("omega", "winding"):
        cfg["base_points"] = "auto:1"
        cfg["s_samples"] = 2
    return op


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_ops(workload):
    for index in (0, 3):
        assert workloads.generate_pass(workload, 7, index) == workloads.generate_pass(workload, 7, index)
    assert workloads.generate_pass(workload, 7, 0) != workloads.generate_pass(workload, 8, 0)
    assert workloads.generate_pass(workload, 7, 0) != workloads.generate_pass(workload, 7, 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_meets_oracle(workload, tmp_path):
    ops = [tiny(op) for op in workloads.generate_pass(workload, 3, 0)]
    res = harness.run_pass(ops, tmp_path)
    assert res.attempted == len(ops)
    assert res.failed == 0, res.failures
    assert res.wall_s > 0
    assert res.kappa_resid_max <= oracle.PHASE_TOL


def test_expected_kappa_closed_forms():
    axis = {"name": "invariant", "a": 0.6, "b": 0.0, "z": 0.8}
    assert oracle.expected_kappa(1, axis) == 0.5
    assert oracle.expected_kappa(2, axis) == 0.0
    assert oracle.expected_kappa(3, {"name": "mix", "amplitude": math.pi, "profile": "constant"}) == 0.0
    assert oracle.expected_kappa(3, {"name": "mix", "amplitude": 2 * math.pi, "profile": "constant"}) == 0.5
    assert oracle.expected_kappa(1, {"name": "scaled", "base": axis, "factor": 2}) == 0.0
    assert oracle.expected_kappa(1, {"name": "scaled", "base": axis, "factor": 3}) == 0.5
    with pytest.raises(ValueError):
        oracle.expected_kappa(1, {"name": "mix", "amplitude": 1.0, "profile": "constant"})


@pytest.mark.parametrize("workload", ["fanout", "family"])
def test_perturbed_oracle_counts_as_failure(workload, tmp_path, monkeypatch):
    exact = oracle.expected_kappa
    monkeypatch.setattr(oracle, "expected_kappa", lambda n, spec: (exact(n, spec) + 1e-3) % 1.0)
    ops = [tiny(op) for op in workloads.generate_pass(workload, 3, 0)[:1]]
    res = harness.run_pass(ops, tmp_path)
    assert (res.attempted, res.failed) == (1, 1)
    assert "kappa" in res.failures[0]


def test_perturbed_there_and_back_counts_as_failure():
    assert oracle.check_there_and_back([0.0, 1.0 - 1e-9]).ok
    assert not oracle.check_there_and_back([0.0, 1e-3]).ok


def test_raising_op_counts_as_failure(tmp_path):
    # A constant drift of amplitude 1 does not close: run_scenario raises.
    op = {
        "kind": "scenario",
        "config": {
            "task": "kappa",
            "n": 1,
            "hamiltonian": {"name": "mix", "amplitude": 1.0, "profile": "constant"},
            "base_points": "auto:1",
        },
    }
    res = harness.run_pass([op], tmp_path)
    assert (res.attempted, res.failed) == (1, 1)
    assert "LoopClosureError" in res.failures[0]


def test_tracer_restores_originals_and_reports_every_layer(tmp_path):
    from preqholo import cli, config, dynamics, holonomy, verify

    before = (cli.kappa, holonomy.transport_phase, verify.kappa, config.invariant_loop,
              dynamics.Trajectory.at, config.Scenario.from_dict)
    rec = Recorder()
    ops = [tiny(op) for op in workloads.generate_pass("fanout", 3, 0)[:2]]
    rec.install()
    try:
        res = harness.run_pass(ops, tmp_path, rec)
    finally:
        rec.uninstall()
    after = (cli.kappa, holonomy.transport_phase, verify.kappa, config.invariant_loop,
             dynamics.Trajectory.at, config.Scenario.from_dict)
    assert before == after
    assert res.failed == 0
    layers = rec.layer_metrics()
    assert layers["holonomy.transport.calls"] == 4
    assert layers["dynamics.rhs_evals"] == layers["sphere.potential_eval.calls"] > 0
    assert layers["su2.grad.calls"] == layers["dynamics.rhs_evals"]
    assert 0 < layers["holonomy.transport.self_s"] < rec.total("holonomy.transport")
    assert {s.op for s in rec.spans} == {1, 2}
    harness_made = {"holonomy.oracle_resid_max", "cli.output_bytes", "trace.overhead_s"}
    assert set(layers) | harness_made == {m["name"] for m in BENCHMARK["per_layer"]}
