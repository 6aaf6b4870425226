import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from preqholo.cli import main
from preqholo.config import (
    FAMILY_NAMES,
    HAMILTONIAN_NAMES,
    MAX_BASE_POINTS,
    MAX_DEPTH,
    ConfigError,
    Scenario,
    Tolerances,
    build_family,
    build_loop,
    resolve_base_points,
)
from preqholo import (
    DIR_A,
    AlgebraDirection,
    OrbitSphere,
    circle_distance,
    cli,
    dop853,
    dynamics,
    invariant_loop,
    kappa,
    phase_lift,
    sphere_point,
)
from preqholo.families import omega_eval as family_omega
from conftest import plain_family, plain_loop
from test_families import drift_family


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def kappa_config(out_dir, **overrides):
    cfg = {
        "n": 1,
        "task": "kappa",
        "hamiltonian": {"name": "invariant", "a": 1.0, "b": 0.0},
        "base_points": "auto:10",
        "seed": 3,
        "output": {"dir": str(out_dir)},
    }
    cfg.update(overrides)
    return cfg


def count_solves(monkeypatch):
    """A list that gets one entry per call of dynamics.solve_ivp, the package's one solve."""
    calls = []

    def counted(*args, _inner=dynamics.solve_ivp, **kwargs):
        calls.append(1)
        return _inner(*args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", counted)
    return calls


def scaled_chain(depth):
    """A hamiltonian section nested ``depth`` objects deep: ``scaled`` around ``scaled`` around ``invariant``."""
    spec = {"name": "invariant"}
    for _ in range(depth - 1):
        spec = {"name": "scaled", "base": spec, "factor": 1}
    return spec


# Minimal parameters for every registry name.
REGISTRY_CASES = {
    "hamiltonian": {
        "zero": {"name": "zero"},
        "invariant": {"name": "invariant", "a": 0.6, "b": 0.8},
        "mix": {"name": "mix", "amplitude": 0.7},
        "scaled": {"name": "scaled", "base": {"name": "invariant"}, "factor": 2},
    },
    "family": {
        "constant": {"name": "constant"},
        "subgroup-rotation": {"name": "subgroup-rotation", "turns": 1},
        "mixing": {"name": "mixing", "amplitude": 0.5},
        "closed-mixing": {"name": "closed-mixing", "amplitude": 0.5},
    },
}


def _subprocess_env():
    """The environment of a child Python that imports this checkout's package, logging quietly."""
    paths = [os.path.dirname(os.path.dirname(dynamics.__file__)), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), PREQ_LOG="quiet")


# The CLI with every registry Hamiltonian replaced by a rotation whose axis
# turns NaN at t = 0.4.
_NAN_LATER = """
import math, sys
import numpy as np
from preqholo import HamiltonianLoop, cli, linear_hamiltonian

def axis(t):
    return np.where(np.expand_dims(t, -1) < 0.4, np.array([0.0, 0.0, 2.0 * math.pi]), math.nan)

cli.build_loop = lambda M, spec, tol: HamiltonianLoop(linear_hamiltonian(axis), label="nan-later")
sys.exit(cli.main(sys.argv[1:]))
"""


class TestScenarioValidation:
    def test_bad_task(self):
        with pytest.raises(ConfigError):
            Scenario.from_dict({"task": "explode", "n": 1})

    def test_zero_level(self):
        with pytest.raises(ConfigError):
            Scenario.from_dict({"task": "kappa", "n": 0, "hamiltonian": {"name": "zero"}})

    def test_missing_family(self):
        with pytest.raises(ConfigError):
            Scenario.from_dict({"task": "winding", "n": 1})

    def test_missing_hamiltonian(self):
        with pytest.raises(ConfigError):
            Scenario.from_dict({"task": "kappa", "n": 1})

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            Scenario.from_dict(
                {"task": "kappa", "n": 1, "hamiltonian": {"name": "zero"}, "zorp": 1}
            )

    def test_bad_base_points(self):
        with pytest.raises(ConfigError):
            Scenario.from_dict(
                {"task": "kappa", "n": 1, "hamiltonian": {"name": "zero"}, "base_points": "grid"}
            )

    def test_non_unit_axis(self):
        M = OrbitSphere(1)
        with pytest.raises(ConfigError):
            build_loop(M, {"name": "invariant", "a": 0.5, "b": 0.5}, Tolerances())

    def test_registry_names(self):
        M = OrbitSphere(1)
        with pytest.raises(ConfigError):
            build_loop(M, {"name": "nope"}, Tolerances())
        with pytest.raises(ConfigError):
            build_family(M, {"name": "nope"}, Tolerances())

    def test_auto_points_deterministic(self):
        a = resolve_base_points("auto:12", seed=9)
        b = resolve_base_points("auto:12", seed=9)
        c = resolve_base_points("auto:12", seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_section_at_max_depth_is_valid(self, tmp_path):
        scenario = Scenario.from_dict(kappa_config(tmp_path, hamiltonian=scaled_chain(MAX_DEPTH)))
        assert scenario.echo()["hamiltonian"] == scaled_chain(MAX_DEPTH)

    def test_base_point_list_at_the_bound_is_valid(self):
        points = [[1.0, 0.5]] * MAX_BASE_POINTS
        scenario = Scenario.from_dict(
            {"task": "kappa", "hamiltonian": {"name": "zero"}, "base_points": points}
        )
        assert len(scenario.base_points) == MAX_BASE_POINTS

    @pytest.mark.parametrize("target", ["F", "F/sub", "link"])
    def test_output_dir_under_an_existing_file_is_a_config_error(self, tmp_path, target):
        (tmp_path / "F").write_text("")
        (tmp_path / "link").symlink_to(tmp_path / "missing")
        with pytest.raises(ConfigError, match="output.dir"):
            Scenario.from_dict({"task": "su2-demo", "output": {"dir": str(tmp_path / target)}})

    def test_explicit_points(self):
        pts = resolve_base_points([[math.pi / 2, 0.0]], seed=0)
        assert np.allclose(pts[0], [1.0, 0.0, 0.0], atol=1e-12)


class TestRunTask:
    def test_kappa_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, kappa_config(out))
        assert main(["run", cfg]) == 0
        record = json.loads((out / "results.json").read_text())
        assert record["task"] == "kappa"
        assert record["spread"] < 1e-6
        for entry in record["points"]:
            d = abs(entry["phase_rev"] - 0.5) % 1.0
            assert min(d, 1 - d) < 1e-6
            assert entry["kappa_re"] == pytest.approx(-1.0, abs=1e-6)

    def test_zero_hamiltonian_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, kappa_config(out, hamiltonian={"name": "zero"}, base_points="auto:3")
        )
        assert main(["run", cfg]) == 0
        record = json.loads((out / "results.json").read_text())
        assert all(e["phase_rev"] == pytest.approx(0.0, abs=1e-9) for e in record["points"])

    def test_action_task(self, tmp_path):
        # the action record is the kappa record of the same config: the
        # phase_rev of its points is the mod-1 action
        records = {}
        for task in ("kappa", "action"):
            out = tmp_path / task
            cfg = write_config(tmp_path, kappa_config(out, task=task, base_points="auto:2"), f"{task}.json")
            assert main(["run", cfg]) == 0
            records[task] = json.loads((out / "results.json").read_text())
        action = records["action"]
        assert action["task"] == action["meta"]["config"]["task"] == "action"
        action["task"] = action["meta"]["config"]["task"] = "kappa"
        assert action == records["kappa"]

    def test_winding_task_writes_unwrapped_csv(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "n": 2,
                "task": "winding",
                "family": {"name": "subgroup-rotation", "turns": 1.0},
                "base_points": [[1.0, 0.3]],
                "s_samples": 12,
                "output": {"dir": str(out)},
            },
        )
        assert main(["run", cfg]) == 0
        record = json.loads((out / "results.json").read_text())
        assert record["winding"] == 0
        assert record["degree"] == 0
        lines = (out / "phases.csv").read_text().strip().splitlines()
        assert lines[0] == "s,phase_rev,kappa_re,kappa_im"
        phases = [float(line.split(",")[1]) for line in lines[1:]]
        assert max(abs(a - b) for a, b in zip(phases[1:], phases[:-1])) < 0.25

    def test_omega_task(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {
                "n": 1,
                "task": "omega",
                "family": {"name": "subgroup-rotation", "turns": 0.5},
                "base_points": "auto:2",
                "s_samples": 4,
                "output": {"dir": str(out)},
            },
        )
        assert main(["run", cfg]) == 0
        record = json.loads((out / "results.json").read_text())
        assert all(abs(row["omega"]) < 1e-6 for row in record["omega"])
        assert (out / "phases.csv").exists()

    @pytest.mark.parametrize(
        "family", [{"name": "closed-mixing", "amplitude": 0.7}, {"name": "subgroup-rotation", "turns": 1}]
    )
    def test_omega_task_takes_one_transport_solve_for_its_grid(self, tmp_path, monkeypatch, family):
        # every (s, point) row of the first grid rides one solve; neither
        # family has breakpoints, so that solve is one solve_ivp call.  The
        # fields sit behind plain functions, so that the subgroup-rotation
        # members are solved and not read in closed form
        monkeypatch.setattr(cli, "build_family", lambda *args: plain_family(build_family(*args)))
        calls = count_solves(monkeypatch)
        out = tmp_path / "out"
        cfg = {"n": 2, "task": "omega", "family": family, "base_points": "auto:3", "s_samples": 4,
               "seed": 5, "output": {"dir": str(out)}}
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        assert len(calls) == 1
        monkeypatch.undo()

        M = OrbitSphere(2)
        fam = build_family(M, family, Tolerances())
        points = resolve_base_points("auto:3", seed=5)
        record = json.loads((out / "results.json").read_text())
        assert len(record["omega"]) == 5
        for row in record["omega"]:
            direct = np.mean([family_omega(M, fam, row["s"], q) for q in points])
            assert row["omega"] == pytest.approx(direct, abs=1e-9)
        lift_s, lift = phase_lift(M, fam, points[0], s_samples=4)
        rows = np.loadtxt(out / "phases.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(rows[:, 0] - lift_s)) < 1e-9
        assert np.max(np.abs(rows[:, 1] - lift)) < 1e-9

    @pytest.mark.parametrize("rate, levels", [(None, 1), (3.0, 2)])
    def test_omega_task_makes_one_solve_per_lift_level(self, tmp_path, monkeypatch, rate, levels):
        # the Omega solve is also the lift's first level; with the drift
        # family of Omega = 3, kappa(s) moves 3/8 revolutions per interval of
        # the first grid, so the lift refines once.  Without it, the
        # subgroup-rotation fields sit behind plain functions, so that the
        # members are solved and not read in closed form
        if rate is not None:
            drift = lambda M, spec, tol: drift_family(invariant_loop(M, DIR_A), rate)
            monkeypatch.setattr(cli, "build_family", drift)
        else:
            monkeypatch.setattr(cli, "build_family", lambda *args: plain_family(build_family(*args)))
        evals = []

        def lift(eval_phases, s_samples, _inner=cli.lift_circle_samples):
            return _inner(lambda svals: evals.append(1) or eval_phases(svals), s_samples)

        monkeypatch.setattr(cli, "lift_circle_samples", lift)
        calls = count_solves(monkeypatch)
        out = tmp_path / "out"
        cfg = {"n": 1, "task": "omega", "family": {"name": "subgroup-rotation", "turns": 1},
               "base_points": "auto:3", "s_samples": 8, "output": {"dir": str(out)}}
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        assert len(evals) == levels
        assert len(calls) == levels
        record = json.loads((out / "results.json").read_text())
        assert [row["s"] for row in record["omega"]] == list(np.linspace(0.0, 1.0, 9))

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"task": "kappa", "n": 0, "hamiltonian": {"name": "zero"}})
        out = tmp_path / "err"
        assert main(["run", cfg, "--out", str(out)]) == 1
        record = json.loads((out / "results.json").read_text())
        assert record["error"]["kind"] == "config"

    def test_config_error_record_goes_to_configured_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "configured"
        cfg = write_config(
            tmp_path, {"task": "kappa", "n": 0, "hamiltonian": {"name": "zero"}, "output": {"dir": str(out)}}
        )
        assert main(["run", cfg]) == 1
        record = json.loads((out / "results.json").read_text())
        assert record["error"]["kind"] == "config"

    def test_non_closed_loop_exit_code(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            kappa_config(
                out,
                hamiltonian={
                    "name": "scaled",
                    "base": {"name": "invariant", "a": 1.0, "b": 0.0},
                    "factor": 0.5,
                },
                base_points="auto:2",
            ),
        )
        assert main(["run", cfg]) == 2
        record = json.loads((out / "results.json").read_text())
        assert record["error"]["kind"] == "numerical"
        assert record["error"]["element"] == "hamiltonian"

    @pytest.mark.parametrize(
        "task, family",
        [
            ("omega", {"name": "mixing", "amplitude": 1.3, "profile": "constant"}),
            ("winding", {"name": "closed-mixing", "amplitude": 1.0, "profile": "constant"}),
        ],
    )
    def test_family_member_that_does_not_close_names_the_family(self, tmp_path, task, family):
        # a constant drift closes only at amplitudes in pi Z: the member at
        # s = 1/4 is the first row that fails, at its first base point
        out = tmp_path / "out"
        cfg = {"n": 1, "task": task, "family": family, "base_points": "auto:2", "s_samples": 4, "seed": 0,
               "output": {"dir": str(out)}}
        assert main(["run", write_config(tmp_path, cfg)]) == 2
        error = json.loads((out / "results.json").read_text())["error"]
        assert error["kind"] == "numerical" and error["element"] == "family"
        assert "member at s=0.25," in error["message"] and "base point 0:" in error["message"]

    def test_runaway_solve_stops_at_its_budget(self, tmp_path):
        # a fast enough loop needs millions of steps; the solve stops at
        # MAX_RHS_EVALS with a numerical error record instead of running for
        # hours, so the run is a subprocess and a hang fails the test
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            {"task": "kappa", "hamiltonian": {"name": "mix", "amplitude": 1e5}, "base_points": "auto:1"},
        )
        proc = subprocess.run(
            [sys.executable, "-m", "preqholo.cli", "run", cfg, "--out", str(out)],
            env=_subprocess_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        error = json.loads((out / "results.json").read_text())["error"]
        assert error["kind"] == "numerical"
        assert f"budget of {dop853.MAX_RHS_EVALS} right-hand-side evaluations" in error["message"]
        assert "at t=" in error["message"]

    def test_generator_that_turns_non_finite_stops_at_the_minimum_step(self, tmp_path):
        # finite at the start of the solve and NaN from t = 0.4 on: every
        # step across 0.4 is rejected until it is shorter than 10 ulps of t,
        # so the run ends in an error record, not a loop; a hang fails the
        # test through the subprocess timeout
        out = tmp_path / "out"
        cfg = write_config(tmp_path, kappa_config(out, base_points="auto:2"))
        proc = subprocess.run(
            [sys.executable, "-c", _NAN_LATER, "run", cfg, "--out", str(out)],
            env=_subprocess_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        error = json.loads((out / "results.json").read_text())["error"]
        assert error["kind"] == "numerical" and error["element"] == "flow"
        assert "spacing between numbers" in error["message"]
        # the solve gets to within a few steps of 10 ulps of 0.4 first
        assert float(error["message"].rsplit("at t=", 1)[1].rstrip(")")) == pytest.approx(0.4, abs=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_constant_axis_past_the_largest_double_is_a_numerical_error(self, tmp_path):
        # the axis |w| of a constant loop is read in closed form, not solved;
        # one whose norm overflows a double ends as the solve of it did, in
        # an error record at t = 0, not in a traceback or a warning
        out = tmp_path / "out"
        hamiltonian = {"name": "scaled", "base": {"name": "invariant"}, "factor": 1e308}
        cfg = write_config(tmp_path, kappa_config(out, hamiltonian=hamiltonian, base_points="auto:1"))
        assert main(["run", cfg]) == 2
        error = json.loads((out / "results.json").read_text())["error"]
        assert error["kind"] == "numerical" and error["element"] == "flow"
        assert error["message"].endswith("right-hand side is not finite (at t=0)")

    def test_fast_constant_loop_has_its_closed_form_kappa(self, tmp_path):
        # 10^6 + 1 turns of a one-parameter subgroup: the closed form reads
        # its propagator with no solve, where a solve of it would pass its
        # budget of right-hand-side evaluations; kappa = n (10^6 + 1) / 2 mod 1
        out = tmp_path / "out"
        hamiltonian = {"name": "scaled", "base": {"name": "invariant", "a": 0.6, "b": 0.8}, "factor": 1e6 + 1}
        cfg = write_config(tmp_path, kappa_config(out, hamiltonian=hamiltonian, base_points="auto:3"))
        assert main(["run", cfg]) == 0
        record = json.loads((out / "results.json").read_text())
        phase_tol = Tolerances().phase_tol
        assert [circle_distance(p["phase_rev"], 0.5) < phase_tol for p in record["points"]] == [True] * 3

    def test_base_point_spread_past_phase_tol_is_a_numerical_error(self, tmp_path):
        # at 1e12 turns the Omega column's rounding error is of order 1: its
        # spread over base points, 0 in exact arithmetic, exposes it
        out = tmp_path / "out"
        cfg = {"n": 1, "task": "omega", "family": {"name": "subgroup-rotation", "turns": 10**12},
               "s_samples": 2, "base_points": "auto:3", "seed": 0, "output": {"dir": str(out)}}
        assert main(["run", write_config(tmp_path, cfg)]) == 2
        error = json.loads((out / "results.json").read_text())["error"]
        assert error["kind"] == "numerical" and error["element"] == "family"
        assert "Omega spread" in error["message"] and "phase_tol 1.000e-06" in error["message"]

    def test_kappa_spread_past_phase_tol_names_the_hamiltonian(self, tmp_path):
        # a phase_tol below the holonomy's own error: the spread check trips
        out = tmp_path / "out"
        cfg = kappa_config(out, hamiltonian={"name": "mix", "amplitude": 1.3},
                           tolerances={"phase_tol": 1e-300})
        assert main(["run", write_config(tmp_path, cfg)]) == 2
        error = json.loads((out / "results.json").read_text())["error"]
        assert error["kind"] == "numerical" and error["element"] == "hamiltonian"
        assert "holonomy spread" in error["message"]

    def test_runtime_imports_no_scipy(self, tmp_path):
        # the package's runtime needs numpy only: a CLI run must not pull
        # scipy in through any import
        cfg = write_config(tmp_path, kappa_config(tmp_path / "out", base_points="auto:2"))
        script = (
            "import sys\n"
            "from preqholo.cli import main\n"
            f"assert main(['run', {cfg!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=_subprocess_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"task": "omega", "s_samples": "abc"}, "s_samples"),
            ({"task": "omega", "s_samples": -3}, "s_samples"),
            ({"task": "winding", "s_samples": -3}, "s_samples"),
            ({"tolerances": {"flow_rel_tol": 1}}, "tolerances.flow_rel_tol"),
            ({"hamiltonian": {"name": "invariant", "a": "x"}}, "invariant.a"),
            ({"base_points": [["a", 1]]}, "base_points"),
            ({"seed": "abc"}, "seed"),
            ({"seed": -1}, "seed"),
            ({"seed": 1.7}, "seed"),
            ({"seed": True}, "seed"),
            ({"base_points": []}, "base_points"),
            ({"task": "omega", "base_points": []}, "base_points"),
            ({"tolerances": {"closure_tol": -1}}, "tolerances.closure_tol"),
            ({"tolerances": {"phase_tol": "nan"}}, "tolerances.phase_tol"),
            ({"tolerances": {"phase_tol": "inf"}}, "tolerances.phase_tol"),
            ({"base_points": [["nan", 0.0]]}, "base_points[0]"),
            ({"hamiltonian": {"name": "mix", "amplitude": "nan"}}, "mix.amplitude"),
            ({"task": "omega", "family": {"name": "mixing", "amplitude": "inf"}}, "mixing.amplitude"),
            ({"output": 5}, "output"),
            ({"tolerances": 5}, "tolerances"),
            ({"output": {"dir": None}}, "output.dir"),
            ({"task": "winding", "s_samples": 20000}, "s_samples"),
            ({"task": "omega", "s_samples": 20000}, "s_samples"),
            ({"n_values": [float("nan")]}, "n_values"),
            ({"task": "omega", "hamiltonian": {"name": "invariant", "a": float("nan")}}, "invariant.a"),
            ({"family": {"name": "mixing", "amplitude": float("inf")}}, "mixing.amplitude"),
            ({"base_points": "auto:1000000000000"}, "base_points"),
            # integers too large for a float
            ({"n": 10**400}, "n"),
            ({"n": 2**53 + 1}, "n"),
            ({"n_values": [1, 10**400]}, "n_values[1]"),
            ({"hamiltonian": {"name": "mix", "amplitude": 10**400}}, "mix.amplitude"),
            ({"base_points": [[10**400, 0.0]]}, "base_points[0]"),
            ({"task": "omega", "family": {"name": "subgroup-rotation", "turns": 10**400}}, "subgroup-rotation.turns"),
            ({"tolerances": {"phase_tol": 10**400}}, "tolerances.phase_tol"),
            ({"output": {"fromat": "csv"}}, "fromat"),
            ({"output": {"dir": "a\0b"}}, "output.dir"),
            # an axis past the library's unit-norm tolerance of 1e-12, and
            # one whose squared norm overflows a float
            ({"hamiltonian": {"name": "invariant", "a": 1.0000000005, "b": 0}}, "|(a,b,z)| = 1.0000000005"),
            ({"hamiltonian": {"name": "invariant", "a": 1e308}}, "|(a,b,z)| = 1e+308"),
            # names that are no dict key
            ({"hamiltonian": {"name": []}}, "hamiltonian name"),
            ({"family": {"name": {}}}, "family name"),
            ({"hamiltonian": {"name": "mix", "amplitude": None}}, "mix.amplitude"),
            # one unknown key per section
            ({"zorp": 1}, "unknown config keys ['zorp']: config takes ['n', 'task',"),
            ({"tolerances": {"zorp": 1}}, "unknown tolerances keys ['zorp']: tolerances takes ['flow_rel_tol',"),
            ({"output": {"zorp": 1}}, "unknown output keys ['zorp']: output takes ['dir', 'format']"),
            ({"hamiltonian": {"name": "zero", "zorp": 1}}, "unknown zero keys ['zorp']: zero takes ['name']"),
            ({"hamiltonian": {"name": "invariant", "zorp": 1}}, "unknown invariant keys ['zorp']"),
            ({"hamiltonian": {"name": "mix", "amplitude": 1.0, "zorp": 1}}, "unknown mix keys ['zorp']"),
            ({"hamiltonian": {"name": "scaled", "base": {"name": "zero"}, "factor": 2, "zorp": 1}},
             "unknown scaled keys ['zorp']"),
            ({"family": {"name": "constant", "zorp": 1}}, "unknown constant keys ['zorp']"),
            ({"family": {"name": "subgroup-rotation", "zorp": 1}}, "unknown subgroup-rotation keys ['zorp']"),
            ({"family": {"name": "mixing", "zorp": 1}}, "unknown mixing keys ['zorp']"),
            ({"family": {"name": "closed-mixing", "zorp": 1}}, "unknown closed-mixing keys ['zorp']"),
        ],
    )
    def test_bad_values_are_config_errors(self, tmp_path, overrides, key):
        out = tmp_path / "out"
        cfg_data = kappa_config(out, **overrides)
        cfg_data.setdefault("family", {"name": "subgroup-rotation", "turns": 1.0})
        cfg = write_config(tmp_path, cfg_data)
        assert main(["run", cfg, "--out", str(out)]) == 1
        error = json.loads((out / "results.json").read_text())["error"]
        assert error["kind"] == "config"
        assert key in error["message"]

    def test_overlong_integer_literal_is_a_config_error(self, tmp_path):
        # json refuses integer literals past Python's digit limit with a ValueError
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"task": "kappa", "n": 1' + "0" * 5000 + "}")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert json.loads((out / "results.json").read_text())["error"]["kind"] == "config"

    def test_deeply_nested_json_is_a_config_error(self, tmp_path):
        # json.load recurses once per level and passes Python's recursion limit
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"task": "kappa", "hamiltonian": ' + "[" * 2000 + "]" * 2000 + "}")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert json.loads((out / "results.json").read_text())["error"]["kind"] == "config"

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 500])
    def test_section_nested_past_max_depth_is_a_config_error(self, tmp_path, depth):
        # unchecked, a chain 500 deep runs its transport and then passes the
        # recursion limit while echoing the config into results.json
        out = tmp_path / "out"
        cfg = write_config(tmp_path, kappa_config(out, hamiltonian=scaled_chain(depth), base_points="auto:2"))
        assert main(["run", cfg]) == 1
        error = json.loads((out / "results.json").read_text())["error"]
        assert error["kind"] == "config"
        assert error["message"] == f"hamiltonian is nested more than {MAX_DEPTH} levels deep"

    @pytest.mark.parametrize(
        "section, name",
        [("hamiltonian", name) for name in HAMILTONIAN_NAMES] + [("family", name) for name in FAMILY_NAMES],
    )
    def test_every_registry_entry_runs(self, tmp_path, section, name):
        # a new registry entry fails here until it brings its own minimal case
        assert name in REGISTRY_CASES[section], f"no case for {section} {name!r}"
        spec = REGISTRY_CASES[section][name]
        if section == "hamiltonian":
            configs = [{"task": "kappa", "hamiltonian": spec}]
        else:
            configs = [{"task": "omega", "family": spec, "s_samples": 2}]
            if build_family(OrbitSphere(1), spec, Tolerances()).closed:
                configs.append({"task": "winding", "family": spec, "s_samples": 2})
        for i, cfg in enumerate(configs):
            out = tmp_path / f"out{i}"
            cfg.update(n=1, base_points="auto:2", output={"dir": str(out)})
            assert main(["run", write_config(tmp_path, cfg)]) == 0, cfg

    def test_seed_flag_overrides_config(self, tmp_path):
        flag, configured = tmp_path / "flag", tmp_path / "configured"
        cfg = write_config(tmp_path, kappa_config(flag, base_points="auto:2"), "flag.json")
        assert main(["run", cfg, "--seed", "7"]) == 0
        other = write_config(tmp_path, kappa_config(configured, base_points="auto:2", seed=7), "seed.json")
        assert main(["run", other]) == 0
        assert (flag / "results.json").read_bytes() == (configured / "results.json").read_bytes()
        assert main(["run", cfg, "--seed", "-1"]) == 1
        assert "seed" in json.loads((flag / "results.json").read_text())["error"]["message"]

    def test_base_point_list_past_the_bound_is_a_config_error(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, kappa_config(out, base_points=[[1.0, 0.5]] * (MAX_BASE_POINTS + 1)))
        assert main(["run", cfg]) == 1
        error = json.loads((out / "results.json").read_text())["error"]
        assert error["kind"] == "config"
        bound = f"base_points list length must lie in [1, {MAX_BASE_POINTS}]"
        assert error["message"] == f"{bound}, got {MAX_BASE_POINTS + 1}"

    def test_csv_format_writes_points(self, tmp_path):
        out = tmp_path / "out"
        cfg_data = kappa_config(out, base_points="auto:3")
        cfg_data["output"]["format"] = "csv"
        cfg = write_config(tmp_path, cfg_data)
        assert main(["run", cfg]) == 0
        assert (out / "points.csv").exists()


class TestVerifyAndDemo:
    def test_su2_demo(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["su2-demo", "--n", "2", "--out", str(out)]) == 0
        record = json.loads((out / "results.json").read_text())
        for axis_vals in record["holonomy_phases"].values():
            for v in axis_vals.values():
                d = abs(v - record["expected_phase"]) % 1.0
                assert min(d, 1 - d) < 1e-6

    def test_su2_demo_makes_one_solve_per_axis(self, tmp_path, monkeypatch):
        # each reference axis is one transport from all three reference
        # points; each axis sits behind a plain function, so that the loop is
        # solved and not read in closed form
        monkeypatch.setattr(cli, "invariant_loop", lambda *args, **kwargs: plain_loop(invariant_loop(*args, **kwargs)))
        calls = count_solves(monkeypatch)
        assert main(["su2-demo", "--n", "1", "--out", str(tmp_path / "demo")]) == 0
        assert len(calls) == 3

    def test_su2_demo_subcommand_matches_run(self, tmp_path):
        demo, run = tmp_path / "demo", tmp_path / "run"
        assert main(["su2-demo", "--n", "2", "--out", str(demo)]) == 0
        cfg = write_config(tmp_path, {"task": "su2-demo", "n": 2, "output": {"dir": str(run)}})
        assert main(["run", cfg]) == 0
        assert (demo / "results.json").read_bytes() == (run / "results.json").read_bytes()

    def test_su2_demo_level_zero_is_config_error(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["su2-demo", "--n", "0", "--out", str(out)]) == 1
        error = json.loads((out / "results.json").read_text())["error"]
        assert error["kind"] == "config"
        assert error["message"].startswith("n must be")

    def test_su2_demo_task_honours_tolerances(self, tmp_path):
        out = tmp_path / "demo"
        tolerances = {"flow_rel_tol": 1e-9, "phase_tol": 1e-5, "closure_tol": 1e-7}
        cfg = write_config(
            tmp_path,
            {"n": 1, "task": "su2-demo", "tolerances": tolerances, "output": {"dir": str(out)}},
        )
        assert main(["run", cfg]) == 0
        record = json.loads((out / "results.json").read_text())
        assert record["meta"]["config"]["tolerances"] == tolerances
        M = OrbitSphere(1)
        loop = invariant_loop(M, AlgebraDirection(0.6, 0.8), closure_tol=1e-7)
        direct = kappa(M, loop, sphere_point(math.pi / 2, 0.0), rel_tol=1e-9).value
        assert record["holonomy_phases"]["3-4-5"]["equator-0"] == direct

    def test_verify_single_level(self, tmp_path):
        out = tmp_path / "v"
        assert main(["verify", "--n", "2", "--out", str(out), "--seed", "5"]) == 0
        record = json.loads((out / "results.json").read_text())
        assert record["all_passed"] is True
        assert [level["n"] for level in record["levels"]] == [2]

    def test_verify_verdicts_seed_independent(self, tmp_path):
        # derived determinism oracle: verdicts depend only on tolerances
        outs = []
        for seed in (7, 11):
            out = tmp_path / f"s{seed}"
            assert main(["verify", "--n", "1", "--out", str(out), "--seed", str(seed)]) == 0
            record = json.loads((out / "results.json").read_text())
            outs.append(
                [(c["name"], c["passed"]) for c in record["levels"][0]["checks"]]
            )
        assert outs[0] == outs[1]

    def test_bad_n_list(self, tmp_path):
        assert main(["verify", "--n", "1,zort", "--out", str(tmp_path / "x")]) == 1

    def test_package_runs_as_a_module(self, tmp_path):
        # `python -m preqholo` from a checkout, with src on the path
        out = tmp_path / "v"
        src = os.path.dirname(os.path.dirname(dynamics.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "preqholo", "verify", "--n", "1", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "all checks passed" in proc.stdout
        assert json.loads((out / "results.json").read_text())["all_passed"] is True


def _strict_json(text):
    """Parse JSON text, rejecting the NaN and Infinity literals json.dumps allows."""

    def reject(literal):
        raise ValueError(f"not valid JSON: {literal}")

    return json.loads(text, parse_constant=reject)


_hamiltonians = st.one_of(
    st.just({"name": "zero"}),
    st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.6, -0.8)]).map(
        lambda ab: {"name": "invariant", "a": ab[0], "b": ab[1]}
    ),
    st.builds(
        lambda amp, profile: {"name": "mix", "amplitude": amp, "profile": profile},
        st.floats(0.0, 2.0),
        st.sampled_from(["cosine-ramp", "constant"]),
    ),
    st.integers(1, 3).map(lambda c: {"name": "scaled", "base": {"name": "invariant"}, "factor": c}),
)
_families = st.one_of(
    st.just({"name": "constant"}),
    st.integers(0, 2).map(lambda turns: {"name": "subgroup-rotation", "turns": turns}),
    st.builds(
        lambda name, amp: {"name": name, "amplitude": amp},
        st.sampled_from(["mixing", "closed-mixing"]),
        st.floats(0.0, 1.0),
    ),
)
# Replacements for one top-level key, each wrong in one way: a config
# error, a loop or family that does not close, or a value no task reads.
_edits = st.sampled_from(
    [
        ("task", "explode"),
        ("n", 0),
        ("n", "2"),
        ("seed", -1),
        ("s_samples", 1),
        ("s_samples", 3.0),
        ("base_points", "auto:0"),
        ("base_points", [["nan", 0.0]]),
        ("base_points", [[0.3]]),
        ("tolerances", {"phase_tol": "nan"}),
        ("tolerances", {"closure_tol": -1.0}),
        ("tolerances", {"flow_rel_tol": 1e-14}),
        ("hamiltonian", {"name": "mix", "amplitude": 1.0, "profile": "saw"}),
        ("hamiltonian", {"name": "mix", "amplitude": "nan"}),
        ("hamiltonian", {"name": "scaled", "base": {"name": "invariant"}, "factor": 0.5}),
        ("hamiltonian", {"name": "invariant", "a": 2.0}),
        ("hamiltonian", {"name": "invariant", "a": 1.0000000005, "b": 0}),
        ("family", {"name": "subgroup-rotation", "turns": 0.5}),
        ("family", {"name": "mixing", "amplitude": "inf"}),
        ("output", {"format": "xml"}),
        ("output", 5),
        ("output", {"dir": None}),
        ("tolerances", 5),
        ("zorp", 1),
    ]
)
_configs = st.builds(
    lambda base, edits: {**base, **dict(edits)},
    st.fixed_dictionaries(
        {
            "task": st.sampled_from(["kappa", "action", "omega", "winding", "su2-demo"]),
            "n": st.integers(1, 3),
            "hamiltonian": _hamiltonians,
            "family": _families,
            "base_points": st.one_of(
                st.sampled_from(["auto:1", "auto:2", "auto:3"]),
                st.lists(
                    st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi)).map(list),
                    min_size=1,
                    max_size=2,
                ),
            ),
            "s_samples": st.integers(2, 4),
            "seed": st.integers(0, 5),
        },
        optional={
            "tolerances": st.fixed_dictionaries(
                {},
                optional={
                    "flow_rel_tol": st.sampled_from([1e-10, 1e-8]),
                    "phase_tol": st.sampled_from([1e-6, 1e-3]),
                    "closure_tol": st.sampled_from([1e-6, 1e-3]),
                },
            ),
            "output": st.sampled_from([{"format": "json"}, {"format": "csv"}]),
        },
    ),
    st.lists(_edits, max_size=2),
)


@settings(max_examples=40, deadline=None)
@given(
    config=_configs,
    target=st.sampled_from(["absent", "directory", "file", "nested", "nul"]),
    by_flag=st.booleans(),
)
def test_fuzzed_configs_exit_cleanly(config, target, by_flag):
    # every config ends in a documented exit status with a valid results.json
    # in its output directory, given by --out or by output.dir; an output
    # target that is an existing file, or has a NUL in its name, ends in
    # exit 1, and the file is left as it was
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / {"nested": "a/b/out", "nul": "o\0ut"}.get(target, "out")
        if target == "directory":
            out.mkdir()
        elif target == "file":
            out.write_text("a file\n")
        flag = by_flag or not isinstance(config.get("output", {}), dict)
        if not flag:
            config = {**config, "output": {**config.get("output", {}), "dir": str(out)}}
        path = write_config(Path(tmp), config)
        status = main(["run", path, "--out", str(out)] if flag else ["run", path])
        if target in ("file", "nul"):
            assert status == 1
            assert target == "nul" or out.read_text() == "a file\n"
            return
        assert status in (0, 1, 2)
        record = _strict_json((out / "results.json").read_text())
        assert ("error" in record) == (status != 0)
