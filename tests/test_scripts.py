"""Smoke tests: the scan scripts run end to end on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

import preqholo

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    # run the scripts against the same package the tests import
    paths = [str(Path(preqholo.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_parity_scan():
    proc = run_script("parity_scan.py", "--levels", "1", "--axes", "1")
    assert proc.returncode == 0, proc.stderr


def test_family_phase_scan_writes_phases_csv(tmp_path):
    target = tmp_path / "scan.csv"
    proc = run_script("family_phase_scan.py", "--n", "1", "--samples", "2", "--csv", str(target))
    assert proc.returncode == 0, proc.stderr
    assert target.read_text().splitlines()[0] == "s,phase_rev,kappa_re,kappa_im"
