#!/usr/bin/env python3
"""Trace the holonomy phase along a closed family of loops.

Samples the phase lift over the family parameter, reports the winding and
the grading, and writes plot-ready CSV.

Usage: python scripts/family_phase_scan.py [--n 1] [--amplitude 0.8]
       [--samples 32] [--csv phases.csv]
"""

import argparse

import numpy as np

from preqholo import OrbitSphere, closed_mixing_family, phase_lift, sphere_point
from preqholo.cli import write_phases_csv
from preqholo.families import member_states, winding_of


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--amplitude", type=float, default=0.8)
    ap.add_argument("--samples", type=int, default=32)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    M = OrbitSphere(args.n)
    fam = closed_mixing_family(M, amplitude=args.amplitude)
    q = sphere_point(1.1, 0.7)

    svals, lift = phase_lift(M, fam, q, s_samples=args.samples)
    total = float(lift[-1] - lift[0])
    winding = winding_of(lift)
    print(f"family: {fam.label}")
    print(f"phase lift span: {total:+.3e} rev  ->  winding {winding}, grading {-winding}")

    omega_probe = [row[0].omega for row in member_states(M, fam, np.linspace(0.1, 0.9, 5), [q])]
    print(f"one-form samples: {np.array2string(np.array(omega_probe), precision=2)}")

    if args.csv:
        write_phases_csv(zip(svals, lift), args.csv)
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
