#!/usr/bin/env python3
"""Scan the holonomy of invariant loops across levels and axis angles.

The phase should equal (n mod 2)/2 for every axis; the table makes the
parity dependence visible at a glance.

Usage: python scripts/parity_scan.py [--levels 1,2,3,4] [--axes 6] [--csv out.csv]
"""

import argparse
import math

import numpy as np

from preqholo import AlgebraDirection, OrbitSphere, UnitPhase, invariant_loop, sphere_point, transport_phases


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--levels", default="1,2,3,4")
    ap.add_argument("--axes", type=int, default=6)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    levels = [int(v) for v in args.levels.split(",")]
    angles = np.linspace(0.0, math.pi, args.axes, endpoint=False)
    q = sphere_point(1.1, 0.6)

    rows = []
    print(f"{'n':>3} {'axis angle':>11} {'phase (rev)':>14} {'expected':>9}")
    for n in levels:
        M = OrbitSphere(n)
        # one solve per level: a row for each axis, all from q
        loops = [invariant_loop(M, AlgebraDirection(math.cos(lam), math.sin(lam))) for lam in angles]
        states = transport_phases(M, loops, [q] * len(loops))
        for lam, state in zip(angles, states):
            phase = UnitPhase.from_revolutions(state.phase).value
            rows.append((n, lam, phase))
            print(f"{n:>3} {lam:>11.4f} {phase:>14.10f} {(n % 2) / 2:>9.2f}")

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("n,axis_angle,phase_rev\n")
            for n, lam, phase in rows:
                fh.write(f"{n},{lam!r},{phase!r}\n")
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
