#!/usr/bin/env python3
"""Ones-fraction trajectories across densities, against the fluid curves.

For each density on a grid, runs a handful of replicas at a fixed dimension
and prints the mean ones-fraction on a time grid next to the deterministic
limit (p e^{-t} below 1/2, 1 - (1-p) e^{-t} above, flat 1/2 at the critical
point).

Example:
    python3 scripts/phase_portrait.py --d 10 --replicas 20
"""

import argparse

import numpy as np

from torusvoter.observables import fluid, fraction_series
from torusvoter.spin import THRESHOLD, RngStream, run, sample_product
from torusvoter.torus import TorusShape


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int, default=10)
    ap.add_argument("--r", type=int, default=2)
    ap.add_argument("--T", type=float, default=2.0)
    ap.add_argument("--replicas", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--densities", default="0.2,0.35,0.5,0.65,0.8")
    args = ap.parse_args()

    shape = TorusShape(args.d, args.r)
    grid = np.linspace(0.0, args.T, 9)
    densities = [float(tok) for tok in args.densities.split(",")]
    print("        " + "".join(f"  t={t:<6.2f}" for t in grid))
    for k, p in enumerate(densities):
        fracs = np.empty((args.replicas, grid.size))
        for i in range(args.replicas):
            rng = RngStream(args.seed, (k, i)).generator()
            cfg = sample_product(shape, p, rng)
            series = fraction_series(run(cfg, THRESHOLD, args.T, rng))
            fracs[i] = [series.value_at(float(t)) for t in grid]
        sim = "".join(f"{v:9.4f}" for v in fracs.mean(axis=0))
        fl = "".join(f"{fluid(p, float(t)):9.4f}" for t in grid)
        print(f"p={p:4.2f} sim{sim}")
        print(f"     fluid{fl}")


if __name__ == "__main__":
    main()
