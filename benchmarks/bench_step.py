#!/usr/bin/env python3
"""Time the stepping kernel in ns per node-step.

Times ``drpkit.sim.step_many`` over a grid of (N, m) cases and reports the
best of ``--repeat`` runs of ``--steps`` steps, divided by N * steps.

Usage: python benchmarks/bench_step.py [--steps 400] [--repeat 5]
"""

import argparse
import time

import numpy as np

from drpkit.sim import step_many
from drpkit.stencil import optimize_coefficients


def time_kernel(u, gamma, coef, steps, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        step_many(u, gamma, coef, steps)
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=400)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    coef = 0.1
    print(f"{'N':>6} {'m':>3} {'ns/node-step':>13}")
    for n in (256, 1024, 4096):
        for m in (1, 3, 7):
            gamma = optimize_coefficients(m).gamma_array
            u = rng.standard_normal(n)
            best = time_kernel(u, gamma, coef, args.steps, args.repeat)
            print(f"{n:>6} {m:>3} {1e9 * best / (n * args.steps):>13.2f}")


if __name__ == "__main__":
    main()
