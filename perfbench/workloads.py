"""Seeded operation lists for the benchmark workloads.

Every workload is an endless sequence of rounds.  A round is a fixed
multiset of operation kinds in a seeded order, with seeded parameters
inside narrow ranges.  Any run of a few rounds therefore has nearly the
same mix whatever the seed, which keeps one seed's medians close to
another's while the inputs still come from the seed.

The program only ever sees the generated argv; output paths are added by
``Op.argv`` at run time.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Op:
    """One CLI invocation, without its output location."""

    command: str
    args: tuple[str, ...]

    def argv(self, outdir: Path) -> list[str]:
        if self.command == "simulate":
            out = ["--outdir", str(outdir)]
        elif self.command == "dispersion":
            out = ["--csv", str(outdir / "dispersion.csv")]
        else:
            out = ["--json", str(outdir / f"{self.command}.json")]
        return [self.command, *self.args, *out]

    def option(self, name: str) -> str | None:
        """Value following ``name`` in the arguments, or None."""
        for flag, value in zip(self.args, self.args[1:]):
            if flag == name:
                return value
        return None

    def label(self) -> str:
        return " ".join((self.command, *self.args))


def _simulate(init: str, m: int, n: int, stride: int, steps: int, *extra: str) -> Op:
    return Op("simulate", ("--init", init, "--m", str(m), "--N", str(n), *extra,
                           "--steps", str(steps), "--snap-every", str(stride)))


def _front_tracking_round(rng: random.Random) -> list[Op]:
    # 12 kink runs over the full (m, N, C1) grid plus 4 oracle runs: one in four.
    # A dense stride (10..75 steps) and 8..12 saved states per run keep the
    # snapshot CSVs and the persistence fit the main cost.
    ops = []
    for m, n, c1 in itertools.product((1, 3), (1024, 2048, 4096), ("0.05", "0.08")):
        stride = rng.randint(10, 75)
        ops.append(_simulate("kink", m, n, stride, stride * rng.randint(8, 12), "--C1", c1))
    for m, n in itertools.product((1, 3), (2048, 4096)):
        stride = rng.randint(10, 75)
        ops.append(_simulate("gaussian", m, n, stride, stride * rng.randint(8, 12), "--oracle"))
    rng.shuffle(ops)
    return ops


# soliton --verify runs the case solver and is the most frequent command, so
# the median lands in the middle of its cluster of costs, not at an edge
ANALYSIS_MIX = ("soliton", "soliton", "soliton", "report", "report",
                "modified", "dispersion", "coeffs")
# m >= 10 exits 3 today (singular normal equations), and the timed workloads
# hold only operations that succeed; run.py probes 1..16 outside the timed
# window and reports how many half-widths the stencil cannot solve
HALF_WIDTHS = tuple(range(1, 10))
DOCUMENTED_HALF_WIDTHS = tuple(range(1, 17))


def _analysis_op(command: str, m: int, sigma: str, c1: str) -> Op:
    args = {
        "soliton": ("--sigma", sigma, "--C1", c1, "--verify"),
        "report": ("--sigma", sigma, "--C1", c1, "--no-sim"),
        "modified": ("--sigma", sigma, "--p", "6", "--q", "12"),
        "dispersion": ("--samples", "1001"),
        "coeffs": (),
    }[command]
    return Op(command, ("--m", str(m), *args))


def _analysis_sweep_round(rng: random.Random) -> list[Op]:
    # Every command at every half-width that solves today, in each round.
    ops = [
        _analysis_op(command, m, rng.choice(("0.25", "0.5", "1")), rng.choice(("0.5", "1")))
        for command, m in itertools.product(ANALYSIS_MIX, HALF_WIDTHS)
    ]
    rng.shuffle(ops)
    return ops


ROUNDS = {
    "front_tracking": _front_tracking_round,
    "analysis_sweep": _analysis_sweep_round,
}


def operations(workload: str, seed: int):
    """Endless, seed-determined stream of operations for a workload."""
    make_round = ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield from make_round(rng)
