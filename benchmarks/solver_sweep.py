#!/usr/bin/env python3
"""Check that two source trees give the case solver the same results.

The library-level twin of ``same_bytes.py``: the CLI cannot pin unknowns,
so this script calls ``drpkit.wave.solve_system`` directly.  For twelve
seeded configurations (half-width, sigma, mu, Re_h, C1 of either sign)
it builds the derived and the condensed coefficient systems and solves
each with every subset of the five unknowns pinned, each pinned unknown
to 0, A, A/2 or a drawn value (A is the advection coefficient): 5^5
solves per system, 75,000 in all.  Every solve's ``to_json()`` branches
and ``describe_solution_set`` summary, or the exception it raised, go
into one sha256 per tree.  The two trees run at once, each in its own
interpreter with its ``src`` first on PYTHONPATH.  Prints both digests
with the solve, unresolved and exception counts, and exits 1 when the
digests differ.  Each tree's sweep streams its per-solve records as it
makes them, and the script prints every solve whose record differs between
the trees, old record first.

Both interpreters run this copy of the script.  When the library calls it
makes (the table is ``nondimensionalize(coeffs, params)`` here) do not
exist in the other tree, run each tree's own copy on that tree and compare
the digests they print.

Usage:
  python benchmarks/solver_sweep.py OLD_TREE NEW_TREE
  python OLD_TREE/benchmarks/solver_sweep.py OLD_TREE OLD_TREE   # own copy
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

_SEED = 20261018
_CONFIGS = 12


def _systems(rng):
    """One seeded configuration's derived and condensed systems."""
    from drpkit import wave
    from drpkit.modeq import SchemeParams, nondimensionalize
    from drpkit.stencil import optimize_coefficients

    params = SchemeParams.from_cfl(
        sigma=float(rng.uniform(0.1, 2.0)),
        mu=float(rng.uniform(0.5, 2.0)),
        re_h=float(rng.uniform(0.5, 4.0)),
    )
    coeffs = optimize_coefficients(int(rng.integers(1, 10)))
    C1 = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0))
    C = float(rng.uniform(-2.0, 2.0))
    sol = wave.closed_form_kink(params, coeffs, C=C, C1=C1)
    table = nondimensionalize(coeffs, params)
    ode = wave.reduce_to_ode(table, params, v=sol.v, C=C)
    ansatz = wave.HyperbolicAnsatz(U1=sol.U1, V1=0.0, V0=0.0, C1=C1, v=sol.v)
    derived = wave.collect_system(wave.substitute_ansatz(ode, ansatz))
    return derived, wave.condensed_coefficient_system(params, coeffs, C1)


def sweep() -> dict:
    """Digest and counts of every pinned solve, for the drpkit on sys.path.

    Each solve's record line is printed as it is made.
    """
    import numpy as np

    from drpkit.wave import describe_solution_set, solve_system
    from drpkit.wave.poly import SYMBOLS

    rng = np.random.default_rng(_SEED)
    digest = hashlib.sha256()
    counts = {"solves": 0, "unresolved": 0, "exceptions": 0}
    for _ in range(_CONFIGS):
        systems = _systems(rng)
        drawn = {name: float(rng.uniform(-2.0, 2.0)) for name in SYMBOLS}
        for system in systems:
            A = system.advection
            for size in range(len(SYMBOLS) + 1):
                for names in itertools.combinations(SYMBOLS, size):
                    choices = [(0.0, A, A / 2.0, drawn[name]) for name in names]
                    for values in itertools.product(*choices):
                        fixed = dict(zip(names, values))
                        try:
                            branches = solve_system(system, fixed=fixed)
                            record = {
                                "branches": [b.to_json() for b in branches],
                                "summary": describe_solution_set(branches),
                            }
                            counts["unresolved"] += any(b.unresolved for b in branches)
                        except Exception as exc:  # the exception is part of the result
                            record = {"exception": f"{type(exc).__name__}: {exc}"}
                            counts["exceptions"] += 1
                        counts["solves"] += 1
                        line = json.dumps(
                            {"encoding": system.encoding, "fixed": fixed, **record},
                            sort_keys=True,
                        )
                        digest.update(line.encode() + b"\n")
                        print(line)
    return {"sha256": digest.hexdigest(), **counts}


def start(tree: Path) -> subprocess.Popen:
    """The sweep of one source tree, started in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree.resolve() / "src"), os.environ.get("PYTHONPATH")) if p
    )
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    here = str(Path(__file__).resolve().parent)
    code = f"import json, sys; sys.path.insert(0, {here!r}); import solver_sweep; " \
           "print(json.dumps(solver_sweep.sweep()))"
    return subprocess.Popen(
        [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


def print_differences(procs: list[subprocess.Popen]) -> tuple[str, ...]:
    """Print the record pairs that differ while both sweeps stream them.

    Returns the last line of each stream, its summary.
    """
    last = (None, None)
    for pair in zip(*(proc.stdout for proc in procs)):
        if last[0] != last[1]:
            print(f"old {last[0]}new {last[1]}", end="")
        last = pair
    return last


def finish(tree: Path, proc: subprocess.Popen, summary: str) -> dict:
    """The sweep's digest and counts, once its interpreter exits."""
    _, stderr = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"sweep failed on {tree}:\n{stderr}")
    return json.loads(summary)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="source tree of the reference")
    parser.add_argument("new", type=Path, help="source tree to compare")
    args = parser.parse_args(argv)
    trees = (args.old, args.new)
    procs = [start(tree) for tree in trees]
    summaries = print_differences(procs)
    results = [finish(*run) for run in zip(trees, procs, summaries)]
    for label, result in zip(("old", "new"), results):
        print(f"{label}: {result['sha256']} solves={result['solves']} "
              f"unresolved={result['unresolved']} exceptions={result['exceptions']}")
    same = results[0]["sha256"] == results[1]["sha256"]
    print("identical" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
