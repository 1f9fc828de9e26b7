#!/usr/bin/env python3
"""Check that two source trees give the same bytes for the same commands.

Runs each command as ``python -m drpkit.cli ...`` once per tree, with that
tree's ``src`` first on PYTHONPATH and BLAS pinned to one thread, each time
in a fresh empty directory.  Compares the exit code, stdout, stderr and the
sha256 of every file the command leaves there.  Prints one line per
command, with both stderr texts when they differ, and exits 1 when any
command differs.

Usage:
  python benchmarks/same_bytes.py OLD_TREE NEW_TREE [COMMAND_FILE ...]
      [--command "simulate --steps 1000 --snap-every 5"]
      [--workload front_tracking:SEED:COUNT]

A command file holds one command per line, the arguments after the program
name; blank lines and lines starting with # are skipped.  ``--workload``
adds the first COUNT operations of a benchmark workload, as
``perfbench/workloads.py`` in NEW_TREE generates them for SEED, without
their output options, so their files land in the fresh directory too.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path


def read_commands(path: Path) -> list[list[str]]:
    lines = (line.strip() for line in path.read_text().splitlines())
    return [shlex.split(line) for line in lines if line and not line.startswith("#")]


def workload_commands(tree: Path, spec: str) -> list[list[str]]:
    name, seed, count = spec.split(":")
    sys.path.insert(0, str(tree / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    ops = itertools.islice(workloads.operations(name, int(seed)), int(count))
    return [[op.command, *op.args] for op in ops]


def run(tree: Path, argv: list[str]) -> dict:
    """Exit code, output and file digests of one command run on one tree."""
    env = {k: v for k, v in os.environ.items() if k != "DRPKIT_OUTPUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree.resolve() / "src"), os.environ.get("PYTHONPATH")) if p
    )
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "drpkit.cli", *argv],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
        files = {
            str(p.relative_to(tmp)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(tmp).rglob("*"))
            if p.is_file()
        }
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": files}


def differences(old: dict, new: dict) -> list[str]:
    out = [key for key in ("exit", "stdout", "stderr") if old[key] != new[key]]
    changed = sorted(
        name for name in old["files"].keys() | new["files"].keys()
        if old["files"].get(name) != new["files"].get(name)
    )
    if changed:
        out.append("files " + ", ".join(changed))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="source tree of the reference")
    parser.add_argument("new", type=Path, help="source tree of the change")
    parser.add_argument("command_files", type=Path, nargs="*")
    parser.add_argument("--command", action="append", default=[],
                        help="one command, the arguments after the program name")
    parser.add_argument("--workload", action="append", default=[],
                        help="NAME:SEED:COUNT, the first COUNT operations of a workload")
    args = parser.parse_args(argv)

    commands = [shlex.split(c) for c in args.command]
    for path in args.command_files:
        commands += read_commands(path)
    for spec in args.workload:
        commands += workload_commands(args.new, spec)

    differing = 0
    for command in commands:
        old, new = run(args.old, command), run(args.new, command)
        diff = differences(old, new)
        label = shlex.join(command)
        if not diff:
            print(f"same  {label}  ({len(new['files'])} files, exit {new['exit']})")
            continue
        differing += 1
        print(f"DIFF  {label}  [{'; '.join(diff)}]")
        if "stderr" in diff:
            print(f"  old stderr: {old['stderr'].strip()}")
            print(f"  new stderr: {new['stderr'].strip()}")
    print(f"{len(commands) - differing} of {len(commands)} commands identical in every byte")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
