#!/usr/bin/env python3
"""drpkit benchmark: one workload, one seed, a closed loop of CLI operations.

    python3 perfbench/run.py --workload front_tracking --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The workload's operations are generated from the seed
and issued one after another, each as an in-process call to
``drpkit.cli.main(argv)`` writing into its own directory under
``perfbench/out``.  Each call is timed until the timed operations add up
to ``--seconds``.  Between calls, outside the timed window, the artifacts
are checked against the package's oracles, digested and deleted.  After
the loop, also untimed, ``coeffs`` is asked for every documented
half-width and the ones it cannot solve are reported.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
loop but repeats every operation right after itself with spans around
every layer, both runs counting towards ``--seconds``, and prints the
per-layer metrics; the spans go to
``perfbench/out/<workload>-seed<seed>.spans.jsonl.gz``.  Every run writes a
record with host facts, per-operation results and artifact digests to
``perfbench/out``.  The last line of standard output is one JSON object
with keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

NumPy, BLAS and OpenMP are pinned to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def median_import_s(module: str) -> float:
    """Median wall time of a fresh interpreter that only imports ``module``."""
    env = {k: v for k, v in os.environ.items() if k != "DRPKIT_OUTPUT_DIR"}
    env["PYTHONPATH"] = str(SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env, cwd=ROOT,
                       check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference_loop_s() -> float:
    """A fixed pure-Python loop; shows host drift and is never used to scale."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def source_id() -> str:
    """Digest of the package and benchmark sources: the code a digest belongs to."""
    digest = hashlib.sha256()
    files = sorted([*SRC.glob("drpkit/**/*.py"), *SRC.glob("drpkit/**/*.json"), *HERE.glob("*.py")])
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


class Runner:
    """Issues operations in-process and checks each one outside the timed window."""

    def __init__(self, workdir: Path):
        import checks
        import drpkit.cli

        self.checks = checks
        self.main = drpkit.cli.main
        self.workdir = workdir
        self.count = 0

    def _call(self, argv: list[str], tracer, index: int):
        sink = io.StringIO()
        crash = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start, cpu = time.perf_counter(), time.thread_time()
            span = tracer.begin("cli.main", "cli", op=index) if tracer else None
            try:
                code = self.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # any crash is a failed operation, with its traceback kept
                code, crash = None, traceback.format_exc()
            finally:
                if span is not None:
                    tracer.end(span)
            elapsed, cpu = time.perf_counter() - start, time.thread_time() - cpu
        return code, elapsed, cpu, crash, sink.getvalue()

    def execute(self, op, tracer=None, index: int = -1) -> dict:
        """Run one operation, then check, digest and delete its artifacts.

        With a tracer the package is instrumented for this call only.
        """
        opdir = self.workdir / f"{self.count:06d}"
        self.count += 1
        opdir.mkdir()
        # Collect, then freeze the survivors, so that the call's collections scan
        # only its own objects, as in a fresh CLI process, and not the records
        # this process accumulates.
        gc.collect()
        gc.freeze()
        try:
            if tracer is None:
                code, elapsed, cpu, crash, output = self._call(op.argv(opdir), None, index)
            else:
                with spans.Instrumented(tracer):
                    code, elapsed, cpu, crash, output = self._call(op.argv(opdir), tracer, index)
            record = {"op": op.label(), "code": code, "s": elapsed, "cpu_s": cpu,
                      "problem": None, "digest": None, "files": 0, "bytes": 0}
            if crash is not None:
                record["problem"] = "crash: " + crash.strip().splitlines()[-1]
            elif code != 0:
                record["message"] = output.strip().splitlines()[-1] if output.strip() else ""
            else:
                record["problem"] = self.checks.check(op, opdir)
                record["digest"] = self.checks.artifact_digest(opdir)
                record["files"], record["bytes"] = self.checks.artifact_sizes(opdir)
        finally:
            shutil.rmtree(opdir)
        return record


def closed_loop(runner: Runner, ops, seconds: float, tracer=None) -> tuple[list, list]:
    """Issue operations one after another until their times add up to ``seconds``.

    With a tracer each operation is repeated right after, traced, so that
    both runs of it see the same host conditions, and both count towards
    the window.
    """
    records, replay = [], []
    window = 0.0
    while window < seconds:
        op = next(ops)
        records.append(runner.execute(op))
        window += records[-1]["s"]
        if tracer is not None:
            replay.append(runner.execute(op, tracer, index=len(replay)))
            window += replay[-1]["s"]
    return records, replay


def probe_half_widths(runner: Runner, half_widths) -> tuple[list[int], list[dict]]:
    """Ask ``coeffs`` for every documented half-width, outside the timed window.

    Returns the half-widths it cannot solve and the probe's records.
    """
    records = [runner.execute(workloads.Op("coeffs", ("--m", str(m)))) for m in half_widths]
    unsolved = [m for m, r in zip(half_widths, records) if failed(r)]
    return unsolved, records


def failed(record: dict) -> bool:
    return record["code"] != 0 or record["problem"] is not None


def compare_digests(path: Path, records: list[dict]) -> str:
    """Compare this run's digests with an earlier run of the same seed and code."""
    mine = [[r["op"], r["digest"]] for r in records]
    note = "first run of this seed and code"
    if path.is_file():
        theirs = json.loads(path.read_text())
        common = min(len(mine), len(theirs))
        bad = [i for i in range(common) if mine[i] != theirs[i]]
        if bad:
            return f"MISMATCH at op {bad[0]}: {mine[bad[0]]} vs {theirs[bad[0]]}"
        note = f"agree with an earlier run on {common} operations"
        if len(theirs) > len(mine):
            mine = theirs
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(mine))
    os.replace(tmp, path)
    return note


def declared_metrics(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "drpkit" / "cli.py").is_file():
        print(f"perfbench: no drpkit sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("DRPKIT_OUTPUT_DIR", None)
    sys.path.insert(0, str(SRC))

    import numpy
    import drpkit.sim

    import metrics

    if workloads.ROUNDS.get(args.workload) is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.ROUNDS)}", file=sys.stderr)
        return 2
    if not Path(drpkit.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported drpkit from {drpkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    code_id = source_id()
    host = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": drpkit.sim.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_id": code_id,
        "reference_loop_s_before": reference_loop_s(),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    tracer = spans.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{stem}-") as tmp:
        runner = Runner(Path(tmp))
        runner.execute(next(workloads.operations(args.workload, args.seed)))
        records, replay = closed_loop(
            runner, workloads.operations(args.workload, args.seed), args.seconds, tracer)
        unsolved, probe = probe_half_widths(runner, workloads.DOCUMENTED_HALF_WIDTHS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    host["reference_loop_s_after"] = reference_loop_s()
    # wall time the timed calls spent off the CPU: preemption and host steal
    host["off_cpu_frac"] = 1.0 - sum(r["cpu_s"] for r in records) / sum(r["s"] for r in records)

    ok = [r for r in records if not failed(r)]
    problems = [r for r in records + replay + probe if r["problem"] is not None]
    determinism = compare_digests(OUT / "digests" / f"{stem}-{code_id}.json", records)
    if replay:
        drift = [i for i, (a, b) in enumerate(zip(records, replay))
                 if (a["code"], a["digest"]) != (b["code"], b["digest"])]
        if drift:
            determinism = f"MISMATCH between untraced and traced run at op {drift[0]}"
    correct = not problems and not determinism.startswith("MISMATCH")

    detail: dict = {}
    if tracer is not None:
        values = metrics.per_layer(
            tracer.spans, len(replay),
            files=sum(r["files"] for r in replay), nbytes=sum(r["bytes"] for r in replay),
            untraced_s=sum(r["s"] for r in ok),
            traced_s=sum(b["s"] for a, b in zip(records, replay) if not failed(a)))
        values["stencil.unsolved_half_widths"] = len(unsolved)
        section = "per_layer"
        tracer.write(OUT / f"{stem}.spans.jsonl.gz")
    else:
        host["setup_import_drpkit_cli_s"] = median_import_s("drpkit.cli")
        host["setup_import_numpy_floor_s"] = median_import_s("numpy")
        latencies, cpu_times = [r["s"] for r in ok], [r["cpu_s"] for r in ok]
        values = metrics.end_to_end(
            latencies, cpu_times, len(records), window_s=sum(r["s"] for r in records),
            setup_s=host["setup_import_drpkit_cli_s"], peak_rss_mb=peak_rss_mb)
        section = "end_to_end"
        t, wall = metrics.tail(cpu_times), metrics.tail(latencies)
        if t is not None:
            detail["op_cpu_s_tail"] = (f"p{t[1]:.2f} of {t[2]} successful operations; "
                                       f"wall-clock tail {wall[0]:.6g} s")

    units = declared_metrics(section)
    result_metrics = {name: {"value": values[name], "unit": unit}
                      for name, unit in units.items() if name in values}

    exit_codes = dict(Counter(str(r["code"]) for r in records))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for key, value in host.items():
        print(f"  {key}: {value}")
    print(f"  operations: {len(records)} attempted, {len(records) - len(ok)} failed, "
          f"exit codes {exit_codes}")
    print(f"  output checks: {len(problems)} failed" +
          (f"; first: {problems[0]['op']}: {problems[0]['problem']}" if problems else ""))
    print(f"  determinism: {determinism}")
    print(f"  half-widths coeffs cannot solve (m = 1..16, untimed): {unsolved or 'none'}")
    for name, entry in result_metrics.items():
        extra = f"  ({detail[name]})" if name in detail else ""
        print(f"{name:<44} {entry['value']:.6g} {entry['unit']}{extra}")

    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "determinism": determinism,
        "unsolved_half_widths": unsolved,
        "metrics": result_metrics, "detail": detail, "operations": records,
    }, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(records) - len(ok), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
