"""Output checks against the package's own oracles, plus artifact digests.

Nothing here compares bytes pinned at some commit, so a legitimate change
of results (say, better-conditioned stencil weights) is not a failure:

* a stepped simulation's last snapshot is compared with the spectral
  oracle evolved from the run's own first snapshot;
* JSON artifacts must be strict JSON (no NaN or Infinity) and
  ``measurements.json`` / ``report.json`` must satisfy the shipped schemas;
* ``soliton --verify`` must report ``condensed_system.ok``;
* ``dispersion`` must have one row per requested sample.

A check returns None on success and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import jsonschema
import numpy as np

import drpkit
from drpkit.modeq import SchemeParams, discrete_symbol
from drpkit.sim.grid import FieldState
from drpkit.sim.stepper import spectral_oracle
from drpkit.stencil import optimize_coefficients

from workloads import Op

_SCHEMAS = Path(drpkit.__file__).parent / "schemas"
_VALIDATORS = {
    name: jsonschema.Draft7Validator(json.loads((_SCHEMAS / f"{name}.schema.json").read_text()))
    for name in ("simulate", "report")
}
_PARAM_FIELDS = ("c", "mu", "tau", "h", "sigma", "U0", "tau0", "h0", "re_h")
_EPS = np.finfo(float).eps


class CheckFailure(Exception):
    pass


def _reject_constant(token: str):
    raise CheckFailure(f"non-finite number {token} in JSON")


def _strict_json(path: Path) -> dict:
    if not path.is_file():
        raise CheckFailure(f"missing artifact {path.name}")
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _validate(name: str, payload: dict):
    error = jsonschema.exceptions.best_match(_VALIDATORS[name].iter_errors(payload))
    if error is not None:
        raise CheckFailure(f"{name} schema: {error.message}")


def read_snapshot(path: Path) -> tuple[int, np.ndarray]:
    """(N, values) of a snapshot CSV, checking its header and row indices."""
    lines = path.read_text().splitlines()
    header = dict(field.split("=", 1) for field in lines[0].removeprefix("# ").split())
    n = int(header["N"])
    if len(lines) != n + 1:
        raise CheckFailure(f"{path.name}: {len(lines) - 1} rows for N={n}")
    rows = [line.split(",") for line in lines[1:]]
    if any(int(row[0]) != i for i, row in enumerate(rows)):
        raise CheckFailure(f"{path.name}: row indices out of order")
    values = np.array([float(row[2]) for row in rows])
    if not np.all(np.isfinite(values)):
        raise CheckFailure(f"{path.name}: non-finite value")
    return n, values


def _check_simulate(op: Op, outdir: Path):
    payload = _strict_json(outdir / "measurements.json")
    _validate("simulate", payload)
    snapshots = sorted(outdir.glob("snapshot_*.csv"))
    if len(snapshots) != len(payload["norm_series"]) or len(snapshots) < 2:
        raise CheckFailure(f"{len(snapshots)} snapshot files for "
                           f"{len(payload['norm_series'])} norm entries")
    n, first = read_snapshot(snapshots[0])
    _, last = read_snapshot(snapshots[-1])
    if n != int(op.option("--N")):
        raise CheckFailure(f"snapshot N={n}, asked for {op.option('--N')}")
    if "--oracle" in op.args:
        return
    config = payload["config"]
    params = SchemeParams(**{name: float(config[name]) for name in _PARAM_FIELDS})
    steps = int(snapshots[-1].stem.removeprefix("snapshot_"))
    m = int(config["m"])
    coeffs = optimize_coefficients(m)
    expected = spectral_oracle(FieldState(first, 0.0, 0), coeffs, params, steps).values
    # Each step rounds every node's 3m+2 operations, and the weakly unstable
    # scheme then amplifies mode p of that error by |g_p| per later step.  So
    # mode p of the difference is bounded by about
    # (3m+2) eps * steps * |g_p|**steps * N * max|u0|.
    gain = np.abs(discrete_symbol(coeffs, params, 2.0 * np.pi * np.arange(n) / n)) ** steps
    bound = (3 * m + 2) * _EPS * steps * n * float(np.max(np.abs(first))) * gain
    excess = np.abs(np.fft.fft(last - expected)) / bound
    worst = int(np.argmax(excess))
    if not excess[worst] <= 1.0:
        raise CheckFailure(f"final snapshot differs from the spectral oracle at mode {worst} "
                           f"by {excess[worst]:.3g} times the rounding bound after {steps} steps")


def _check_report(op: Op, outdir: Path):
    _validate("report", _strict_json(outdir / "report.json"))


def _check_soliton(op: Op, outdir: Path):
    payload = _strict_json(outdir / "soliton.json")
    if payload.get("condensed_system", {}).get("ok") is not True:
        raise CheckFailure("condensed_system.ok is not true")


def _check_dispersion(op: Op, outdir: Path):
    lines = (outdir / "dispersion.csv").read_text().splitlines()
    rows = [line for line in lines if line and not line.startswith("#")][1:]
    samples = int(op.option("--samples"))
    if len(rows) != samples:
        raise CheckFailure(f"{len(rows)} dispersion rows for {samples} samples")
    if not all(math.isfinite(float(x)) for row in rows for x in row.split(",")):
        raise CheckFailure("non-finite dispersion value")


def _check_coeffs(op: Op, outdir: Path):
    payload = _strict_json(outdir / "coeffs.json")
    if len(payload["gamma"]) != int(op.option("--m")):
        raise CheckFailure(f"{len(payload['gamma'])} weights for m={op.option('--m')}")


def _check_modified(op: Op, outdir: Path):
    payload = _strict_json(outdir / "modified.json")
    if not payload["dimensional"]["terms"] or not payload["nondimensional"]["terms"]:
        raise CheckFailure("empty coefficient table")


_CHECKS = {
    "simulate": _check_simulate,
    "report": _check_report,
    "soliton": _check_soliton,
    "dispersion": _check_dispersion,
    "coeffs": _check_coeffs,
    "modified": _check_modified,
}


def check(op: Op, outdir: Path) -> str | None:
    """None when the artifacts of a successful operation pass, else the reason."""
    try:
        _CHECKS[op.command](op, outdir)
    except (CheckFailure, KeyError, ValueError, TypeError, OSError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def artifact_digest(outdir: Path) -> str:
    """sha256 over the artifact names and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def artifact_sizes(outdir: Path) -> tuple[int, int]:
    """(files, bytes) written into the operation's directory."""
    sizes = [path.stat().st_size for path in outdir.iterdir()]
    return len(sizes), sum(sizes)
