"""Command-line front end emitting machine-readable artifacts.

Subcommands: ``coeffs``, ``dispersion``, ``modified``, ``soliton``,
``simulate``, ``report``.  Options may come from a key/value config file
(INI, section ``[drpkit]``, keys named as the options); flags override file
values, each command's defaults fill the rest, and the effective
configuration is echoed into every JSON artifact.  Exit codes: 0 success,
2 configuration error, 3 numerical failure.  Relative output paths land in
$DRPKIT_OUTPUT_DIR when it is set.

All artifacts are deterministic: floats are written with full round-trip
precision as repr writes them (every artifact, CSV and JSON, takes repr's
text from orjson through one rule for the magnitude bands where orjson lays
a float out differently), JSON keys are sorted, and nothing records
wall-clock time, so fixed configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import re
import sys
import warnings
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import __version__, sim, wave
from .errors import (
    BlowUpError,
    CoefficientUnderflowError,
    ConfigError,
    DrpkitError,
    LostFrontError,
    NonFiniteResultError,
    NormGuardError,
    PowerOverflowError,
    SingularSystemError,
)
from .modeq import (
    DifferentialApproximation,
    SchemeParams,
    discrete_symbol,
    nondimensionalize,
    taylor_expand_scheme,
)
from .stencil import (
    MAX_HALF_WIDTH,
    dispersion_samples,
    effective_wavenumber,
    integrated_error,
    optimize_coefficients,
)

_CONFIG_SECTION = "drpkit"
# the options that set each quantity whose power overflows or coefficient underflows
_SET_BY = {
    "tau": "tau = sigma h / c, set by --sigma or --tau, --h and --c",
    "h": "set by --h",
    "v": "v is the kink speed, set by --sigma or --tau, --mu and --re-h",
}
_SET_BY["sigma"] = _SET_BY["tau"]  # sigma = c tau / h, set by the same options
_OUTPUT_DIR_ENV = "DRPKIT_OUTPUT_DIR"
# the largest count of samples, grid nodes or steps a command accepts: 2**24
# float64 values take 128 MiB per array, and a larger count is a typo, not a
# desk-scale run
MAX_COUNT = 2**24
# a negative float literal, which argparse must read as a value
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
)


def _fmt(value: float) -> str:
    """Full round-trip decimal rendering of a float."""
    return repr(float(value))


def _resolve_output(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get(_OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _out_path(raw: str) -> Path:
    path = _resolve_output(raw)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _out_dir(raw: str) -> Path:
    path = _resolve_output(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_text(path: Path, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _positional_as_repr(text: str) -> str:
    sign, _, digits = text.partition("0.0000")
    return f"{sign}{digits[0]}.{digits[1:]}e-05" if digits[1:] else f"{sign}{digits}e-05"


#: The magnitude bands [low, high) in which orjson lays out a float's
#: shortest round-trip digits unlike ``repr``, each with the rewrite of its
#: text to repr's: positionally (``0.0000ddd``), a one-digit negative
#: exponent without its leading zero (``e-7``), and a positive exponent
#: without its sign (``e16``).  Zeros of both signs, [1e-4, 1e16) and
#: everything below 1e-9 orjson writes as repr does.  The CSV and the JSON
#: artifacts both read this one table.
_RELAID_BANDS = (
    (1e-5, 1e-4, _positional_as_repr),
    (1e-9, 1e-5, lambda text: text.replace("e-", "e-0")),
    (1e16, math.inf, lambda text: text.replace("e", "e+")),
)


def _gather_floats(node, out: list):
    """Append every float under a dict, list or tuple to ``out``, NumPy float64s included."""
    for item in node.values() if isinstance(node, dict) else node:
        if isinstance(item, float):
            out.append(item)
        elif isinstance(item, (dict, list, tuple)):
            _gather_floats(item, out)


#: A number token of orjson's indented text that may lie in a band of
#: ``_RELAID_BANDS``, with the space before it: it ends its line, and is
#: written with an exponent or with four zeros after the point.
_RELAID_TOKEN = re.compile(r" -?(?:0\.0000\d+|\d[\d.]*e-?\d+)(?=,?\n)")


def _json_text(payload: dict) -> str:
    """The artifact text of a payload; NonFiniteResultError if it holds NaN or an infinity.

    The text is ``json.dumps(payload, indent=2, sort_keys=True,
    allow_nan=False)`` and a newline, rendered by orjson.  orjson would
    write NaN and the infinities as ``null``, so every float is checked
    first.  Its number tokens then differ from repr's only in the bands of
    ``_RELAID_BANDS``; in the indented text each number follows a space and
    ends a line, and no string holds a raw newline, so one pass over the
    text replaces each such token whole, looked up among the texts of the
    payload's own floats in those bands.  The two escape every ASCII
    character alike, but json.dumps escapes DEL and all non-ASCII
    characters, which orjson writes as they are: they agree because every
    string a payload holds is ASCII below DEL (keys, option choices, the
    backend name, and the branch and summary texts the solver builds from
    symbol names and ``repr``).  orjson refuses integers beyond 64 bits,
    which a ``--seed`` may be; a payload it refuses is rendered by
    json.dumps itself.
    """
    # imported here, so commands that write no artifact do not pay for it
    import orjson

    floats: list = []
    _gather_floats(payload, floats)
    values = np.array(floats, dtype=np.float64)
    if not np.isfinite(values).all():
        raise NonFiniteResultError("non-finite number in the result; nothing written")
    try:
        text = orjson.dumps(
            payload,
            option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY,
        ).decode()
    except orjson.JSONEncodeError:
        import json

        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    magnitude = np.abs(values)
    relaid = {}
    for low, high, as_repr in _RELAID_BANDS:
        band = values[(magnitude >= low) & (magnitude < high)]
        if band.size:
            tokens = orjson.dumps(band, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
            relaid.update((f" {token}", f" {as_repr(token)}") for token in tokens.split(","))
    if relaid:
        text = _RELAID_TOKEN.sub(lambda token: relaid.get(token[0], token[0]), text)
    return text + "\n"


def _write_json(path: Path, payload: dict):
    _write_text(path, _json_text(payload))


def _warn(message: str):
    print(f"drpkit: warning: {message}", file=sys.stderr)


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """warnings.showwarning that prints one line, without the source location."""
    _warn(str(message))


def _finite(name: str, value: float):
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")


def _positive(name: str, value: float):
    if not math.isfinite(value) or value <= 0.0:
        raise ConfigError(f"{name} must be finite and positive, got {value!r}")


def _inverse_width(name: str, value: float):
    """A normal float is required: a subnormal C1 overflows the kink algebra."""
    if not math.isfinite(value) or abs(value) < sys.float_info.min:
        raise ConfigError(
            f"{name} must be finite with magnitude at least {sys.float_info.min!r}, got {value!r}"
        )


def _at_least(least: int, most: int | None = MAX_COUNT):
    """The check of an integer in [least, most]."""
    floor = {0: "nonnegative", 1: "positive"}.get(least, f"at least {least}")

    def check(name: str, value: int):
        if value < least:
            raise ConfigError(f"{name} must be {floor}, got {value!r}")
        if most is not None and value > most:
            raise ConfigError(f"{name} must be at most {most}, got {value!r}")

    return check


# Each value option's type (or the values allowed), help and check.  Its flag
# is --name with - for _, its config key the name; a command reads the options
# in its _COMMANDS defaults.
_OPTIONS: dict[str, tuple[type | tuple[str, ...], str, Callable[[str, Any], None] | None]] = {
    "m": (int, "stencil half-width", _at_least(1, MAX_HALF_WIDTH)),
    "sigma": (float, "CFL number sigma = c tau / h", _positive),
    "tau": (float, "time step (default sigma h / c)", _positive),
    "h": (float, "mesh size", _positive),
    "c": (float, "advection constant", _positive),
    "mu": (float, "viscosity", _positive),
    "re_h": (float, "mesh Reynolds number", _positive),
    "C": (float, "integration constant", _finite),
    "C1": (float, "inverse kink width", _inverse_width),
    "V0": (float, "kink offset", _finite),
    "p": (int, "time truncation order", None),
    "q": (int, "space truncation order", None),
    "xi_max": (float, "the ODE residual is sampled on [-xi_max, xi_max]", _finite),
    "xi_samples": (int, "ODE residual samples", _at_least(0)),
    "samples": (int, "number of zeta samples", _at_least(2)),
    "N": (int, "grid nodes", _at_least(4)),
    "steps": (int, "time steps", _at_least(1)),
    "snap_every": (int, "snapshot stride", _at_least(1)),
    "init": (("kink", "gaussian", "constant", "mode", "random"), "initial condition", None),
    "amplitude": (float, "amplitude of a gaussian, mode or random init", _finite),
    "width": (float, "gaussian width (default N h / 12)", _positive),
    "center": (float, "gaussian center (default N h / 2)", _finite),
    "value": (float, "constant-init value", _finite),
    "mode_p": (int, "mode number for --init mode", None),
    "seed": (int, "RNG seed for --init random", _at_least(0, None)),
    "level": (float, "tracking level (default the kink's V0, half a gaussian's peak)", _finite),
    "outdir": (str, "output directory", None),
}


def _load_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    # imported here, so commands without --config do not pay for it
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys keep their case: C is not c
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path!r}: {str(exc).splitlines()[0]}") from exc
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    if not parser.has_section(_CONFIG_SECTION):
        raise ConfigError(f"config file {path!r} has no [{_CONFIG_SECTION}] section")
    values = dict(parser.items(_CONFIG_SECTION))
    unknown = ", ".join(repr(key) for key in values if key not in _OPTIONS)
    if unknown:
        raise ConfigError(f"config file {path!r}: no option is named {unknown}")
    return values


class _Options:
    """A command's option values, each checked as it is read.

    A value comes from the flag, else the config file, else the command's
    default in _COMMANDS, else the default the caller computed.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.defaults = _COMMANDS[args.command].defaults
        self.file_values = _load_config_file(args.config)

    def supplied(self, name: str) -> bool:
        return getattr(self.args, name) is not None or name in self.file_values

    def get(self, name: str, computed=None):
        kind, _, check = _OPTIONS[name]
        value = getattr(self.args, name)
        if value is None and name in self.file_values:
            raw = self.file_values[name]
            if isinstance(kind, tuple) and raw not in kind:
                raise ConfigError(f"config key {name!r}: {raw!r} is not one of {', '.join(kind)}")
            try:
                value = raw if isinstance(kind, tuple) else kind(raw)
            except ValueError as exc:
                raise ConfigError(f"config key {name!r}: cannot parse {raw!r}") from exc
        if value is None:
            value = self.defaults[name]
        if value is None:
            value = computed
        if value is not None and check is not None:
            check(name, value)
        return value


def _inject_kink(grid, sol) -> sim.FieldState:
    """The kink's initial state, which must not be constant.

    The state is the unshifted template of the persistence fit, whose shape
    errors are divided by its AC norm ||kink - V0||_2; a kink whose values
    all equal V0 (U1 = 0, or U1 lost under V0) has none.
    """
    initial = sim.inject_kink(grid, sol)
    if sim.grid.l2_norm(initial.values - sol.V0) == 0.0:
        raise ConfigError(f"the kink is constant (U1 = {sol.U1!r}); it has no shape to track")
    return initial


def _make_grid(N: int, h: float, coeffs) -> sim.Grid1D:
    if N <= 2 * coeffs.m:
        raise ConfigError(f"N={N} too small for half-width {coeffs.m}")
    return sim.Grid1D(N=N, h=h)


def _resolve_params(opts: _Options) -> SchemeParams:
    """SchemeParams from (sigma | tau) with h, c, mu, re_h.

    The command's default sigma applies when neither sigma nor tau is given;
    ``SchemeParams.from_cfl`` derives the rest.
    """
    h, c, mu, re_h = (opts.get(name) for name in ("h", "c", "mu", "re_h"))
    sigma = opts.get("sigma") if opts.supplied("sigma") or not opts.supplied("tau") else None
    try:
        return SchemeParams.from_cfl(sigma, mu, re_h, h=h, c=c, tau=opts.get("tau"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _table(build: Callable[..., DifferentialApproximation], *args) -> DifferentialApproximation:
    """The table ``build(*args)``.

    A bad order, or a coefficient that underflows to zero, is bad input.
    """
    try:
        return build(*args)
    except CoefficientUnderflowError as exc:
        raise ConfigError(f"{exc} ({_SET_BY[exc.quantity]})") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _table_json(da: DifferentialApproximation) -> dict:
    return {
        "truncation": list(da.truncation),
        "terms": [
            {"t_order": s, "x_order": r, "coefficient": da.terms[(s, r)]}
            for (s, r) in sorted(da.terms)
        ],
    }


def _require_finite_table(label: str, da: DifferentialApproximation):
    for (s, r), value in sorted(da.terms.items()):
        if not math.isfinite(value):
            name = DifferentialApproximation.term_name(s, r)
            raise NonFiniteResultError(f"{label} {name} coefficient is {value!r}; nothing printed")


def _print_table(label: str, da: DifferentialApproximation):
    print(f"{label} (p={da.truncation[0]}, q={da.truncation[1]}):")
    for (s, r) in sorted(da.terms):
        print(f"  {DifferentialApproximation.term_name(s, r):<10s} {_fmt(da.terms[(s, r)])}")


# ----------------------------------------------------------------- coeffs


def cmd_coeffs(args) -> int:
    m = _Options(args).get("m")
    coeffs = optimize_coefficients(m)
    error = integrated_error(coeffs)
    print(f"half-width m = {m}")
    for k, g in enumerate(coeffs.gamma, start=1):
        print(f"gamma_{k} = {_fmt(g)}")
    print(f"integrated_error = {_fmt(error)}")
    if args.json:
        payload = {
            "m": m,
            "gamma": list(coeffs.gamma),
            "E": error,
            "config": {"m": m},
        }
        _write_json(_out_path(args.json), payload)
    return 0


# ------------------------------------------------------------- dispersion


def cmd_dispersion(args) -> int:
    opts = _Options(args)
    m = opts.get("m")
    samples = opts.get("samples")
    coeffs = optimize_coefficients(m)
    table = dispersion_samples(coeffs, samples)
    lines = [f"# m={m} samples={samples}", "zeta,lambda_bar_h,error"]
    lines += map(",".join, zip(*map(_float_texts, table)))
    text = "\n".join(lines) + "\n"
    if args.csv:
        _write_text(_out_path(args.csv), text)
    else:
        sys.stdout.write(text)
    return 0


# --------------------------------------------------------------- modified


def cmd_modified(args) -> int:
    opts = _Options(args)
    m = opts.get("m")
    params = _resolve_params(opts)
    p = opts.get("p")
    q = opts.get("q")
    coeffs = optimize_coefficients(m)
    dimensional = _table(taylor_expand_scheme, coeffs, params, p, q)
    nondim = _table(nondimensionalize, coeffs, params)
    _require_finite_table("dimensional", dimensional)
    _require_finite_table("nondimensional", nondim)
    _print_table("dimensional", dimensional)
    _print_table("nondimensional", nondim)
    if args.json:
        payload = {
            "dimensional": _table_json(dimensional),
            "nondimensional": _table_json(nondim),
            "config": {**dataclasses.asdict(params), "m": m, "p": p, "q": q},
        }
        _write_json(_out_path(args.json), payload)
    return 0


# ---------------------------------------------------------------- soliton


def _soliton_payload(params, echo, coeffs, C, C1, V0, verify, xi_max, xi_samples,
                     nondim: DifferentialApproximation | None = None) -> dict:
    """The record ``soliton`` prints and ``report`` embeds.

    It needs only the nondimensional table, built here unless the caller
    has built it.
    """
    sol = wave.closed_form_kink(params, coeffs, C=C, C1=C1, V0=V0).canonical()
    if nondim is None:
        nondim = _table(nondimensionalize, coeffs, params)
    ode = wave.reduce_to_ode(nondim, params, v=sol.v, C=C)
    payload: dict = {
        "solution": {
            "v": sol.v, "U1": sol.U1, "V1": 0.0, "V0": sol.V0, "C1": sol.C1, "C": sol.C,
        },
        "config": {**echo, "m": coeffs.m, "C": C, "C1": C1, "V0": V0},
    }
    if verify:
        report = wave.verify_condensed_system(params, coeffs, C=C, C1=sol.C1, V0=sol.V0)
        ansatz = wave.HyperbolicAnsatz(U1=sol.U1, V1=0.0, V0=sol.V0, C1=sol.C1, v=sol.v)
        derived = wave.collect_system(wave.substitute_ansatz(ode, ansatz))
        derived_res = wave.evaluate_system(derived, report.values)
        xi = np.linspace(-xi_max, xi_max, xi_samples)
        # an overflowed kink gives a non-finite residual, which the strict
        # serialization reports as one error; NumPy need not warn about it too
        with np.errstate(over="ignore", invalid="ignore"):
            r = wave.residual(ode, sol, xi)
        payload["condensed_system"] = {
            "residuals": list(report.residuals),
            "max_abs": float(np.max(np.abs(report.residuals))),
            "ok": report.ok,
        }
        payload["derived_system"] = {
            "residuals": [float(x) for x in derived_res],
            "max_abs": float(np.max(np.abs(derived_res))),
        }
        payload["ode_residual"] = {
            "xi": [float(x) for x in xi],
            "r": [float(x) for x in r],
            "limit": -C,
        }
        derived_branches = wave.solve_system(derived)
        condensed_branches = wave.solve_system(report.system)
        payload["branches"] = {
            "derived": [b.to_json() for b in derived_branches],
            "condensed": [b.to_json() for b in condensed_branches],
            "summary": {
                "derived": wave.describe_solution_set(derived_branches),
                "condensed": wave.describe_solution_set(condensed_branches),
            },
        }
    return payload


def cmd_soliton(args) -> int:
    opts = _Options(args)
    m = opts.get("m")
    params = _resolve_params(opts)
    C, C1, V0, xi_max, xi_samples = (
        opts.get(name) for name in ("C", "C1", "V0", "xi_max", "xi_samples")
    )
    coeffs = optimize_coefficients(m)
    payload = _soliton_payload(
        params, dataclasses.asdict(params), coeffs, C, C1, V0, args.verify, xi_max, xi_samples
    )
    # serialized first, so a non-finite result is neither printed nor written
    text = _json_text(payload)
    sol = payload["solution"]
    print(f"kink speed v = {_fmt(sol['v'])}")
    print(f"amplitude U1 = {_fmt(sol['U1'])}")
    print(f"offset V0 = {_fmt(sol['V0'])}, inverse width C1 = {_fmt(sol['C1'])}")
    if args.verify:
        print(f"condensed-system residual max = {_fmt(payload['condensed_system']['max_abs'])}")
        print(f"derived-system residual max = {_fmt(payload['derived_system']['max_abs'])}")
    if args.json:
        _write_text(_out_path(args.json), text)
    return 0


# --------------------------------------------------------------- simulate


def _build_initial(opts, grid, params, coeffs):
    """Initial state plus (kink solution or None, tracking level or None, echo)."""
    init = opts.get("init")
    if init == "constant":
        value = opts.get("value")
        return sim.inject_constant(grid, value), None, None, {"init": init, "value": value}
    if init == "kink":
        C, C1, V0 = (opts.get(name) for name in ("C", "C1", "V0"))
        sol = wave.closed_form_kink(params, coeffs, C=C, C1=C1, V0=V0)
        level = opts.get("level", computed=sol.V0)
        echo = {"init": init, "C": C, "C1": C1, "V0": V0, "level": level}
        return _inject_kink(grid, sol), sol, level, echo
    if init == "gaussian":
        amplitude = opts.get("amplitude")
        width = opts.get("width", computed=grid.length / 12.0)
        center = opts.get("center", computed=grid.length / 2.0)
        level = opts.get("level", computed=amplitude / 2.0)
        echo = {"init": init, "amplitude": amplitude, "width": width,
                "center": center, "level": level}
        return sim.inject_gaussian(grid, amplitude, width, center), None, level, echo
    if init == "mode":
        p = opts.get("mode_p")
        amplitude = opts.get("amplitude")
        level = opts.get("level")
        echo = {"init": init, "mode_p": p, "amplitude": amplitude, "level": level}
        return sim.inject_mode(grid, p, amplitude), None, level, echo
    seed = opts.get("seed")  # init is random, the last of the choices
    amplitude = opts.get("amplitude")
    level = opts.get("level")
    echo = {"init": init, "seed": seed, "amplitude": amplitude, "level": level}
    return sim.inject_random(grid, seed, amplitude), None, level, echo


def _dominant_mode_speed(state, coeffs, params, grid) -> float:
    """Phase speed (x units per time) at the strongest nonzero Fourier mode."""
    spectrum = np.abs(np.fft.fft(state.values))
    half = grid.N // 2  # at least 2, since N >= 4
    p_star = 1 + int(np.argmax(spectrum[1 : half + 1]))
    zeta = 2.0 * math.pi * p_star / grid.N
    g = discrete_symbol(coeffs, params, zeta)
    return -float(np.angle(g)) * grid.h / (params.tau * zeta)


def _float_texts(values) -> list[str]:
    """``repr(float(v))`` of every finite element of ``values``, in order.

    orjson writes the same shortest round-trip digits as ``repr`` at a
    fraction of the cost; the texts in the bands of ``_RELAID_BANDS``, where
    its layout differs, are rewritten to repr's.  A NaN or an infinity would
    come out as ``null``.
    """
    # imported here, so commands that write no artifact do not pay for it
    import orjson

    values = np.ascontiguousarray(values, dtype=np.float64)
    if not values.size:
        return []
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    magnitude = np.abs(values)
    for low, high, as_repr in _RELAID_BANDS:
        for i in np.flatnonzero((magnitude >= low) & (magnitude < high)).tolist():
            texts[i] = as_repr(texts[i])
    return texts


def _row_prefixes(grid) -> list[str]:
    """A snapshot row buffer: the ``i,x,`` start of every row at the even slots.

    Each start follows the newline that ends the row before.  The odd slots
    take a snapshot's value texts; the starts are the same for each snapshot
    of a run.
    """
    rows = [""] * (2 * grid.N)
    rows[0::2] = [f"\n{i},{x}," for i, x in enumerate(_float_texts(grid.nodes()))]
    return rows


def _snapshot_csv(state, grid, rows: list[str]) -> str:
    rows[1::2] = _float_texts(state.values)
    return f"# t={_fmt(state.t)} N={grid.N} h={_fmt(grid.h)}" + "".join(rows) + "\n"


def _run_measurements(history, grid, predicted, level, sol) -> dict:
    """The measurement block of a run: speeds, the kink's shape errors and the norms.

    The front is tracked at ``level`` (no measured speed without one, or
    when the front is lost), and the shape errors are fitted against the
    kink ``sol`` (none for other initial states).
    """
    measured = None
    if level is not None:
        try:
            measured = sim.measure_speed(history, level) * grid.h
        except (LostFrontError, ValueError):
            measured = None
    shape_series = None
    if sol is not None:
        persistence = sim.measure_persistence(history, grid, sol)
        shape_series = [
            {"t": t, "shift": s, "error": e}
            for t, s, e in zip(persistence.times, persistence.shifts, persistence.shape_errors)
        ]
    return {
        "predicted_v": predicted,
        "measured_v": measured,
        "shape_error_series": shape_series,
        "norm_series": [{"t": snap.t, "l2": snap.l2_norm()} for snap in history],
    }


def cmd_simulate(args) -> int:
    opts = _Options(args)
    m = opts.get("m")
    params = _resolve_params(opts)
    N, steps, snap_every = (opts.get(name) for name in ("N", "steps", "snap_every"))
    coeffs = optimize_coefficients(m)
    grid = _make_grid(N, params.h, coeffs)
    initial, sol, level, init_echo = _build_initial(opts, grid, params, coeffs)

    predicted = None
    if sol is not None:
        predicted = params.U0 * sol.v
        budget = sim.horizon_steps(grid, predicted, params)
        if steps > budget:
            _warn(f"{steps} steps exceed the front-interaction horizon ({budget:.0f} steps)")
    elif init_echo["init"] in ("gaussian", "mode", "random"):
        predicted = _dominant_mode_speed(initial, coeffs, params, grid)

    history = sim.run(
        initial, coeffs, params, n_steps=steps, snap_every=snap_every,
        use_oracle=args.oracle,
    )

    payload = {
        **_run_measurements(history, grid, predicted, level, sol),
        "config": {
            **dataclasses.asdict(params),
            **init_echo,
            "m": m,
            "N": N,
            "steps": steps,
            "snap_every": snap_every,
            "oracle": bool(args.oracle),
            "backend": sim.KERNEL_BACKEND,
        },
    }
    # serialized first, so a non-finite result writes no snapshot either
    text = _json_text(payload)
    base = _out_dir(opts.get("outdir"))
    rows = _row_prefixes(grid)
    for snap in history:
        _write_text(base / f"snapshot_{snap.step_count:06d}.csv", _snapshot_csv(snap, grid, rows))
    _write_text(base / "measurements.json", text)
    print(f"wrote {len(history)} snapshots and measurements.json to {base}")
    if predicted is not None:
        print(f"predicted_v = {_fmt(predicted)}")
    if payload["measured_v"] is not None:
        print(f"measured_v = {_fmt(payload['measured_v'])}")
    return 0


# ----------------------------------------------------------------- report


def cmd_report(args) -> int:
    opts = _Options(args)
    m = opts.get("m")
    params = _resolve_params(opts)
    C, C1, V0, samples = (opts.get(name) for name in ("C", "C1", "V0", "samples"))
    echo = dataclasses.asdict(params)
    coeffs = optimize_coefficients(m)

    errors = dispersion_samples(coeffs, samples).error
    band_edge = effective_wavenumber(coeffs, math.pi / 2.0)

    dimensional = _table(taylor_expand_scheme, coeffs, params, 2, 1)
    nondim = _table(nondimensionalize, coeffs, params)

    soliton = _soliton_payload(
        params, echo, coeffs, C, C1, V0, verify=True, xi_max=10.0, xi_samples=41, nondim=nondim
    )
    sol_block = {
        "solution": soliton["solution"],
        "condensed_residuals": soliton["condensed_system"]["residuals"],
        "derived_residuals": soliton["derived_system"]["residuals"],
        "ode_residual_at_zero": soliton["ode_residual"]["r"][len(soliton["ode_residual"]["r"]) // 2],
        "ode_residual_limit": soliton["ode_residual"]["limit"],
        "branch_summary": soliton["branches"]["summary"],
    }

    simulation = None
    if not args.no_sim:
        # a small kink run, at sigma = 0.1 unless --sigma or --tau is given, and C1 = 0.25
        opts.defaults = {**opts.defaults, "sigma": 0.1}
        sim_params = _resolve_params(opts)
        N, steps, snap_every = (opts.get(name) for name in ("N", "steps", "snap_every"))
        grid = _make_grid(N, sim_params.h, coeffs)
        kink = wave.closed_form_kink(sim_params, coeffs, C=C, C1=0.25, V0=V0)
        initial = _inject_kink(grid, kink)
        history = sim.run(initial, coeffs, sim_params, n_steps=steps, snap_every=snap_every)
        simulation = {
            **_run_measurements(history, grid, sim_params.U0 * kink.v, kink.V0, kink),
            "config": {"N": N, "steps": steps, "snap_every": snap_every,
                       "sigma": sim_params.sigma, "tau": sim_params.tau},
        }

    payload = {
        "config": {**echo, "m": m, "C": C, "C1": C1, "V0": V0, "samples": samples},
        "coefficients": {
            "m": m,
            "gamma": list(coeffs.gamma),
            "integrated_error": integrated_error(coeffs),
        },
        "dispersion": {
            "samples": samples,
            "max_abs_error": float(np.max(np.abs(errors))),
            "band_edge_lambda_bar_h": float(band_edge),
        },
        "modified_equation": {
            "dimensional": _table_json(dimensional),
            "nondimensional": _table_json(nondim),
        },
        "soliton": sol_block,
        "simulation": simulation,
    }
    path = _out_path(args.json or "report.json")
    _write_json(path, payload)
    print(f"wrote {path}")
    return 0


# ------------------------------------------------------------------ main


class _Command(NamedTuple):
    func: Callable[[argparse.Namespace], int]
    help: str
    defaults: dict[str, Any]  # each option the command reads; None if unset or computed
    flags: dict[str, str]  # the flag-only options and their help


_PARAMS = {"sigma": 1.0, "tau": None, "h": 1.0, "c": 1.0, "mu": 1.0, "re_h": 1.0}
_KINK = {"C": 1.0, "C1": 1.0, "V0": 0.0}
_SWITCHES = ("verify", "oracle", "no_sim")

_COMMANDS = {
    "coeffs": _Command(
        cmd_coeffs, "optimal stencil weights and their integrated error",
        {"m": 1}, {"json": "write {m, gamma, E} JSON here"},
    ),
    "dispersion": _Command(
        cmd_dispersion, "CSV of (zeta, lambda_bar_h, error) over the band",
        {"m": 1, "samples": 101}, {"csv": "output CSV path (default stdout)"},
    ),
    "modified": _Command(
        cmd_modified, "modified-equation tables, dimensional and nondimensional",
        {"m": 1, **_PARAMS, "p": 2, "q": 1}, {"json": "write both tables as JSON here"},
    ),
    "soliton": _Command(
        cmd_soliton, "closed-form kink and its residual diagnostics",
        {"m": 1, **_PARAMS, **_KINK, "xi_max": 10.0, "xi_samples": 41},
        {"verify": "emit both system-residual blocks", "json": "write the JSON record here"},
    ),
    "simulate": _Command(
        cmd_simulate, "run the scheme, write snapshots and measurements",
        {"m": 1, **_PARAMS, "sigma": 0.1, **_KINK, "C1": 0.25, "N": 256, "steps": 200,
         "snap_every": 10, "init": "kink", "amplitude": 1.0, "width": None, "center": None,
         "value": 1.0, "mode_p": 1, "seed": 0, "level": None, "outdir": "."},
        {"oracle": "use the spectral oracle instead of stepping"},
    ),
    "report": _Command(
        cmd_report, "single JSON bundling the whole pipeline",
        {"m": 1, **_PARAMS, **_KINK, "samples": 101, "N": 128, "steps": 100, "snap_every": 10},
        {"no_sim": "skip the simulation block", "json": "output path (default report.json)"},
    ),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors are one ``drpkit:`` line with exit code 2.

    Negative decimal numbers, with or without an exponent, and -inf and -nan
    are option values, not option names.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.exit(2, f"drpkit: configuration error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and shared after it.

    Parsing keeps no state in the parser, so each ``main`` call of a process
    reuses it; callers must not change it.
    """
    parser = _Parser(
        prog="drpkit",
        description="Band-optimized stencils, modified equations, spurious-wave diagnostics",
    )
    parser.add_argument("--version", action="version", version=f"drpkit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        sub.add_argument("--config", help=f"INI config file with a [{_CONFIG_SECTION}] section")
        # no argparse default: an option not given falls through to the file
        for option, default in command.defaults.items():
            kind, text, _ = _OPTIONS[option]
            choices = kind if isinstance(kind, tuple) else None
            sub.add_argument(
                _flag(option), type=None if choices else kind, choices=choices,
                help=text if default is None else f"{text} (default {default})",
            )
        for flag, text in command.flags.items():
            sub.add_argument(
                _flag(flag), action="store_true" if flag in _SWITCHES else "store", help=text
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return _COMMANDS[args.command].func(args)
        except (ConfigError, ZeroDivisionError) as exc:
            # a vanishing denominator, which the raising check names with its inputs
            print(f"drpkit: configuration error: {exc}", file=sys.stderr)
            return 2
        except PowerOverflowError as exc:
            source = _SET_BY.get(exc.quantity, "set by the options")
            print(f"drpkit: numerical failure: {exc} ({source})", file=sys.stderr)
            return 3
        except (BlowUpError, NormGuardError, NonFiniteResultError, OverflowError,
                SingularSystemError) as exc:
            print(f"drpkit: numerical failure: {exc}", file=sys.stderr)
            return 3
        except DrpkitError as exc:
            print(f"drpkit: error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
