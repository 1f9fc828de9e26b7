"""The failure contract, fuzzed: any command with options drawn from edge values.

Whatever the input, the CLI exits 0, 2 or 3.  A failure (2 or 3) prints one
``drpkit:`` error line, as the last line of stderr, nothing on stdout, and
writes no file.  A success prints no NaN or infinity, and every file it writes
is free of them; its JSON parses strictly and validates against the shipped
schema of the command, where there is one.

Commands and options come from ``cli._COMMANDS`` and ``cli._OPTIONS``, so a
new option is fuzzed without a change here.  Each drawn option goes on the
command line or into a config file.  Counts are drawn small or above
``MAX_COUNT`` only, so that no example runs a large grid or a long run.
"""

import json
import re
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

from drpkit import cli

INTEGERS = (-1, 0, 1, 2, 3, 4, cli.MAX_COUNT + 1, 10**14)
INF = float("inf")
FLOATS = (0.0, -0.0, 5e-324, 1e300, 1e-300, sys.float_info.max, INF, -INF, float("nan"),
          *map(float, INTEGERS))
TEXTS = ("out", "a/b")
PATH_FLAGS = {"json": "f.json", "csv": "d.csv"}
SCHEMAS = {"simulate": "simulate.schema.json", "report": "report.schema.json"}
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def values(option):
    kind = cli._OPTIONS[option][0]
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if kind is int:
        return st.sampled_from(INTEGERS).map(str)
    if kind is float:
        return st.sampled_from(FLOATS).map(repr)
    return st.sampled_from(TEXTS)


@st.composite
def invocations(draw):
    """(argv, config-file text or None) of one command."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    command = cli._COMMANDS[name]
    options = draw(st.lists(st.sampled_from(sorted(command.defaults)), unique=True, max_size=5))
    argv, keys = [name], []
    for option in options:
        value = draw(values(option))
        if draw(st.booleans()):
            argv += [cli._flag(option), value]
        else:
            keys.append(f"{option} = {value}")
    for flag in sorted(command.flags):
        if draw(st.booleans()):
            argv.append(cli._flag(flag))
            if flag in PATH_FLAGS:
                argv.append(PATH_FLAGS[flag])
    return argv, ("[drpkit]\n" + "\n".join(keys) + "\n") if keys else None


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def load_schema(name):
    return json.loads(resources.files("drpkit").joinpath(f"schemas/{name}").read_text())


def check_contract(run_in, invocation):
    argv, config = invocation
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp) / "run"
        workdir.mkdir()
        if config is not None:
            (Path(tmp) / "run.ini").write_text(config)
            argv = [*argv, "--config", str(Path(tmp) / "run.ini")]
        code, out, err = run_in(workdir, argv)
        context = f"{argv} {config!r}\nstdout: {out}\nstderr: {err}"
        assert code in (0, 2, 3), context
        lines = err.splitlines()
        assert all(line.startswith("drpkit: ") for line in lines), context
        written = sorted(p for p in workdir.rglob("*") if p.is_file())
        if code:
            errors = [line for line in lines if not line.startswith("drpkit: warning: ")]
            assert len(errors) == 1 and lines[-1] == errors[0], context
            assert out == "", context
            assert not written, context
            return
        assert not NON_FINITE.search(out), context
        for path in written:
            text = path.read_text()
            assert not NON_FINITE.search(text), f"{path.name}: {context}"
            if path.suffix == ".json":
                payload = json.loads(text, parse_constant=reject_constant)
                schema = SCHEMAS.get(argv[0])
                if schema is not None:
                    jsonschema.validate(payload, load_schema(schema))


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocation=invocations())
def test_any_invocation_keeps_the_failure_contract(cli_in_process, invocation):
    check_contract(cli_in_process, invocation)
