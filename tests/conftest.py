import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import drpkit
from drpkit import cli, wave
from drpkit.modeq import SchemeParams, nondimensionalize
from drpkit.stencil import optimize_coefficients


@pytest.fixture(scope="session")
def m1_coeffs():
    return optimize_coefficients(1)


@pytest.fixture(scope="session")
def m3_coeffs():
    return optimize_coefficients(3)


@pytest.fixture()
def unit_params():
    """sigma = mu = Re_h = 1 with h = h0 = 1."""
    return SchemeParams.from_cfl(sigma=1.0, mu=1.0, re_h=1.0)


@pytest.fixture(scope="session")
def child_env():
    """Build the environment for a child ``python -m drpkit.cli`` process.

    The import root of the ``drpkit`` this process loaded goes first on
    ``PYTHONPATH`` as an absolute path, so a child started in any working
    directory runs the same code; existing entries follow it.  Keyword
    arguments set variables, and a value of ``None`` removes one.
    """
    root = str(Path(drpkit.__file__).resolve().parents[1])

    def build(**overrides):
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = os.pathsep.join([root, existing]) if existing else root
        for name, value in overrides.items():
            if value is None:
                env.pop(name, None)
            else:
                env[name] = value
        return env

    return build


@contextlib.contextmanager
def file_descriptors_to(sink):
    """Send what native code writes to file descriptors 1 and 2 into ``sink``."""
    saved = [os.dup(1), os.dup(2)]
    os.dup2(sink.fileno(), 1)
    os.dup2(sink.fileno(), 2)
    try:
        yield
    finally:
        for fd, copy in zip((1, 2), saved):
            os.dup2(copy, fd)
            os.close(copy)


def run_in(workdir, argv):
    """Exit code, stdout and stderr of ``cli.main(argv)`` run in ``workdir``.

    The call runs as a child with DRPKIT_OUTPUT_DIR unset would; the
    environment is restored afterwards.  What native code writes to the file
    descriptors (LAPACK's messages, for one) is appended to stderr, where a
    child process would show it.
    """
    out, err = io.StringIO(), io.StringIO()
    old = Path.cwd()
    os.chdir(workdir)
    try:
        with mock.patch.dict(os.environ), tempfile.TemporaryFile() as native, \
                file_descriptors_to(native), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            os.environ.pop("DRPKIT_OUTPUT_DIR", None)
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse, which also prints the line
                code = exc.code
            native.seek(0)
            err.write(native.read().decode(errors="replace"))
    finally:
        os.chdir(old)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def cli_in_process():
    """``run_in``: one ``cli.main`` call in a directory, its output captured as a child's."""
    return run_in


@pytest.fixture(scope="session")
def system_draws():
    """Seeded draws of both coefficient-system encodings, for the solver checks.

    One draw per half-width m = 1..9, with sigma, mu, Re_h, C1 (either
    sign) and the kink's C drawn at random.  The ``fixed`` pin of the
    integration constant cycles through none, C = 0 and a drawn C.
    """
    rng = np.random.default_rng(20261018)
    draws = []
    for m in range(1, 10):
        params = SchemeParams.from_cfl(
            sigma=float(rng.uniform(0.1, 2.0)),
            mu=float(rng.uniform(0.5, 2.0)),
            re_h=float(rng.uniform(0.5, 4.0)),
        )
        coeffs = optimize_coefficients(m)
        C1 = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0))
        C = float(rng.uniform(-2.0, 2.0))
        fixed = (None, {"C": 0.0}, {"C": float(rng.uniform(-2.0, 2.0))})[m % 3]
        sol = wave.closed_form_kink(params, coeffs, C=C, C1=C1)
        table = nondimensionalize(coeffs, params)
        ode = wave.reduce_to_ode(table, params, v=sol.v, C=C)
        ansatz = wave.HyperbolicAnsatz(U1=sol.U1, V1=0.0, V0=0.0, C1=C1, v=sol.v)
        derived = wave.collect_system(wave.substitute_ansatz(ode, ansatz))
        condensed = wave.condensed_coefficient_system(params, coeffs, C1)
        draws.append({"m": m, "fixed": fixed, "systems": (derived, condensed)})
    return draws
