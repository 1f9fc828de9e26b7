"""The vectorized hot paths against the plain implementations they replaced.

Each reference below is the straightforward version of a hot path: a
roll-based stepper, the np.mod kink template, the per-node crossing loop
and the per-row snapshot formatter.  The fast paths keep the same
floating-point operations in the same order, so they must agree bit for
bit, signed zeros included.
"""

import numpy as np
import pytest

from drpkit import cli, sim
from drpkit.sim import _fallback
from drpkit.sim.measure import _rising_crossings
from drpkit.stencil import optimize_coefficients
from drpkit.wave.ansatz import KinkSolution


def reference_step_many(u, gamma, coef, n_steps):
    u = np.array(u, dtype=np.float64, copy=True)
    gamma = np.asarray(gamma, dtype=np.float64)
    if u.shape[0] <= 2 * gamma.shape[0]:
        raise ValueError("grid too small for the stencil half-width")
    for _ in range(n_steps):
        acc = np.zeros_like(u)
        for k in range(1, gamma.shape[0] + 1):
            acc += gamma[k - 1] * (np.roll(u, -k) - np.roll(u, k))
        u = u + coef * acc
    return u


def reference_kink_profile(grid, sol, shift=0.0):
    L = grid.length
    x_up = (grid.N // 4) * grid.h
    d = np.mod(grid.nodes() - shift - x_up + L / 2.0, L) - L / 2.0
    tri = np.where(np.abs(d) <= L / 4.0, d, np.sign(d) * (L / 2.0 - np.abs(d)))
    return sol.U1 * np.tanh(sol.C1 * tri) + sol.V0


def reference_rising_crossings(values, level):
    n = values.shape[0]
    nxt = np.roll(values, -1)
    out = []
    for i in range(n):
        lo, hi = values[i], nxt[i]
        if lo < level <= hi and hi > lo:
            out.append(i + (level - lo) / (hi - lo))
    return out


def reference_snapshot_csv(state, grid):
    fmt = cli._fmt
    lines = [f"# t={fmt(state.t)} N={grid.N} h={fmt(grid.h)}"]
    x = grid.nodes()
    for i in range(grid.N):
        lines.append(f"{i},{fmt(x[i])},{fmt(state.values[i])}")
    return "\n".join(lines) + "\n"


def assert_bit_identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestStepMany:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_matches_roll_reference(self, m):
        gamma = optimize_coefficients(m).gamma_array
        rng = np.random.default_rng(m)
        for n in (2 * m + 1, 2 * m + 2, 2 * m + 5, 64, 257):
            u = rng.standard_normal(n)
            for n_steps in (0, 1, 5, 17):
                for fn in (_fallback.step_many, sim.step_many):
                    assert_bit_identical(
                        fn(u, gamma, 0.3, n_steps), reference_step_many(u, gamma, 0.3, n_steps)
                    )

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_signed_zeros_match(self, m):
        # the sum starts from +0.0: u[i] = -0.0 with all differences -0.0
        # must come out as -0.0 + (+0.0) = +0.0, as in the reference
        gamma = optimize_coefficients(m).gamma_array
        u = np.zeros(4 * m + 3)
        u[1:3] = -0.0
        mixed = 0.0 * np.random.default_rng(5).standard_normal(33)
        for field in (u, mixed, -u):
            for n_steps in (1, 2, 3):
                assert_bit_identical(
                    _fallback.step_many(field, gamma, 0.1, n_steps),
                    reference_step_many(field, gamma, 0.1, n_steps),
                )


class TestKinkTemplate:
    @pytest.mark.parametrize("N", (5, 7, 300, 301, 1023, 1024, 4096))
    @pytest.mark.parametrize("h", (1.0, 0.37, 2.5))
    def test_matches_mod_reference(self, N, h):
        grid = sim.Grid1D(N, h)
        L = grid.length
        rng = np.random.default_rng(N)
        # the wrap edges the persistence fit reaches, random shifts in
        # [-h, L], and shifts outside it that take the np.mod fallback
        shifts = [-h, -0.0, 0.0, h / 2.0, L / 4.0, L / 2.0, L - h, L]
        shifts += list(rng.uniform(-h, L, 60))
        shifts += [-L - h, -3.0 * L, 2.0 * L, 5.5 * L]
        for sol in (
            KinkSolution(U1=-0.77, V0=0.3, C1=0.05, v=1.27, C=1.0),
            KinkSolution(U1=1.5, V0=-0.0, C1=-0.3, v=-0.5, C=-1.0),
        ):
            for shift in shifts:
                assert_bit_identical(
                    sim.mirrored_kink_profile(grid, sol, shift=shift),
                    reference_kink_profile(grid, sol, shift=shift),
                )


class TestRisingCrossings:
    @pytest.mark.parametrize(
        "values, level",
        [
            # a node exactly at the level, on the way up and at the top
            ([0.0, 0.5, 1.0, 0.5, 0.0, -0.5], 0.5),
            ([0.0, 0.5, 1.0, 0.5, 0.0, -0.5], 1.0),
            ([0.0, 0.5, 1.0, 0.5, 0.0, -0.5], 0.0),
            # flat segments at, below and above the level
            ([0.2, 0.2, 0.2, 0.7, 0.7, 0.2, 0.2], 0.2),
            ([0.2, 0.2, 0.2, 0.7, 0.7, 0.2, 0.2], 0.7),
            ([0.2, 0.2, 0.2, 0.7, 0.7, 0.2, 0.2], 0.45),
            # the rise across the periodic seam, last node to first
            ([1.0, 0.9, 0.5, 0.1, -0.3], 0.0),
            # constant field, and a level the field never reaches
            ([0.3] * 8, 0.3),
            ([0.0, 1.0, 0.0, 1.0], 2.0),
        ],
    )
    def test_matches_loop_reference(self, values, level):
        values = np.asarray(values, dtype=float)
        got = _rising_crossings(values, level)
        want = reference_rising_crossings(values, level)
        assert [repr(float(x)) for x in got] == [repr(float(x)) for x in want]

    def test_random_fields(self):
        rng = np.random.default_rng(3)
        for n in (4, 31, 256):
            values = np.round(rng.standard_normal(n), 1)
            for level in (-0.5, 0.0, 0.1, float(values[0])):
                got = _rising_crossings(values, level)
                want = reference_rising_crossings(values, level)
                assert [repr(float(x)) for x in got] == [repr(float(x)) for x in want]


class TestSnapshotCsv:
    @pytest.mark.parametrize("N, h", [(4, 1.0), (33, 0.37), (300, 2.5), (1024, 1.0 / 3.0)])
    def test_matches_per_row_reference(self, N, h):
        grid = sim.Grid1D(N, h)
        rng = np.random.default_rng(N)
        values = rng.standard_normal(N) * 10.0 ** rng.integers(-300, 300, N)
        values[:4] = [-0.0, 0.0, 5e-324, -1.7976931348623157e308]
        state = sim.FieldState(values=values, t=0.1 * 7, step_count=7)
        prefixes = cli._row_prefixes(grid)
        assert cli._snapshot_csv(state, grid, prefixes) == reference_snapshot_csv(state, grid)

