"""The fast hot paths against the plain implementations they replaced.

Each reference below is the straightforward version of a hot path: a
roll-based stepper, the np.mod kink template, the per-node crossing loop,
the per-row snapshot and dispersion formatters, the JSON text of
``json.dumps``, the persistence fit that searched one snapshot at a time
with one template per evaluation, the Poly arithmetic that built a Poly
object per term (and the loops that products by a constant, synthetic
division and substitution ran before their fast paths), and the soliton
payload that solved each coefficient system twice.  The fast paths keep the
same floating-point operations in the same order, so they must agree bit
for bit, signed zeros included.
"""

import json
import math
import operator
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from drpkit import cli, sim, wave
from drpkit.modeq import SchemeParams, nondimensionalize
from drpkit.sim import measure
from drpkit.sim.measure import _rising_crossings
from drpkit.stencil import dispersion_samples, effective_wavenumber, optimize_coefficients
from drpkit.wave.ansatz import KinkSolution
from drpkit.errors import NonFiniteResultError
from drpkit.wave.poly import SYMBOLS, Poly, _substitute_number


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


def reference_measure_persistence(history, grid, sol):
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    template = reference_kink_profile(grid, sol) - sol.V0
    ac_norm = float(np.sqrt(np.sum(template**2)))
    spectrum_t = np.conj(np.fft.fft(template))

    def shape_error(values, shift):
        residual = values - reference_kink_profile(grid, sol, shift=shift)
        return float(np.sqrt(np.sum(np.square(residual)))) / ac_norm

    times, shifts, errors = [], [], []
    for snap in history:
        values = np.asarray(snap.values)
        centered = values - np.mean(values)
        corr = np.fft.ifft(np.fft.fft(centered) * spectrum_t).real
        s0 = int(np.argmax(corr)) * grid.h
        a, b = s0 - grid.h, s0 + grid.h
        c = b - golden * (b - a)
        d = a + golden * (b - a)
        fc = shape_error(values, c)
        fd = shape_error(values, d)
        for _ in range(48):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - golden * (b - a)
                fc = shape_error(values, c)
            else:
                a, c, fc = c, d, fd
                d = a + golden * (b - a)
                fd = shape_error(values, d)
        best_shift = (a + b) / 2.0
        times.append(float(snap.t))
        shifts.append(float(best_shift % grid.length))
        errors.append(shape_error(values, best_shift))
    return tuple(times), tuple(shifts), tuple(errors)


def layout_boundaries():
    """Where orjson's layout and repr's part, with both neighbours, of both signs."""
    edges = np.array([1e-9, 1e-5, 1e-4, 1e16])
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    values = np.concatenate([near, -near, [5e-324, -5e-324, 1.7976931348623157e308, 0.0, -0.0]])
    return values.tolist()


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
                assert_bit_identical(
                    sim.step_many(u, gamma, 0.3, n_steps),
                    reference_step_many(u, gamma, 0.3, n_steps),
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
                    sim.step_many(field, gamma, 0.1, n_steps),
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

    @pytest.mark.parametrize("N, h", [(5, 1.0), (301, 0.37), (1024, 2.5)])
    def test_block_rows_match_one_row_reference(self, N, h):
        # a block with one row outside [-L, 2L) takes np.mod whole; the rows
        # inside that range must come out as the in-place wrap gives them
        grid = sim.Grid1D(N, h)
        L = grid.length
        sol = KinkSolution(U1=-0.77, V0=-0.0, C1=0.05, v=1.27, C=1.0)
        inside = [-h, -0.0, 0.0, h / 3.0, L / 2.0, L - h, L]
        for shifts in (inside, inside + [-3.0 * L], [5.5 * L] + inside, [L]):
            block = sim.grid.mirrored_kink_profiles(grid, sol, shifts)
            assert block.shape == (len(shifts), N)
            for row, shift in zip(block, shifts):
                assert_bit_identical(row, reference_kink_profile(grid, sol, shift=shift))
            # the same nodes gathered per row, as the windowed fit takes them
            columns = np.random.default_rng(N).integers(0, N, (len(shifts), 7))
            window = sim.grid.mirrored_kink_profiles(grid, sol, shifts, grid.nodes()[columns])
            assert_bit_identical(window, np.take_along_axis(block, columns, axis=1))


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

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, -0.0, 0.0, 1.0, -0.0, -0.0, 0.0, 1.0],
            [5e-324, -5e-324, 2.2250738585072e-308, 5e-324, -0.0, 0.0, 5e-324, 1e-310],
            [0.25] * 9,
            [-0.0] * 6,
            list(np.arange(37) * 0.1 - 1.7),
            layout_boundaries(),
        ],
        ids=["signed-zeros", "subnormals", "all-equal", "all-negative-zero", "all-distinct",
             "layout-boundaries"],
    )
    def test_repeated_values_match_per_row_reference(self, values):
        grid = sim.Grid1D(len(values), 0.5)
        state = sim.FieldState(values=values, t=2.5, step_count=3)
        prefixes = cli._row_prefixes(grid)
        assert cli._snapshot_csv(state, grid, prefixes) == reference_snapshot_csv(state, grid)

    def test_kink_snapshots_match_per_row_reference(self):
        params = SchemeParams.from_cfl(sigma=0.1, mu=1.0, re_h=1.0)
        coeffs = optimize_coefficients(3)
        sol = wave.closed_form_kink(params, coeffs, C=1.0, C1=0.05, V0=0.0)
        grid = sim.Grid1D(2048, 1.0)
        history = sim.run(sim.inject_kink(grid, sol), coeffs, params, n_steps=60, snap_every=20)
        prefixes = cli._row_prefixes(grid)
        for snap in history:
            # plateaus and the mirrored front repeat most values
            assert len(np.unique(snap.values)) < grid.N
            assert cli._snapshot_csv(snap, grid, prefixes) == reference_snapshot_csv(snap, grid)


class TestFloatTexts:
    """The orjson renderer gives repr's text for every finite float."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 64),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(np.array(layout_boundaries()))
    def test_matches_repr(self, arr):
        assert cli._float_texts(arr) == list(map(repr, arr.tolist()))

    def test_strided_input_matches_repr(self):
        arr = np.array(layout_boundaries() * 3)
        assert cli._float_texts(arr[::2]) == list(map(repr, arr[::2].tolist()))


def reference_json_text(payload):
    """The JSON artifact text as json.dumps writes it."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


_LARGEST = 1.7976931348623157e308
# every layout band edge and its neighbours, the subnormal and largest floats
# with theirs, and both zeros
JSON_EDGE_FLOATS = layout_boundaries() + [1e-323, -1e-323, float(np.nextafter(_LARGEST, 0.0)),
                                          -_LARGEST]
JSON_FLOATS = st.one_of(st.sampled_from(JSON_EDGE_FLOATS),
                        st.floats(allow_nan=False, allow_infinity=False))
# ASCII below DEL, control characters and quotes included
JSON_STRINGS = st.one_of(
    st.text(st.characters(max_codepoint=126), max_size=12),
    st.sampled_from(["v != 1e-07", "0.00001,", " 1e-7,\n", "1e16", "-0.0", " 0.00003\n"]),
)
JSON_KEYS = st.one_of(st.sampled_from(["C", "c", "V0", "v0", "v", "V", "U1"]), JSON_STRINGS)
JSON_LEAVES = st.one_of(
    # orjson's 64-bit range, and integers beyond it, which json.dumps also writes
    st.none(), st.booleans(), st.integers(-(2**63), 2**64 - 1),
    st.sampled_from([2**64, -(2**63) - 1, 10**30, -(10**30)]),
    JSON_FLOATS, JSON_FLOATS.map(np.float64), JSON_STRINGS,
)
JSON_PAYLOADS = st.dictionaries(JSON_KEYS, st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(JSON_KEYS, children, max_size=5),
    ),
    max_leaves=24,
), max_size=6)


class TestJsonText:
    """The orjson text of a payload is json.dumps's, and it refuses what json.dumps refuses."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(JSON_PAYLOADS)
    @example({"x": JSON_EDGE_FLOATS, "C": [np.float64(x) for x in JSON_EDGE_FLOATS],
              "c": {"v != 1e-07": "0.00001,", "e": [], "d": {}, "t": (1e-7, 1e16)}})
    def test_matches_json_dumps(self, payload):
        assert cli._json_text(payload) == reference_json_text(payload)

    def test_many_distinct_band_floats(self):
        # one pass over the text, whatever the number of floats to relay out
        rng = np.random.default_rng(11)
        exponents = rng.uniform(-9.0, -4.0, 200_000)
        band = (rng.choice([-1.0, 1.0], exponents.size) * 10.0**exponents).tolist()
        payload = {"xi": band, "big": (10.0 ** rng.uniform(16.0, 300.0, 1000)).tolist(),
                   "rows": [{"x": x, "y": np.float64(-x)} for x in band[:5000]]}
        assert cli._json_text(payload) == reference_json_text(payload)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        JSON_PAYLOADS,
        st.sampled_from([math.nan, math.inf, -math.inf,
                         np.float64("nan"), np.float64("inf"), np.float64("-inf")]),
        st.lists(st.sampled_from([list, tuple, dict]), max_size=4),
        JSON_KEYS,
    )
    def test_non_finite_at_any_depth_raises(self, payload, bad, wrappers, key):
        node = bad
        for wrap in wrappers:
            node = {"k": node} if wrap is dict else wrap([1.5, node])
        payload = {**payload, key: node}
        with pytest.raises(ValueError):
            reference_json_text(payload)
        with pytest.raises(NonFiniteResultError):
            cli._json_text(payload)


class TestPersistence:
    @staticmethod
    def assert_matches_reference(history, grid, sol):
        got = sim.measure_persistence(history, grid, sol)
        want = reference_measure_persistence(history, grid, sol)
        for field, expected in zip((got.times, got.shifts, got.shape_errors), want):
            assert_bit_identical(np.array(field, dtype=float), np.array(expected, dtype=float))

    @pytest.mark.parametrize(
        "N, h, m, C1, V0",
        [
            (1024, 1.0, 1, 0.05, 0.0),
            (301, 0.37, 2, 0.3, 0.4),
            (300, 2.5, 3, -0.08, -0.0),
            (64, 1.0, 1, -0.25, -0.0),
        ],
    )
    def test_runs_longer_than_one_block_match_reference(self, N, h, m, C1, V0):
        params = SchemeParams.from_cfl(sigma=0.1, mu=1.0, re_h=1.0, h=h)
        coeffs = optimize_coefficients(m)
        sol = wave.closed_form_kink(params, coeffs, C=1.0, C1=C1, V0=V0)
        grid = sim.Grid1D(N, h)
        rows = measure._BLOCK_ELEMENTS // N
        history = sim.run(
            sim.inject_kink(grid, sol), coeffs, params, n_steps=rows + 3, snap_every=1
        )
        assert len(history) > rows
        self.assert_matches_reference(history, grid, sol)
        self.assert_matches_reference(history[:1], grid, sol)

    @pytest.mark.parametrize("h", (1.0, 0.37, 2.5))
    def test_shifts_near_the_period_edges_match_reference(self, h):
        # searches that start at the first or last node reach shifts in
        # [-h, 0) and up to L, which the fit wraps into [0, L)
        grid = sim.Grid1D(257, h)
        L = grid.length
        sol = KinkSolution(U1=0.9, V0=-0.0, C1=-0.2 / h, v=1.0, C=1.0)
        rng = np.random.default_rng(7)
        history = [
            sim.FieldState(
                values=sim.mirrored_kink_profile(grid, sol, shift=shift)
                + 1e-3 * rng.standard_normal(grid.N),
                t=0.5 * k,
                step_count=k,
            )
            for k, shift in enumerate(
                [0.0, 0.1 * h, -0.3 * h, 0.5 * h, L - 0.2 * h, L - 0.5 * h, L - 0.6 * h,
                 L - h, L / 2.0 + 0.25 * h]
            )
        ]
        report = sim.measure_persistence(history, grid, sol)
        assert max(report.shifts) > L - h and min(report.shifts) < h
        self.assert_matches_reference(history, grid, sol)


@st.composite
def kink_fits(draw):
    """A grid, a kink of either sign and width, and noisy shifted snapshots of it.

    The kink width in cells, 1 / (|C1| h), runs from far under a cell to a
    quarter of the grid, so some fits recompute whole rows and others only
    the cells near the fronts.  The snapshot fronts sit near 0 and L, across
    the periodic seam, and anywhere.
    """
    N = draw(st.integers(8, 4096))
    h = draw(st.sampled_from([1.0, 0.37, 2.5, 1.0 / 3.0]))
    C1 = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(4.0 / N, 40.0)) / h
    U1 = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.01, 5.0))
    V0 = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0)))
    grid = sim.Grid1D(N, h)
    L = grid.length
    x_up = (N // 4) * h
    # shifts that put the unshifted kink, or its up-front, at 0, L or the seam
    anchors = st.sampled_from([0.0, L, -x_up, L - x_up, L / 2.0 - x_up])
    near = st.builds(lambda a, o: a + o * h, anchors, st.floats(-2.0, 2.0))
    shifts = draw(st.lists(st.one_of(near, st.floats(0.0, L)), min_size=1, max_size=4))
    noise = draw(st.sampled_from([0.0, 1e-12, 1e-3, 0.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sol = KinkSolution(U1=U1, V0=V0, C1=C1, v=1.0, C=1.0)
    history = [
        sim.FieldState(
            values=sim.mirrored_kink_profile(grid, sol, shift=shift)
            + noise * rng.standard_normal(N),
            t=0.25 * k,
            step_count=k,
        )
        for k, shift in enumerate(shifts)
    ]
    return history, grid, sol


@settings(derandomize=True, max_examples=60, deadline=None)
@given(kink_fits())
def test_persistence_matches_reference_on_drawn_kinks(case):
    TestPersistence.assert_matches_reference(*case)


# -- Poly arithmetic: the per-term implementation, built on the public
# constructor, which coerces and prunes every result


def reference_const(value):
    return Poly({(0,) * len(SYMBOLS): float(value)})


def reference_coerce(other):
    return other if isinstance(other, Poly) else reference_const(other)


def reference_add(p, q):
    q = reference_coerce(q)
    out = dict(p.terms)
    for mono, coeff in q.terms.items():
        out[mono] = out.get(mono, 0.0) + coeff
    return Poly(out)


def reference_neg(p):
    return Poly({m: -c for m, c in p.terms.items()})


def reference_mul(p, q):
    q = reference_coerce(q)
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            out[mono] = out.get(mono, 0.0) + c1 * c2
    return Poly(out)


def reference_coefficient_poly(p, name, power):
    idx = SYMBOLS.index(name)
    out = {}
    for mono, coeff in p.terms.items():
        if mono[idx] == power:
            reduced = tuple(0 if i == idx else e for i, e in enumerate(mono))
            out[reduced] = out.get(reduced, 0.0) + coeff
    return Poly(out)


def reference_substitute(p, name, value):
    idx = SYMBOLS.index(name)
    repl = value if isinstance(value, Poly) else reference_const(value)
    result = Poly()
    powers = {}
    for mono, coeff in p.terms.items():
        k = mono[idx]
        reduced = tuple(0 if i == idx else e for i, e in enumerate(mono))
        powers.setdefault(k, Poly())
        powers[k] = reference_add(powers[k], Poly({reduced: coeff}))
    acc = reference_const(1.0)
    last = 0
    for k in sorted(powers):
        for _ in range(k - last):
            acc = reference_mul(acc, repl)
        last = k
        result = reference_add(result, reference_mul(powers[k], acc))
    return result


def reference_divide_symbol(p, name):
    idx = SYMBOLS.index(name)
    if not p.terms:
        return Poly()
    out = {}
    for mono, coeff in p.terms.items():
        if mono[idx] < 1:
            return None
        out[tuple(e - 1 if i == idx else e for i, e in enumerate(mono))] = coeff
    return Poly(out)


def reference_payload(params, echo, coeffs, C, C1, V0, verify, xi_max, xi_samples):
    """The soliton payload that solved each coefficient system twice."""
    sol = wave.closed_form_kink(params, coeffs, C=C, C1=C1, V0=V0).canonical()
    nondim = nondimensionalize(coeffs, params)
    ode = wave.reduce_to_ode(nondim, params, v=sol.v, C=C)
    payload = {
        "solution": {"v": sol.v, "U1": sol.U1, "V1": 0.0, "V0": sol.V0, "C1": sol.C1, "C": sol.C},
        "config": {**echo, "m": coeffs.m, "C": C, "C1": C1, "V0": V0},
    }
    if verify:
        report = wave.verify_condensed_system(params, coeffs, C=C, C1=sol.C1, V0=sol.V0)
        ansatz = wave.HyperbolicAnsatz(U1=sol.U1, V1=0.0, V0=sol.V0, C1=sol.C1, v=sol.v)
        derived = wave.collect_system(wave.substitute_ansatz(ode, ansatz))
        derived_res = wave.evaluate_system(derived, report.values)
        xi = np.linspace(-xi_max, xi_max, xi_samples)
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
        payload["branches"] = {
            "derived": [b.to_json() for b in wave.solve_system(derived)],
            "condensed": [
                b.to_json()
                for b in wave.solve_system(
                    wave.condensed_coefficient_system(params, coeffs, sol.C1)
                )
            ],
            "summary": {
                "derived": wave.describe_solution_set(wave.solve_system(derived)),
                "condensed": wave.describe_solution_set(
                    wave.solve_system(wave.condensed_coefficient_system(params, coeffs, sol.C1))
                ),
            },
        }
    return payload


# the loops that products by a constant, synthetic division and
# substitution ran before their fast paths, verbatim but for the method form


def parent_mul(p, q):
    q = Poly._coerce(q)
    out = {}
    get = out.get
    add = operator.add
    right = q.terms.items()
    for m1, c1 in p.terms.items():
        for m2, c2 in right:
            mono = tuple(map(add, m1, m2))
            out[mono] = get(mono, 0.0) + c1 * c2
    return Poly._trusted(out)


def parent_substitute(p, name, value):
    idx = SYMBOLS.index(name)
    powers = {}
    for mono, coeff in p.terms.items():
        k = mono[idx]
        group = powers.get(k)
        if group is None:
            group = powers[k] = {}
        group[mono[:idx] + (0,) + mono[idx + 1:]] = coeff
    if not isinstance(value, Poly):
        c = float(value)
        if math.isfinite(c):
            return Poly._trusted(_substitute_number(powers, c))
        value = Poly.const(c)
    result = Poly()
    acc = Poly.const(1.0)
    last = 0
    for k in sorted(powers):
        for _ in range(k - last):
            acc = parent_mul(acc, value)
        last = k
        result = result + parent_mul(Poly._trusted(powers[k]), acc)
    return result


def parent_divide_linear(p, name, root):
    deg = p.degree(name)
    if deg < 1:
        return None if not p.is_zero() else Poly()
    coeffs = [p.coefficient_poly(name, k) for k in range(deg + 1)]
    quot = [Poly()] * deg
    carry = coeffs[deg]
    for k in range(deg - 1, -1, -1):
        quot[k] = carry
        carry = coeffs[k] + parent_mul(carry, root)
    scale = max((abs(c) for c in p.terms.values()), default=1.0)
    if not carry.is_zero(tol=wave.poly.COEFF_TOL * max(1.0, scale, abs(root))):
        return None
    out = Poly()
    unit = Poly.var(name)
    acc = Poly.const(1.0)
    for k in range(deg):
        out = out + parent_mul(quot[k], acc)
        acc = parent_mul(acc, unit)
    return out


def use_reference_poly(monkeypatch):
    """Route every changed Poly operation through its per-term or parent reference."""
    for attr, fn in (
        ("__add__", reference_add), ("__radd__", reference_add), ("__neg__", reference_neg),
        ("__mul__", reference_mul), ("__rmul__", reference_mul),
        ("coefficient_poly", reference_coefficient_poly), ("substitute", reference_substitute),
        ("divide_symbol", reference_divide_symbol), ("divide_linear", parent_divide_linear),
    ):
        monkeypatch.setattr(Poly, attr, fn)
    monkeypatch.setattr(Poly, "const", staticmethod(reference_const))


def bits(p):
    """Monomials and coefficient bit patterns, in dict order."""
    return [(mono, struct.pack("<d", c)) for mono, c in p.terms.items()]


# coefficients: ordinary, exactly cancelling, tiny (products underflow to
# +-0.0), huge (products overflow) and infinite
COEFF_POOL = (1.0, -1.0, 0.5, -2.0, 3.0, 0.1, -0.3, 5e-324, -5e-324, 1e-200, -1e-170,
              1e200, -1.7976931348623157e308, math.inf, -math.inf, math.nan)


def random_poly(rng, max_terms=7, max_exp=3, special=0.3):
    terms = {}
    for _ in range(int(rng.integers(0, max_terms + 1))):
        mono = tuple(int(e) for e in rng.integers(0, max_exp + 1, len(SYMBOLS)))
        if rng.random() < special:
            coeff = float(rng.choice(COEFF_POOL))
        else:
            coeff = float(rng.standard_normal() * 10.0 ** rng.integers(-3, 4))
        terms[mono] = coeff
    return Poly(terms)


def poly_pairs(seed, count):
    """Random pairs, a third of them sharing monomials with cancelling coefficients."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        p = random_poly(rng)
        if i % 3 == 0:
            q = Poly({m: -c for m, c in p.terms.items()})
            q = Poly({**q.terms, **random_poly(rng, max_terms=2).terms})
        else:
            q = random_poly(rng)
        yield p, q


SUBSTITUTE_VALUES = (0.0, -0.0, 1.0, -1.0, 0.37, -2.5, 1e-200, -1e-170, 5e-324, 1e200,
                     1.7976931348623157e308, 7, math.inf, -math.inf, math.nan)


class TestPolyArithmetic:
    def test_add_neg_sub_match_reference(self):
        for p, q in poly_pairs(1, 400):
            assert bits(p + q) == bits(reference_add(p, q))
            assert bits(-p) == bits(reference_neg(p))
            assert bits(p - q) == bits(reference_add(p, reference_neg(q)))
            assert bits(p + 1.5) == bits(reference_add(p, 1.5))

    def test_mul_matches_reference(self):
        with np.errstate(all="ignore"):
            for p, q in poly_pairs(2, 400):
                assert bits(p * q) == bits(reference_mul(p, q))
                assert bits(p * -0.75) == bits(reference_mul(p, -0.75))
                assert bits(2.0 * p) == bits(reference_mul(p, 2.0))

    def test_cancellation_and_negative_zero_are_pruned(self):
        x, y = Poly.var("U1"), Poly.var("v")
        # an exact zero sum, and tiny products that round to -0.0 and +0.0
        for p, q in (
            (x + 0.1 * y, x - 0.1 * y),
            (Poly({(1, 0, 0, 0, 0): 5e-324}), Poly({(0, 0, 0, 1, 0): -5e-324})),
            (Poly({(1, 0, 0, 0, 0): 1e-200, (0, 1, 0, 0, 0): 1.0}),
             Poly({(0, 0, 0, 0, 0): -1e-200, (0, 0, 1, 0, 0): 2.0})),
        ):
            assert bits(p + q) == bits(reference_add(p, q))
            assert bits(p * q) == bits(reference_mul(p, q))
            assert all(c != 0.0 for c in (p * q).terms.values())
        assert (x - x).terms == {}

    def test_coefficient_poly_and_divide_symbol_match_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            p = random_poly(rng)
            for name in SYMBOLS:
                for power in range(4):
                    assert bits(p.coefficient_poly(name, power)) == bits(
                        reference_coefficient_poly(p, name, power)
                    )
                got, want = p.divide_symbol(name), reference_divide_symbol(p, name)
                assert (got is None) == (want is None)
                if got is not None:
                    assert bits(got) == bits(want)

    def test_substitute_number_matches_reference(self):
        rng = np.random.default_rng(4)
        with np.errstate(all="ignore"):
            for _ in range(300):
                p = random_poly(rng, max_terms=10, max_exp=4)
                name = SYMBOLS[int(rng.integers(len(SYMBOLS)))]
                for value in SUBSTITUTE_VALUES + (float(rng.standard_normal()),):
                    assert bits(p.substitute(name, value)) == bits(
                        reference_substitute(p, name, value)
                    ), (p, name, value)

    def test_substitute_poly_matches_reference(self):
        for p, q in poly_pairs(5, 200):
            for name in ("v", "V1", "C"):
                assert bits(p.substitute(name, q)) == bits(reference_substitute(p, name, q))

    def test_term_pruned_at_one_power_returns_at_the_end(self):
        # U1 cancels after the v**1 terms and comes back with v**2, so it
        # moves behind V0 in dict order, as in the reference
        p = Poly({(1, 0, 0, 0, 0): -2.0, (1, 0, 0, 1, 0): 1.0, (0, 0, 1, 0, 0): 1.0,
                  (1, 0, 0, 2, 0): 0.25})
        got = p.substitute("v", 2.0)
        assert bits(got) == bits(reference_substitute(p, "v", 2.0))
        assert list(got.terms) == [(0, 0, 1, 0, 0), (1, 0, 0, 0, 0)]

    def test_zero_power_stops_an_infinite_coefficient(self):
        # v**2 underflows to zero, which the reference multiplies as an empty
        # Poly: inf * v**2 must drop out, not become NaN
        p = Poly({(0, 0, 0, 2, 0): math.inf, (1, 0, 0, 0, 0): 2.0})
        for value in (1e-200, 0.0, -0.0):
            got = p.substitute("v", value)
            assert bits(got) == bits(reference_substitute(p, "v", value))
            assert got.terms == {(1, 0, 0, 0, 0): 2.0}


CONSTANTS = (0.0, -0.0) + COEFF_POOL
ROOTS = (0.0, 1.0, -1.0, 0.37, -2.5, 1e-200, 1e200, 5e-324, 0.42518)


class TestPolyFastPaths:
    """Products by a constant, synthetic division and substitution against the parent loops."""

    def test_mul_by_a_constant_matches_parent(self):
        with np.errstate(all="ignore"):
            for p, q in poly_pairs(6, 300):
                for k in CONSTANTS:
                    const = Poly.const(k)
                    assert bits(p * k) == bits(parent_mul(p, k))
                    assert bits(k * p) == bits(parent_mul(p, k))
                    assert bits(const * q) == bits(parent_mul(const, q))
                    assert bits(q * const) == bits(parent_mul(q, const))
                    assert bits(const * Poly.const(-3.0)) == bits(parent_mul(const, -3.0))

    def test_divide_linear_matches_parent(self):
        rng = np.random.default_rng(7)
        with np.errstate(all="ignore"):
            for i in range(300):
                p = random_poly(rng, max_terms=8, max_exp=3)
                for name in SYMBOLS:
                    for root in ROOTS:
                        # every other one has the factor (name - root)
                        if i % 2:
                            p_root = parent_mul(p, Poly.var(name) - root)
                        else:
                            p_root = p
                        got = p_root.divide_linear(name, root)
                        want = parent_divide_linear(p_root, name, root)
                        assert (got is None) == (want is None), (p_root, name, root)
                        if got is not None:
                            assert bits(got) == bits(want), (p_root, name, root)

    def test_substitute_matches_parent(self):
        rng = np.random.default_rng(8)
        values = SUBSTITUTE_VALUES + (Poly.var("V1") - 0.5, Poly.const(2.0), Poly())
        with np.errstate(all="ignore"):
            for _ in range(300):
                p = random_poly(rng, max_terms=8, max_exp=3)
                for name in SYMBOLS:
                    for value in values:
                        got = p.substitute(name, value)
                        assert bits(got) == bits(parent_substitute(p, name, value))
                        if name not in p.variables():
                            assert got is p

    def test_no_operation_changes_a_polys_terms(self):
        # substitute may hand back its own Poly, so no operation may write
        # the terms of the Polys it reads
        with np.errstate(all="ignore"):
            for p, q in poly_pairs(9, 100):
                before = (bits(p), bits(q))
                for name in SYMBOLS:
                    p.substitute(name, q), p.substitute(name, 0.5), p.divide_linear(name, 0.5)
                    p.coefficient_poly(name, 1), p.divide_symbol(name)
                p + q, p - q, p * q, -p, 2.0 * p, p * Poly.const(-1.5)
                assert (bits(p), bits(q)) == before


class TestSolverAndPayload:
    def test_solve_system_matches_reference_arithmetic(self, system_draws, monkeypatch):
        def solve_all():
            return [
                json.dumps([b.to_json() for b in wave.solve_system(system, fixed=draw["fixed"])])
                for draw in system_draws
                for system in draw["systems"]
            ]

        fast = solve_all()
        use_reference_poly(monkeypatch)
        assert fast == solve_all()

    @pytest.mark.parametrize(
        "m, C, C1, V0, sigma",
        [(7, -2.0, 0.3, 0.4, 1.0), (1, 1.0, 1.0, 0.0, 1.0), (3, 0.0, -0.7, 0.2, 0.5),
         (5, 1.5, 0.5, -0.3, 0.25), (9, -0.4, 1.0, 0.0, 1.7)],
    )
    def test_payload_matches_four_solve_reference(self, monkeypatch, m, C, C1, V0, sigma):
        params = SchemeParams.from_cfl(sigma=sigma, mu=1.0, re_h=1.0)
        coeffs = optimize_coefficients(m)
        args = (params, {"sigma": sigma}, coeffs, C, C1, V0, True, 10.0, 41)
        fast = json.dumps(cli._soliton_payload(*args), sort_keys=True)
        use_reference_poly(monkeypatch)
        assert fast == json.dumps(reference_payload(*args), sort_keys=True)


class TestDispersionRows:
    @pytest.mark.parametrize("m", (1, 2, 5, 9))
    @pytest.mark.parametrize("n", (2, 3, 100, 101, 1001))
    def test_rows_match_per_sample_reference(self, tmp_path, m, n):
        coeffs = optimize_coefficients(m)
        table = dispersion_samples(coeffs, n)
        if n % 2:
            half = np.linspace(0.0, math.pi / 2.0, (n + 1) // 2)
            zetas = np.concatenate([-half[:0:-1], half])
        else:
            zetas = np.linspace(-math.pi / 2.0, math.pi / 2.0, n)
        lams = effective_wavenumber(coeffs, zetas)
        want = [(cli._fmt(z), cli._fmt(l), cli._fmt(z - l)) for z, l in zip(zetas, lams)]
        got = [tuple(map(repr, row)) for row in zip(*(column.tolist() for column in table))]
        assert got == want
        assert all(column.dtype == np.float64 for column in table)
        # the per-row formatter the CSV was written with, over Python floats
        body = "\n".join([
            f"# m={m} samples={n}", "zeta,lambda_bar_h,error",
            *(f"{z!r},{l!r},{z - l!r}" for z, l in zip(zetas.tolist(), lams.tolist())),
        ]) + "\n"
        path = tmp_path / "d.csv"
        assert cli.main(["dispersion", "--m", str(m), "--samples", str(n), "--csv", str(path)]) == 0
        assert path.read_text() == body
