"""The stepping kernel against the spectral oracle and analytic mode behavior."""

import math
import warnings

import numpy as np
import pytest

from drpkit import sim
from drpkit.errors import BlowUpError, NormGuardError
from drpkit.modeq import SchemeParams, discrete_symbol
from drpkit.sim.stepper import GUARD_STRIDE
from drpkit.stencil import optimize_coefficients
from drpkit.wave import closed_form_kink

PI = math.pi


def params_with(sigma, h=1.0):
    return SchemeParams.from_cfl(sigma=sigma, mu=1.0, re_h=1.0, h=h)


class TestStep:
    def test_constant_field_unchanged(self, m3_coeffs):
        params = params_with(0.3)
        grid = sim.Grid1D(32, 1.0)
        state = sim.inject_constant(grid, 4.2)
        out = sim.step(state, m3_coeffs, params)
        assert np.array_equal(out.values, state.values)
        assert out.t == params.tau
        assert out.step_count == 1

    def test_delta_response_m1(self, m1_coeffs):
        # hand application of the update to a unit impulse at node 0 with
        # tau/h = 1: the weight gamma_1 lands at node -1 (positive) and the
        # implied -gamma_1 at node +1; propagation is leftward
        params = params_with(1.0)
        grid = sim.Grid1D(8, 1.0)
        state = sim.FieldState(values=np.eye(8)[0], t=0.0, step_count=0)
        out = sim.step(state, m1_coeffs, params)
        g1 = 2.0 / PI
        expected = np.array([1.0, -g1, 0.0, 0.0, 0.0, 0.0, 0.0, g1])
        assert np.max(np.abs(out.values - expected)) <= 1e-15

    def test_single_mode_multiplied_by_symbol(self, m3_coeffs):
        params = params_with(0.2)
        n, p = 64, 5
        grid = sim.Grid1D(n, 1.0)
        zeta = 2.0 * PI * p / n
        phases = zeta * np.arange(n)
        state = sim.FieldState(values=np.cos(phases), t=0.0, step_count=0)
        out = sim.step(state, m3_coeffs, params)
        g = discrete_symbol(m3_coeffs, params, zeta)
        expected = (g * np.exp(1j * phases)).real
        assert np.max(np.abs(out.values - expected)) <= 1e-12

    def test_mass_conserved(self, m3_coeffs):
        params = params_with(0.4)
        rng = np.random.default_rng(1)
        n = 128
        state = sim.FieldState(values=rng.standard_normal(n), t=0.0, step_count=0)
        total = math.fsum(state.values)
        for _ in range(20):
            state = sim.step(state, m3_coeffs, params)
        assert abs(math.fsum(state.values) - total) <= 1e-12 * n

    def test_grid_too_small(self, m3_coeffs):
        params = params_with(0.1)
        state = sim.FieldState(values=np.zeros(6), t=0.0, step_count=0)
        with pytest.raises(ValueError):
            sim.step(state, m3_coeffs, params)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_blow_up_detected(self, m1_coeffs):
        params = params_with(1.0)
        huge = np.full(16, 1e308)
        huge[0] = -1e308
        state = sim.FieldState(values=huge, t=0.0, step_count=0)
        with pytest.raises(BlowUpError):
            sim.step(state, m1_coeffs, params)


class TestBackends:
    def test_deterministic_reruns(self, m3_coeffs):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(128)
        a = sim.step_many(u, m3_coeffs.gamma_array, 0.11, 40)
        b = sim.step_many(u, m3_coeffs.gamma_array, 0.11, 40)
        assert np.array_equal(a, b)

    def test_input_not_mutated(self, m1_coeffs):
        u = np.ones(16)
        u[3] = 2.0
        before = u.copy()
        sim.step_many(u, m1_coeffs.gamma_array, 0.5, 3)
        assert np.array_equal(u, before)


class TestSpectralOracle:
    def test_zero_steps_identity(self, m3_coeffs):
        params = params_with(0.2)
        grid = sim.Grid1D(64, 1.0)
        state = sim.inject_random(grid, seed=5)
        assert sim.spectral_oracle(state, m3_coeffs, params, 0) is state

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_agrees_with_stepping(self, m):
        coeffs = optimize_coefficients(m)
        params = params_with(0.1)
        grid = sim.Grid1D(128, 1.0)
        state = sim.inject_random(grid, seed=6 + m)
        stepped = state
        for _ in range(100):
            stepped = sim.step(stepped, coeffs, params)
        spectral = sim.spectral_oracle(state, coeffs, params, 100)
        assert np.max(np.abs(stepped.values - spectral.values)) <= 1e-10

    def test_norm_growth_matches_symbol(self, m3_coeffs):
        params = params_with(0.3)
        n, steps = 128, 50
        grid = sim.Grid1D(n, 1.0)
        state = sim.inject_random(grid, seed=8)
        out = sim.spectral_oracle(state, m3_coeffs, params, steps)
        zetas = 2.0 * PI * np.arange(n) / n
        g = discrete_symbol(m3_coeffs, params, zetas)
        spectrum = np.fft.fft(state.values)
        predicted = math.sqrt(float(np.sum(np.abs(g) ** (2 * steps) * np.abs(spectrum) ** 2)) / n)
        assert out.l2_norm() == pytest.approx(predicted, rel=1e-8)
        assert out.l2_norm() >= state.l2_norm()


class TestRun:
    def test_snapshot_cadence_and_times(self, m1_coeffs):
        params = params_with(0.2)
        grid = sim.Grid1D(64, 1.0)
        state = sim.inject_mode(grid, 2)
        history = sim.run(state, m1_coeffs, params, n_steps=20, snap_every=5)
        assert [s.step_count for s in history] == [0, 5, 10, 15, 20]
        assert history[-1].t == pytest.approx(20 * params.tau, rel=1e-15)

    def test_oracle_flag_matches_stepping(self, m3_coeffs):
        params = params_with(0.1)
        grid = sim.Grid1D(128, 1.0)
        state = sim.inject_random(grid, seed=9)
        stepped = sim.run(state, m3_coeffs, params, n_steps=60, snap_every=20)
        spectral = sim.run(state, m3_coeffs, params, n_steps=60, snap_every=20, use_oracle=True)
        for a, b in zip(stepped, spectral):
            assert a.t == b.t
            assert np.max(np.abs(a.values - b.values)) <= 1e-10

    def test_norm_guard_trips(self, m1_coeffs):
        # sigma = 1 grows the worst mode by ~2.7x per step
        params = params_with(1.0)
        grid = sim.Grid1D(64, 1.0)
        state = sim.inject_random(grid, seed=10)
        with pytest.raises(NormGuardError):
            sim.run(state, m1_coeffs, params, n_steps=100, snap_every=1)

    @pytest.mark.parametrize("snap_every", [1, 7, GUARD_STRIDE, GUARD_STRIDE + 1, 1000])
    def test_norm_guard_names_first_step_whatever_the_stride(self, m1_coeffs, snap_every):
        params = params_with(5.0)
        grid = sim.Grid1D(64, 1.0)
        state = sim.inject_kink(grid, closed_form_kink(params, m1_coeffs, C=1.0, C1=0.25))
        limit = sim.NORM_GUARD_FACTOR * state.l2_norm()
        u, first = state.values, 0
        while math.sqrt(float(np.sum(u * u))) <= limit:
            u = sim.step_many(u, m1_coeffs.gamma_array, params.tau / params.h, 1)
            first += 1
        with pytest.raises(NormGuardError) as info:
            sim.run(state, m1_coeffs, params, n_steps=1000, snap_every=snap_every)
        assert info.value.step_count == first == 8
        assert f"by step {first}" in str(info.value)

    @pytest.mark.parametrize("snap_every", [1, 7, GUARD_STRIDE, GUARD_STRIDE + 1, 1000])
    def test_oracle_norm_guard_names_first_step_whatever_the_stride(self, m1_coeffs, snap_every):
        params = params_with(5.0)
        state = sim.inject_gaussian(sim.Grid1D(64, 1.0), 1.0, 64.0 / 12.0, 32.0)
        limit = sim.NORM_GUARD_FACTOR * state.l2_norm()
        first = 1
        while sim.spectral_oracle(state, m1_coeffs, params, first).l2_norm() <= limit:
            first += 1
        with pytest.raises(NormGuardError) as info:
            sim.run(state, m1_coeffs, params, n_steps=1000, snap_every=snap_every, use_oracle=True)
        assert info.value.step_count == first == 8
        assert f"by step {first}" in str(info.value)

    def test_oracle_blow_up_names_first_non_finite_step(self, m1_coeffs):
        # without a norm guard only overflow trips, and the oracle's own
        # FieldState check names a step the bisection must reach
        params = params_with(5.0)
        state = sim.inject_random(sim.Grid1D(64, 1.0), seed=4)
        first = 1
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                try:
                    sim.spectral_oracle(state, m1_coeffs, params, first)
                except BlowUpError:
                    break
                first += 1
        with pytest.raises(BlowUpError) as info:
            sim.run(state, m1_coeffs, params, n_steps=5000, snap_every=5000,
                    use_oracle=True, norm_guard=math.inf)
        assert info.value.step_count == first
        assert str(info.value) == f"field blew up by step {first}"

    def test_oracle_run_that_never_trips_calls_once_per_snapshot(self, m3_coeffs, monkeypatch):
        from drpkit.sim import stepper

        calls = []
        oracle = stepper.spectral_oracle
        monkeypatch.setattr(
            stepper, "spectral_oracle", lambda *a, **k: calls.append(a[3]) or oracle(*a, **k)
        )
        state = sim.inject_random(sim.Grid1D(128, 1.0), seed=9)
        history = sim.run(state, m3_coeffs, params_with(0.1), n_steps=60, snap_every=20,
                          use_oracle=True)
        assert calls == [20, 40, 60]
        assert [s.step_count for s in history] == [0, 20, 40, 60]

    def test_overflow_inside_a_guard_stride_is_silent(self, m1_coeffs):
        # sigma = 1e100 overflows within three steps, before the stride ends
        params = params_with(1e100)
        state = sim.inject_random(sim.Grid1D(64, 1.0), seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NormGuardError) as info:
                sim.run(state, m1_coeffs, params, n_steps=100, snap_every=100)
        assert info.value.step_count == 1

    def test_guard_stride_leaves_snapshots_unchanged(self, m3_coeffs):
        params = params_with(0.1)
        state = sim.inject_random(sim.Grid1D(128, 1.0), seed=11)
        coarse = sim.run(state, m3_coeffs, params, n_steps=70, snap_every=35)
        fine = sim.run(state, m3_coeffs, params, n_steps=70, snap_every=1)
        direct = sim.step_many(state.values, m3_coeffs.gamma_array, params.tau / params.h, 70)
        assert np.array_equal(coarse[-1].values, fine[-1].values)
        assert np.array_equal(coarse[-1].values, direct)
        assert np.array_equal(coarse[1].values, fine[35].values)

    def test_horizon_budget(self, m1_coeffs):
        params = params_with(0.1)
        grid = sim.Grid1D(256, 1.0)
        assert sim.horizon_steps(grid, 1.2732, params) == pytest.approx(
            256.0 / (4.0 * 1.2732 * 0.1)
        )
        assert sim.horizon_steps(grid, 0.0, params) == math.inf


class TestInjectors:
    def test_kink_degenerate_constant(self, m1_coeffs, unit_params):
        grid = sim.Grid1D(64, 1.0)
        sol = closed_form_kink(unit_params, m1_coeffs, C=0.0, C1=0.25, V0=1.5)
        state = sim.inject_kink(grid, sol)
        assert np.all(state.values == 1.5)

    def test_kink_center_and_plateaus(self, m1_coeffs, unit_params):
        grid = sim.Grid1D(128, 1.0)
        sol = closed_form_kink(unit_params, m1_coeffs, C=1.0, C1=0.25, V0=0.2)
        state = sim.inject_kink(grid, sol)
        i_up = grid.N // 4
        assert state.values[i_up] == pytest.approx(sol.V0, abs=1e-15)
        plateau = sol.U1 * math.tanh(sol.C1 * grid.N * grid.h / 4.0)
        assert state.values[i_up + grid.N // 4] == pytest.approx(sol.V0 + plateau, abs=1e-12)
        assert state.values[(i_up + 3 * grid.N // 4) % grid.N] == pytest.approx(
            sol.V0 - plateau, abs=1e-12
        )

    def test_unresolved_kink_warns(self, m1_coeffs, unit_params):
        grid = sim.Grid1D(32, 1.0)
        sol = closed_form_kink(unit_params, m1_coeffs, C=1.0, C1=2.0)
        with pytest.warns(sim.ResolutionWarning):
            sim.inject_kink(grid, sol)

    def test_gaussian_periodic_wrap(self):
        grid = sim.Grid1D(64, 0.5)
        state = sim.inject_gaussian(grid, amplitude=2.0, width=3.0, center=0.0)
        # symmetric around node 0 across the periodic seam
        assert state.values[1] == pytest.approx(state.values[-1], rel=1e-14)
        assert state.values[0] == pytest.approx(2.0)

    def test_mode_and_random(self):
        grid = sim.Grid1D(32, 1.0)
        mode = sim.inject_mode(grid, 3, amplitude=0.5)
        assert mode.values[0] == pytest.approx(0.5)
        r1 = sim.inject_random(grid, seed=12)
        r2 = sim.inject_random(grid, seed=12)
        assert np.array_equal(r1.values, r2.values)
