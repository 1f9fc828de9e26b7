"""Front-speed and shape-persistence measurements."""

import math

import numpy as np
import pytest

from drpkit import sim
from drpkit.errors import LostFrontError, NonFiniteResultError
from drpkit.modeq import SchemeParams, discrete_symbol
from drpkit.stencil import StencilCoefficients
from drpkit.wave import closed_form_kink
from drpkit.wave.ansatz import KinkSolution

PI = math.pi


class TestMeasureSpeed:
    def test_stationary_field_zero_speed(self):
        silent = StencilCoefficients(m=1, gamma=(0.0,))
        params = SchemeParams.from_cfl(sigma=0.2, mu=1.0, re_h=1.0)
        grid = sim.Grid1D(64, 1.0)
        state = sim.inject_gaussian(grid, 1.0, 6.0, 32.0)
        history = sim.run(state, silent, params, n_steps=40, snap_every=10)
        assert sim.measure_speed(history, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_lost_front(self):
        grid = sim.Grid1D(16, 1.0)
        flat = [sim.inject_constant(grid, 0.0), sim.inject_constant(grid, 0.0)]
        with pytest.raises(LostFrontError):
            sim.measure_speed(flat, 0.5)

    def test_needs_two_snapshots(self):
        grid = sim.Grid1D(16, 1.0)
        with pytest.raises(ValueError):
            sim.measure_speed([sim.inject_constant(grid, 0.0)], 0.5)

    def test_gaussian_tracks_phase_speed(self, m3_coeffs):
        # long-wavelength bump at a mild CFL number advects at the phase
        # speed of its dominant mode, within two percent, and leftward
        params = SchemeParams.from_cfl(sigma=0.1, mu=1.0, re_h=1.0)
        grid = sim.Grid1D(256, 1.0)
        state = sim.inject_gaussian(grid, amplitude=1.0, width=24.0, center=128.0)
        history = sim.run(state, m3_coeffs, params, n_steps=300, snap_every=10)
        measured = sim.measure_speed(history, 0.5) * grid.h
        spectrum = np.abs(np.fft.fft(state.values))
        p_star = 1 + int(np.argmax(spectrum[1 : grid.N // 2 + 1]))
        zeta = 2.0 * PI * p_star / grid.N
        g = discrete_symbol(m3_coeffs, params, zeta)
        predicted = -float(np.angle(g)) * grid.h / (params.tau * zeta)
        assert predicted < 0.0
        assert measured < 0.0
        assert abs(measured - predicted) <= 0.02 * abs(predicted)

    def test_periodic_unwrap_across_seam(self, m1_coeffs):
        # place the bump near the seam so the track must unwrap
        params = SchemeParams.from_cfl(sigma=0.1, mu=1.0, re_h=1.0)
        grid = sim.Grid1D(128, 1.0)
        state = sim.inject_gaussian(grid, amplitude=1.0, width=10.0, center=6.0)
        history = sim.run(state, m1_coeffs, params, n_steps=200, snap_every=10)
        speed = sim.measure_speed(history, 0.5)
        assert speed < 0.0
        assert abs(speed) < 2.0


class TestMeasurePersistence:
    def setup_case(self, unit_params, m1_coeffs, N=128, C1=0.2, V0=0.0):
        grid = sim.Grid1D(N, 1.0)
        sol = closed_form_kink(unit_params, m1_coeffs, C=1.0, C1=C1, V0=V0)
        return grid, sol

    def test_exact_match_at_integer_shift(self, unit_params, m1_coeffs):
        grid, sol = self.setup_case(unit_params, m1_coeffs)
        shifted = np.roll(sim.mirrored_kink_profile(grid, sol), 9)
        snap = sim.FieldState(values=shifted, t=0.0, step_count=0)
        report = sim.measure_persistence([snap], grid, sol)
        assert report.shape_errors[0] <= 1e-9
        assert report.shifts[0] == pytest.approx(9.0, abs=1e-6)

    def test_offset_invariance(self, unit_params, m1_coeffs):
        grid, sol = self.setup_case(unit_params, m1_coeffs)
        base = sim.mirrored_kink_profile(grid, sol)
        snap = sim.FieldState(values=base + 0.07, t=0.0, step_count=0)
        report_a = sim.measure_persistence([snap], grid, sol)
        sol_b = closed_form_kink(unit_params, m1_coeffs, C=1.0, C1=sol.C1, V0=sol.V0 + 0.07)
        snap_b = sim.FieldState(values=base + 0.07 + 0.07, t=0.0, step_count=0)
        report_b = sim.measure_persistence([snap_b], grid, sol_b)
        assert report_a.shape_errors[0] == pytest.approx(report_b.shape_errors[0], abs=1e-12)

    def test_gaussian_is_not_a_kink(self, unit_params, m1_coeffs):
        # template mismatch floor: dispersing bump never resembles the kink
        grid, sol = self.setup_case(unit_params, m1_coeffs)
        state = sim.inject_gaussian(grid, amplitude=1.0, width=10.0, center=64.0)
        params = SchemeParams.from_cfl(sigma=0.1, mu=1.0, re_h=1.0)
        history = sim.run(state, m1_coeffs, params, n_steps=100, snap_every=50)
        report = sim.measure_persistence(history, grid, sol)
        assert all(err > 0.5 for err in report.shape_errors)

    def test_kink_run_produces_series(self, m1_coeffs):
        params = SchemeParams.from_cfl(sigma=0.1, mu=1.0, re_h=1.0)
        grid = sim.Grid1D(128, 1.0)
        sol = closed_form_kink(params, m1_coeffs, C=1.0, C1=0.2)
        history = sim.run(sim.inject_kink(grid, sol), m1_coeffs, params, 100, snap_every=20)
        report = sim.measure_persistence(history, grid, sol)
        assert len(report.times) == len(history)
        assert report.shape_errors[0] <= 1e-9
        assert all(e >= 0.0 for e in report.shape_errors)

    def test_constant_template_rejected(self, unit_params, m1_coeffs):
        grid = sim.Grid1D(64, 1.0)
        sol = closed_form_kink(unit_params, m1_coeffs, C=0.0, C1=0.2, V0=1.0)
        snap = sim.inject_constant(grid, 1.0)
        with pytest.raises(ValueError):
            sim.measure_persistence([snap], grid, sol)

    @pytest.mark.parametrize(
        "U1, message",
        [(1e153, "cross-correlation of the snapshot at t=0.0"), (1e160, "AC norm")],
    )
    def test_overflow_raises_instead_of_a_wrong_fit(self, U1, message):
        # the field is the template, but an overflowed correlation is NaN
        # throughout, and its argmax would start the search at a wrong shift
        grid = sim.Grid1D(64, 1.0)
        sol = KinkSolution(U1=U1, V0=0.0, C1=0.2, v=1.0, C=1.0)
        snap = sim.FieldState(values=sim.mirrored_kink_profile(grid, sol), t=0.0, step_count=0)
        with pytest.raises(NonFiniteResultError, match=message):
            sim.measure_persistence([snap], grid, sol)


def test_tanh_is_exactly_one_from_twenty_on():
    # the windowed fit takes the template as U1 * (+-1) + V0 wherever
    # |C1 d| >= 20; a dense grid of [20, 1e3], then a few far values
    y = np.concatenate([
        np.linspace(20.0, 1e3, 2_000_001),
        20.0 + np.arange(100_000) * np.spacing(20.0),
        [1e4, 1e100, 1.7976931348623157e308, np.inf],
    ])
    assert np.all(np.tanh(y) == 1.0)
    assert np.all(np.tanh(-y) == -1.0)
