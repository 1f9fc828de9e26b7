"""Periodic 1D grid, field snapshots, and initial-condition injectors."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import BlowUpError
from ..wave.ansatz import KinkSolution


class ResolutionWarning(UserWarning):
    """An injected profile is too narrow for the grid spacing."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid of N nodes with spacing h."""

    N: int
    h: float

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 4:
            raise ValueError(f"need at least 4 nodes, got {self.N!r}")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"grid spacing must be positive, got {self.h!r}")

    @property
    def length(self) -> float:
        return self.N * self.h

    def nodes(self) -> np.ndarray:
        return np.arange(self.N, dtype=float) * self.h


@dataclass(frozen=True)
class FieldState:
    """Immutable snapshot of the field at one time level."""

    values: np.ndarray
    t: float
    step_count: int

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, copy=True)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if not np.all(np.isfinite(values)):
            raise BlowUpError(
                f"non-finite field value at step {self.step_count}",
                step_count=self.step_count,
            )

    def l2_norm(self) -> float:
        return l2_norm(self.values)


def l2_norm(values: np.ndarray) -> float:
    """Discrete L2 norm of a field's values."""
    # plain pairwise sum so the result is independent of BLAS threading
    return math.sqrt(float(np.sum(values * values)))


def mirrored_kink_profile(grid: Grid1D, sol: KinkSolution, shift: float = 0.0) -> np.ndarray:
    """Periodic-compatible kink: an up-step and a mirrored down-step half a period apart.

    The tanh argument is a triangle wave of the periodic distance to the
    up-step node (index N//4), so the value at the up-step is exactly V0,
    the plateau centers sit at V0 +- U1*tanh(C1*N*h/4), and the down-step
    at the antipode is an equally resolved mirrored front.  ``shift``
    translates the whole profile by a (possibly fractional) distance.
    """
    return mirrored_kink_profiles(grid, sol, [shift])[0]


def mirrored_kink_profiles(grid: Grid1D, sol: KinkSolution, shifts, nodes=None) -> np.ndarray:
    """``mirrored_kink_profile`` at each of ``shifts``, one row per shift.

    Every element goes through the same operations whatever the number of
    rows, so a row equals the one-shift profile bit for bit.  ``nodes``, an
    array of grid nodes with one row per shift, restricts each row to those
    nodes; every entry is then the full row's entry at that node, bit for bit.
    """
    L = grid.length
    x_up = (grid.N // 4) * grid.h
    shifts = np.asarray(shifts, dtype=np.float64).reshape(-1, 1)
    # d = mod(x - shift - x_up + L/2, L) - L/2, computed in place.  Every
    # node lies in [0, (N-1) h] and rounding is monotone, so the same
    # operations on those ends and the extreme shifts bound every entry.  On
    # [-L, 2L) one subtraction or addition of L rounds exactly as np.mod does
    # (fmod is exact there); the only difference, -0.0 for +0.0, vanishes at
    # - L/2, so a block with any entry outside that range takes np.mod whole.
    d = np.subtract(grid.nodes() if nodes is None else nodes, shifts)
    d -= x_up
    d += L / 2.0
    lowest = (0.0 - shifts.max() - x_up) + L / 2.0
    highest = ((grid.N - 1) * grid.h - shifts.min() - x_up) + L / 2.0
    if -L <= lowest and highest < 2.0 * L:
        np.subtract(d, L, out=d, where=d >= L)
        np.add(d, L, out=d, where=d < 0.0)
    else:
        np.mod(d, L, out=d)
    d -= L / 2.0
    # triangle wave: d itself within L/4 of the up-step, else mirrored
    far = np.abs(d)
    mirrored = far > L / 4.0
    np.subtract(L / 2.0, far, out=far)
    np.copysign(far, d, out=d, where=mirrored)
    d *= sol.C1
    np.tanh(d, out=d)
    d *= sol.U1
    d += sol.V0
    return d


def inject_kink(grid: Grid1D, sol: KinkSolution) -> FieldState:
    """Sample the mirrored kink onto the grid; warns when 1/C1 < 4h."""
    if 1.0 / abs(sol.C1) < 4.0 * grid.h:
        warnings.warn(
            f"kink width 1/C1 = {1.0 / abs(sol.C1):.4g} is under four cells; "
            "the profile is unresolved",
            ResolutionWarning,
            stacklevel=2,
        )
    return FieldState(values=mirrored_kink_profile(grid, sol), t=0.0, step_count=0)


def inject_gaussian(grid: Grid1D, amplitude: float, width: float, center: float) -> FieldState:
    """Gaussian bump amplitude * exp(-(d/width)^2) with periodic distance d."""
    if width <= 0.0:
        raise ValueError("width must be positive")
    L = grid.length
    d = np.mod(grid.nodes() - center + L / 2.0, L) - L / 2.0
    return FieldState(values=amplitude * np.exp(-((d / width) ** 2)), t=0.0, step_count=0)


def inject_constant(grid: Grid1D, value: float) -> FieldState:
    return FieldState(values=np.full(grid.N, float(value)), t=0.0, step_count=0)


def inject_mode(grid: Grid1D, p: int, amplitude: float = 1.0) -> FieldState:
    """Single real Fourier mode cos(2 pi p i / N)."""
    phases = 2.0 * math.pi * p * np.arange(grid.N) / grid.N
    return FieldState(values=amplitude * np.cos(phases), t=0.0, step_count=0)


def inject_random(grid: Grid1D, seed: int, amplitude: float = 1.0) -> FieldState:
    rng = np.random.default_rng(seed)
    return FieldState(values=amplitude * rng.standard_normal(grid.N), t=0.0, step_count=0)
