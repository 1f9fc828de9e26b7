"""Empirical front-speed and shape-persistence measurements."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import LostFrontError, NonFiniteResultError
from ..wave.ansatz import KinkSolution
from .grid import FieldState, Grid1D, mirrored_kink_profile, mirrored_kink_profiles

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# elements per block of lockstep searches: bounded memory, arrays that stay in cache
_BLOCK_ELEMENTS = 2**15
# tanh rounds to exactly +-1 from |y| = 18.99 on; tests/test_measure.py pins it from here
_TANH_FLAT = 20.0
# the largest share of a row that the two front windows may cover
_WINDOW_SHARE = 0.6


def _rising_crossings(values: np.ndarray, level: float) -> list[float]:
    """Interpolated positions (index units) where the field rises through the level."""
    nxt = np.roll(values, -1)
    (idx,) = np.nonzero((values < level) & (level <= nxt) & (nxt > values))
    lo, hi = values[idx], nxt[idx]
    return (idx + (level - lo) / (hi - lo)).tolist()


def measure_speed(history: list[FieldState], level: float) -> float:
    """Front speed from the rising level crossing, in grid-index units per unit time.

    The rising crossing is tracked snapshot to snapshot (nearest periodic
    image to the previous position; the steepest one seeds the track),
    unwrapped, and fit against time by least squares.  The mirrored front
    of a kink crosses the level falling, so it is excluded by construction.
    Raises LostFrontError when a snapshot has no rising crossing, and
    ValueError when the snapshot times are too small to fit.
    """
    if len(history) < 2:
        raise ValueError("need at least two snapshots to fit a speed")
    n = history[0].values.shape[0]
    times = []
    positions = []
    previous = None
    for snap in history:
        crossings = _rising_crossings(np.asarray(snap.values), level)
        if not crossings:
            raise LostFrontError(
                f"no rising crossing of level {level!r} at t={snap.t!r}"
            )
        if previous is None:
            slopes = []
            for pos in crossings:
                i = int(pos) % n
                slopes.append(snap.values[(i + 1) % n] - snap.values[i])
            pos = crossings[int(np.argmax(slopes))]
        else:
            # nearest periodic image of the previous position, kept unwrapped
            wrapped = previous % n
            deltas = [(c - wrapped + n / 2.0) % n - n / 2.0 for c in crossings]
            pos = previous + deltas[int(np.argmin(np.abs(deltas)))]
        previous = pos
        times.append(snap.t)
        positions.append(pos)
    # polyfit divides by the norm of the times, which underflows to zero when
    # the time step is tiny (tau = 1e-301), and LAPACK then prints to stderr
    with np.errstate(divide="raise", invalid="raise"):
        try:
            slope, _ = np.polyfit(np.asarray(times), np.asarray(positions), 1)
        except FloatingPointError:
            raise ValueError(f"snapshot times up to {times[-1]!r} are too small to fit") from None
    return float(slope)


@dataclass(frozen=True)
class PersistenceReport:
    """Best-fit shape error and shift of each snapshot against a kink template."""

    times: tuple[float, ...]
    shifts: tuple[float, ...]
    shape_errors: tuple[float, ...]


def _shape_errors(
    block: np.ndarray, grid: Grid1D, sol: KinkSolution, shifts: np.ndarray, ac_norm: float
) -> np.ndarray:
    """Shape error of each row of ``block`` against the template at its shift."""
    residual = mirrored_kink_profiles(grid, sol, shifts)
    np.subtract(block, residual, out=residual)
    # a row reduction sums each row pairwise, as np.sum does a 1-D array
    return np.sqrt(np.add.reduce(np.square(residual, out=residual), axis=1)) / ac_norm


def _window_reach(grid: Grid1D, sol: KinkSolution) -> int | None:
    """Cells on each side of a front that a shift within h of a node can bend, or None.

    Farther than 20 / |C1| from both fronts, tanh(C1 d) is exactly +-1, so
    those template entries are the same for every shift of a search.  None
    when the two windows would cover more than ``_WINDOW_SHARE`` of a row,
    where recomputing whole rows costs about as much.
    """
    scale = abs(sol.C1) * grid.h
    if not scale * grid.N > _TANH_FLAT:
        return None
    reach = math.ceil(_TANH_FLAT / scale) + 3
    return reach if 2 * (2 * reach + 2) <= _WINDOW_SHARE * grid.N else None


def _block_errors(block, grid, sol, starts, ac_norm, reach):
    """The shape errors of ``block``'s rows as a function of their shifts.

    Row r's shift must lie within h of ``starts[r] * h``.  With a ``reach``,
    the squared residual of each row at its start is kept, and an evaluation
    recomputes only the entries within ``reach`` cells of either front (the
    down-front sits mid-cell for odd N, so each window takes one cell more)
    before the same full-row reduction: every error keeps its bits.
    """
    if reach is None:
        return lambda shifts: _shape_errors(block, grid, sol, shifts, ac_norm)
    n = grid.N
    residual = mirrored_kink_profiles(grid, sol, starts * grid.h)
    np.subtract(block, residual, out=residual)
    np.square(residual, out=residual)
    up = n // 4 + starts
    fronts = np.stack([up, up + n // 2], axis=1)
    columns = (fronts[:, :, None] + np.arange(-reach, reach + 2)).reshape(len(starts), -1) % n
    flat = columns + (np.arange(len(starts)) * n)[:, None]
    nodes = grid.nodes()[columns]
    values = block.reshape(-1)[flat]
    flat_residual = residual.reshape(-1)

    def errors(shifts):
        window = mirrored_kink_profiles(grid, sol, shifts, nodes)
        np.subtract(values, window, out=window)
        flat_residual[flat] = np.square(window, out=window)
        return np.sqrt(np.add.reduce(residual, axis=1)) / ac_norm

    return errors


# overflow is reported as NonFiniteResultError, not by NumPy
@np.errstate(over="ignore", invalid="ignore")
def measure_persistence(
    history: list[FieldState], grid: Grid1D, sol: KinkSolution
) -> PersistenceReport:
    """How long the field keeps the injected kink shape.

    Per snapshot, minimizes ||u - kink(. - s)||_2 over the shift s (integer
    part by circular cross-correlation, fractional part by golden-section
    refinement over one cell each way).  Errors are normalized by the AC
    norm ||kink - V0||_2 of the unshifted template, so adding the same
    constant to the field and to V0 leaves them unchanged.  Raises
    NonFiniteResultError when that norm, a cross-correlation or a shape
    error overflows.

    The golden-section searches of a block of snapshots run in lockstep,
    one template row per snapshot and round; every search takes the same
    48 rounds, and each row's arithmetic is that of a search on its own.
    Where the kink is narrow against the grid, a round recomputes only
    the cells near the two fronts.
    """
    template = mirrored_kink_profile(grid, sol) - sol.V0
    ac_norm = float(np.sqrt(np.sum(template**2)))
    if ac_norm == 0.0:
        raise ValueError("constant kink template has no shape to match")
    if not math.isfinite(ac_norm):
        raise NonFiniteResultError("the AC norm of the kink template overflows a float")
    spectrum_t = np.conj(np.fft.fft(template))
    starts = []
    for snap in history:
        values = np.asarray(snap.values)
        centered = values - np.mean(values)
        corr = np.fft.ifft(np.fft.fft(centered) * spectrum_t).real
        if not np.all(np.isfinite(corr)):
            raise NonFiniteResultError(
                f"the cross-correlation of the snapshot at t={snap.t!r} with the kink "
                "template overflows"
            )
        starts.append(int(np.argmax(corr)))
    reach = _window_reach(grid, sol)
    rows = max(1, _BLOCK_ELEMENTS // grid.N)
    shifts = []
    errors = []
    for first in range(0, len(history), rows):
        block = np.array([snap.values for snap in history[first : first + rows]])
        block_starts = np.array(starts[first : first + rows])
        shape_errors = _block_errors(block, grid, sol, block_starts, ac_norm, reach)
        s0 = block_starts * grid.h
        a, b = s0 - grid.h, s0 + grid.h
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc = shape_errors(c)
        fd = shape_errors(d)
        for _ in range(48):
            # left: b, d, fd = d, c, fc and a new c; else a, c, fc = c, d, fd and a new d
            left = fc < fd
            a, b = np.where(left, a, c), np.where(left, d, b)
            kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
            new = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
            f_new = shape_errors(new)
            c, fc = np.where(left, new, kept), np.where(left, f_new, f_kept)
            d, fd = np.where(left, kept, new), np.where(left, f_kept, f_new)
        best = (a + b) / 2.0
        shifts += [s % grid.length for s in best.tolist()]
        errors += shape_errors(best).tolist()
    for snap, error in zip(history, errors):
        if not math.isfinite(error):
            raise NonFiniteResultError(
                f"the shape error of the snapshot at t={snap.t!r} overflows"
            )
    return PersistenceReport(
        times=tuple(float(snap.t) for snap in history),
        shifts=tuple(shifts),
        shape_errors=tuple(errors),
    )
