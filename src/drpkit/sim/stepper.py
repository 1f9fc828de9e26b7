"""Time stepping for the explicit stencil scheme, with a spectral oracle.

The scheme is weakly unstable (|g| >= 1 for every mode), so long runs are
bounded by a norm-growth guard instead of pretending stability.  One NumPy
kernel does the stepping; the spectral oracle checks it.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import BlowUpError, NonFiniteResultError, NormGuardError
from ..modeq import SchemeParams, discrete_symbol
from ..stencil import StencilCoefficients
from .grid import FieldState, Grid1D, l2_norm

#: The stepping backend, reported in run configs; NumPy is the only one.
KERNEL_BACKEND = "numpy"

#: Abort threshold for the L2 growth guard.
NORM_GUARD_FACTOR = 1e3

#: Most steps taken between two checks of the norm guard.  Fixed, so the
#: step a run aborts at does not depend on the snapshot stride; small, so
#: few steps are redone when a tripped check is replayed step by step.
GUARD_STRIDE = 16


def step_many(u: np.ndarray, gamma: np.ndarray, coef: float, n_steps: int) -> np.ndarray:
    """Advance the periodic field n_steps times; returns a new array.

    u_new[i] = u[i] + coef * sum_k gamma[k-1] * (u[i+k] - u[i-k]) with
    periodic indexing; coef is tau/h.  The sum starts from +0.0 and runs
    over ascending k; that order fixes every bit of the result.

    The field lives in the middle of one buffer padded by m periodic images
    on each side, so every shifted operand is a view and each step
    allocates nothing.
    """
    u = np.asarray(u, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    n, m = u.shape[0], gamma.shape[0]
    if n <= 2 * m:
        raise ValueError("grid too small for the stencil half-width")
    padded = np.empty(n + 2 * m)
    field = padded[m : m + n]
    field[...] = u
    halos = ((padded[:m], padded[n : n + m]), (padded[m + n :], padded[m : 2 * m]))
    shifted = [(padded[m + k : m + k + n], padded[m - k : m - k + n], gamma[k - 1])
               for k in range(1, m + 1)]
    (ahead, behind, g), higher = shifted[0], shifted[1:]
    acc = np.empty(n)
    term = np.empty(n)
    for _ in range(n_steps):
        for halo, source in halos:
            np.copyto(halo, source)
        np.subtract(ahead, behind, out=acc)
        np.multiply(acc, g, out=acc)
        # 0.0 + x: turns -0.0 into +0.0 exactly as the +0.0 start of the sum
        np.add(acc, 0.0, out=acc)
        for ahead_k, behind_k, g_k in higher:
            np.subtract(ahead_k, behind_k, out=term)
            np.multiply(term, g_k, out=term)
            np.add(acc, term, out=acc)
        np.multiply(acc, coef, out=acc)
        np.add(field, acc, out=field)
    return field


def _check_compatible(n_nodes: int, coeffs: StencilCoefficients):
    if n_nodes <= 2 * coeffs.m:
        raise ValueError(
            f"grid of {n_nodes} nodes cannot carry a half-width {coeffs.m} stencil "
            "without self-wrap"
        )


def step(state: FieldState, coeffs: StencilCoefficients, params: SchemeParams) -> FieldState:
    """One explicit update u_i <- u_i + (tau/h) * sum_k gamma_k u_{i+k} (periodic).

    Returns a new state with t advanced by tau; raises BlowUpError if any
    value stops being finite.
    """
    _check_compatible(state.values.shape[0], coeffs)
    new_values = step_many(state.values, coeffs.gamma_array, params.tau / params.h, 1)
    if not np.all(np.isfinite(new_values)):
        raise BlowUpError(
            f"field blew up at step {state.step_count + 1}", step_count=state.step_count + 1
        )
    return FieldState(values=new_values, t=state.t + params.tau, step_count=state.step_count + 1)


def spectral_oracle(
    initial: FieldState,
    coeffs: StencilCoefficients,
    params: SchemeParams,
    n_steps: int,
) -> FieldState:
    """Exact evolution: per-mode multiplication by g(zeta_p)^n_steps.

    Algebraically identical to n_steps applications of ``step``; serves as
    the independent correctness oracle for the stepping kernel.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    _check_compatible(initial.values.shape[0], coeffs)
    if n_steps == 0:
        return initial
    n = initial.values.shape[0]
    zetas = 2.0 * math.pi * np.arange(n) / n
    g = discrete_symbol(coeffs, params, zetas)
    spectrum = np.fft.fft(initial.values) * g**n_steps
    values = np.fft.ifft(spectrum).real
    return FieldState(
        values=values,
        t=initial.t + n_steps * params.tau,
        step_count=initial.step_count + n_steps,
    )


def horizon_steps(grid: Grid1D, speed: float, params: SchemeParams) -> float:
    """Step budget before the two mirrored fronts can meet: N h / (4 |v| tau)."""
    if speed == 0.0:
        return math.inf
    return grid.N * grid.h / (4.0 * abs(speed) * params.tau)


def run(
    initial: FieldState,
    coeffs: StencilCoefficients,
    params: SchemeParams,
    n_steps: int,
    snap_every: int = 1,
    use_oracle: bool = False,
    norm_guard: float = NORM_GUARD_FACTOR,
) -> list[FieldState]:
    """Advance the field and collect snapshots every ``snap_every`` steps.

    The initial state is snapshot zero.  Raises NonFiniteResultError when
    its L2 norm overflows, which leaves the guard no bound.  Aborts with
    NormGuardError once the L2 norm exceeds ``norm_guard`` times its
    initial value, and with BlowUpError on non-finite values.  Stepping
    checks both every ``GUARD_STRIDE`` steps whatever ``snap_every`` is,
    and the error names the first step past the guard.  With ``use_oracle`` every snapshot is
    computed spectrally from the initial state instead of by stepping, and
    the checks run at the snapshots; a tripped snapshot is bisected with
    further oracle calls, so the error names the first step past the guard
    there too.
    """
    if snap_every < 1:
        raise ValueError("snap_every must be at least 1")
    _check_compatible(initial.values.shape[0], coeffs)
    snapshots = [initial]
    with np.errstate(over="ignore"):
        initial_norm = initial.l2_norm()
    if not math.isfinite(initial_norm):
        raise NonFiniteResultError("the L2 norm of the initial field overflows a float")
    guard_limit = norm_guard * initial_norm if initial_norm > 0.0 else math.inf

    def check(values, done):
        if not np.all(np.isfinite(values)):
            raise BlowUpError(f"field blew up by step {done}", step_count=done)
        if l2_norm(values) > guard_limit:
            raise NormGuardError(
                f"L2 norm exceeded {norm_guard:g} x initial by step {done}", step_count=done
            )

    def oracle(done):
        try:
            state = spectral_oracle(initial, coeffs, params, done)
        except BlowUpError:
            # FieldState rejects the non-finite values before check sees them
            raise BlowUpError(f"field blew up by step {done}", step_count=done) from None
        check(state.values, done)
        return state

    gamma = coeffs.gamma_array
    coef = params.tau / params.h
    current = initial.values
    done = 0
    # overflow past the guard is caught by the checks, not reported by NumPy
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n_steps:
            end = min(done + snap_every, n_steps)
            if use_oracle:
                try:
                    snapshots.append(oracle(end))
                except (BlowUpError, NormGuardError) as exc:
                    # |g| >= 1 for every mode, so the norm does not decrease
                    # with the step count: bisect (done, end] for the first trip
                    first, lo, hi = exc, done, end
                    while hi - lo > 1:
                        mid = (lo + hi) // 2
                        try:
                            oracle(mid)
                            lo = mid
                        except (BlowUpError, NormGuardError) as mid_exc:
                            first, hi = mid_exc, mid
                    raise first from None
                done = end
                continue
            while done < end:
                stride = min(GUARD_STRIDE, end - done)
                stepped = step_many(current, gamma, coef, stride)
                norm = l2_norm(stepped)
                # a finite norm also proves every value finite
                if math.isfinite(norm) and norm <= guard_limit:
                    current = stepped
                    done += stride
                    continue
                # replay one step at a time to report the first step past the guard
                for _ in range(stride):
                    current = step_many(current, gamma, coef, 1)
                    done += 1
                    check(current, done)
            snapshots.append(
                FieldState(
                    values=current,
                    t=initial.t + done * params.tau,
                    step_count=initial.step_count + done,
                )
            )
    return snapshots
