"""Periodic 1D execution of the stencil scheme with measurement utilities."""

from .grid import (
    FieldState,
    Grid1D,
    ResolutionWarning,
    inject_constant,
    inject_gaussian,
    inject_kink,
    inject_mode,
    inject_random,
    mirrored_kink_profile,
)
from .measure import PersistenceReport, measure_persistence, measure_speed
from .stepper import (
    KERNEL_BACKEND,
    NORM_GUARD_FACTOR,
    horizon_steps,
    run,
    spectral_oracle,
    step,
    step_many,
)

__all__ = [
    "FieldState",
    "Grid1D",
    "ResolutionWarning",
    "inject_constant",
    "inject_gaussian",
    "inject_kink",
    "inject_mode",
    "inject_random",
    "mirrored_kink_profile",
    "PersistenceReport",
    "measure_persistence",
    "measure_speed",
    "KERNEL_BACKEND",
    "NORM_GUARD_FACTOR",
    "horizon_steps",
    "run",
    "spectral_oracle",
    "step",
    "step_many",
]
