"""Pure NumPy stencil kernel, same contract and FP order as the compiled one."""

from __future__ import annotations

import numpy as np


def step_many(u: np.ndarray, gamma: np.ndarray, coef: float, n_steps: int) -> np.ndarray:
    """Advance the periodic field n_steps times; returns a new array.

    u_new[i] = u[i] + coef * sum_k gamma[k-1] * (u[i+k] - u[i-k]) with
    periodic indexing; coef is tau/h.  The sum starts from +0.0 and runs
    over ascending k, as in the compiled kernel.

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
