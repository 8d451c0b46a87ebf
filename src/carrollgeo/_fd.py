"""Central finite differences with one Richardson extrapolation pass.

All derivative-based operations in the library go through these helpers so
the stepping policy lives in one place: relative step h = rel * max(1, |c|)
per coordinate, and an optional sign guard that shrinks the step so a
stencil never crosses zero on protected axes (the fiber coordinate).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

DEFAULT_REL_STEP = 1e-5
SIGN_GUARD_CUTOFF = 1e-9


def step_size(value: float, rel: float = DEFAULT_REL_STEP) -> float:
    return rel * max(1.0, abs(value))


def _guarded_step(p: np.ndarray, axis: int, rel: float, keep_sign: Sequence[int]) -> float:
    if axis in keep_sign:
        c = abs(p[axis])
        if c < SIGN_GUARD_CUTOFF:
            raise DomainError(
                f"cannot difference across zero on axis {axis} (|coordinate| = {c:.3e})"
            )
        # Sign-guarded axes scale like the coordinate itself (fields vary by
        # powers of it), so the step is proportional to |c|; the clamp keeps
        # both stencils on one side even for coarse user-supplied rel.
        return min(rel * c, 0.49 * c)
    return step_size(p[axis], rel)


def partial(
    f: Callable[[np.ndarray], np.ndarray],
    p: np.ndarray,
    axis: int,
    rel: float = DEFAULT_REL_STEP,
    richardson: bool = True,
    keep_sign: Sequence[int] = (),
):
    """Partial derivative of ``f`` along ``axis`` at ``p``.

    ``f`` may return a scalar or an ndarray; the result has the same shape.
    """
    p = np.asarray(p, dtype=float)
    h = _guarded_step(p, axis, rel, keep_sign)

    def central(step: float):
        hi = p.copy()
        lo = p.copy()
        hi[axis] += step
        lo[axis] -= step
        return (np.asarray(f(hi), dtype=float) - np.asarray(f(lo), dtype=float)) / (2.0 * step)

    d1 = central(h)
    if not richardson:
        return d1
    d2 = central(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def partials(
    f: Callable[[np.ndarray], np.ndarray],
    p: np.ndarray,
    rel: float = DEFAULT_REL_STEP,
    richardson: bool = True,
    keep_sign: Sequence[int] = (),
) -> np.ndarray:
    """All partial derivatives, stacked along a new leading axis."""
    p = np.asarray(p, dtype=float)
    return np.stack(
        [partial(f, p, a, rel=rel, richardson=richardson, keep_sign=keep_sign) for a in range(p.size)]
    )


def gradient(f: Callable[[np.ndarray], float], x: np.ndarray, rel: float = DEFAULT_REL_STEP) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.array([float(partial(f, x, a, rel=rel)) for a in range(x.size)])


def log_gradient(phi: Callable[[np.ndarray], float], x: np.ndarray, rel: float = DEFAULT_REL_STEP) -> np.ndarray:
    """grad log|phi| at ``x``: the logarithmic derivative of a nonzero factor."""
    return gradient(lambda y: float(np.log(abs(phi(y)))), x, rel=rel)


def jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, rel: float = DEFAULT_REL_STEP) -> np.ndarray:
    """J[i, j] = d f_i / d x_j."""
    x = np.asarray(x, dtype=float)
    cols = [np.asarray(partial(f, x, a, rel=rel), dtype=float) for a in range(x.size)]
    return np.stack(cols, axis=-1)


def scalar_derivative(f: Callable[[float], float], value: float, rel: float = DEFAULT_REL_STEP) -> float:
    g = lambda arr: f(float(arr[0]))
    return float(partial(g, np.array([value]), 0, rel=rel))
