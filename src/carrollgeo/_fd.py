"""Central finite differences with one Richardson extrapolation pass.

This module is the only place that knows how the package differentiates:
the step sizes, the stencil and the Richardson combination. The step is
h = rel * max(1, |c|) per coordinate, with an optional sign guard that
shrinks it so a stencil never crosses zero on protected axes (the fiber
coordinate). ``DEFAULT_REL_STEP`` applies to the bundle's fields (metric
blocks, gauge fields, vector fields, assembled metrics) and
``TRANSITION_REL_STEP`` to chart-transition data (base maps, fiber factors,
fiber transitions); callers do not choose a step.

The Richardson difference has a truncation error of order h^4 and a roundoff
error of order eps / h, so its accuracy peaks at a step between the two.
``DEFAULT_REL_STEP`` sits there for the bundle's fields. Against the closed
Christoffel symbols on every chart of the catalog, the demo file and a grid
file, the worst relative gap per chart is 3-6e-11 at 1e-5 and 3-5e-12 at
1e-4 (roundoff), 0.5-1.7e-12 from 3e-4 to 1e-3, and 6e-11 at 3e-3
(truncation). Of the steps on that floor it takes the smallest, which
leaves the most room for a field that varies faster than the catalog's.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

DEFAULT_REL_STEP = 3e-4
TRANSITION_REL_STEP = 1e-6
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
        # both stencils on one side even for a coarse rel.
        return min(rel * c, 0.49 * c)
    return step_size(p[axis], rel)


def offsets(h: float) -> tuple[float, float, float, float]:
    """The stencil's offsets on one axis, in the order ``richardson`` takes
    its values."""
    return h, -h, h / 2.0, -h / 2.0


def stencil(p: np.ndarray, keep_sign: Sequence[int] = ()):
    """The Richardson stencils around the K points of ``p``, shape (K, m), at
    ``DEFAULT_REL_STEP``: the points, shape (K, 4m + 1, m), each stencil's
    centre first and then ``offsets`` on each axis in turn, and the per-axis
    steps h, shape (K, m)."""
    return _stencil(p, DEFAULT_REL_STEP, keep_sign)


def transition_stencil(x: np.ndarray):
    """``stencil`` around the K points of ``x`` at ``TRANSITION_REL_STEP``, for chart transitions."""
    return _stencil(x, TRANSITION_REL_STEP, ())


def _stencil(p: np.ndarray, rel: float, keep_sign: Sequence[int]):
    p = np.asarray(p, dtype=float)
    h = [[_guarded_step(q, a, rel, keep_sign) for a in range(len(q))] for q in p.tolist()]
    h = np.array(h).reshape(p.shape)
    points = _unit_offsets(p.shape[1]) * h[:, None]
    points += p[:, None]
    return points, h


@functools.cache
def _unit_offsets(m: int) -> np.ndarray:
    """``offsets(1.0)`` on each of m axes in turn after the centre, shape (4m + 1, m), read-only; every
    other entry is -0.0, which keeps a coordinate exact under addition (0.0 turns -0.0 into 0.0)."""
    pattern = np.full((4 * m + 1, m), -0.0)
    for a in range(m):
        pattern[1 + 4 * a : 5 + 4 * a, a] = offsets(1.0)
    pattern.flags.writeable = False
    return pattern


def richardson(plus, minus, plus_half, minus_half, h):
    """(4 d(h/2) - d(h)) / 3, d(s) the central difference over the values at
    +s and -s. Elementwise: plain floats, the values of one axis, or of every
    axis stacked along an axis with h shaped to broadcast."""
    d1 = (plus - minus) / (2.0 * h)
    d2 = (plus_half - minus_half) / h  # over 2 (h / 2), which is h exactly
    return (4.0 * d2 - d1) / 3.0


def stacked_partials(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Partials at K points, shape (K, m, ...), from the values at their stencil points
    after the centre, shape (K, 4m, ...), and their steps h, shape (K, m)."""
    h = np.reshape(h, h.shape + (1,) * (values.ndim - 2))
    return richardson(values[:, 0::4], values[:, 1::4], values[:, 2::4], values[:, 3::4], h)


def partial(f: Callable[[np.ndarray], np.ndarray], p: np.ndarray, axis: int, rel: float = DEFAULT_REL_STEP,
            keep_sign: Sequence[int] = ()):
    """Partial derivative of ``f`` along ``axis`` at ``p``.

    ``f`` may return a scalar or an ndarray; the result has the same shape.
    """
    p = np.asarray(p, dtype=float)
    h = _guarded_step(p, axis, rel, keep_sign)
    values = []
    for offset in offsets(h):
        q = p.copy()
        q[axis] += offset
        values.append(np.asarray(f(q), dtype=float))
    return richardson(*values, h)


def partials(f: Callable[[np.ndarray], np.ndarray], p: np.ndarray, rel: float = DEFAULT_REL_STEP,
             keep_sign: Sequence[int] = ()) -> np.ndarray:
    """All partial derivatives, stacked along a new leading axis, so a
    Jacobian d f_i / d x_j is ``partials(f, x).T``; ``f`` is called at the 4m
    stencil points, not at the centre. Axis by axis: for the small stencils
    of its callers this is cheaper than filling a ``stencil`` array."""
    p = np.asarray(p, dtype=float)
    return np.array([partial(f, p, a, rel, keep_sign) for a in range(p.size)])


def fiber_derivatives(psi: Callable[[float, float], float], ms: Sequence[float]) -> np.ndarray:
    """d/dr psi(m, r) at r = 0 for each m of ``ms``, at ``TRANSITION_REL_STEP``: psi is
    called at the ``offsets`` of each m in turn, and one Richardson pass takes them all."""
    rs = offsets(TRANSITION_REL_STEP)
    values = np.array([[psi(m, r) for r in rs] for m in ms], dtype=float).reshape(len(ms), 4)
    return richardson(*values.T, TRANSITION_REL_STEP)


def log_gradient(phi: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """grad log|phi| at ``x``: the logarithmic derivative of a nonzero fiber factor."""
    return partials(lambda y: float(np.log(abs(phi(y)))), x, rel=TRANSITION_REL_STEP)
