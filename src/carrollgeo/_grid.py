"""Tensor-product not-a-knot cubic spline on a rectilinear grid.

On every grid cell the interpolant is a polynomial of degree 3 in each
coordinate, and it is C^2 across cell faces. The not-a-knot end conditions
(third derivative continuous across the second and the second-last node of
each axis) make it exact on data that is cubic in each coordinate (de Boor,
*A Practical Guide to Splines*, 1978, ch. IV). Outside the grid it is the
end cell's polynomial. Each axis needs at least ``MIN_NODES`` nodes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

MIN_NODES = 4
_POWERS = np.arange(4)


def _cell_coefficients(nodes: np.ndarray) -> np.ndarray:
    """The (m - 1, 4, m) linear map from the values y at the m nodes to the
    power-basis coefficients of each cell: s(nodes[i] + d) = sum_k c[i, k] d^k
    with c = out @ y."""
    m = len(nodes)
    h = np.diff(nodes)
    # second derivatives at the nodes, as linear forms in y: lhs @ M = rhs @ y
    lhs, rhs = np.zeros((m, m)), np.zeros((m, m))
    for j in range(1, m - 1):
        lhs[j, j - 1:j + 2] = h[j - 1], 2.0 * (h[j - 1] + h[j]), h[j]
        rhs[j, j - 1:j + 2] = 6.0 / h[j - 1], -6.0 / h[j - 1] - 6.0 / h[j], 6.0 / h[j]
    lhs[0, :3] = h[1], -(h[0] + h[1]), h[0]
    lhs[-1, -3:] = h[-1], -(h[-2] + h[-1]), h[-2]
    second = np.linalg.solve(lhs, rhs)
    eye, h = np.eye(m), h[:, None]
    slope = (eye[1:] - eye[:-1]) / h
    return np.stack(
        [eye[:-1], slope - h * (2.0 * second[:-1] + second[1:]) / 6.0,
         second[:-1] / 2.0, (second[1:] - second[:-1]) / (6.0 * h)],
        axis=1,
    )


class GridSpline:
    """The spline through ``values`` of shape (m_1, ..., m_n, V) on the
    strictly increasing ``axes`` (m_1, ..., m_n nodes, each at least
    ``MIN_NODES``). Calling it at one point (n,) returns (V,); at a stack
    (K, n) it returns (K, V)."""

    def __init__(self, axes: Sequence[np.ndarray], values: np.ndarray):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        coef = np.asarray(values, dtype=float)
        for k, nodes in enumerate(self.axes):
            coef = np.tensordot(_cell_coefficients(nodes), coef, axes=(2, k))
            coef = np.moveaxis(coef, (0, 1), (k, -1))  # cell index back in place, power last
        # (cells_1, ..., cells_n, V, 4 ** n), powers of axis 1 slowest
        self.coef = coef.reshape(coef.shape[: len(self.axes) + 1] + (-1,))

    def __call__(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        points = q.reshape(-1, len(self.axes))
        cells, weights = [], np.ones((len(points), 1))
        for k, nodes in enumerate(self.axes):
            # the interior nodes cut the line into the m - 1 cells; the end
            # cells reach to infinity, and a NaN lands in the last one
            cell = np.searchsorted(nodes[1:-1], points[:, k], side="right")
            powers = (points[:, k] - nodes[cell])[:, None] ** _POWERS
            weights = (weights[:, :, None] * powers[:, None, :]).reshape(len(points), -1)
            cells.append(cell)
        out = (self.coef[tuple(cells)] @ weights[:, :, None])[..., 0]
        return out if q.ndim == 2 else out[0]
