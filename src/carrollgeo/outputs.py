"""Deterministic CSV / JSON / SVG emitters.

Floats are written with ``repr`` (shortest round-trip form), so identical
inputs produce byte-identical files; there is no timestamp or random id
anywhere in the outputs.
"""

from __future__ import annotations

import errno
import json
import os
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ContractViolation
from .geodesics import Trajectory


def check_writable(path: str | Path) -> None:
    """Refuse, before any work, an output path that ``write_text`` would refuse: a directory, one whose
    directory is missing, or one that cannot be written. It creates and truncates nothing."""
    target = Path(path)
    folder = target.parent
    if target.is_dir():
        code = errno.EISDIR
    elif not folder.is_dir():
        code = errno.ENOENT
    elif not os.access(folder, os.W_OK | os.X_OK) or (target.exists() and not os.access(target, os.W_OK)):
        code = errno.EACCES
    else:
        return
    raise ContractViolation(f"cannot write {path}: {os.strerror(code)}")


def write_text(path: str | Path, text: str) -> None:
    """Write the output file ``path``; one that cannot be written is a ContractViolation naming it."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ContractViolation(f"cannot write {path}: {exc.strerror}") from None


def _fmt(value: float) -> str:
    return repr(float(value))


def trajectory_header(dim: int) -> list[str]:
    cols = ["lambda"]
    cols += [f"x{i + 1}" for i in range(dim)]
    cols += ["t"]
    cols += [f"vx{i + 1}" for i in range(dim)]
    cols += ["vt", "Q", "null_residual", "base_speed2"]
    return cols


def trajectory_rows(traj: Trajectory) -> list[list[float]]:
    rows = []
    for i in range(len(traj)):
        row = [traj.lam[i], *traj.x[i], traj.t[i], *traj.vx[i], traj.vt[i],
               traj.charge[i], traj.null_residual[i], traj.base_speed2[i]]
        rows.append([float(v) for v in row])
    return rows


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    dim = traj.x.shape[1]
    lines = [", ".join(trajectory_header(dim))]
    for row in trajectory_rows(traj):
        lines.append(", ".join(_fmt(v) for v in row))
    write_text(path, "\n".join(lines) + "\n")


def write_trajectory_json(traj: Trajectory, path: str | Path) -> None:
    dim = traj.x.shape[1]
    payload = {
        "columns": trajectory_header(dim),
        "rows": trajectory_rows(traj),
        "events": traj.events,
        "meta": traj.meta,
    }
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_christoffel_csv(
    path: str | Path,
    coord_names: Sequence[str],
    rows: Sequence[tuple],
    compare: bool = True,
) -> None:
    """Symbol dump: point coordinates, index labels, then value column(s).

    With ``compare`` the row carries (closed, numeric, deviation); without,
    a single value column (the golden-file format).
    """
    head = list(coord_names) + ["A", "B", "C"]
    head += ["closed_form", "numeric", "deviation"] if compare else ["value"]
    lines = [", ".join(head)]
    for row in rows:
        parts = []
        for v in row:
            parts.append(v if isinstance(v, str) else _fmt(v))
        lines.append(", ".join(parts))
    write_text(path, "\n".join(lines) + "\n")


def write_report_json(report: dict, path: str | Path) -> None:
    write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# SVG polylines (static, no interactivity)
# ---------------------------------------------------------------------------

SVG_SIZE = 640  # width and height of the square canvas, px
SVG_MARGIN = 40.0


def polyline_svg(curves: Sequence[np.ndarray], labels: Sequence[str] = ()) -> str:
    """Render 2d curves (arrays of shape (m, 2)) as plain SVG polylines."""
    width = height = SVG_SIZE
    margin = SVG_MARGIN
    pts = np.vstack([np.asarray(c, dtype=float) for c in curves])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi - lo < 1e-12, 1.0, hi - lo)

    def to_px(p):
        u = (p[0] - lo[0]) / span[0]
        v = (p[1] - lo[1]) / span[1]
        return (margin + u * (width - 2 * margin), height - margin - v * (height - 2 * margin))

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for k, curve in enumerate(curves):
        color = palette[k % len(palette)]
        coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in (to_px(p) for p in np.asarray(curve)))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if k < len(labels):
            parts.append(
                f'<text x="{margin:.0f}" y="{margin / 2 + 14 * k:.0f}" fill="{color}" '
                f'font-family="monospace" font-size="12">{labels[k]}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_trajectory_svg(traj: Trajectory, path: str | Path, mode: str = "xy") -> None:
    """Draw the base-plane path (mode xy) or the log-time angle plot (mode ulog)."""
    if mode == "ulog":
        u = np.log(np.abs(traj.t))
        curve = np.column_stack([u, traj.x[:, -1]])
        label = "x_last vs log|t|"
    else:
        if traj.x.shape[1] >= 2:
            curve = traj.x[:, :2]
            label = "x2 vs x1"
        else:
            curve = np.column_stack([traj.lam, traj.x[:, 0]])
            label = "x1 vs lambda"
    write_text(path, polyline_svg([curve], labels=[label]))
