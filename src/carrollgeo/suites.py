"""Invariant check suites driven by the CLI `check` command and the tests.

Each suite returns a list of CheckResult records; a scenario passes when
every record does. The suites re-derive everything from the scenario data.
They are the only reader of a scenario's declared expectations, which they
verify, never trust.

A check samples points and reduces the samples with numpy: its value is its
largest sample (the smallest for ``base_block_invertible``), and a
non-finite sample fails it, since numpy's reduction carries a NaN through
where Python's ``max`` would drop it.

A check reads each field once per chart for all its sample points
(``geometry.read_stacked``), so a field that raises fails its suite after
every draw made before that read. An overlap check draws every sample of a
transition, then differences it in one pass (``ChartTransition.tangent_maps``)
that fails at the first failing sample in draw order. Checks batch ``det``,
``cond`` and ``eigvalsh``; ``christoffel_suite`` makes one oracle call per
chart and sign, and the determinant identity reads g_M again for its side
that does not go through the assembly.

The kernel of the degenerate form (the Euler direction, (0, 1) in adapted
components) and the duality omega(Euler) = 1 hold by how the data is stored,
so no row restates them: every row here can fail on a finite field.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .connection import overlap_gauge_residual
from .errors import CarrollError
from .geometry import euler_weight, read_raw, read_stacked
from .kaluza import closed_form_deviation, det_identity_defect, signature_counts
from .scenarios import Scenario


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    tol: float
    detail: str = ""

    def as_dict(self) -> dict:
        value = float(self.value)
        if not math.isfinite(value):
            value = 1e308  # keep the report strict JSON
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": value,
            "tol": float(self.tol),
            "detail": self.detail,
        }


def _worst(samples) -> float:
    """A check's value: its largest sample, 0.0 for none, NaN if any sample is NaN."""
    return float(np.max(samples, initial=0.0))


def _result(name: str, value: float, tol: float, detail: str = "") -> CheckResult:
    """A NaN value fails ``value <= tol``; the detail says so, since the
    report writes every non-finite value as 1e308."""
    detail = "non-finite sample" if math.isnan(value) else detail
    return CheckResult(name=name, passed=bool(value <= tol), value=float(value), tol=tol, detail=detail)


def kernel_suite(scenario: Scenario, rng: np.random.Generator) -> list[CheckResult]:
    """Block structure: the base block is symmetric and invertible. g_M is
    read once per chart, at all its points."""
    gm = np.concatenate([
        read_stacked(scenario.metric.at, scenario.sample_points(rng, 10, chart=chart))
        for chart in scenario.atlas.chart_names()
    ])
    min_abs_det = float(np.min(np.abs(np.linalg.det(gm)), initial=math.inf))
    finite = gm[np.isfinite(gm).all(axis=(1, 2))]  # the SVD behind ``cond`` rejects a non-finite block
    return [
        _result("base_block_symmetry", _worst(np.max(np.abs(gm - np.swapaxes(gm, 1, 2)), axis=(1, 2))), 1e-12),
        CheckResult(
            name="base_block_invertible",
            passed=min_abs_det > 1e-12,
            value=min_abs_det,
            tol=1e-12,
            detail="non-finite sample" if math.isnan(min_abs_det)
            else f"min |det g_M|; condition number up to {_worst(np.linalg.cond(finite)):.3e}",
        ),
    ]


def killing_suite(scenario: Scenario, rng: np.random.Generator) -> list[CheckResult]:
    """Euler homogeneity against the declared expectations."""
    results = []
    points = scenario.sample_points(rng, 8)
    reports = [euler_weight(scenario.metric, p) for p in points]
    worst_prop = _worst([r.residual for r in reports])
    results.append(_result("euler_proportionality", worst_prop, 1e-6))
    expects = scenario.expects
    if expects.get("euler_killing"):
        results.append(_result("euler_killing", _worst([abs(r.factor) for r in reports]), 1e-8))
    elif "weight" in expects and expects["weight"] is not None:
        target = float(expects["weight"])
        worst = _worst([abs(r.factor - target) for r in reports])
        results.append(_result(f"homogeneity_weight_{target:g}", worst, 1e-6))
    elif expects.get("conformal"):
        spread = float(np.ptp([r.factor for r in reports]))
        results.append(
            CheckResult(
                name="conformal_not_killing",
                passed=worst_prop <= 1e-6 and spread > 1e-8,
                value=spread,
                tol=1e-8,
                detail="proportional with a non-constant factor",
            )
        )
    return results


def connection_suite(scenario: Scenario, rng: np.random.Generator) -> list[CheckResult]:
    """The inhomogeneous gauge rule on every overlap; no row without transitions."""
    if not scenario.atlas.transitions:
        return []
    return [_result("gauge_overlap_rule", overlap_gauge_residual(scenario.atlas, scenario.connection(), rng), 1e-8)]


def determinant_suite(scenario: Scenario, rng: np.random.Generator) -> list[CheckResult]:
    """Determinant identity and Lorentzian signature of the assembled metrics.
    Per sign, the raw components are built in one stacked read and serve
    both; g_M is read once more as the independent side of the identity."""
    defects = []
    signature_ok = True
    for sign in (+1, -1):
        kk = scenario.kk(sign)
        points = scenario.sample_points(rng, 10)
        raw = read_raw(kk.components, points)
        t = np.array([p.t for p in points])
        defects.extend(det_identity_defect(raw, read_stacked(kk.metric.at, points), t, sign))
        if sign == -1:
            pos, neg = signature_counts(raw)
            signature_ok = bool(np.all((pos == scenario.dim) & (neg == 1)))
    return [
        _result("kk_determinant_identity", _worst(defects), 1e-8),
        CheckResult(
            name="lorentzian_signature",
            passed=signature_ok,
            value=0.0 if signature_ok else 1.0,
            tol=0.0,
            detail=f"eigenvalue signs ({scenario.dim}, 1) for sign -1",
        ),
    ]


def christoffel_suite(scenario: Scenario, rng: np.random.Generator) -> list[CheckResult]:
    """Closed-form vs oracle symbols where the gauge field is known to vanish:
    per sign, ceil(20 / charts) points on each chart, t of either sign."""
    per_chart = math.ceil(20 / len(scenario.atlas.charts))
    deviations = []
    for sign in (+1, -1):
        kk = scenario.kk(sign)
        if kk.gauge.is_zero:
            points = [
                p
                for chart in scenario.atlas.chart_names()
                for p in scenario.sample_points(rng, per_chart, chart=chart, include_negative_t=True)
            ]
            deviations.append(closed_form_deviation(kk, points))
    detail = "" if deviations else "no sample compared: the gauge field is nonzero"
    return [_result("christoffel_oracle_agreement", _worst(deviations), 1e-6, detail)]


def overlap_metric_suite(scenario: Scenario, rng: np.random.Generator) -> list[CheckResult]:
    """Metric consistency across chart transitions: the scalar g(v, v) must
    agree when the same geometric data is expressed in either chart."""
    if not scenario.atlas.transitions:
        return []
    gaps = []
    for tr in scenario.atlas.transitions:
        points, vectors = [], []
        for x in tr.sample(rng, 8):
            points.append(scenario.point(x, float(rng.uniform(0.5, 2.0)), tr.src))
            vectors.append((rng.standard_normal(x.size), float(rng.standard_normal())))
        pushes = tr.tangent_maps(points)
        g = read_stacked(scenario.metric.at, points)
        g_image = read_stacked(scenario.metric.at, [push.image for push in pushes])
        for (vx, vtb), push, g_p, g_q in zip(vectors, pushes, g, g_image):
            vx_image, s1 = push.components(vx, vtb)[0], float(vx @ g_p @ vx)
            gaps.append(abs(s1 - float(vx_image @ g_q @ vx_image)) / max(1.0, abs(s1)))
    return [_result("metric_overlap_consistency", _worst(gaps), 1e-8)]


def run_all(scenario: Scenario, rng: np.random.Generator) -> list[CheckResult]:
    results = []
    for suite in (
        kernel_suite,
        killing_suite,
        connection_suite,
        determinant_suite,
        christoffel_suite,
        overlap_metric_suite,
    ):
        try:
            results.extend(suite(scenario, rng))
        except (CarrollError, np.linalg.LinAlgError) as exc:
            results.append(
                CheckResult(name=suite.__name__, passed=False, value=math.inf, tol=0.0, detail=str(exc))
            )
    return results
