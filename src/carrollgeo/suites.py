"""Invariant check suites driven by the CLI `check` command and the tests.

Each suite returns a list of CheckResult records; a scenario passes when
every record does. The suites re-derive everything from the scenario data.
They are the only reader of a scenario's declared expectations, which they
verify, never trust.

A check samples points and reduces the samples with numpy: its value is its
largest sample (the smallest for ``base_block_invertible``), and a
non-finite sample fails it, since numpy's reduction carries a NaN through
where Python's ``max`` would drop it.

A check reads each field once per sample point and pushes every vector
drawn at a point through one transition map (``ChartTransition.tangent_map``);
the vectors themselves are handled as plain arrays. Finite-difference
stencils read a field once per stencil point, and the determinant identity
reads g_M once more for its side that does not go through the assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .connection import (
    ConnectionOneForm,
    orthogonality_check,
    overlap_gauge_residual,
    projector_idempotence_check,
)
from .errors import CarrollError
from .geometry import TangentVector, _padded, euler_weight, metric_eval
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


def _result(name: str, value: float, tol: float) -> CheckResult:
    """A NaN value fails ``value <= tol``; the detail says so, since the
    report writes every non-finite value as 1e308."""
    detail = "non-finite sample" if math.isnan(value) else ""
    return CheckResult(name=name, passed=bool(value <= tol), value=float(value), tol=tol, detail=detail)


def kernel_suite(scenario: Scenario, rng: np.random.Generator) -> list[CheckResult]:
    """Block structure: the Euler direction is annihilated exactly and the
    full degenerate form has zero determinant; the base block is symmetric
    and invertible. g_M is read once per point."""
    kernel, det, asym, abs_det, cond = [], [], [], [], []
    for chart in scenario.atlas.chart_names():
        for p in scenario.sample_points(rng, 10, chart=chart):
            vx, _ = rng.standard_normal(p.dim), rng.standard_normal()  # v = (vx, vtb); g never sees vtb
            gm = scenario.metric.at(p.x, p.t, p.chart)
            kernel.append(abs(float(np.zeros(p.dim) @ gm @ vx)))  # g(Euler, v)
            det.append(abs(float(np.linalg.det(_padded(gm)))))
            asym.append(float(np.max(np.abs(gm - gm.T), initial=0.0)))
            abs_det.append(abs(float(np.linalg.det(gm))))
            cond.append(float(np.linalg.cond(gm)))
    min_abs_det = float(np.min(abs_det, initial=math.inf))
    return [
        _result("kernel_annihilation", _worst(kernel), 0.0),
        _result("degenerate_determinant", _worst(det), 0.0),
        _result("base_block_symmetry", _worst(asym), 1e-12),
        CheckResult(
            name="base_block_invertible",
            passed=min_abs_det > 1e-12,
            value=min_abs_det,
            tol=1e-12,
            detail=f"min |det g_M|; condition number up to {_worst(cond):.3e}",
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
    omega = scenario.connection()
    points = []
    for chart in scenario.atlas.chart_names():
        points.extend(scenario.sample_points(rng, 6, chart=chart))
    results = [
        _result("connection_dual_to_euler", _worst([abs(omega.euler_value(p) - 1.0) for p in points]), 0.0),
        _result("projector_idempotence", projector_idempotence_check(omega, points, rng), 1e-14),
        _result("horizontal_vertical_orthogonality", orthogonality_check(scenario.metric, omega, points, rng), 0.0),
    ]
    if scenario.atlas.transitions:
        results.append(_result("gauge_overlap_rule", overlap_gauge_residual(scenario.atlas, omega, rng), 1e-8))
    return results


def determinant_suite(scenario: Scenario, rng: np.random.Generator) -> list[CheckResult]:
    """Determinant identity and Lorentzian signature of the assembled metrics.
    The raw components are built once per point and serve both; g_M is read
    again as the independent side of the identity."""
    defects = []
    signature_ok = True
    for sign in (+1, -1):
        kk = scenario.kk(sign)
        for p in scenario.sample_points(rng, 10):
            raw = kk.raw(p)
            defects.append(det_identity_defect(raw, kk.metric.at(p.x, p.t, p.chart), p.t, sign))
            if sign == -1:
                pos, neg = signature_counts(raw)
                signature_ok = signature_ok and (pos, neg) == (scenario.dim, 1)
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
    """Closed-form vs finite-difference symbols on the default chart."""
    deviations = []
    for sign in (+1, -1):
        kk = scenario.kk(sign)
        if kk.gauge.is_zero:
            deviations.append(closed_form_deviation(kk, scenario.sample_points(rng, 20)))
    return [_result("christoffel_oracle_agreement", _worst(deviations), 1e-6)]


def overlap_metric_suite(scenario: Scenario, rng: np.random.Generator) -> list[CheckResult]:
    """Metric consistency across chart transitions: the scalar g(v, v) must
    agree when the same geometric data is expressed in either chart."""
    if not scenario.atlas.transitions:
        return []
    gaps = []
    for tr in scenario.atlas.transitions:
        for x in tr.sample(rng, 8):
            p = scenario.point(x, float(rng.uniform(0.5, 2.0)), tr.src)
            v = TangentVector(rng.standard_normal(p.dim), float(rng.standard_normal()), p)
            v2 = tr.map_tangent(v)
            s1 = metric_eval(scenario.metric, p, v, v)
            s2 = metric_eval(scenario.metric, v2.base, v2, v2)
            gaps.append(abs(s1 - s2) / max(1.0, abs(s1)))
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
