"""The field evaluation contract: per-chart metric blocks and gauge fields are
read only through ``DegenerateMetric.at`` and ``GaugeField.at``, which reject
an unknown chart or a result of the wrong shape."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import carrollgeo as cg
from carrollgeo.connection import GaugeField
from carrollgeo.errors import ContractViolation
from carrollgeo.geodesics import GeodesicState, integrate, unit_direction
from carrollgeo.geometry import DegenerateMetric
from carrollgeo.kaluza import christoffel_numeric

SRC = Path(__file__).resolve().parents[1] / "src" / "carrollgeo"
FIELD_DICTS = {"blocks", "components"}
ACCESSORS = {("DegenerateMetric", "at"), ("GaugeField", "at")}


def _field_subscripts(node, cls=None, fn=None):
    """(class, function, line) of every ``.blocks[...]`` / ``.components[...]``
    subscript under ``node``, named by the enclosing class and function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Subscript) and isinstance(child.value, ast.Attribute):
            if child.value.attr in FIELD_DICTS:
                yield cls, fn, child.lineno
        if isinstance(child, ast.ClassDef):
            yield from _field_subscripts(child, child.name, None)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _field_subscripts(child, cls, child.name)
        else:
            yield from _field_subscripts(child, cls, fn)


def test_field_dicts_are_read_only_through_the_accessors():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        hits += [(path.name, *hit) for hit in _field_subscripts(ast.parse(path.read_text()))]
    offenders = [hit for hit in hits if hit[1:3] not in ACCESSORS]
    assert offenders == []
    assert {hit[1:3] for hit in hits} == ACCESSORS


def test_finite_difference_steps_are_not_parameters():
    """``_fd`` owns the steps: no signature or dataclass field in the package
    is named ``fd_rel``, and only ``_fd``'s own primitives take ``rel`` or
    ``step``."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        banned = {"fd_rel"} if path.name == "_fd.py" else {"fd_rel", "rel", "step"}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            offenders += [(path.name, node.lineno, name) for name in names if name in banned]
    assert offenders == []


def test_declared_expectations_are_read_only_by_the_suites():
    """``suites`` is the one reader of ``Scenario.expects``, and ``load`` has
    no verification knobs: loading only builds a scenario."""
    readers = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "expects"
    }
    assert readers == {"suites.py"}
    assert not {"verify", "rng"} & set(inspect.signature(cg.load).parameters)


def _flat2_with(metric=None, gauge=None):
    s = cg.load("flat", n=2)
    s.metric = metric or s.metric
    s.gauge = gauge or s.gauge
    return s


@pytest.mark.parametrize(
    "scenario",
    [
        _flat2_with(metric=DegenerateMetric({"cartesian": lambda x, t: np.eye(3)})),
        _flat2_with(gauge=GaugeField({"cartesian": lambda x: np.zeros(3)})),
    ],
    ids=["block_3x3", "gauge_3"],
)
def test_wrong_shape_is_a_contract_violation(scenario):
    p = scenario.point([0.1, 0.2], 1.0)
    with pytest.raises(ContractViolation, match="shape"):
        christoffel_numeric(scenario.kk(-1), p)
    with pytest.raises(ContractViolation, match="shape"):
        integrate(GeodesicState([0.1, 0.2], 1.0, [1.0, 0.0], -1.0), scenario, cg.IntegratorConfig(lambda_max=0.1))


def test_wrong_block_shape_fails_unit_direction():
    s = _flat2_with(metric=DegenerateMetric({"cartesian": lambda x, t: np.eye(3)}))
    with pytest.raises(ContractViolation, match="shape"):
        unit_direction(s, [0.1, 0.2], [1.0, 0.0], 1.0)

