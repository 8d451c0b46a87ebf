import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import carrollgeo as cg


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def schwarzschild():
    # 2 GM = 1: unit-radius horizon sphere
    return cg.load("schwarzschild", GM=0.5)


@pytest.fixture(scope="session")
def flat2():
    return cg.load("flat", n=2)


@pytest.fixture(scope="session")
def lightcone():
    return cg.load("lightcone")


@pytest.fixture(scope="session")
def thakurta():
    return cg.load("thakurta", GM=0.5, U="t")


@pytest.fixture(scope="session")
def moebius():
    return cg.load("moebius")


@pytest.fixture(scope="session")
def sphere():
    return cg.load("sphere_pullback")


@pytest.fixture(scope="session")
def workloads():
    """``perfbench/workloads.py``, for its generated input files."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module
