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
