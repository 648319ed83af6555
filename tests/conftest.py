import os

import numpy as np
import pytest

from helpers import openblas_threads
from lkapprox import CostWeights, RfdeSystem


def pytest_report_header(config):
    return f"nproc: {os.cpu_count()}, openblas_threads: {openblas_threads()}"


@pytest.fixture(scope="session")
def ex1_system():
    """Scalar system x' = -0.5 x(t) - x(t - 2.2)."""
    return RfdeSystem(np.array([[-0.5]]), np.array([[-1.0]]), 2.2)


@pytest.fixture(scope="session")
def ex1_weights():
    return CostWeights(np.eye(1), np.eye(1), np.zeros((1, 1)))


@pytest.fixture(scope="session")
def ex2_system():
    """Two-dimensional system with A0 = diag(-2, -0.9), lower-triangular A1,
    stable for h below arccos(-0.9)/sqrt(1 - 0.81) ~ 6.1726."""
    A0 = np.array([[-2.0, 0.0], [0.0, -0.9]])
    A1 = np.array([[-1.0, 0.0], [-1.0, -1.0]])
    return RfdeSystem(A0, A1, 2.0)


@pytest.fixture(scope="session")
def ex2_weights():
    return CostWeights(np.eye(2), np.eye(2), np.zeros((2, 2)))


# Analytic delay margins of the two fixture systems (frequency-crossing
# formulas for scalar/decoupled parts).
EX1_H_CRIT = (np.pi - np.arccos(0.5)) / np.sqrt(0.75)       # ~ 2.41840
EX2_H_CRIT = np.arccos(-0.9) / np.sqrt(1.0 - 0.81)          # ~ 6.17256


@pytest.fixture(scope="session")
def ex1_h_crit():
    return float(EX1_H_CRIT)


@pytest.fixture(scope="session")
def ex2_h_crit():
    return float(EX2_H_CRIT)
