import numpy as np
import pytest

from modular_ppt.linalg import BipartiteShape


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20240915))


@pytest.fixture
def shape22():
    return BipartiteShape(2, 2)


@pytest.fixture
def singlet():
    psi = np.zeros(4, dtype=complex)
    psi[1], psi[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


@pytest.fixture
def phi_plus():
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = 1 / np.sqrt(2), 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


@pytest.fixture
def swap22():
    m = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            m[i * 2 + j, j * 2 + i] = 1.0
    return m


@pytest.fixture
def choi_map():
    """Operator sum_ij E_ij (x) Phi(E_ij) of the Choi map on M_3,
    Phi(X) = diag(2x11 + x33, 2x22 + x11, 2x33 + x22) - X (Choi 1975)."""
    op = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3))
            e[i, j] = 1.0
            op[3 * i:3 * i + 3, 3 * j:3 * j + 3] = np.diag(
                [2 * e[0, 0] + e[2, 2], 2 * e[1, 1] + e[0, 0], 2 * e[2, 2] + e[1, 1]]) - e
    return op
