import numpy as np
import pytest

from modular_ppt.choi import choi_from_map, generalized_choi_map
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
    """Operator sum_ij E_ij (x) Phi(E_ij) of the Choi map Phi[2,0,1] on M_3,
    Phi(X) = diag(2x11 + x33, 2x22 + x11, 2x33 + x22) - X (Choi 1975)."""
    return choi_from_map(generalized_choi_map(2, 0, 1))
