"""Reference values and output checks, computed with numpy alone.

Nothing here imports the package: every check compares the package's output
with a value derived independently (a closed form, a numpy eigenvalue, an
input the benchmark built itself) or with a property the method must have.
Each ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import numpy as np


def partial_transpose(m: np.ndarray, na: int, nb: int) -> np.ndarray:
    """Transpose the B factor of an (na*nb)-square matrix, index i*nb + j."""
    return m.reshape(na, nb, na, nb).transpose(0, 3, 2, 1).reshape(na * nb, na * nb)


def partial_transpose_a(m: np.ndarray, na: int, nb: int) -> np.ndarray:
    return m.reshape(na, nb, na, nb).transpose(2, 1, 0, 3).reshape(na * nb, na * nb)


def min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])


def herm_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def psd_sqrt(m: np.ndarray, power: float = 0.5) -> np.ndarray:
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    return (vecs * np.clip(vals, 0.0, None) ** power) @ vecs.conj().T


# --- inputs the benchmark builds -------------------------------------------

def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    g = rng.standard_normal((n, rank or n)) + 1j * rng.standard_normal((n, rank or n))
    p = g @ g.conj().T
    return p / np.trace(p).real


def faithful_density(rng: np.random.Generator, n: int, floor: float = 0.1) -> np.ndarray:
    """Trace-one state with every eigenvalue at least floor / n."""
    return (1 - floor) * random_psd(rng, n) + floor * np.eye(n) / n


def product_mixture(rng: np.random.Generator, na: int, nb: int, terms: int,
                    pure: bool) -> np.ndarray:
    """Convex mixture of product states; separable by construction."""
    rank_a, rank_b = (1, 1) if pure else (na, nb)
    weights = rng.dirichlet(np.ones(terms))
    return sum(w * np.kron(random_psd(rng, na, rank_a), random_psd(rng, nb, rank_b))
               for w in weights)


def max_entangled(na: int, nb: int) -> np.ndarray:
    """Projector on sum_{i < na} |ii> / sqrt(na), for na <= nb."""
    v = np.zeros(na * nb, dtype=complex)
    for i in range(na):
        v[i * nb + i] = 1 / np.sqrt(na)
    return np.outer(v, v.conj())


def isotropic_state(na: int, nb: int, fidelity: float) -> np.ndarray:
    """F |Phi><Phi| + (1 - F) (1 - |Phi><Phi|) / (n - 1), with <Phi|rho|Phi> = F."""
    n = na * nb
    phi = max_entangled(na, nb)
    return fidelity * phi + (1 - fidelity) * (np.eye(n) - phi) / (n - 1)


def isotropic_threshold(na: int, nb: int) -> float:
    """The state above is PPT iff F <= (na + 1) / (na nb + na); 1/d when na = nb = d."""
    return (na + 1) / (na * nb + na)


def swap_operator(d: int) -> np.ndarray:
    m = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            m[i * d + j, j * d + i] = 1.0
    return m


def choi_map_operator() -> np.ndarray:
    """Operator sum_ij E_ij (x) Phi(E_ij) of the Choi map
    Phi(X) = diag(2x11 + x33, 2x22 + x11, 2x33 + x22) - X."""
    op = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3))
            e[i, j] = 1.0
            image = np.diag([2 * e[0, 0] + e[2, 2], 2 * e[1, 1] + e[0, 0],
                             2 * e[2, 2] + e[1, 1]]) - e
            op[3 * i:3 * i + 3, 3 * j:3 * j + 3] = image
    return op


def closed_form_targets() -> list[tuple[str, int, np.ndarray, float]]:
    """(name, d, H, min Tr(D H) over PPT states) for the d x d targets.

    Identity: every trace-one D gives 1.  Swap: Tr(D F) = d <Phi|D^Gamma|Phi> >= 0,
    met by product states.  Minus the maximally entangled projector: the PPT
    fidelity bound 1/d.
    """
    out = []
    for d in (2, 3):
        out.append((f"identity-{d}x{d}", d, np.eye(d * d, dtype=complex), 1.0))
        out.append((f"swap-{d}x{d}", d, swap_operator(d), 0.0))
        out.append((f"minus-phi-{d}x{d}", d, -max_entangled(d, d), -1.0 / d))
    return out


# --- checks ----------------------------------------------------------------

def check_min_value(value: float, h: np.ndarray, target: float | None = None,
                    tol: float = 1e-6) -> list[str]:
    """A PPT minimum of Tr(D h) lies in [lambda_min(h), Tr(h)/n]; a closed form pins it."""
    problems = []
    n = h.shape[0]
    low = float(np.linalg.eigvalsh((h + h.conj().T) / 2)[0]) - 1e-8
    high = float(np.trace(h).real) / n + 1e-8
    if not low <= value <= high:
        problems.append(f"value {value!r} outside [lambda_min - 1e-8, Tr/n + 1e-8] = [{low}, {high}]")
    if target is not None and not abs(value - target) <= tol:
        problems.append(f"value {value!r} misses the closed form {target} by more than {tol}")
    return problems


def check_feasible(d: np.ndarray, na: int, nb: int, tol: float = 1e-8) -> list[str]:
    """D is a trace-one PSD state with PSD partial transpose, each within tol."""
    problems = []
    if herm_defect(d) > tol:
        problems.append(f"minimizer not Hermitian: defect {herm_defect(d):.3e}")
    if min_eig(d) < -tol:
        problems.append(f"minimizer not PSD: min eigenvalue {min_eig(d):.3e}")
    gamma = min_eig(partial_transpose(d, na, nb))
    if gamma < -tol:
        problems.append(f"minimizer not PPT: min partial-transpose eigenvalue {gamma:.3e}")
    if abs(np.trace(d).real - 1.0) > tol:
        problems.append(f"minimizer trace {np.trace(d).real!r} != 1")
    return problems


def check_decomposable(h1: np.ndarray, h2: np.ndarray, h: np.ndarray, na: int, nb: int) -> list[str]:
    """h = h1 + h2^{Gamma_A} with h1, h2 PSD, so h pairs >= 0 with every PPT state."""
    problems = []
    if min(min_eig(h1), min_eig(h2)) < -1e-10:
        problems.append("witness parts are not PSD")
    if np.max(np.abs(h - (h1 + partial_transpose_a(h2, na, nb)))) > 1e-12:
        problems.append("witness is not h1 + h2^Gamma_A")
    return problems


def check_membership(sigma: np.ndarray, na: int, nb: int, fidelity: float,
                     inside: bool, certificate: float) -> list[str]:
    """Verdict against the isotropic threshold; certificate against numpy eigenvalues."""
    problems = []
    expected_inside = fidelity <= isotropic_threshold(na, nb)
    if inside != expected_inside:
        problems.append(f"F = {fidelity:.4f}: verdict PPT={inside}, threshold says {expected_inside}")
    expected_cert = min(min_eig(sigma), min_eig(partial_transpose(sigma, na, nb)))
    if abs(certificate - expected_cert) > 1e-9:
        problems.append(f"certificate {certificate!r} != numpy minimum eigenvalue {expected_cert!r}")
    return problems


def check_separable(target: np.ndarray, bound: float, approx: np.ndarray,
                    na: int, nb: int) -> list[str]:
    """The bound is the distance to the exhibited approximant, which is PSD and PPT."""
    problems = []
    distance = float(np.linalg.norm(target - approx))
    if abs(bound - distance) > 1e-12 + 1e-9 * distance:
        problems.append(f"bound {bound!r} != distance {distance!r} to its approximant")
    scale = max(1.0, float(np.linalg.norm(approx)))
    if min_eig(approx) < -1e-10 * scale:
        problems.append(f"approximant not PSD: {min_eig(approx):.3e}")
    if min_eig(partial_transpose(approx, na, nb)) < -1e-10 * scale:
        problems.append("approximant not PPT")
    return problems


def check_counterexample(entry: dict, na: int, nb: int) -> list[str]:
    """A serialized square-root counterexample: D is a trace-one PSD PPT state
    and D^{1/2} has the reported negative partial-transpose eigenvalue."""
    problems = []
    d = np.array(entry["d_re"]) + 1j * np.array(entry["d_im"])
    if abs(np.trace(d).real - 1.0) > 1e-9:
        problems.append(f"counterexample trace {np.trace(d).real!r} != 1")
    if min_eig(d) < -1e-9:
        problems.append(f"counterexample not PSD: {min_eig(d):.3e}")
    if min_eig(partial_transpose(d, na, nb)) < -1e-7:
        problems.append(f"counterexample not PPT: {min_eig(partial_transpose(d, na, nb)):.3e}")
    root_gamma = min_eig(partial_transpose(psd_sqrt(d), na, nb))
    if root_gamma >= 0:
        problems.append(f"square root is PPT (min eigenvalue {root_gamma:.3e})")
    if abs(root_gamma - entry["sqrt_gamma_min_eig"]) > 1e-9:
        problems.append(f"reported eigenvalue {entry['sqrt_gamma_min_eig']!r} != numpy {root_gamma!r}")
    return problems
