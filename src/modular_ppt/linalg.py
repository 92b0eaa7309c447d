"""Dense complex-matrix kernel.

Everything downstream (modular operators, cones, the PPT solver) reduces to
the routines here: Kronecker products, partial transpose/trace over a fixed
product basis, a deterministic Hermitian eigendecomposition, PSD
projections and PSD square roots.

Matrices are plain complex ndarrays; the contracts of the package are
enforced by the ``require_*`` validators (``require_count`` for every
sample or term count), which raise rather than coerce.
Contracts are checked once, at the public boundary: ``partial_transpose``,
``project_psd`` and ``mat_sqrt_psd`` validate their input and then call an
unchecked kernel of the same name with a leading underscore.  Package code
working on arrays it made itself calls the kernels directly.
``hermitize`` and the kernels ``_partial_transpose``, ``_project_psd``,
``_mat_sqrt_psd`` and ``_kron`` also take a stack of shape (k, n, n) and
act on each matrix of it, with the same bits as on the matrix alone;
``_norms`` gives the norm of each matrix or vector of a stack.
``_project_psd`` takes an exactly Hermitian input; ``project_psd`` hermitizes.
The product basis convention throughout: e_i (x) f_j sits at index
i * dim_b + j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionLimitError, ShapeError

TOL_HERM = 1e-10
TOL_PSD = 1e-10
TOL_TRACE = 1e-10
EPS_FAITHFUL = 1e-12
DEGENERACY_GAP = 1e-9

MAX_DIM = 4096  # dense-dimension cap


@dataclass(frozen=True)
class BipartiteShape:
    """Dimensions (n, m) of a fixed tensor split H (x) K."""

    dim_a: int
    dim_b: int

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ShapeError(f"subsystem dimensions must be >= 1, got {self.dim_a}x{self.dim_b}")

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ContractError("matrix contains NaN or Inf entries")
    return a


def require_square(m: np.ndarray) -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got {m.shape}")
    return m


def herm_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().swapaxes(-1, -2)) / 2


def _norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each entry of a stack, bit for bit what
    ``np.linalg.norm`` gives for the entry alone: the square root of two
    BLAS dot products, re.re + im.im."""
    flat = stack.reshape(len(stack), 1, math.prod(stack.shape[1:]))
    dots = flat.real @ flat.real.swapaxes(-1, -2) + flat.imag @ flat.imag.swapaxes(-1, -2)
    return np.sqrt(dots[:, 0, 0])


def require_hermitian(m) -> np.ndarray:
    m = require_square(m)
    defect = herm_defect(m)
    if defect > TOL_HERM:
        raise ContractError(f"matrix is not Hermitian: max |M - M^dagger| = {defect:.3e} > {TOL_HERM:.1e}")
    return m


def require_density(m, tol_psd: float = TOL_PSD) -> np.ndarray:
    m = require_hermitian(m)
    w = np.linalg.eigvalsh(hermitize(m))
    if w[0] < -tol_psd:
        raise ContractError(f"density matrix has negative eigenvalue {w[0]:.3e}")
    tr = np.trace(m).real
    if abs(tr - 1.0) > TOL_TRACE:
        raise ContractError(f"density matrix trace deviates from 1 by {abs(tr - 1.0):.3e}")
    return m


def require_count(value: int, name: str) -> None:
    if value < 1:
        raise ContractError(f"{name} must be >= 1, got {value}")


def require_bipartite(m: np.ndarray, shape: BipartiteShape) -> np.ndarray:
    m = require_square(m)
    if m.shape[0] != shape.dim:
        raise ShapeError(f"matrix dim {m.shape[0]} != {shape.dim_a}x{shape.dim_b} product")
    return m


def kron(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] * b.shape[0] > MAX_DIM or a.shape[1] * b.shape[1] > MAX_DIM:
        raise DimensionLimitError(
            f"kron product dimension {a.shape[0] * b.shape[0]} exceeds cap {MAX_DIM}"
        )
    return np.kron(a, b)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, or of each pair of two stacks (a
    matrix pairs with every entry of a stack), as one broadcast product."""
    (p, q), (r, s) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (p * r, q * s))


def partial_transpose(m, shape: BipartiteShape, subsystem: str = "B") -> np.ndarray:
    """Transpose one tensor factor of a bipartite operator, blockwise."""
    return _partial_transpose(require_bipartite(m, shape), shape, subsystem)


def _partial_transpose(m: np.ndarray, shape: BipartiteShape, subsystem: str = "B") -> np.ndarray:
    na, nb = shape.dim_a, shape.dim_b
    t = m.reshape(m.shape[:-2] + (na, nb, na, nb))
    if subsystem == "B":
        out = t.swapaxes(-3, -1)
    elif subsystem == "A":
        out = t.swapaxes(-4, -2)
    else:
        raise ShapeError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return out.reshape(m.shape)


def partial_trace(m, shape: BipartiteShape, keep: str = "A") -> np.ndarray:
    m = require_bipartite(m, shape)
    na, nb = shape.dim_a, shape.dim_b
    t = m.reshape(na, nb, na, nb)
    if keep == "A":
        return np.einsum("ikjk->ij", t)
    if keep == "B":
        return np.einsum("kikj->ij", t)
    raise ShapeError(f"keep must be 'A' or 'B', got {keep!r}")


def _fix_phase(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    out = vecs.copy()
    for k in range(out.shape[1]):
        idx = int(np.argmax(np.abs(out[:, k])))
        pivot = out[idx, k]
        if abs(pivot) > 0:
            out[:, k] = out[:, k] * (pivot.conjugate() / abs(pivot))
    return out


def _canonical_cluster_basis(vecs: np.ndarray) -> np.ndarray:
    """Re-span a degenerate eigenspace by Gram-Schmidt seeded from unit vectors.

    Guarantees e.g. that the identity matrix eigendecomposes into the
    canonical basis regardless of what LAPACK returned for the cluster.

    The loop always chooses k vectors.  The k orthonormal columns V span
    the cluster, and so do the columns P e_i of P = V V^dagger.  With j < k
    vectors chosen, spanning Q_j inside the cluster, sum_i ||(I - Q_j) P e_i||^2
    = Tr P - Tr Q_j = k - j >= 1.  A column's residual only shrinks as more
    vectors are chosen, so if the loop ended short, every column would have
    a residual <= 1e-6 against the final Q_j, and the sum would be at most
    n * 1e-12, below 1 for any n < 10^12 (the dense cap ``MAX_DIM`` is 4096).
    """
    n, k = vecs.shape
    proj = vecs @ vecs.conj().T
    chosen: list[np.ndarray] = []
    for i in range(n):
        if len(chosen) == k:
            break
        w = proj[:, i].copy()
        for u in chosen:
            w -= u * (u.conj() @ w)
        norm = np.linalg.norm(w)
        if norm > 1e-6:
            chosen.append(w / norm)
    return np.column_stack(chosen)


def herm_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with descending values and a deterministic basis.

    Within a degenerate cluster (gap < 1e-9) the eigenvectors are re-spanned
    from canonical unit vectors; every vector's largest-magnitude entry is
    made real positive (ties broken by lowest index).
    """
    m = require_hermitian(m)
    vals, vecs = np.linalg.eigh(hermitize(m))
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    n = len(vals)
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and vals[stop - 1] - vals[stop] < DEGENERACY_GAP:
            stop += 1
        if stop - start > 1:
            vecs[:, start:stop] = _canonical_cluster_basis(vecs[:, start:stop])
        start = stop
    return vals, _fix_phase(vecs)


def mat_sqrt_psd(m) -> np.ndarray:
    """PSD square root; eigenvalues in [-TOL_PSD, 0) are clamped to zero.

    The root is basis-independent, so this uses the raw eigensolver output
    rather than the deterministic-basis convention of ``herm_eig`` (whose
    cluster re-spanning would cost accuracy near degenerate eigenvalues).
    """
    return _mat_sqrt_psd(require_hermitian(m))


def _mat_sqrt_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(hermitize(m))
    if np.any(vals[..., 0] < -TOL_PSD):
        raise ContractError(f"matrix is not PSD: eigenvalue {np.min(vals[..., 0]):.3e} < -{TOL_PSD:.1e}")
    return _spectral(vecs, np.sqrt(np.clip(vals, 0.0, None)))


def project_psd(m) -> np.ndarray:
    """Frobenius-nearest PSD matrix (clamp negative eigenvalues)."""
    return _project_psd(hermitize(require_hermitian(m)))


def _project_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return _spectral(vecs, np.clip(vals, 0.0, None))


def _spectral(vecs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """V diag(vals) V^dagger, for a matrix or for each matrix of a stack."""
    return (vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
