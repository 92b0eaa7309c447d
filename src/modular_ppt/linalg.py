"""Dense complex-matrix kernel.

Everything downstream (modular operators, cones, the PPT solver) reduces to
the routines here: Kronecker products, partial transpose/trace over a fixed
product basis, a deterministic Hermitian eigendecomposition, PSD
projections and PSD square roots.  ``_eigh`` and ``_eigvalsh`` are the
package's only eigensolver calls and its one source of ``LinAlgError`` (the
CLI's exit 3); they hermitize nothing and look ``numpy.linalg`` up at each
call, not at import, so a counter or a fault patched onto it sees them all.

Matrices are plain complex ndarrays; the contracts of the package are
enforced by the ``require_*`` validators (``require_count`` for every
sample or term count, ``require_integer`` under it, under every seed and
every ``BipartiteShape`` dimension, ``require_tol`` for every tolerance a
caller may set),
which raise rather than coerce.
Contracts are checked once, at the public boundary: ``partial_transpose``,
``project_psd`` and ``mat_sqrt_psd`` validate their input and then call an
unchecked kernel of the same name with a leading underscore.  Package code
working on arrays it made itself calls the kernels directly.
``hermitize`` and the kernels ``_partial_transpose``, ``_gamma_min`` (every
PPT verdict: lambda_min of the Hermitian part of X^Gamma), ``_project_psd``,
``_mat_sqrt_psd`` and ``_kron`` also take a stack of shape (k, n, n) and
act on each matrix of it, with the same bits as on the matrix alone;
``_norms`` gives the norm of each matrix or vector of a stack.
``_partial_transpose`` is one gather (``take``) of a flat index cached per
split and subsystem, which moves entries and rounds nothing.
``_project_psd`` takes an exactly Hermitian input; ``project_psd`` hermitizes.
The product basis convention throughout: e_i (x) f_j sits at index
i * dim_b + j.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionLimitError, ShapeError

TOL_HERM = 1e-10
TOL_PSD = 1e-10
TOL_TRACE = 1e-10
EPS_FAITHFUL = 1e-12
DEGENERACY_GAP = 1e-9

MAX_DIM = 4096  # dense-dimension cap
# cap on samples * N^2 for a CLI command that draws a stack of --samples N x N matrices (cli.READS);
# numpy's buffers peak at ~7 stacks for gns-verify (225 MB at the cap), ~13 for hierarchy, ~17 for experiment
MAX_STACK_ENTRIES = 2**21


@dataclass(frozen=True)
class BipartiteShape:
    """Dimensions (n, m) of a fixed tensor split H (x) K, integers >= 1."""

    dim_a: int
    dim_b: int

    def __post_init__(self):
        require_integer(self.dim_a, "dim_a")
        require_integer(self.dim_b, "dim_b")
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


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(m)


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(m)


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


def require_density(m) -> np.ndarray:
    m = require_hermitian(m)
    w = _eigvalsh(hermitize(m))
    if w[0] < -TOL_PSD:
        raise ContractError(f"density matrix has negative eigenvalue {w[0]:.3e}")
    tr = np.trace(m).real
    if abs(tr - 1.0) > TOL_TRACE:
        raise ContractError(f"density matrix trace deviates from 1 by {abs(tr - 1.0):.3e}")
    return m


def require_integer(value: int, name: str) -> None:
    """value is a ``numbers.Integral`` (numpy's integers too) and not a bool,
    so a float, a string or None never reaches numpy or a cache key."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ContractError(f"{name} must be an integer, got {value!r}")


def require_count(value: int, name: str) -> None:
    require_integer(value, name)
    if value < 1:
        raise ContractError(f"{name} must be >= 1, got {value}")


def require_tol(value: float, name: str) -> None:
    """value is a finite real >= 0 (0 included) and not a bool: under a NaN
    or a negative tolerance every ``x >= -tol`` test gives a wrong verdict."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ContractError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(value) and value >= 0):
        raise ContractError(f"{name} must be finite and >= 0, got {value!r}")


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
    flat = m.reshape(m.shape[:-2] + (-1,))
    return flat.take(_gamma_index(shape.dim_a, shape.dim_b, subsystem), axis=-1).reshape(m.shape)


@functools.lru_cache(maxsize=16)
def _gamma_index(dim_a: int, dim_b: int, subsystem: str) -> np.ndarray:
    """The flat index that ``take`` gathers a partial transpose with: entry
    (i, j, k, l) of the (dim_a, dim_b, dim_a, dim_b) view reads entry
    (i, l, k, j) for subsystem B and (k, j, i, l) for A.  Read-only, and
    half the memory of the complex matrix it permutes."""
    t = np.arange((dim_a * dim_b) ** 2).reshape(dim_a, dim_b, dim_a, dim_b)
    if subsystem == "B":
        t = t.swapaxes(1, 3)
    elif subsystem == "A":
        t = t.swapaxes(0, 2)
    else:
        raise ShapeError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    index = t.reshape(-1)
    index.flags.writeable = False
    return index


def _gamma_min(m: np.ndarray, shape: BipartiteShape, subsystem: str = "B") -> np.ndarray:
    """lambda_min of the Hermitian part of m^Gamma, for a matrix (0-d) or each matrix of a stack."""
    return _eigvalsh(hermitize(_partial_transpose(m, shape, subsystem)))[..., 0]


def partial_trace(m, shape: BipartiteShape, keep: str = "A") -> np.ndarray:
    m = require_bipartite(m, shape)
    na, nb = shape.dim_a, shape.dim_b
    t = m.reshape(na, nb, na, nb)
    if keep == "A":
        return np.einsum("ikjk->ij", t)
    if keep == "B":
        return np.einsum("kikj->ij", t)
    raise ShapeError(f"keep must be 'A' or 'B', got {keep!r}")


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
    vals, vecs = _eigh(hermitize(m))
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    n = len(vals)
    starts = [0, *(np.flatnonzero(vals[:-1] - vals[1:] >= DEGENERACY_GAP) + 1), n]
    for start, stop in zip(starts[:-1], starts[1:]):
        if stop - start > 1:
            vecs[:, start:stop] = _canonical_cluster_basis(vecs[:, start:stop])
    pivot = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
    # hypot is abs() of a complex scalar; np.abs of a complex array can differ in the last bit
    return vals, vecs * (pivot.conj() / np.hypot(pivot.real, pivot.imag))


def mat_sqrt_psd(m) -> np.ndarray:
    """PSD square root; eigenvalues in [-TOL_PSD, 0) are clamped to zero.

    The root is basis-independent, so this uses the raw eigensolver output
    rather than the deterministic-basis convention of ``herm_eig`` (whose
    cluster re-spanning would cost accuracy near degenerate eigenvalues).
    """
    return _mat_sqrt_psd(require_hermitian(m))


def _mat_sqrt_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = _eigh(hermitize(m))
    if np.any(vals[..., 0] < -TOL_PSD):
        raise ContractError(f"matrix is not PSD: eigenvalue {np.min(vals[..., 0]):.3e} < -{TOL_PSD:.1e}")
    return _spectral(vecs, np.sqrt(np.clip(vals, 0.0, None)))


def project_psd(m) -> np.ndarray:
    """Frobenius-nearest PSD matrix (clamp negative eigenvalues)."""
    return _project_psd(hermitize(require_hermitian(m)))


def _project_psd(m: np.ndarray) -> np.ndarray:
    vals, vecs = _eigh(m)
    return _spectral(vecs, np.clip(vals, 0.0, None))


def _spectral(vecs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """V diag(vals) V^dagger, for a matrix or for each matrix of a stack."""
    return (vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
