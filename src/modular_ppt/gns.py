"""GNS representation of (B(H), omega) for a faithful state, with the
modular machinery built on top of it.

The representation space is B(H) itself under the Hilbert-Schmidt inner
product (a, b) = Tr a^dagger b, with cyclic vector Omega = rho^{1/2}.  All
vectors are stored in matricized form.  The basis-dependent operators (the
conjugation J, the flip unitary U, the transposition on B(H)) are defined
in the eigenbasis of rho, which is fixed deterministically by
``linalg.herm_eig``; everything reduces to the kernel

    K = X X^T   (X = eigenvector matrix of rho),

because transposition in that basis acts as  a -> K a^T K^dagger  and the
basis conjugation as  f -> K conj(f).  ``build_gns`` validates rho and
diagonalizes it; ``_gns_context`` builds every other field from the
eigenpairs it is given, with the faithfulness check, so that
``cones.build_composite`` can hand it a joint's eigenpairs assembled from
its factors.

Delta^beta, the flip U and the inner product each have one unchecked
kernel (``_delta_factor``, ``_flip``, ``_inner``) that takes a matrix or a
stack of shape (k, n, n) and acts on each matrix of it, with the same bits
as on the matrix alone.  ``_delta_factor`` is the one Delta kernel: in the
eigen coordinates X^dagger m X (``GnsContext.to_eigbasis``) Delta^beta is
the Hadamard product with (lambda_i / lambda_j)^beta, which ``cones``
applies directly and ``apply_delta_power`` wraps in the change of basis.
The public ``apply_delta_power``, ``apply_u``, ``transpose_operator`` and
``inner`` check their inputs once and call them;
``_check_delta_power`` is the Delta-power overflow check.  ``apply_u``,
``apply_j``, ``apply_jm``, ``apply_delta_power`` and ``apply_tau`` also
take a vector whose matrix is a stack, and ``verify_modular_identities``
checks all its samples as one stack.

``GnsVector.mat_in`` is the one check that a vector belongs to the context
it is applied in (ContractError otherwise); every public function here and
in ``cones`` that takes a vector and a context runs it.
``GnsContext.own_matrix`` is the one check that a matrix has the context's
dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConditioningError, ContractError, FaithfulnessError
from .linalg import EPS_FAITHFUL, _norms, require_count, require_density, require_square
from .rand import complex_gaussians, generator

CONDITION_RATIO_WARN = 1e-6


@dataclass(frozen=True, eq=False)
class GnsVector:
    """Element of the GNS space, stored as its n x n matrix."""

    mat: np.ndarray
    ctx: "GnsContext"

    def norm(self) -> float:
        return float(np.linalg.norm(self.mat))

    def mat_in(self, ctx: "GnsContext") -> np.ndarray:
        """The matrix of this vector, which must belong to ``ctx``."""
        if self.ctx is not ctx:
            raise ContractError("vector does not belong to this GNS context")
        return self.mat


def inner(x: GnsVector, y: GnsVector) -> complex:
    return complex(_inner(x.mat, y.mat_in(x.ctx)))


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Tr x^dagger y of each pair of matrices of two stacks."""
    return np.einsum("...ij,...ij->...", x.conj(), y)


@dataclass(frozen=True, eq=False)
class GnsContext:
    """Immutable eigen-data and operator kernels for one faithful state."""

    rho: np.ndarray
    eigvals: np.ndarray          # descending
    eigvecs: np.ndarray          # columns, phase-fixed
    sqrt_rho: np.ndarray
    inv_sqrt_rho: np.ndarray
    kernel: np.ndarray           # K = X X^T
    log_ratio: np.ndarray        # log(lambda_i / lambda_j) table

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def omega(self) -> GnsVector:
        return GnsVector(self.sqrt_rho, self)

    @property
    def condition_ratio(self) -> float:
        return float(self.eigvals[-1] / self.eigvals[0])

    def own_matrix(self, mat) -> np.ndarray:
        """mat as a complex square matrix, which must have this context's dimension."""
        mat = require_square(mat)
        if mat.shape[0] != self.dim:
            raise ContractError(f"matrix dim {mat.shape[0]} != context dim {self.dim}")
        return mat

    def vector(self, mat) -> GnsVector:
        return GnsVector(self.own_matrix(mat), self)

    def vector_for_operator(self, a) -> GnsVector:
        """pi(a) Omega = a rho^{1/2}."""
        return self.vector(np.asarray(a, dtype=complex) @ self.sqrt_rho)

    def operator_of(self, xi: GnsVector) -> np.ndarray:
        """The a with xi = a Omega (well defined since rho is invertible)."""
        return xi.mat_in(self) @ self.inv_sqrt_rho

    def to_eigbasis(self, mat: np.ndarray) -> np.ndarray:
        return self.eigvecs.conj().T @ mat @ self.eigvecs

    def from_eigbasis(self, coords: np.ndarray) -> np.ndarray:
        return self.eigvecs @ coords @ self.eigvecs.conj().T


def build_gns(rho) -> GnsContext:
    """GNS context for the state a -> Tr(rho a); rho must be faithful, with
    every eigenvalue at least EPS_FAITHFUL."""
    rho = require_density(rho)
    return _gns_context(rho, *linalg.herm_eig(rho))


def _gns_context(rho: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> GnsContext:
    """The context of a validated density rho from its eigenpairs (values
    descending, vectors phase-fixed); raises FaithfulnessError below
    EPS_FAITHFUL."""
    if vals[-1] < EPS_FAITHFUL:
        raise FaithfulnessError(
            f"state is not faithful: eigenvalue {vals[-1]:.3e} < {EPS_FAITHFUL:.1e}"
        )
    root = np.sqrt(vals)
    sqrt_rho = (vecs * root) @ vecs.conj().T
    inv_sqrt_rho = (vecs * (1.0 / root)) @ vecs.conj().T
    kernel = vecs @ vecs.T
    logs = np.log(vals)
    log_ratio = logs[:, None] - logs[None, :]
    return GnsContext(
        rho=rho, eigvals=vals, eigvecs=vecs, sqrt_rho=sqrt_rho,
        inv_sqrt_rho=inv_sqrt_rho, kernel=kernel, log_ratio=log_ratio,
    )


def _check_delta_power(ctx: GnsContext, beta: float) -> None:
    """Raise ConditioningError where Delta^beta would overflow exp, and for a
    NaN or infinite beta, whose peak is NaN (beta * 0 on the diagonal)."""
    with np.errstate(invalid="ignore"):
        peak = float(np.max(np.abs(beta * ctx.log_ratio)))
    if not peak <= 700.0:
        raise ConditioningError(
            f"Delta power overflow: |beta * log eigenvalue ratio| = {peak:.1f}, not <= 700"
        )


def _delta_factor(ctx: GnsContext, beta: float, coords: np.ndarray) -> np.ndarray:
    """Delta^beta in rho's eigen coordinates X^dagger m X, on a matrix or a
    stack, unchecked: the Hadamard product with (lambda_i / lambda_j)^beta."""
    return coords * np.exp(beta * ctx.log_ratio)


def apply_delta_power(ctx: GnsContext, beta: float, xi: GnsVector) -> GnsVector:
    """Delta^beta: scales the (i, j) eigenbasis coordinate by (l_i/l_j)^beta."""
    mat = xi.mat_in(ctx)
    if beta == 0.0:
        return xi
    _check_delta_power(ctx, beta)
    return GnsVector(ctx.from_eigbasis(_delta_factor(ctx, beta, ctx.to_eigbasis(mat))), ctx)


def apply_jm(ctx: GnsContext, xi: GnsVector) -> GnsVector:
    """Modular conjugation: a rho^{1/2} -> rho^{1/2} a^dagger, i.e. the adjoint."""
    return GnsVector(xi.mat_in(ctx).conj().swapaxes(-1, -2), ctx)


def apply_j(ctx: GnsContext, xi: GnsVector) -> GnsVector:
    """Coordinate conjugation in the eigen matrix-unit basis."""
    return GnsVector(ctx.kernel @ xi.mat_in(ctx).conj() @ ctx.kernel.conj().T, ctx)


def _flip(ctx: GnsContext, mats: np.ndarray) -> np.ndarray:
    """m -> K m^T K^dagger on a matrix or a stack, unchecked: the flip U on
    vectors, and the transpose in rho's eigenbasis on operators."""
    return ctx.kernel @ mats.swapaxes(-1, -2) @ ctx.kernel.conj().T


def apply_u(ctx: GnsContext, xi: GnsVector) -> GnsVector:
    """The flip unitary, E_ij -> E_ji on eigen matrix units."""
    return GnsVector(_flip(ctx, xi.mat_in(ctx)), ctx)


def transpose_operator(ctx: GnsContext, a) -> np.ndarray:
    """a -> J_c a^* J_c; the matrix transpose in rho's eigenbasis."""
    return _flip(ctx, ctx.own_matrix(a))


def apply_tau(ctx: GnsContext, xi: GnsVector) -> GnsVector:
    """Transposition lifted to the GNS space: a Omega -> a^t Omega."""
    return GnsVector(_flip(ctx, ctx.operator_of(xi)) @ ctx.sqrt_rho, ctx)


def verify_modular_identities(ctx: GnsContext, samples: int = 50, seed: int = 0) -> dict:
    """Residuals of the operator identities tying U, J, J_m and Delta together.

    Includes the commutant property of  alpha(x) = U x U  against left
    multiplications; all residuals should sit at 1e-10 for well-conditioned
    states.  The samples are checked as one stack; ``u_selfadjoint`` pairs
    sample k with sample k + 1 (cyclically).
    """
    require_count(samples, "samples")
    rng = generator(seed)
    n = ctx.dim
    g = complex_gaussians(rng, samples, n, n)
    g /= _norms(g)[:, None, None]
    xi = GnsVector(g, ctx)
    u_xi = apply_u(ctx, xi)
    eta = GnsVector(np.roll(g, -1, axis=0), ctx)
    skew = _inner(g, apply_u(ctx, eta).mat) - _inner(u_xi.mat, eta.mat)
    del eta
    # each residual is reduced as soon as its pair exists, so a few stacks are alive at a time
    res = {"u_squared": _gap(apply_u(ctx, u_xi), xi)}
    j_xi, jm_xi = apply_j(ctx, xi), apply_jm(ctx, xi)
    res["j_eq_u_jm"] = _gap(apply_u(ctx, jm_xi), j_xi)
    res["commute_j_jm"] = _gap(apply_j(ctx, jm_xi), apply_jm(ctx, j_xi))
    res["commute_j_u"] = _gap(apply_j(ctx, u_xi), apply_u(ctx, j_xi))
    res["commute_jm_u"] = _gap(apply_jm(ctx, u_xi), apply_u(ctx, jm_xi))
    del jm_xi
    res["delta_half_j"] = _gap(apply_j(ctx, apply_delta_power(ctx, 0.5, xi)), apply_delta_power(ctx, 0.5, j_xi))
    del j_xi
    res["u_delta_flip"] = _gap(apply_u(ctx, apply_delta_power(ctx, 1.0, xi)), apply_delta_power(ctx, -1.0, u_xi))
    z = rng.standard_normal((samples, 4, n, n))
    ops = 1j * z[:, 1::2]
    ops += z[:, 0::2]  # z[:, 0::2] + 1j * z[:, 1::2], without a third copy
    del z
    ops /= _norms(ops.reshape(2 * samples, n, n)).reshape(samples, 2, 1, 1)
    a, b = ops[:, 0], ops[:, 1]
    # alpha_a(b xi) = b alpha_a(xi), with alpha_a(v) = U a U v
    left = apply_u(ctx, GnsVector(b @ g, ctx))
    del xi, g
    left = apply_u(ctx, GnsVector(a @ left.mat, ctx))
    res["commutant"] = _gap(left, GnsVector(b @ apply_u(ctx, GnsVector(a @ u_xi.mat, ctx)).mat, ctx))
    res["u_selfadjoint"] = max(map(abs, skew.tolist()))
    res["max_residual"] = max(res.values())
    res["condition_warning"] = ctx.condition_ratio < CONDITION_RATIO_WARN
    res["passed"] = res["max_residual"] <= 1e-10
    return res


def _gap(fresh: GnsVector, other: GnsVector) -> float:
    """max |fresh - other| over the entries of two vectors or stacks.  The
    difference overwrites ``fresh``, a temporary of the caller's."""
    diff = fresh.mat
    diff -= other.mat
    return float(np.max(np.abs(diff)))
