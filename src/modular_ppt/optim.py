"""First-order convex machinery over the PPT spectrahedron
{D : D >= 0, D^Gamma >= 0, Tr D = 1}.

``project_ppt`` is Dykstra's alternating-projection scheme, stopped at
the first sweep whose iterate is feasible (to ``tol_feas``): it returns a
feasible point near the input, not the Frobenius-nearest point, because
Dykstra's correction terms have not converged by then.  A member of the
set is a fixed point of the first sweep, so distance-to-output still
doubles as a membership oracle.  ``min_trace_over_ppt`` minimizes a
linear objective over the same set with one ADMM loop from I/n (two
eigendecompositions per iteration, no nested projection) and returns a
certified bracket: the value of a feasible state above, and below a dual
bound from a decomposition h - s I = P + Q^Gamma with P, Q PSD, the
decomposable-witness side of the duality.  It is the executable form of
the dual-cone pairing test.

Stack convention: the one Dykstra loop, ``_dykstra``, projects a stack of
independent problems of shape (k, n, n); a single matrix is a stack of
one.  Every sample keeps its own stopping rules, its own entry in the
sweep, snap and residual arrays returned with the stack, and the same
bits as when projected alone.  ``project_ppt`` and ``sample_ppt_density``
project a stack of one, and ``_sample_stacks`` projects its samples in
stacks of SAMPLE_CHUNK.  ``min_trace_over_ppt`` solves one problem, from
one start at I/n, on single matrices.

Dykstra's iterates are exactly Hermitian: after the input is hermitized,
each is a sum or difference of Hermitian matrices, a partial transpose of
one, or one plus a real diagonal shift.  Only the outputs of the two PSD
projections (spectral products) are hermitized; ``feasibility_residual``
hermitizes at the public boundary.

Dykstra's feasibility test is screened.  Before the exact check
(``_residuals``: one ``eigvalsh`` of x and one of x^Gamma), ``_dykstra``
bounds both least eigenvalues from above with what the sweep already
holds: lambda_min(x^Gamma) <= min(w+) + max(x - x_Gamma) by Weyl, where w+
is the Gamma step's clipped spectrum and x - x_Gamma the trace step's real
diagonal shift, and lambda_min(x) <= u^dagger x u by Rayleigh-Ritz, for a
recent least eigenvector u of the sample.  A sample that a bound proves
infeasible skips the exact check.  No bit changes: the screen is
conservative by SCREEN_MARGIN, far above the bounds' rounding, and every
other sample takes the same exact check as before, one matrix at a time.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionLimitError
from .linalg import (
    MAX_DIM,
    TOL_PSD,
    BipartiteShape,
    _norms,
    _partial_transpose,
    _spectral,
    hermitize,
    project_psd,
    require_bipartite,
    require_density,
    require_hermitian,
)
from .rand import complex_gaussians

__all__ = [
    "PptSetSpec",
    "SolveTrace",
    "project_psd",
    "project_ppt",
    "min_trace_over_ppt",
    "npt_witness",
    "sample_ppt_density",
]

SAMPLE_CHUNK = 256  # samples projected together by _sample_stacks
MAX_SWEEPS = 5000  # Dykstra sweeps before a sample stops (and is snapped if still infeasible)
SCREEN_MARGIN = 1e-12  # slack of _dykstra's screen, far above the n * eps * ||x|| rounding of its bounds
GAP_TOL = 1e-7  # min_trace_over_ppt stops at a certified gap below GAP_TOL * ||h||_F
CHECK_EVERY = 5  # ADMM iterations between certificate checks
RHO_BALANCE = 10.0  # rho is rebalanced when one ADMM residual exceeds the other by this factor
RHO_STEP = 2.0  # and is then multiplied or divided by this factor


@dataclass(frozen=True)
class PptSetSpec:
    """The PPT states {D >= 0, D^Gamma >= 0, Tr D = 1} on ``shape``, and the
    solvers' feasibility tolerance.  The set contains I/nm, its own partial
    transpose."""

    shape: BipartiteShape
    tol_feas: float = 1e-8

    def __post_init__(self):
        if self.tol_feas <= 0:
            raise ContractError(f"tol_feas must be positive, got {self.tol_feas}")
        if self.shape.dim > MAX_DIM:
            raise DimensionLimitError(f"PPT set dimension {self.shape.dim} exceeds cap {MAX_DIM}")


@dataclass
class SolveTrace:
    iterates: int = 0
    feasibility_residual: float = 0.0
    converged: bool = True
    snapped: bool = False
    lower_bound: float | None = None  # certified bracket of min_trace_over_ppt
    gap: float | None = None
    # min_trace_over_ppt's PSD dual Q = -rho U, kept from the check that set
    # lower_bound: h - Q^Gamma - lower_bound I is PSD
    dual: np.ndarray | None = None


def feasibility_residual(d: np.ndarray, spec: PptSetSpec) -> float:
    return float(_residuals(hermitize(d)[None], spec)[0])


def _residuals(x: np.ndarray, spec: PptSetSpec) -> np.ndarray:
    """Feasibility residual of each matrix of an exactly Hermitian stack, from one eigvalsh call."""
    least = np.linalg.eigvalsh(np.concatenate([x, _partial_transpose(x, spec.shape, "B")]))[:, 0]
    return np.maximum.reduce([-least[:len(x)], -least[len(x):], np.abs(_trace(x) - 1.0)])


def _trace(x: np.ndarray) -> np.ndarray:
    return np.trace(x, axis1=-2, axis2=-1).real


def _interior_snap(x: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Minimal blend of each matrix of a stack toward the strictly interior point I/n.

    That point is invariant under the partial transpose, so one blend
    coefficient per matrix repairs both PSD constraints at once while the
    trace stays put; the move is O(n * residual).
    """
    n = x.shape[-1]
    center = 1 / n
    lam = np.minimum(1.0, 1.1 * residual / (residual + center))[:, None, None]
    return (1 - lam) * x + lam * center * np.eye(n)


def project_ppt(m, spec: PptSetSpec) -> tuple[np.ndarray, SolveTrace]:
    """A feasible point of the PPT set near m, by early-stopped Dykstra.

    Cycles the PSD cone, the Gamma-transported PSD cone and the trace
    hyperplane, each with its own correction term, and stops at the first
    sweep whose iterate is feasible to tol_feas.  That point is feasible
    and near m, but it is not the Frobenius-nearest point: Dykstra's
    correction terms have not converged by then.  A member of the set is
    returned unchanged by the first sweep.  On the rare tangential
    instances where the residual stays above tol_feas, the iterate is
    blended minimally toward the interior point I/n so that the
    output is always feasible; the trace records the blend as ``snapped``.
    Non-convergence is reported, never raised.
    """
    x, sweeps, snapped, residual = _dykstra(require_bipartite(require_hermitian(m), spec.shape)[None], spec)
    return x[0], SolveTrace(iterates=int(sweeps[0]), feasibility_residual=float(residual[0]),
                            converged=bool(residual[0] <= spec.tol_feas), snapped=bool(snapped[0]))


def _dykstra(m: np.ndarray, spec: PptSetSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dykstra projections of a (k, n, n) stack of independent problems.

    Returns (stack, sweeps, snapped, residual), each indexed by sample: the
    projected matrices, the sweep at which each stopped, whether it was
    blended toward I/n (see ``_interior_snap``) because it stopped
    infeasible, and its final feasibility residual.  Every sample keeps its
    own stopping rules and leaves the stack at the sweep where it stops, so
    the sweeps left run only on the samples still moving.  A sample stops
    when feasible, when its residual has not halved over the last 100
    sweeps (checked at each multiple of 100 from 200 on, which also stops
    an iterate that no longer moves), or after MAX_SWEEPS.

    Between checkpoints, a sample takes the exact feasibility check only
    when neither screen bound (see the module docstring) lies below
    -(tol_feas + SCREEN_MARGIN).  The Gamma bound holds because the trace
    step adds a real diagonal, its own partial transpose, to the Gamma
    step's output, whose partial transpose has the clipped spectrum w+.  The
    x bound holds for any unit vector u: the least eigenvector of the first
    PSD step's input, refreshed by one ``eigh`` of x whenever the sample
    takes the exact check and stays infeasible.  The exact check can pass
    only on a near-density matrix, whose norm is about 1; there both bounds
    lie within ~n * eps of the least eigenvalues, far inside SCREEN_MARGIN,
    so a screened sample would have failed the check, and every sample
    stops at the same sweep with the same bits as without the screen.  Every
    live sample takes the exact check at each multiple of 100 sweeps and at
    MAX_SWEEPS, where the tangential rule and the final residual need it.
    """
    x = hermitize(m)
    n = x.shape[-1]
    eye = np.eye(n)
    cut = -(spec.tol_feas + SCREEN_MARGIN)

    def proj_psd(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pi_+ of each matrix of an exactly Hermitian stack, with the eigh it clipped."""
        w, v = np.linalg.eigh(y)
        return hermitize(_spectral(v, np.clip(w, 0.0, None))), w, v

    def pt(y: np.ndarray) -> np.ndarray:
        return _partial_transpose(y, spec.shape, "B")

    out = np.empty_like(x)
    sweeps = np.zeros(len(x), dtype=int)
    final = np.empty(len(x))
    live = np.arange(len(x))
    incr = np.zeros((3,) + x.shape, dtype=x.dtype)
    checkpoint = np.full(len(x), np.inf)  # residual at the last multiple of 100 sweeps; first read at 200
    for sweep in range(1, MAX_SWEEPS + 1):
        shifted = x + incr[0]
        x, _, v = proj_psd(shifted)
        incr[0] = shifted - x
        if sweep == 1:
            least_vec = v[..., 0]
        shifted = x + incr[1]
        x_gamma, w, _ = proj_psd(pt(shifted))
        x_gamma = pt(x_gamma)
        incr[1] = shifted - x_gamma
        shifted = x_gamma + incr[2]
        x = shifted + ((1.0 - _trace(shifted)) / n)[:, None, None] * eye
        incr[2] = shifted - x
        if sweep % 100 and sweep != MAX_SWEEPS:
            # the screen: upper bounds on lambda_min(x^Gamma) and lambda_min(x), no eigensolve
            gamma_bound = np.maximum(w[:, 0], 0.0) + np.diagonal(x - x_gamma, axis1=1, axis2=2).real.max(axis=1)
            x_bound = np.einsum("ki,kij,kj->k", least_vec.conj(), x, least_vec).real
            checked = np.minimum(gamma_bound, x_bound) >= cut
        else:
            checked = np.ones(len(x), dtype=bool)
        residual = np.full(len(x), np.inf)
        if checked.any():
            residual[checked] = _residuals(x[checked], spec)
        done = residual <= spec.tol_feas
        if sweep % 100 == 0:
            if sweep >= 200:
                done |= residual > 0.5 * checkpoint  # tangential: decay slower than 2x per 100 sweeps
            checkpoint = residual
        if sweep == MAX_SWEEPS:
            done[:] = True
        refresh = checked & ~done
        if refresh.any():
            least_vec[refresh] = np.linalg.eigh(x[refresh])[1][..., 0]
        if done.any():
            finished = live[done]
            sweeps[finished] = sweep
            out[finished] = x[done]
            final[finished] = residual[done]
            keep = ~done
            live, x, incr = live[keep], x[keep], incr[:, keep]
            checkpoint, least_vec = checkpoint[keep], least_vec[keep]
            if not live.size:
                break
    snapped = final > spec.tol_feas
    if snapped.any():
        out[snapped] = _interior_snap(out[snapped], final[snapped])
        final[snapped] = _residuals(out[snapped], spec)
    return out, sweeps, snapped, final


def _seedlings(rng: np.random.Generator, spec: PptSetSpec, k: int) -> np.ndarray:
    """A stack of k trace-one Hermitian matrices in random directions."""
    n = spec.shape.dim
    seedlings = hermitize(complex_gaussians(rng, k, n, n))
    seedlings /= _norms(seedlings)[:, None, None]
    seedlings += ((1.0 - _trace(seedlings)) / n)[:, None, None] * np.eye(n)
    return seedlings


def sample_ppt_density(rng: np.random.Generator, spec: PptSetSpec) -> np.ndarray:
    """Random PPT state: Dykstra projection of a trace-one Hermitian sample."""
    out, _ = project_ppt(_seedlings(rng, spec, 1)[0], spec)
    return out


def _sample_stacks(rng: np.random.Generator, spec: PptSetSpec, k: int) -> Iterator[tuple[np.ndarray, ...]]:
    """The k states that k calls to ``sample_ppt_density`` return, one
    chunk at a time, each as the ``_dykstra`` tuple (stack, sweeps,
    snapped, residual).

    Seedlings are drawn from ``rng`` in the same order, SAMPLE_CHUNK at a
    time, and each chunk is projected as one stack, so memory is bounded
    for any k.  Each chunk is drawn when iteration reaches it: draw nothing
    else from ``rng`` while iterating.
    """
    for start in range(0, k, SAMPLE_CHUNK):
        yield _dykstra(_seedlings(rng, spec, min(SAMPLE_CHUNK, k - start)), spec)


def min_trace_over_ppt(h, spec: PptSetSpec, iters: int = 1500, restarts: int | None = None,
                       seed: int | None = None) -> tuple[float, np.ndarray, SolveTrace]:
    """min Tr(D h) over the PPT set, bracketed by a certified gap.

    One scaled-form ADMM loop over the split D = X, D^Gamma = Y, with X a
    density matrix and Y >= 0 (Wen, Goldfarb & Yin 2010), started at
    X = Y = I/n, U = 0:

        X <- Pi_Delta((Y - U)^Gamma - h/rho)   one eigh and a simplex projection
        Y <- Pi_+(X^Gamma + U)                 one eigh
        U <- U + X^Gamma - Y                   the negative part of X^Gamma + U

    rho starts at ||h||_F and is rebalanced between the primal and dual
    residuals.  Every CHECK_EVERY iterations both sides of the bracket are
    certified.  The upper bound is Tr(D h) at the feasible point
    D = (1 - lam) X + lam I/n, the least blend toward the centre that makes
    D^Gamma PSD; D is the returned minimizer.  The lower bound is
    lambda_min(h - Q^Gamma) with Q = -rho U, which is PSD: for any PSD Q and
    PPT state D, Tr(D h) = Tr(D (h - Q^Gamma)) + Tr(D^Gamma Q)
    >= lambda_min(h - Q^Gamma).  The value is the least upper bound,
    ``trace.lower_bound`` the greatest lower bound, and the loop stops once
    their gap is below GAP_TOL * ||h||_F (``trace.converged``)
    or after ``iters`` iterations.  ``trace.dual`` is the Q of the greatest
    lower bound, so h = (h - Q^Gamma) + Q^Gamma is the decomposition that
    bound certifies.

    ``restarts`` and ``seed`` remain only because the benchmark still
    passes them; neither is read.
    """
    h = hermitize(require_bipartite(require_hermitian(h), spec.shape))
    if iters < 0:
        raise ContractError(f"iters must be >= 0, got {iters}")
    n = spec.shape.dim
    center = np.eye(n, dtype=complex) / n
    nrm = float(np.linalg.norm(h))
    if nrm == 0:
        return 0.0, center, SolveTrace(lower_bound=0.0, gap=0.0, dual=np.zeros_like(h))

    def pt(m: np.ndarray) -> np.ndarray:
        return _partial_transpose(m, spec.shape, "B")

    x = x_gamma = y = center  # I/n is its own partial transpose
    u = np.zeros_like(h)
    rho = nrm
    upper, lower, minimizer, q = np.inf, -np.inf, center, u
    for it in range(iters + 1):
        if it:
            y_prev = y
            w, v = np.linalg.eigh(pt(y - u) - h / rho)
            x = _spectral(v, _simplex(w))
            x_gamma = pt(x)
            w, v = np.linalg.eigh(x_gamma + u)
            y, u = _spectral(v, np.maximum(w, 0.0)), _spectral(v, np.minimum(w, 0.0))
        if it % CHECK_EVERY and it != iters:
            continue
        eps = max(0.0, -np.linalg.eigvalsh(x_gamma)[0])
        lam = eps / (eps + 1 / n)
        d = (1 - lam) * x + lam * center
        value = float(_trace(d @ h))
        if value < upper:
            upper, minimizer = value, d
        bound = float(np.linalg.eigvalsh(h + rho * pt(u))[0])
        if bound > lower:
            lower, q = bound, -rho * u
        if upper - lower <= GAP_TOL * nrm:
            break
        if it:
            primal = np.linalg.norm(x_gamma - y)
            dual = rho * np.linalg.norm(y - y_prev)
            scale = RHO_STEP if primal > RHO_BALANCE * dual else 1 / RHO_STEP if dual > RHO_BALANCE * primal else 1.0
            rho, u = rho * scale, u / scale
    minimizer = hermitize(minimizer)
    lower = min(lower, upper)  # the two meet within rounding; a smaller lower bound stays valid
    gap = upper - lower
    trace = SolveTrace(
        iterates=it,
        feasibility_residual=feasibility_residual(minimizer, spec),
        converged=bool(gap <= GAP_TOL * nrm),
        lower_bound=lower,
        gap=gap,
        dual=q,
    )
    return upper, minimizer, trace


def _simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of a spectrum w, sorted ascending (as eigh
    returns it), onto the simplex {l >= 0, sum l = 1}."""
    desc = w[::-1]
    excess = np.cumsum(desc) - 1.0
    kept = np.count_nonzero(desc - excess / np.arange(1, len(w) + 1) > 0)
    return np.maximum(w - excess[kept - 1] / kept, 0.0)


def npt_witness(d, shape: BipartiteShape, tol: float = TOL_PSD) -> np.ndarray | None:
    """Decomposable witness (|v><v|)^Gamma from the most negative eigenvector
    of d^Gamma; None when d is PPT.  Tr(W d) recovers that eigenvalue, while
    Tr(W sigma) >= 0 for every PPT sigma."""
    return _gamma_witness(require_density(require_bipartite(d, shape)), shape, tol)[1]


def _gamma_witness(d: np.ndarray, shape: BipartiteShape, tol: float) -> tuple[float, np.ndarray | None]:
    """lambda_min(d^Gamma) and the witness of ``npt_witness`` (None when
    lambda_min >= -tol), both from one eigh; unchecked."""
    vals, vecs = np.linalg.eigh(hermitize(_partial_transpose(d, shape, "B")))
    least = float(vals[0])
    if least >= -tol:
        return least, None
    v = vecs[:, 0]
    w = _partial_transpose(np.outer(v, v.conj()), shape, "B")
    return least, w / np.linalg.norm(w)
