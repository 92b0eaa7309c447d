"""First-order convex machinery over the PPT spectrahedron
{D : D >= 0, D^Gamma >= 0, Tr D = 1}.

``project_ppt`` is Dykstra's alternating-projection scheme, which (unlike
naive alternating projections) converges to the Frobenius-nearest point of
the intersection -- needed so that distance-to-projection doubles as a
membership oracle.  ``min_trace_over_ppt`` runs a projected subgradient
method with 1/sqrt(t) steps on a linear objective over the same set and is
the executable form of the dual-cone pairing test.

Stack convention: the one Dykstra loop, ``_dykstra``, projects a stack of
independent problems of shape (k, n, n); a single matrix is a stack of
one.  Every sample keeps its own stopping rules and its own
``SolveTrace``, and gives the same bits as when projected alone.
``project_ppt`` and ``sample_ppt_density`` project a stack of one,
``sample_ppt_densities`` projects its samples in stacks of SAMPLE_CHUNK,
and ``min_trace_over_ppt`` steps all its restarts as one stack.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionLimitError
from .linalg import (
    BipartiteShape,
    _partial_transpose,
    _project_psd,
    hermitize,
    max_dim,
    project_psd,
    require_bipartite,
    require_density,
    require_hermitian,
)
from .rand import generator, random_density

__all__ = [
    "PptSetSpec",
    "SolveTrace",
    "project_psd",
    "project_ppt",
    "min_trace_over_ppt",
    "npt_witness",
    "sample_ppt_density",
    "sample_ppt_densities",
]

SAMPLE_CHUNK = 256  # samples projected together by sample_ppt_densities


@dataclass(frozen=True)
class PptSetSpec:
    """Feasible-set description and solver thresholds.

    The feasible set is nonempty for positive trace targets (it contains
    (target/nm) I, which is its own partial transpose).
    """

    shape: BipartiteShape
    trace_target: float = 1.0
    tol_feas: float = 1e-8
    max_iters: int = 5000

    def __post_init__(self):
        if self.trace_target <= 0:
            raise ContractError(f"trace target must be positive, got {self.trace_target}")
        if self.tol_feas <= 0 or self.max_iters < 1:
            raise ContractError("tol_feas must be positive and max_iters >= 1")
        if self.shape.dim > max_dim():
            raise DimensionLimitError(f"PPT set dimension {self.shape.dim} exceeds cap {max_dim()}")


@dataclass
class SolveTrace:
    iterates: int = 0
    feasibility_residual: float = 0.0
    step_rule: str = ""
    converged: bool = True
    restart_spread: float = 0.0
    low_confidence: bool = False
    snapped: bool = False
    snap_distance: float = 0.0


def feasibility_residual(d: np.ndarray, spec: PptSetSpec) -> float:
    return float(_residuals(d[None], spec)[0])


def _residuals(x: np.ndarray, spec: PptSetSpec) -> np.ndarray:
    """Feasibility residual of each matrix of a stack."""
    gamma = _partial_transpose(x, spec.shape, "B")
    return np.maximum.reduce([
        -np.linalg.eigvalsh(hermitize(x))[:, 0],
        -np.linalg.eigvalsh(hermitize(gamma))[:, 0],
        np.abs(_trace(x) - spec.trace_target),
    ])


def _trace(x: np.ndarray) -> np.ndarray:
    return np.trace(x, axis1=-2, axis2=-1).real


def _interior_snap(x: np.ndarray, residual: float, spec: PptSetSpec) -> tuple[np.ndarray, float]:
    """Minimal blend toward the strictly interior point (target/n) I.

    That point is invariant under the partial transpose, so one blend
    coefficient repairs both PSD constraints at once while the trace stays
    put; the move is O(n * residual), recorded on the solve trace.
    """
    n = x.shape[0]
    center = spec.trace_target / n
    if center <= 0:
        return x, 0.0
    lam = min(1.0, 1.1 * residual / (residual + center))
    snapped = (1 - lam) * x + lam * center * np.eye(n)
    return snapped, float(np.linalg.norm(snapped - x))


def project_ppt(m, spec: PptSetSpec) -> tuple[np.ndarray, SolveTrace]:
    """Frobenius projection onto the PPT set by Dykstra's algorithm.

    Cycles the PSD cone, the Gamma-transported PSD cone and the trace
    hyperplane, each with its own correction term.  On the rare tangential
    instances where the residual stalls above tol_feas, the iterate is
    blended minimally toward the interior point (target/n) I so that the
    output is always feasible; the blend distance is recorded on the
    trace.  Non-convergence is reported, never raised.
    """
    x, traces = _dykstra(require_bipartite(require_hermitian(m), spec.shape)[None], spec)
    return x[0], traces[0]


def _dykstra(m: np.ndarray, spec: PptSetSpec) -> tuple[np.ndarray, list[SolveTrace]]:
    """Dykstra projections of a (k, n, n) stack of independent problems.

    Every sample keeps its own stopping rules and trace, and leaves the
    stack at the sweep where it stops, so the sweeps left run only on the
    samples still moving.
    """
    x = hermitize(m)
    n = x.shape[-1]
    eye = np.eye(n)

    def proj_gamma_psd(y: np.ndarray) -> np.ndarray:
        return _partial_transpose(_project_psd(_partial_transpose(y, spec.shape, "B")), spec.shape, "B")

    def proj_trace(y: np.ndarray) -> np.ndarray:
        return y + ((spec.trace_target - _trace(y)) / n)[:, None, None] * eye

    projectors = (_project_psd, proj_gamma_psd, proj_trace)
    out = np.empty_like(x)
    traces = [SolveTrace(step_rule="dykstra") for _ in range(len(x))]
    final = np.empty(len(x))
    live = np.arange(len(x))
    incr = np.zeros((len(projectors),) + x.shape, dtype=x.dtype)
    checkpoint = np.full(len(x), np.inf)  # residual at the last multiple of 100 sweeps; first read at 200
    stall = np.zeros(len(x), dtype=int)
    for sweep in range(1, spec.max_iters + 1):
        prev = x
        for k, proj in enumerate(projectors):
            shifted = x + incr[k]
            x = hermitize(proj(shifted))
            incr[k] = shifted - x
        residual = _residuals(x, spec)
        done = residual <= spec.tol_feas
        if sweep % 100 == 0:
            if sweep >= 200:
                done |= residual > 0.5 * checkpoint  # tangential stall: decay slower than 2x per 100 sweeps
            checkpoint = residual
        stall = np.where(np.max(np.abs(x - prev), axis=(1, 2)) < 1e-12, stall + 1, 0)
        done |= stall >= 50
        if sweep == spec.max_iters:
            done[:] = True
        if done.any():
            finished = live[done]
            for i in finished:
                traces[i].iterates = sweep
            out[finished] = x[done]
            final[finished] = residual[done]
            keep = ~done
            live, x, incr = live[keep], x[keep], incr[:, keep]
            checkpoint, stall = checkpoint[keep], stall[keep]
            if not live.size:
                break
    for i in np.flatnonzero(final > spec.tol_feas):
        out[i], traces[i].snap_distance = _interior_snap(out[i], final[i], spec)
        final[i] = feasibility_residual(out[i], spec)
        traces[i].snapped = True
    for trace, residual in zip(traces, final):
        trace.feasibility_residual = float(residual)
        trace.converged = bool(residual <= spec.tol_feas)
    return out, traces


def _seedling(rng: np.random.Generator, spec: PptSetSpec) -> np.ndarray:
    """Trace-target Hermitian matrix in a random direction."""
    n = spec.shape.dim
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    seedling = hermitize(g)
    seedling /= np.linalg.norm(seedling)
    seedling += (spec.trace_target - np.trace(seedling).real) / n * np.eye(n)
    return seedling


def sample_ppt_density(rng: np.random.Generator, spec: PptSetSpec) -> np.ndarray:
    """Random PPT state: Dykstra projection of a trace-one Hermitian sample."""
    out, _ = project_ppt(_seedling(rng, spec), spec)
    return out


def sample_ppt_densities(rng: np.random.Generator, spec: PptSetSpec, k: int) -> Iterator[np.ndarray]:
    """Yield the k states that k calls to ``sample_ppt_density`` return.

    Seedlings are drawn from ``rng`` in the same order and projected as one
    stack, SAMPLE_CHUNK at a time, so memory is bounded for any k.  Each
    chunk is drawn when iteration reaches it: draw nothing else from
    ``rng`` while iterating.
    """
    for start in range(0, k, SAMPLE_CHUNK):
        seedlings = np.stack([_seedling(rng, spec) for _ in range(min(SAMPLE_CHUNK, k - start))])
        yield from _dykstra(seedlings, spec)[0]


def _polish_density(d: np.ndarray) -> np.ndarray:
    p = _project_psd(hermitize(d))
    return p / np.trace(p).real


def min_trace_over_ppt(h, spec: PptSetSpec, iters: int = 1500, restarts: int = 5,
                       seed: int = 0) -> tuple[float, np.ndarray, SolveTrace]:
    """min Tr(D h) over the PPT set, by projected subgradient descent.

    Steps eta_t = eta_0 / sqrt(t+1) with eta_0 = 1/||h||_F; the best
    objective over all (feasible) iterates and the projected average
    iterate is returned.  Restarts from several random feasible points
    provide the only optimality cross-check: a spread above 1e-3 sets the
    low-confidence flag.  The value is an upper bound on the true minimum
    (up to tol_feas leakage in the iterates).

    The restarts run as one stack: restart 0 starts at (target/n) I, the
    others at projected random states drawn from stream 17 of ``seed``;
    a restart whose best value has stalled for 50 steps leaves the stack.
    """
    h = require_bipartite(require_hermitian(h), spec.shape)
    if restarts < 1:
        raise ContractError(f"restarts must be >= 1, got {restarts}")
    n = spec.shape.dim
    nrm = np.linalg.norm(h)
    if nrm == 0:
        d0 = np.eye(n) / n * spec.trace_target
        return 0.0, d0, SolveTrace(step_rule="subgradient-1/sqrt(t)")
    eta0 = 1.0 / nrm
    rng = generator(seed, stream=17)
    d = np.empty((restarts, n, n), dtype=complex)
    d[0] = np.eye(n, dtype=complex) / n * spec.trace_target
    if restarts > 1:
        starts = [hermitize(random_density(rng, n)) * spec.trace_target for _ in range(1, restarts)]
        d[1:] = _dykstra(np.stack(starts), spec)[0]
    avg = np.zeros_like(d)
    run_best = _trace(d @ h)
    run_best_d = d.copy()
    prev_best = run_best.copy()
    stall = np.zeros(restarts, dtype=int)
    steps = np.zeros(restarts, dtype=int)
    live = np.arange(restarts)
    for t in range(iters):
        if not live.size:
            break
        d = _dykstra(d - eta0 / np.sqrt(t + 1.0) * h, spec)[0]
        avg[live] += d
        val = _trace(d @ h)
        better = val < run_best[live]
        run_best[live[better]] = val[better]
        run_best_d[live[better]] = d[better]
        steps[live] += 1
        flat = np.abs(run_best[live] - prev_best[live]) < 1e-10
        stall[live] = np.where(flat, stall[live] + 1, 0)
        prev_best[live[~flat]] = run_best[live[~flat]]
        keep = stall[live] < 50
        live, d = live[keep], d[keep]
    if iters > 0:
        avg_proj = _dykstra(avg / steps[:, None, None], spec)[0]
        avg_val = _trace(avg_proj @ h)
        better = avg_val < run_best
        run_best[better] = avg_val[better]
        run_best_d[better] = avg_proj[better]
    value = float(run_best.min())
    spread = float(run_best.max() - value)
    # in restart order, ties going to the later restart
    best = max(r for r in range(restarts) if run_best[r] == value)
    minimizer = _polish_density(run_best_d[best]) * spec.trace_target
    trace = SolveTrace(
        iterates=int(steps.sum()),
        feasibility_residual=feasibility_residual(minimizer, spec),
        step_rule="subgradient-1/sqrt(t)",
        converged=spread <= 1e-3,
        restart_spread=spread,
        low_confidence=spread > 1e-3,
    )
    return value, minimizer, trace


def npt_witness(d, shape: BipartiteShape, tol: float = 1e-10) -> np.ndarray | None:
    """Decomposable witness (|v><v|)^Gamma from the most negative eigenvector
    of d^Gamma; None when d is PPT.  Tr(W d) recovers that eigenvalue, while
    Tr(W sigma) >= 0 for every PPT sigma."""
    d = require_density(require_bipartite(d, shape))
    gamma = hermitize(_partial_transpose(d, shape, "B"))
    vals, vecs = np.linalg.eigh(gamma)
    if vals[0] >= -tol:
        return None
    v = vecs[:, 0]
    w = _partial_transpose(np.outer(v, v.conj()), shape, "B")
    return w / np.linalg.norm(w)
