"""First-order convex machinery over the PPT spectrahedron
{D : D >= 0, D^Gamma >= 0, Tr D = 1}.

``project_ppt`` is Dykstra's alternating-projection scheme, which (unlike
naive alternating projections) converges to the Frobenius-nearest point of
the intersection -- needed so that distance-to-projection doubles as a
membership oracle.  ``min_trace_over_ppt`` runs a projected subgradient
method with 1/sqrt(t) steps on a linear objective over the same set and is
the executable form of the dual-cone pairing test.
"""

from __future__ import annotations

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
]


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
    gamma = _partial_transpose(d, spec.shape, "B")
    return float(max(
        -np.linalg.eigvalsh(hermitize(d))[0],
        -np.linalg.eigvalsh(hermitize(gamma))[0],
        abs(np.trace(d).real - spec.trace_target),
    ))


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
    return _dykstra(require_bipartite(require_hermitian(m), spec.shape), spec)


def _dykstra(m: np.ndarray, spec: PptSetSpec) -> tuple[np.ndarray, SolveTrace]:
    x = hermitize(m)
    n = x.shape[0]
    incr = [np.zeros_like(x) for _ in range(3)]

    def proj_gamma_psd(y: np.ndarray) -> np.ndarray:
        return _partial_transpose(_project_psd(_partial_transpose(y, spec.shape, "B")), spec.shape, "B")

    def proj_trace(y: np.ndarray) -> np.ndarray:
        return y + (spec.trace_target - np.trace(y).real) / n * np.eye(n)

    projectors = (_project_psd, proj_gamma_psd, proj_trace)
    trace = SolveTrace(step_rule="dykstra")
    residual = feasibility_residual(x, spec)
    history = [residual]
    stall = 0
    for sweep in range(1, spec.max_iters + 1):
        prev = x
        for k, proj in enumerate(projectors):
            shifted = x + incr[k]
            x = hermitize(proj(shifted))
            incr[k] = shifted - x
        residual = feasibility_residual(x, spec)
        history.append(residual)
        trace.iterates = sweep
        if residual <= spec.tol_feas:
            break
        if sweep >= 200 and sweep % 100 == 0 and residual > 0.5 * history[sweep - 100]:
            break  # tangential stall: decay slower than 2x per 100 sweeps
        if np.max(np.abs(x - prev)) < 1e-12:
            stall += 1
            if stall >= 50:
                break
        else:
            stall = 0
    if residual > spec.tol_feas:
        x, moved = _interior_snap(x, residual, spec)
        residual = feasibility_residual(x, spec)
        trace.snapped = True
        trace.snap_distance = moved
    trace.feasibility_residual = residual
    trace.converged = residual <= spec.tol_feas
    return x, trace


def sample_ppt_density(rng: np.random.Generator, spec: PptSetSpec) -> np.ndarray:
    """Random PPT state: Dykstra projection of a trace-one Hermitian sample."""
    n = spec.shape.dim
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    seedling = hermitize(g)
    seedling /= np.linalg.norm(seedling)
    seedling += (spec.trace_target - np.trace(seedling).real) / n * np.eye(n)
    out, _ = project_ppt(seedling, spec)
    return out


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
    """
    h = require_bipartite(require_hermitian(h), spec.shape)
    nrm = np.linalg.norm(h)
    if nrm == 0:
        d0 = np.eye(spec.shape.dim) / spec.shape.dim * spec.trace_target
        return 0.0, d0, SolveTrace(step_rule="subgradient-1/sqrt(t)")
    eta0 = 1.0 / nrm
    rng = generator(seed, stream=17)
    best_vals = []
    best_d = None
    steps = 0
    for r in range(restarts):
        if r == 0:
            d = np.eye(spec.shape.dim, dtype=complex) / spec.shape.dim * spec.trace_target
        else:
            d, _ = _dykstra(hermitize(random_density(rng, spec.shape.dim)) * spec.trace_target, spec)
        avg = np.zeros_like(d, dtype=complex)
        run_best = np.trace(d @ h).real
        run_best_d = d
        stall = 0
        prev_best = run_best
        for t in range(iters):
            d, _ = _dykstra(d - eta0 / np.sqrt(t + 1.0) * h, spec)
            avg += d
            val = np.trace(d @ h).real
            if val < run_best:
                run_best, run_best_d = val, d
            steps += 1
            if abs(run_best - prev_best) < 1e-10:
                stall += 1
                if stall >= 50:
                    break
            else:
                stall = 0
                prev_best = run_best
        if iters > 0:
            avg_proj, _ = _dykstra(avg / max(1, t + 1), spec)
            avg_val = np.trace(avg_proj @ h).real
            if avg_val < run_best:
                run_best, run_best_d = avg_val, avg_proj
        best_vals.append(float(run_best))
        if best_d is None or run_best <= min(best_vals):
            best_d = run_best_d
    value = float(min(best_vals))
    spread = float(max(best_vals) - min(best_vals))
    minimizer = _polish_density(best_d) * spec.trace_target
    trace = SolveTrace(
        iterates=steps,
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
