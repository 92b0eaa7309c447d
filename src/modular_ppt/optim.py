"""First-order convex machinery over the PPT spectrahedron
{D : D >= 0, D^Gamma >= 0, Tr D = 1}.

``project_ppt`` is Dykstra's alternating-projection scheme, stopped at
the first sweep whose iterate is feasible (to ``tol_feas``): it returns a
feasible point near the input, not the Frobenius-nearest point, because
Dykstra's correction terms have not converged by then.  A member of the
set is a fixed point of the first sweep, so distance-to-output still
doubles as a membership oracle.  ``min_trace_over_ppt`` minimizes a
linear objective over the same set with one ADMM loop from I/n (two
eigendecompositions per iteration, no nested projection; the first exact
check, at X = I/n, costs one) and returns a certified bracket: the value
of a feasible state above, and below a dual bound from a decomposition
h - s I = P + Q^Gamma with P, Q PSD, the decomposable-witness side of the
duality.  It is the executable form of the dual-cone pairing test.  The
loop has two stop rules: a gap below GAP_TOL * ||h||_F, which ``minimize``
asks for, and, chosen by the private keyword ``_sign_tol``, a bracket that
excludes [-tol, tol], which is all that ``choi.dual_pairing_test`` needs
to decide the sign of the minimum; with ``_sign_tol=None`` only the gap
rule applies.  A real symmetric h (the Choi maps, the swap, -|Phi><Phi|)
is solved in float64: every iterate and eigensolve of the loop is real,
and the minimizer and dual it returns are complex128 whatever h is.  Each
loop screens its exact checks; the screens are derived in ``_dykstra`` and
``min_trace_over_ppt``.

Stack convention: the one Dykstra loop, ``_dykstra``, projects a stack of
independent problems of shape (k, n, n); a single matrix is a stack of
one.  Every sample keeps its own stopping rules, its own entry in the
sweep, snap and residual arrays returned with the stack, and the same
bits as when projected alone.  ``project_ppt`` and ``sample_ppt_density``
(one seedling through ``project_ppt``, whose nesting the benchmark's
tracer counts) project a stack of one.  ``_sample_ppt`` is the one stack
sampler: it projects k seedlings as one stack and tallies the sweeps and
snaps; ``constructions.sqrt_ppt_experiment`` and ``choi.stormer_block_test``
draw all their states from it, a stack whose size the CLI bounds
(``linalg.MAX_STACK_ENTRIES``).  ``min_trace_over_ppt`` solves one
problem, from one start at I/n, on single matrices.

Dykstra's iterates are exactly Hermitian: after the input is hermitized,
each is a sum or difference of Hermitian matrices, a partial transpose of
one, or one plus a real diagonal shift.  Only the outputs of the two PSD
projections (spectral products) are hermitized; ``feasibility_residual``
hermitizes at the public boundary.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DimensionLimitError
from .linalg import (
    MAX_DIM,
    TOL_PSD,
    BipartiteShape,
    _eigh,
    _eigvalsh,
    _norms,
    _partial_transpose,
    _spectral,
    hermitize,
    require_bipartite,
    require_density,
    require_hermitian,
    require_tol,
)
from .rand import complex_gaussians

__all__ = [
    "PptSetSpec",
    "SolveTrace",
    "project_ppt",
    "min_trace_over_ppt",
    "npt_witness",
    "sample_ppt_density",
]

MAX_SWEEPS = 5000  # Dykstra sweeps before a sample stops (and is snapped if still infeasible)
SCREEN_MARGIN = 1e-12  # slack of _dykstra's screen, far above the n * eps * ||x|| rounding of its bounds
GAP_TOL = 1e-7  # min_trace_over_ppt stops at a certified gap below GAP_TOL * ||h||_F
CHECK_EVERY = 5  # iterations between rho rebalances and scheduled checks of min_trace_over_ppt
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
        # a bool is no tolerance, and NaN passes no comparison
        if isinstance(self.tol_feas, bool) or not 0 < self.tol_feas < np.inf:
            raise ContractError(f"tol_feas must be finite and positive, got {self.tol_feas}")
        if self.shape.dim > MAX_DIM:
            raise DimensionLimitError(f"PPT set dimension {self.shape.dim} exceeds cap {MAX_DIM}")


@dataclass
class SolveTrace:
    # project_ppt sets iterates (sweeps), feasibility_residual, converged and
    # snapped; min_trace_over_ppt sets iterates, converged and the fields from
    # lower_bound on, and leaves feasibility_residual None (``feasibility_residual``
    # of its minimizer gives it)
    iterates: int = 0
    feasibility_residual: float | None = None
    converged: bool = True
    snapped: bool = False
    lower_bound: float | None = None  # certified bracket of min_trace_over_ppt
    gap: float | None = None
    # min_trace_over_ppt's PSD dual Q = -rho U, kept from the check that set
    # lower_bound: h - Q^Gamma - lower_bound I is PSD
    dual: np.ndarray | None = None
    checks: int = 0  # exact certificate checks of min_trace_over_ppt


def feasibility_residual(d: np.ndarray, spec: PptSetSpec) -> float:
    return float(_residuals(hermitize(d)[None], spec)[0])


def _residuals(x: np.ndarray, spec: PptSetSpec) -> np.ndarray:
    """Feasibility residual of each matrix of an exactly Hermitian stack, from one eigvalsh call."""
    least = _eigvalsh(np.concatenate([x, _partial_transpose(x, spec.shape, "B")]))[:, 0]
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

    Cycles the PSD cone and the Gamma-transported PSD cone, each with its
    own correction term, then the trace hyperplane, which is affine and so
    needs none, and stops at the first sweep whose iterate is feasible to
    tol_feas.  That point is feasible and near m, but it is not the
    Frobenius-nearest point: Dykstra's correction terms have not converged
    by then.  A member of the set is returned unchanged by the first sweep.
    On the rare tangential instances where the residual stays above
    tol_feas, the iterate is blended minimally toward the interior point
    I/n so that the output is always feasible; the trace records the blend
    as ``snapped``.  Non-convergence is reported, never raised.
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

    The feasibility test is screened.  Between checkpoints, a sample takes
    the exact check (``_residuals``: one ``eigvalsh`` of x and one of
    x^Gamma) only when neither of two upper bounds on its least eigenvalues
    lies below -(tol_feas + SCREEN_MARGIN).  The Gamma bound is
    max(w_min, 0) + c, with w_min the least eigenvalue the Gamma step
    clipped and c I the shift of the trace step.  It holds because the
    trace step sets x = x_Gamma + c I with no correction term: Dykstra's
    correction for the affine trace hyperplane would be a multiple of its
    normal I, which the next trace projection cancels.  The partial
    transpose fixes the diagonal, so x^Gamma is the Gamma step's PSD output
    plus c I, entry for entry: two numbers per sample, no pass over the
    stack, and no invariant of an accumulated increment.  The x bound is
    u^dagger x u >= lambda_min(x) (Rayleigh-Ritz) for a unit vector u: the
    least eigenvector of the first PSD step's input, refreshed by one
    ``eigh`` of x whenever the sample takes the exact check and stays
    infeasible; its Rayleigh quotient is formed only for the samples that
    the Gamma bound lets through, and a sweep whose screen rules out every
    live sample goes straight to the next.  The exact check can pass only
    on a near-density matrix, whose norm is about 1; there both bounds lie
    within ~n * eps of the least eigenvalues, far inside SCREEN_MARGIN, so
    a screened sample would have failed the check, and every sample stops
    at the same sweep with the same bits as without the screen.  Every live
    sample takes the exact check at each multiple of 100 sweeps and at
    MAX_SWEEPS, where the tangential rule and the final residual need it.

    Every eigensolve goes through ``linalg._eigh`` or ``_eigvalsh``, whose
    ``numpy.linalg`` call the benchmark's tracer counts, and each increment
    is written over the shifted stack it is taken from.
    """
    x = hermitize(m)
    n = x.shape[-1]
    eye = np.eye(n)
    cut = -(spec.tol_feas + SCREEN_MARGIN)

    def proj_psd(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pi_+ of each matrix of an exactly Hermitian stack, with the eigh it clipped;
        hermitized in place, with the bits of ``hermitize``."""
        w, v = _eigh(y)
        p = (v * np.maximum(w, 0.0)[:, None, :]) @ v.conj().swapaxes(-1, -2)
        p += p.conj().swapaxes(-1, -2)
        p *= 0.5
        return p, w, v

    out = np.empty_like(x)
    sweeps = np.zeros(len(x), dtype=int)
    final = np.empty(len(x))
    live = np.arange(len(x))
    psd_incr, gamma_incr = np.zeros_like(x), np.zeros_like(x)
    checkpoint = np.full(len(x), np.inf)  # residual at the last multiple of 100 sweeps; first read at 200
    for sweep in range(1, MAX_SWEEPS + 1):
        shifted = x + psd_incr
        x, _, v = proj_psd(shifted)
        psd_incr = np.subtract(shifted, x, out=shifted)
        if sweep == 1:
            least_vec = v[..., 0]
        shifted = x + gamma_incr
        x_gamma, w, _ = proj_psd(_partial_transpose(shifted, spec.shape))
        x_gamma = _partial_transpose(x_gamma, spec.shape)
        gamma_incr = np.subtract(shifted, x_gamma, out=shifted)
        c = (1.0 - _trace(x_gamma)) / n
        x = x_gamma + c[:, None, None] * eye  # x^Gamma is the Gamma step's PSD output plus c I
        if sweep % 100 and sweep != MAX_SWEEPS:
            # the screen: upper bounds on lambda_min(x^Gamma), then on lambda_min(x), no eigensolve
            gamma_open = np.maximum(w[:, 0], 0.0) + c >= cut
            if not gamma_open.any():
                continue
            checked = np.flatnonzero(gamma_open)
            u = least_vec[checked]
            checked = checked[np.einsum("ki,kij,kj->k", u.conj(), x[checked], u).real >= cut]
            if not checked.size:
                continue
        else:
            checked = np.arange(len(x))
        residual = _residuals(x[checked], spec)
        done = residual <= spec.tol_feas
        if sweep % 100 == 0:
            if sweep >= 200:
                done |= residual > 0.5 * checkpoint  # tangential: decay slower than 2x per 100 sweeps
            checkpoint = residual
        if sweep == MAX_SWEEPS:
            done[:] = True
        refresh = checked[~done]
        if refresh.size:
            least_vec[refresh] = _eigh(x[refresh])[1][..., 0]
        if done.any():
            finished = checked[done]
            at = live[finished]
            sweeps[at], out[at], final[at] = sweep, x[finished], residual[done]
            keep = np.ones(len(x), dtype=bool)
            keep[finished] = False
            live, x, checkpoint, least_vec = live[keep], x[keep], checkpoint[keep], least_vec[keep]
            psd_incr, gamma_incr = psd_incr[keep], gamma_incr[keep]
            if not live.size:
                break
    snapped = final > spec.tol_feas
    if snapped.any():
        out[snapped] = _interior_snap(out[snapped], final[snapped])
        final[snapped] = _residuals(out[snapped], spec)
    return out, sweeps, snapped, final


def _seedlings(rng: np.random.Generator, spec: PptSetSpec, k: int) -> np.ndarray:
    """A stack of k trace-one Hermitian matrices in random directions: the
    seedlings of k ``sample_ppt_density`` calls, from the same stream."""
    n = spec.shape.dim
    seedlings = hermitize(complex_gaussians(rng, k, n, n))
    seedlings /= _norms(seedlings)[:, None, None]
    seedlings += ((1.0 - _trace(seedlings)) / n)[:, None, None] * np.eye(n)
    return seedlings


def _sample_ppt(rng: np.random.Generator, spec: PptSetSpec, k: int) -> tuple[np.ndarray, dict]:
    """k random PPT states, the Dykstra projections of k seedlings as one
    stack, and the sampler's tallies: the total sweeps (``dykstra_sweeps``),
    their nearest-rank 90th percentile (``dykstra_sweeps_p90``) and the
    samples blended toward I/n (``dykstra_snaps``).  Every state is feasible
    to tol_feas: the seedlings have unit norm and trace one, so a snapped
    sample's blend leaves both least eigenvalues above zero."""
    states, sweeps, snapped, _ = _dykstra(_seedlings(rng, spec, k), spec)
    return states, {
        "dykstra_sweeps": int(np.sum(sweeps)),
        "dykstra_sweeps_p90": int(np.percentile(sweeps, 90, method="inverted_cdf")),
        "dykstra_snaps": int(np.count_nonzero(snapped)),
    }


def sample_ppt_density(rng: np.random.Generator, spec: PptSetSpec) -> np.ndarray:
    """Random PPT state: Dykstra projection of a trace-one Hermitian sample."""
    out, _ = project_ppt(_seedlings(rng, spec, 1)[0], spec)
    return out


def min_trace_over_ppt(h, spec: PptSetSpec, iters: int = 1500, restarts: int | None = None,
                       seed: int | None = None, *,
                       _sign_tol: float | None = None) -> tuple[float, np.ndarray, SolveTrace]:
    """min Tr(D h) over the PPT set, bracketed by a certified gap.

    One scaled-form ADMM loop over the split D = X, D^Gamma = Y, with X a
    density matrix and Y >= 0 (Wen, Goldfarb & Yin 2010), started at
    X = Y = I/n, U = 0:

        X <- Pi_Delta((Y - U)^Gamma - h/rho)   one eigh and a simplex projection
        Y <- Pi_+(X^Gamma + U)                 one eigh
        U <- U + X^Gamma - Y                   the negative part of X^Gamma + U

    rho starts at ||h||_F, so an h whose ||h||_F overflows is refused
    (ContractError), and is rebalanced between the primal and dual
    residuals every CHECK_EVERY iterations.  An exact check certifies both
    sides of the bracket.  The upper bound is Tr(D h) at the feasible point
    D = (1 - lam) X + lam I/n, the least blend toward the centre that makes
    D^Gamma PSD: lam = eps / (eps + 1/n) with eps = max(0, -lambda_min(X^Gamma)).
    D is the returned minimizer.  The lower bound is lambda_min(h - Q^Gamma)
    with Q = -rho U, which is PSD: for any PSD Q and PPT state D,
    Tr(D h) = Tr(D (h - Q^Gamma)) + Tr(D^Gamma Q) >= lambda_min(h - Q^Gamma).
    The value is the least upper bound, ``trace.lower_bound`` the greatest
    lower bound, and the loop stops once their gap is below
    GAP_TOL * ||h||_F (``trace.converged``) or after ``iters`` iterations,
    an integer >= 0 (else ContractError).  With a ``_sign_tol`` (private:
    the sign stop of ``choi.dual_pairing_test``), it also stops at the first
    exact check whose bracket excludes [-_sign_tol, _sign_tol]: lower bound
    >= -_sign_tol or value < -_sign_tol.  Both bounds are monotone, so the
    sign so certified is the one the gap-closing solve would certify;
    ``None`` (the default) leaves the gap rule alone, iterate for iterate.
    ``trace.dual`` is the Q of the greatest lower bound, so
    h = (h - Q^Gamma) + Q^Gamma is the decomposition that bound certifies.

    The exact check runs every CHECK_EVERY iterations and at the last one
    (the scheduled checks), and at every other iterate where a screen with
    no eigensolve (``_Screen.bounds``) cannot prove that the gap stays above
    GAP_TOL * ||h||_F.  Each exact check keeps, from its two ``eigh``, the
    least eigenvectors z' of X^Gamma and z of h + rho U^Gamma.  The screen
    bounds the next check from them:

    - the value is Tr(X h) + lam (Tr(h)/n - Tr(X h)), monotone in lam,
      with lam in [0, 1).  When Tr(X h) exceeds the centre's value Tr(h)/n,
      the value is at least that centre's value, v_lo.  Otherwise the
      least lam gives v_lo: eps is at least -z'^dagger X^Gamma z', and
      -v^dagger X^Gamma v for the least eigenvector v of X^Gamma + U from
      the Y step (Rayleigh-Ritz);
    - the bound is at most z^dagger (h + rho U^Gamma) z (Rayleigh-Ritz),
      b_hi.

    The check is skipped iff min(upper, v_lo) - max(lower, b_hi) > the
    gap tolerance and, with a ``_sign_tol``, max(lower, b_hi) < -_sign_tol
    <= min(upper, v_lo) (``_may_close``): the skipped check could not have
    stopped the loop.  The screen moves neither the iterates nor rho,
    which change only at the scheduled checks, and every check it adds
    can only lower the value or raise the bound.  So no problem stops
    later than with the scheduled checks alone (up to rounding), a loose
    screen costs time and never correctness, and every bracket is
    certified by an exact check.  ``trace.checks`` counts the exact checks.
    The first one, at iteration 0, has X = X^Gamma = I/n: its eigenpairs
    are taken in closed form (eigenvalue 1/n, eps = 0, D = I/n, z' = e_0,
    the bits ``eigh`` returns for I/n), so it costs only the eigh of
    h + rho U^Gamma, and a solve makes 2 (iterations + checks) - 1
    eigensolves.

    When the hermitized h has no imaginary part, the loop runs on its real
    part: I/n, U and the screen follow h's dtype, so every iterate, ``eigh``
    and matrix product is float64 (the same loop, with half the arithmetic
    of complex128).  The minimizer and ``trace.dual`` are returned as
    complex128 either way, as is the h = 0 answer.

    ``restarts`` and ``seed`` remain only because the benchmark still
    passes them; neither is read.
    """
    given = require_bipartite(require_hermitian(h), spec.shape)
    # rho = ||h||_F must be finite, or inf * 0 reaches eigh as NaN; refuse it without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        h = hermitize(given)
        nrm = float(np.linalg.norm(h))
        if not nrm < np.inf:
            raise ContractError(f"h has entries up to {np.max(np.abs(given)):.3e}: its Frobenius norm overflows")
    if isinstance(iters, bool) or not isinstance(iters, numbers.Integral) or iters < 0:
        raise ContractError(f"iters must be an integer >= 0, got {iters!r}")
    n = spec.shape.dim
    if nrm == 0:
        return 0.0, np.eye(n, dtype=complex) / n, SolveTrace(lower_bound=0.0, gap=0.0, dual=np.zeros_like(h))
    if not h.imag.any():
        h = h.real.copy()  # real symmetric: the loop below then runs in float64 throughout

    tol = GAP_TOL * nrm
    center = np.eye(n, dtype=h.dtype) / n
    x = x_gamma = y = center  # I/n is its own partial transpose
    u = np.zeros_like(h)
    rho = nrm
    upper, lower, minimizer, q = np.inf, -np.inf, center, u
    checks = 0
    for it in range(iters + 1):
        if it:
            y_prev = y
            w, v = _eigh(_partial_transpose(y - u, spec.shape) - h_rho)
            x = _spectral(v, _simplex(w))
            x_gamma = _partial_transpose(x, spec.shape)
            w, v = _eigh(x_gamma + u)
            vh = v.conj().T
            y, u = (v * np.maximum(w, 0.0)) @ vh, (v * np.minimum(w, 0.0)) @ vh
            if it % CHECK_EVERY and it != iters and not _may_close(
                    upper, lower, *screen.bounds(x, x_gamma, u, rho, v[:, 0]), tol, _sign_tol):
                continue
        checks += 1
        if it:
            w, v = _eigh(x_gamma)
            eps, least_gamma = max(0.0, -w[0]), v[:, 0]
        else:  # X^Gamma = I/n: eigenvalues 1/n and eigenvectors I, the bits eigh returns for it
            eps, least_gamma = 0.0, np.eye(n, dtype=h.dtype)[0]
        lam = eps / (eps + 1 / n)
        d = (1 - lam) * x + lam * center
        value = float(np.vdot(h, d).real)  # Tr(d h), as h is Hermitian
        if value < upper:
            upper, minimizer = value, d
        w, v = _eigh(h + rho * _partial_transpose(u, spec.shape))
        bound = float(w[0])
        if bound > lower:
            lower, q = bound, -rho * u
        if _stops(upper, lower, tol, _sign_tol):
            break
        z = v[:, 0]
        screen = _Screen(h, h.trace().real / n, least_gamma[:, None] * least_gamma.conj(), np.vdot(z, h @ z).real,
                         _partial_transpose(z[:, None] * z.conj(), spec.shape))
        if it % CHECK_EVERY == 0:
            if it:
                primal = np.linalg.norm(x_gamma - y)
                dual = rho * np.linalg.norm(y - y_prev)
                scale = RHO_STEP if primal > RHO_BALANCE * dual else 1 / RHO_STEP if dual > RHO_BALANCE * primal else 1.0
                rho, u = rho * scale, u / scale
            h_rho = h / rho
    minimizer = hermitize(minimizer).astype(complex, copy=False)
    lower = min(lower, upper)  # the two meet within rounding; a smaller lower bound stays valid
    gap = upper - lower
    trace = SolveTrace(iterates=it, converged=bool(gap <= tol), lower_bound=lower, gap=gap,
                       dual=q.astype(complex, copy=False), checks=checks)
    return upper, minimizer, trace


class _Screen(NamedTuple):
    """What the screen of ``min_trace_over_ppt`` keeps from an exact check
    that left the gap open, with the least eigenvectors z' of X^Gamma and
    z of h + rho U^Gamma folded into the terms of its inner products."""

    h: np.ndarray
    center_value: float  # Tr(h)/n, the value at I/n
    x_gamma_probe: np.ndarray  # z' z'^dagger: Tr(X^Gamma z' z'^dagger) = z'^dagger X^Gamma z'
    hz: float  # z^dagger h z
    u_probe: np.ndarray  # (z z^dagger)^Gamma: Tr(U (z z^dagger)^Gamma) = z^dagger U^Gamma z

    def bounds(self, x: np.ndarray, x_gamma: np.ndarray, u: np.ndarray, rho: float,
               near_least: np.ndarray) -> tuple[float, float]:
        """(v_lo, b_hi): a lower bound on the value and an upper bound on the
        bound that an exact check would give at the iterate (X, U, rho).
        ``near_least`` is a second unit vector for the Rayleigh quotient of
        X^Gamma."""
        t = np.vdot(self.h, x).real  # Tr(X h)
        step = self.center_value - t  # the value is t + lam * step, lam = eps / (eps + 1/n) in [0, 1)
        if step >= 0:  # the least eps, by Rayleigh-Ritz
            rayleigh = min(np.vdot(self.x_gamma_probe, x_gamma).real, np.vdot(near_least, x_gamma @ near_least).real)
            eps = max(0.0, -rayleigh)
            v_lo = t + eps / (eps + 1 / len(x)) * step
        else:  # at least t + step, the centre's value
            v_lo = self.center_value
        return v_lo, self.hz + rho * np.vdot(self.u_probe, u).real


def _stops(upper: float, lower: float, tol: float, sign_tol: float | None) -> bool:
    """Whether the bracket [lower, upper] stops ``min_trace_over_ppt``: a gap
    <= tol or, with a ``sign_tol``, a bracket that excludes [-sign_tol, sign_tol]."""
    return upper - lower <= tol or sign_tol is not None and (lower >= -sign_tol or upper < -sign_tol)


def _may_close(upper: float, lower: float, v_lo: float, b_hi: float, tol: float, sign_tol: float | None) -> bool:
    """Whether an exact check could stop the loop, given the bracket so far
    and the screen's bounds on the check's value (>= v_lo) and bound
    (<= b_hi)."""
    return _stops(min(upper, v_lo), max(lower, b_hi), tol, sign_tol)


def _simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of a spectrum w, sorted ascending (as eigh
    returns it), onto the simplex {l >= 0, sum l = 1}."""
    total, kept, excess = 0.0, 0, []
    for k, value in enumerate(reversed(w.tolist()), 1):  # Python floats: cheaper than numpy on a short spectrum
        total += value
        excess.append(total - 1.0)
        kept += value - excess[-1] / k > 0
    return np.maximum(w - excess[kept - 1] / kept, 0.0)


def npt_witness(d, shape: BipartiteShape, tol: float = TOL_PSD) -> np.ndarray | None:
    """Decomposable witness (|v><v|)^Gamma from the most negative eigenvector
    of d^Gamma; None when d is PPT.  Tr(W d) recovers that eigenvalue, while
    Tr(W sigma) >= 0 for every PPT sigma."""
    require_tol(tol, "tol")
    return _gamma_witness(require_density(require_bipartite(d, shape)), shape, tol)[1]


def _gamma_witness(d: np.ndarray, shape: BipartiteShape, tol: float) -> tuple[float, np.ndarray | None]:
    """lambda_min(d^Gamma) and the witness of ``npt_witness`` (None when
    lambda_min >= -tol), both from one eigh; unchecked."""
    vals, vecs = _eigh(hermitize(_partial_transpose(d, shape, "B")))
    least = float(vals[0])
    if least >= -tol:
        return least, None
    v = vecs[:, 0]
    w = _partial_transpose(np.outer(v, v.conj()), shape, "B")
    return least, w / np.linalg.norm(w)
