"""Cone geometry on the GNS space.

The interpolating cones V_beta = closure{Delta^beta a Omega : a >= 0} for
beta in [0, 1/2] satisfy the duality V_beta^d = V_{1/2-beta}; V_{1/4} is
the natural (self-dual) cone P, whose elements are exactly the PSD
matrices in matricized form because Delta^{1/4}(a Omega) =
rho^{1/4} a rho^{1/4}.  The flip unitary U maps V_beta onto V_{1/2-beta}
and realizes transposition at the state level.

On a composite system the PPT states correspond to the cone intersection
P_n  ∩  (1 (x) U_B) P_n, which this module tests by two independent
routes: once through cone membership on the joint GNS space, once through
a PSD + partial-transpose check on the reconstructed operator.

Stack convention: the unchecked kernels ``_v_beta_certificate``,
``_cone_elements`` and ``_separating_eta`` act on a stack of independent
problems of shape (k, n, n); a single vector is a stack of one.  Every
sample gives the same bits as when processed alone.  ``duality_check`` and
``u_maps_cones`` draw all their samples first, in the order of a
sample-by-sample loop, and process them as one stack; ``_lmo_product_atom``
alternates all its random starts as one stack, and a start leaves it at
the round where it settles; ``density_of`` and ``one_otimes_ub`` also take
a vector whose matrix is a stack.  ``build_composite`` and
``commutant_cone_check`` draw their factors in the same order with one
``_factor_draws`` call and check them as one stack: ``_natural_cone_generator``
and ``_commutant_cone_generator`` take (samples, terms, ., .) stacks of factors.
The public functions check beta once per call.  The Delta-power overflow
check lives in ``gns.apply_delta_power``, where the caller picks the power:
every context comes from ``build_gns``, whose eigenvalues lie in
[EPS_FAITHFUL, 1 + TOL_TRACE], so the fixed powers |beta| <= 1 used here
keep every |beta log(lambda_i/lambda_j)| below 28.

The separable (product) cone is bracketed by ``separable_cone_distance``:
greedy product atoms, each round refitting all atoms jointly over their
unnormalized factors by Levenberg-Marquardt steps in the row space of the
Jacobian (so each atom's phase and scale gauge needs no fixing), give the
distance to an exhibited sum of products (upper bound); the distance to
the PPT cone's PSD and partial-transpose constraints gives the lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gns as gns_mod
from .errors import ConsistencyError, ContractError
from .gns import (
    GnsContext,
    GnsVector,
    _delta_power,
    _flip,
    _inner,
    apply_jm,
    apply_u,
    build_gns,
)
from .linalg import (
    BipartiteShape,
    _kron,
    _mat_sqrt_psd,
    _norms,
    _partial_transpose,
    hermitize,
    kron,
    require_count,
    require_density,
)
from .rand import _factor_draws, _unit_trace_gram, complex_gaussians, generator

DEFAULT_TOL = 1e-10
COMPOSITE_CHECKS = 50  # sampled product pairs on which build_composite checks the factorization
LMO_ROUNDS = 25       # alternation rounds of each start of the product-atom search
LMO_STARTS = 3        # random starts of the product-atom search
POLISH_NFEV = 60      # Levenberg-Marquardt iterations per joint polish of the separable bound
STALL_ROUNDS = 3      # rounds in which the separable bound must halve


def _check_beta(beta: float) -> None:
    if not 0.0 <= beta <= 0.5:
        raise ContractError(f"beta must lie in [0, 1/2], got {beta}")


@dataclass(frozen=True)
class MembershipVerdict:
    inside: bool
    certificate: float       # min eigenvalue of the witnessing matrix
    detail: dict = field(default_factory=dict)
    witness: np.ndarray | None = field(default=None, compare=False, repr=False)  # the matrix certified PSD


def _v_beta_certificate(ctx: GnsContext, beta: float, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The witness a = mat(Delta^{-beta} xi) rho^{-1/2} and its least
    eigenvalue, for a vector or a stack of them; unchecked."""
    a = _delta_power(ctx, -beta, mats) @ ctx.inv_sqrt_rho
    return a, np.linalg.eigvalsh(hermitize(a))[..., 0]


def v_beta_membership(ctx: GnsContext, beta: float, xi: GnsVector, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """xi in V_beta  iff  a = mat(Delta^{-beta} xi) rho^{-1/2} is PSD."""
    _check_beta(beta)
    a, cert = _v_beta_certificate(ctx, beta, xi.mat_in(ctx))
    cert = float(cert)
    return MembershipVerdict(inside=cert >= -tol, certificate=cert, witness=a)


def natural_cone_membership(ctx: GnsContext, xi: GnsVector, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Membership in P = V_{1/4}, decided by two independent routes.

    Route one runs the generic V_beta test at beta = 1/4; route two checks
    mat(xi) directly for positivity (the two are congruent via rho^{1/4}).
    A sign disagreement with both certificates clear of the boundary is an
    internal error.
    """
    via_beta = v_beta_membership(ctx, 0.25, xi, tol)
    spectral_cert = float(np.linalg.eigvalsh(hermitize(xi.mat))[0])
    spectral_inside = spectral_cert >= -tol
    if via_beta.inside != spectral_inside and min(abs(via_beta.certificate), abs(spectral_cert)) > 10 * tol:
        raise ConsistencyError(
            f"natural-cone routes disagree: v_beta cert {via_beta.certificate:.3e}, "
            f"spectral cert {spectral_cert:.3e}"
        )
    return MembershipVerdict(
        inside=via_beta.inside,
        certificate=via_beta.certificate,
        detail={"spectral_certificate": spectral_cert, "vbeta_certificate": via_beta.certificate},
        witness=via_beta.witness,
    )


def _cone_elements(ctx: GnsContext, beta: float, psd: np.ndarray) -> np.ndarray:
    """Unit vectors Delta^beta a Omega for a stack of PSD a; unchecked."""
    xi = _delta_power(ctx, beta, psd @ ctx.sqrt_rho)
    return xi / _norms(xi)[:, None, None]


def _separating_eta(ctx: GnsContext, beta: float, witness: np.ndarray) -> np.ndarray:
    """For xi outside V_beta, an eta in V_{1/2-beta} pairing negatively with xi.

    Built from the most negative eigenvector of rho^{1/2} a rho^{1/2},
    where a is the membership witness of xi (``_v_beta_certificate``), for
    one witness or a stack; unchecked.
    """
    v = np.linalg.eigh(hermitize(ctx.sqrt_rho @ witness @ ctx.sqrt_rho))[1][..., :, 0]
    return _delta_power(ctx, 0.5 - beta, (v[..., :, None] * v.conj()[..., None, :]) @ ctx.sqrt_rho)


def duality_check(ctx: GnsContext, beta: float, samples: int = 100, seed: int = 0,
                  tol: float = DEFAULT_TOL) -> dict:
    """Numerical probe of V_beta = dual(V_{1/2-beta}).

    Pairings of constructive members of the two cones must be nonnegative;
    for random vectors failing the beta membership test a separating
    element of V_{1/2-beta} is produced from the witness eigenvector.
    """
    _check_beta(beta)
    require_count(samples, "samples")
    rng = generator(seed)
    n = ctx.dim
    psd = _unit_trace_gram(complex_gaussians(rng, 2 * samples, n, n)).reshape(samples, 2, n, n)
    xi = _cone_elements(ctx, beta, psd[:, 0])
    eta = _cone_elements(ctx, 0.5 - beta, psd[:, 1])
    min_pairing = np.min(_inner(eta, xi).real, initial=np.inf)

    g = complex_gaussians(rng, samples, n, n)
    xi = g / _norms(g)[:, None, None]
    witness, cert = _v_beta_certificate(ctx, beta, xi)
    outside = ~(cert >= -tol)
    eta = _separating_eta(ctx, beta, witness[outside])
    separated = int(np.sum(_inner(eta, xi[outside]).real < -tol))
    missed = int(np.sum(outside)) - separated
    passed = min_pairing >= -tol and missed == 0
    return {
        "beta": beta,
        "min_member_pairing": float(min_pairing),
        "outside_samples": separated + missed,
        "outside_separated": separated,
        "outside_missed": missed,
        "passed": bool(passed),
    }


def u_maps_cones(ctx: GnsContext, beta: float, samples: int = 100, seed: int = 0,
                 tol: float = DEFAULT_TOL) -> dict:
    """U carries V_beta into V_{1/2-beta}; U Delta^{1/2} fixes V_0."""
    _check_beta(beta)
    require_count(samples, "samples")
    rng = generator(seed)
    n = ctx.dim
    psd = _unit_trace_gram(complex_gaussians(rng, 2 * samples, n, n)).reshape(samples, 2, n, n)
    xi = _cone_elements(ctx, beta, psd[:, 0])
    _, flip_cert = _v_beta_certificate(ctx, 0.5 - beta, _flip(ctx, xi))
    worst_flip = np.min(flip_cert, initial=np.inf)
    zero = _cone_elements(ctx, 0.0, psd[:, 1])
    _, v0_cert = _v_beta_certificate(ctx, 0.0, _flip(ctx, _delta_power(ctx, 0.5, zero)))
    worst_v0 = np.min(v0_cert, initial=np.inf)
    return {
        "beta": beta,
        "min_flip_certificate": float(worst_flip),
        "min_v0_certificate": float(worst_v0),
        "passed": bool(worst_flip >= -tol and worst_v0 >= -tol),
    }


def density_of(xi: GnsVector) -> np.ndarray:
    """The density matrix of the vector state omega_xi: mat(xi) mat(xi)^dagger."""
    return xi.mat @ xi.mat.conj().swapaxes(-1, -2)


def state_to_cone_vector(ctx: GnsContext, sigma) -> GnsVector:
    """The unique natural-cone vector inducing the state sigma: its PSD root."""
    return GnsVector(_mat_sqrt_psd(require_density(ctx.own_matrix(sigma))), ctx)


def transpose_state_vector(ctx: GnsContext, xi: GnsVector) -> tuple[GnsVector, dict]:
    """The natural-cone vector of the transposed state is U xi."""
    verdict = natural_cone_membership(ctx, xi)
    if not verdict.inside:
        raise ContractError(
            f"vector is not in the natural cone (certificate {verdict.certificate:.3e})"
        )
    out = apply_u(ctx, xi)
    residual = float(np.max(np.abs(
        density_of(out) - gns_mod.transpose_operator(ctx, density_of(xi))
    )))
    return out, {"density_transpose_residual": residual, "passed": residual <= 1e-10}


@dataclass(frozen=True, eq=False)
class CompositeGnsContext:
    """GNS data of a product state, kept alongside its factors."""

    ctx_a: GnsContext
    ctx_b: GnsContext
    joint: GnsContext
    shape: BipartiteShape


def build_composite(ctx_a: GnsContext, ctx_b: GnsContext, seed: int = 0) -> CompositeGnsContext:
    """Joint GNS context of rho_A (x) rho_B, with factorization checks.

    The modular conjugation and modular operator of the joint context must
    factor as J_A (x) J_B and Delta_A (x) Delta_B on COMPOSITE_CHECKS
    sampled product vectors, to 1e-10 relative to the largest entry of each
    joint image (the Delta images scale with the eigenvalue ratios of the
    states, and so does their rounding); a violation indicates a kernel bug
    and raises.
    """
    joint = build_gns(kron(ctx_a.rho, ctx_b.rho))
    comp = CompositeGnsContext(
        ctx_a=ctx_a, ctx_b=ctx_b, joint=joint,
        shape=BipartiteShape(ctx_a.dim, ctx_b.dim),
    )
    ma, mb = (m[:, 0] for m in _factor_draws(generator(seed), COMPOSITE_CHECKS, 1, ctx_a.dim, ctx_b.dim))
    xi = _kron(ma, mb)
    joint_images = np.stack([apply_jm(joint, GnsVector(xi, joint)).mat, _delta_power(joint, 1.0, xi)])
    factored = np.stack([_kron(ma.conj().swapaxes(-1, -2), mb.conj().swapaxes(-1, -2)),
                         _kron(_delta_power(ctx_a, 1.0, ma), _delta_power(ctx_b, 1.0, mb))])
    worst = float(np.max(np.max(np.abs(joint_images - factored), axis=(-2, -1))
                         / np.max(np.abs(joint_images), axis=(-2, -1)), initial=0.0))
    if worst > 1e-10:
        raise ConsistencyError(f"composite factorization residual {worst:.3e} > 1e-10 (relative)")
    return comp


def one_otimes_ub(comp: CompositeGnsContext, xi: GnsVector) -> GnsVector:
    """(1 (x) U_B) on the joint GNS space, also on a stack: m -> K_B m^T K_B^dagger on each B block."""
    mat = xi.mat_in(comp.joint)
    na, nb = comp.shape.dim_a, comp.shape.dim_b
    kb = comp.ctx_b.kernel
    t = mat.reshape(mat.shape[:-2] + (na, nb, na, nb)).swapaxes(-3, -2).swapaxes(-2, -1)
    out = (kb @ t @ kb.conj().T).swapaxes(-3, -2)
    return GnsVector(out.reshape(mat.shape), comp.joint)


def pn_intersection_membership(comp: CompositeGnsContext, xi: GnsVector,
                               tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Membership in P_n ∩ P_n^tau, the cone of PPT states.

    Route one: xi and (1 (x) U_B) xi both lie in the natural cone of the
    joint context.  Route two: a = rho^{-1/4} mat(xi) rho^{-1/4} and its
    partial transpose are both PSD.  Both share lambda_min(a), xi's own
    V_{1/4} certificate, so the independent comparison is (1 (x) U_B) xi's
    certificate against lambda_min(a^Gamma), whose difference is
    ``certificate_gap``; verdict disagreement away from the boundary raises.
    """
    joint = comp.joint
    m1 = natural_cone_membership(joint, xi, tol)
    m2 = natural_cone_membership(joint, one_otimes_ub(comp, xi), tol)
    cert_route1 = min(m1.certificate, m2.certificate)

    cert_gamma = float(np.linalg.eigvalsh(hermitize(_partial_transpose(m1.witness, comp.shape, "B")))[0])
    cert_route2 = min(m1.certificate, cert_gamma)

    inside1 = cert_route1 >= -tol
    inside2 = cert_route2 >= -tol
    if inside1 != inside2 and min(abs(cert_route1), abs(cert_route2)) > 10 * tol:
        raise ConsistencyError(
            f"PPT-cone routes disagree: cone route {cert_route1:.3e}, matrix route {cert_route2:.3e}"
        )
    return MembershipVerdict(
        inside=inside2,
        certificate=cert_route2,
        detail={
            "cone_certificates": (m1.certificate, m2.certificate),
            "matrix_certificates": (m1.certificate, cert_gamma),
            "certificate_gap": abs(m2.certificate - cert_gamma),
        },
    )


def _natural_cone_generator(comp: CompositeGnsContext, ops_a: np.ndarray, ops_b: np.ndarray) -> np.ndarray:
    """(sum a_k (x) b_k) j_m(sum a_l (x) b_l) Omega  =  T rho^{1/2} T^dagger,
    for (samples, terms, ., .) stacks of the factors a_k and b_k."""
    t_op = _kron(ops_a, ops_b).sum(axis=1)
    return t_op @ comp.joint.sqrt_rho @ t_op.conj().swapaxes(-1, -2)


def _commutant_cone_generator(comp: CompositeGnsContext, ops_a: np.ndarray, ops_b: np.ndarray) -> np.ndarray:
    """Same expression with each b_k replaced by alpha(b_k) = U_B b_k U_B.

    alpha(b) is right multiplication by c = b^t (transpose in rho_B's
    eigenbasis) and j_m is the adjoint, so the generator is
    sum_k (a_k (x) 1) [sum_l (a_l (x) 1) Omega (1 (x) c_l)]^dagger (1 (x) c_k).
    """
    na, nb = comp.shape.dim_a, comp.shape.dim_b
    lefts = _kron(ops_a, np.eye(nb))
    rights = _kron(np.eye(na), _flip(comp.ctx_b, ops_b))
    half = (lefts @ comp.joint.sqrt_rho @ rights).sum(axis=1)
    return (lefts @ half[:, None].conj().swapaxes(-1, -2) @ rights).sum(axis=1)


def commutant_cone_check(comp: CompositeGnsContext, samples: int = 20, seed: int = 0,
                         terms: int = 2) -> dict:
    """(1 (x) U_B) P equals the natural cone of the commutant pair.

    Verifies the generator identity
    (1 (x) U_B)[(Σ a_k (x) b_k) j_m(Σ a_l (x) b_l) Ω]
        = (Σ a_k (x) α(b_k)) j_m(Σ a_l (x) α(b_l)) Ω,
    then cross-pairs samples of the two cones, which must be nonnegative
    by self-duality.  The samples are drawn in the order of a
    sample-by-sample loop (the ``terms`` a_k, then the ``terms`` b_k) and
    checked as one stack; the cross pairings take samples^2 products.
    """
    require_count(samples, "samples")
    require_count(terms, "terms")
    na, nb = comp.ctx_a.dim, comp.ctx_b.dim
    ops_a, ops_b = _factor_draws(generator(seed), samples, terms, na, nb)
    ops_a, ops_b = ops_a / np.sqrt(na), ops_b / np.sqrt(nb)
    lhs = one_otimes_ub(comp, GnsVector(_natural_cone_generator(comp, ops_a, ops_b), comp.joint)).mat
    rhs = _commutant_cone_generator(comp, ops_a, ops_b)
    worst_residual = float(np.max(np.abs(lhs - rhs)))
    flipped_p = lhs / _norms(lhs)[:, None, None]
    commutant_gen = rhs / _norms(rhs)[:, None, None]
    min_pairing = np.min(_inner(flipped_p[:, None], commutant_gen[None, :]).real)
    return {
        "generator_identity_residual": worst_residual,
        "min_cross_pairing": float(min_pairing),
        "passed": bool(worst_residual <= 1e-10 and min_pairing >= -DEFAULT_TOL),
    }


def _gram(f: np.ndarray) -> np.ndarray:
    """f_k f_k* for each row of a (k, m) stack."""
    return f[:, :, None] * f.conj()[:, None, :]


def _lmo_product_atom(residual: np.ndarray, na: int, nb: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Best pure (x) pure atom for Re<u u* (x) v v*, residual>, by alternation.

    LMO_STARTS random starts alternate as one stack for at most LMO_ROUNDS
    rounds; a start leaves it at the round where its v v* settles, and the
    first start of the largest value wins.
    """
    t = residual.reshape(na, nb, na, nb)
    v = complex_gaussians(rng, LMO_STARTS, 1, nb)[:, 0]
    v = v / _norms(v)[:, None]
    u_out = np.empty((LMO_STARTS, na), dtype=complex)
    v_out = np.empty_like(v)
    val = np.empty(LMO_STARTS)
    live = np.arange(LMO_STARTS)
    for _ in range(LMO_ROUNDS):
        q = _gram(v)
        u = np.linalg.eigh(hermitize(np.einsum("prqs,krs->kpq", t, q.conj())))[1][:, :, -1]
        vals_b, vecs_b = np.linalg.eigh(hermitize(np.einsum("prqs,kpq->krs", t, _gram(u).conj())))
        v = vecs_b[:, :, -1]
        u_out[live], v_out[live], val[live] = u, v, vals_b[:, -1]
        settled = _norms(_gram(v) - q) < 1e-13
        live, v = live[~settled], v[~settled]
        if not live.size:
            break
    best = int(np.argmax(val))
    return u_out[best], v_out[best]


def _gram_derivatives(f: np.ndarray) -> np.ndarray:
    """Derivatives of f_k f_k* by Re f_k[i] (e_i f_k* + f_k e_i^T) and by
    Im f_k[i] (i (e_i f_k* - f_k e_i^T)), as a (2, k, m, m, m) stack."""
    x = np.einsum("ip,kq->kipq", np.eye(f.shape[1]), f.conj())
    xh = x.conj().swapaxes(-1, -2)
    return np.stack([x + xh, 1j * (x - xh)])


def _product_sum(f: np.ndarray, na: int) -> np.ndarray:
    """sum_k (a_k a_k*) (x) (b_k b_k*) for rows f_k = (a_k, b_k)."""
    n = na * (f.shape[1] - na)
    return np.einsum("kpq,krs->prqs", _gram(f[:, :na]), _gram(f[:, na:])).reshape(n, n)


def _polish(f: np.ndarray, target: np.ndarray, na: int) -> np.ndarray:
    """Refit all factors jointly: least squares on ||sum_k A_k (x) B_k - target||
    over the real and imaginary parts of every a_k, b_k, at most
    ``POLISH_NFEV`` iterations.  The approximant is Hermitian, so the
    residual is taken against the Hermitian part of the target, in the
    coordinates of the upper triangle (off-diagonal entries weighted by
    sqrt 2, so the sum of squares is the squared Frobenius norm).
    Levenberg-Marquardt, the step solved in the row space of the Jacobian
    J: dx = -J^T (J J^T + mu I)^{-1} r, one n^2 x n^2 solve for any number
    of atoms.  This least-norm step has no component in the null space of
    J, which holds each atom's three gauge directions (the phases of a_k
    and b_k, the scale between them), so they need no fixing."""
    k, m = f.shape
    nb = m - na
    n = na * nb
    rows, cols = np.triu_indices(n)
    upper = rows * n + cols
    weight = np.where(rows == cols, 1.0, np.sqrt(2.0))
    strict = upper[rows != cols]
    herm = hermitize(target).ravel()

    def unpack(x):
        return (x[:k * m] + 1j * x[k * m:]).reshape(k, m)

    def coordinates(d):   # (..., n*n) Hermitian -> (..., n*n) real
        return np.concatenate([weight * d[..., upper].real, np.sqrt(2.0) * d[..., strict].imag], axis=-1)

    def residual(x):
        return coordinates(_product_sum(unpack(x), na).ravel() - herm)

    def jacobian(x):
        g = unpack(x)
        a, b = g[:, :na], g[:, na:]
        # dM = dA_k (x) B_k + A_k (x) dB_k, over (Re, Im) x atom x entry of a_k or b_k
        jac = np.concatenate([np.einsum("tkipq,krs->tkiprqs", _gram_derivatives(a), _gram(b)).reshape(2, k, na, -1),
                              np.einsum("kpq,tkirs->tkiprqs", _gram(a), _gram_derivatives(b)).reshape(2, k, nb, -1)],
                             axis=2).reshape(2 * k * m, -1)
        return coordinates(jac).T

    x = np.concatenate([f.real.ravel(), f.imag.ravel()])
    r = residual(x)
    if not r.any():   # an exact fit, where the damped system below is singular
        return f
    mu = 1e-3 * (r @ r)
    jac = jacobian(x)
    for _ in range(POLISH_NFEV):
        step = -jac.T @ np.linalg.solve(jac @ jac.T + mu * np.eye(r.size), r)
        trial = residual(x + step)
        if trial @ trial < r @ r:
            x, r, mu = x + step, trial, mu / 3
            jac = jacobian(x)
        else:
            mu *= 4
        if np.linalg.norm(step) <= 1e-15 * (1 + np.linalg.norm(x)):
            break
    return unpack(x)


def separable_cone_distance(comp: CompositeGnsContext, xi: GnsVector, iters: int = 200,
                            seed: int = 0) -> tuple[float, GnsVector, dict]:
    """Certified upper bound on the distance from xi to the cone of
    products of factor-cone elements, with a lower bound beside it.

    Greedy atoms with a joint polish: each round adds the pure (x) pure
    atom of ``_lmo_product_atom`` at its best step length, then refits
    every atom jointly (``_polish``).  The approximant
    sum_k (a_k a_k*) (x) (b_k b_k*) lies in the cone by construction, so
    the returned value is always the distance to an exhibited feasible
    point, never a claim about the true distance.  ``info["history"]``
    holds the bound after each round, decreasing, and ``info["terms"]``
    the number of atoms.  It stops at a bound <= 1e-9 (``converged``),
    after ``iters`` rounds, at (na nb)^2 atoms, when no
    product atom pairs above 1e-15 with the residual, when a round does not
    lower the bound, or on a stall: a bound that has not halved over the
    last ``STALL_ROUNDS`` rounds, which bounds the work on inputs outside
    the cone.

    ``info["lower_bound"]`` = sqrt(||T_ah||^2 + max(||(T_h)_-||^2,
    ||((T_h)^Gamma)_-||^2)) for the Hermitian and anti-Hermitian parts of
    T = mat(xi): separable matrices are Hermitian, PSD and PPT, and Gamma
    is a Frobenius isometry.  It is clipped to the upper bound.
    """
    joint = comp.joint
    target = xi.mat_in(joint)
    na, nb = comp.ctx_a.dim, comp.ctx_b.dim
    rng = generator(seed)

    factors = np.zeros((0, na + nb), dtype=complex)
    approx = np.zeros_like(target)
    bound = float(np.linalg.norm(target))
    history: list[float] = []
    for _ in range(iters):
        if bound <= 1e-9 or len(factors) >= (na * nb) ** 2:
            break
        if len(history) > STALL_ROUNDS and bound > 0.5 * history[-1 - STALL_ROUNDS]:
            break
        resid = target - approx
        u, v = _lmo_product_atom(resid, na, nb, rng)
        w = np.kron(u, v)
        pairing = float((w.conj() @ resid @ w).real)
        if pairing <= 1e-15:
            break
        # the atom enters at its best step length, pairing * (u u*) (x) (v v*)
        polished = _polish(np.vstack([factors, pairing ** 0.25 * np.concatenate([u, v])]), target, na)
        polished_approx = _product_sum(polished, na)
        polished_bound = float(np.linalg.norm(target - polished_approx))
        if polished_bound >= bound:   # only rounding is left to gain
            break
        factors, approx, bound = polished, polished_approx, polished_bound
        history.append(bound)

    herm = hermitize(target)
    neg = max(float(np.sum(np.minimum(np.linalg.eigvalsh(m), 0.0) ** 2))
              for m in (herm, hermitize(_partial_transpose(herm, comp.shape, "B"))))
    lower = min(bound, float(np.sqrt(np.linalg.norm(target - herm) ** 2 + neg)))
    info = {"history": history, "terms": len(factors), "converged": bound <= 1e-9,
            "lower_bound": lower}
    return bound, GnsVector(approx, joint), info
