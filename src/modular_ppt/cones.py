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
a PSD + partial-transpose check on the reconstructed operator.  Both rest
on one operation: (1 (x) U_B) = Ad(1 (x) K_B) o Gamma, the partial
transpose in rho_B's eigenbasis, which is how ``one_otimes_ub`` computes it.

Stack convention: the unchecked kernels ``_v_beta_certificate``,
``_cone_elements`` and ``_separating_eta`` act on a stack of independent
problems of shape (k, n, n); a single vector is a stack of one.  Every
sample gives the same bits as when processed alone.  These three take and
return eigen coordinates M' = X^dagger M X in rho's eigenbasis X, where
Delta^beta is the Hadamard product ``gns._delta_factor``, right
multiplication by rho^{+-1/2} scales column j by lambda_j^{+-1/2}, U is the
plain transpose and pairings are ``_inner`` as before (the basis change is
unitary).  ``duality_check`` and ``u_maps_cones`` share one set of
samples per (ctx, seed, samples), whatever beta: ``_probe_draws`` draws
them all from one ``generator(seed)``, in the order of a sample-by-sample
loop, changes basis once (the Gram factors G as X^dagger G, the random
vectors g as X^dagger g X) and keeps them read-only for its last key, and
``_v0_certificate`` keeps the beta-free V_0 half of ``u_maps_cones`` the
same way.  So the ten probe calls over the five beta of one context and
seed draw once and certify V_0 once; the kept entry holds 3 samples n^2
complex numbers (194 KB at n = 9 with 50 samples) and the context until
the next key arrives.  Each probe processes its samples as one stack;
``v_beta_membership`` converts xi on the way in and its witness back to
standard coordinates on the way out, since ``pn_intersection_membership``
partially transposes it; ``_lmo_product_atom``
alternates all its random starts as one stack, and a start leaves it at
the round where it settles; ``density_of`` and ``one_otimes_ub`` also take
a vector whose matrix is a stack.  ``commutant_cone_check`` draws its
factors in the order of a sample-by-sample loop with one ``_factor_draws``
call and checks them as one stack: ``_natural_cone_generator`` and
``_commutant_cone_generator`` take (samples, terms, ., .) stacks of factors.
``build_composite`` draws nothing and solves no eigenproblem: it assembles
the joint context from its factors' eigenpairs (``gns._gns_context``), so
J, U, J_m and Delta of the joint factor by construction.
The public functions check beta once per call, the two probes also their
samples and seed, before either cache.  The Delta-power overflow
check lives in ``gns.apply_delta_power``, where the caller picks the power:
every context comes from ``build_gns``, whose eigenvalues lie in
[EPS_FAITHFUL, 1 + TOL_TRACE], or is a joint assembled by
``build_composite``, whose eigenvalues are products of factor eigenvalues,
each still at least EPS_FAITHFUL and at most (1 + TOL_TRACE)^2.  So the
fixed powers |beta| <= 1 used here keep every |beta log(lambda_i/lambda_j)|
below 28.

The separable (product) cone is bracketed by ``separable_cone_distance``:
greedy product atoms, each round refitting all atoms jointly over their
unnormalized factors by Levenberg-Marquardt steps in the row space of the
Jacobian (so each atom's phase and scale gauge needs no fixing), give the
distance to an exhibited sum of products (upper bound); the distance to
the PPT cone's PSD and partial-transpose constraints gives the lower bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import gns as gns_mod
from .errors import ConsistencyError, ContractError
from .gns import GnsContext, GnsVector, _delta_factor, _flip, _gns_context, _inner, apply_u
from .linalg import (
    BipartiteShape,
    _eigh,
    _eigvalsh,
    _gamma_min,
    _kron,
    _mat_sqrt_psd,
    _norms,
    _partial_transpose,
    hermitize,
    kron,
    require_count,
    require_density,
    require_integer,
)
from .rand import _factor_draws, _unit_trace_gram, complex_gaussians, generator, require_seed

DEFAULT_TOL = 1e-10
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


def _v_beta_certificate(ctx: GnsContext, beta: float, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The witness a = mat(Delta^{-beta} xi) rho^{-1/2} and its least
    eigenvalue, for a vector or a stack of them in eigen coordinates (the
    witness too); unchecked."""
    a = _delta_factor(ctx, -beta, coords) / np.sqrt(ctx.eigvals)
    return a, _eigvalsh(hermitize(a))[..., 0]


def v_beta_membership(ctx: GnsContext, beta: float, xi: GnsVector, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """xi in V_beta  iff  a = mat(Delta^{-beta} xi) rho^{-1/2} is PSD; the
    witness a is returned in standard coordinates."""
    _check_beta(beta)
    a, cert = _v_beta_certificate(ctx, beta, ctx.to_eigbasis(xi.mat_in(ctx)))
    cert = float(cert)
    return MembershipVerdict(inside=cert >= -tol, certificate=cert, witness=ctx.from_eigbasis(a))


def natural_cone_membership(ctx: GnsContext, xi: GnsVector, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Membership in P = V_{1/4}, decided by two independent routes.

    Route one runs the generic V_beta test at beta = 1/4; route two checks
    mat(xi) directly for positivity (the two are congruent via rho^{1/4}).
    A sign disagreement with both certificates clear of the boundary is an
    internal error.
    """
    via_beta = v_beta_membership(ctx, 0.25, xi, tol)
    spectral_cert = float(_eigvalsh(hermitize(xi.mat))[0])
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
    """Unit vectors Delta^beta a Omega for a stack of PSD a, in eigen
    coordinates on both sides; unchecked."""
    xi = _delta_factor(ctx, beta, psd * np.sqrt(ctx.eigvals))
    return xi / _norms(xi)[:, None, None]


def _separating_eta(ctx: GnsContext, beta: float, witness: np.ndarray) -> np.ndarray:
    """For xi outside V_beta, an eta in V_{1/2-beta} pairing negatively with xi.

    Built from the most negative eigenvector v of rho^{1/2} a rho^{1/2},
    where a is the membership witness of xi (``_v_beta_certificate``), as
    Delta^{1/2-beta} (v v^dagger) Omega, for one witness or a stack, in
    eigen coordinates on both sides; unchecked.
    """
    root = np.sqrt(ctx.eigvals)
    v = _eigh(hermitize(root[:, None] * witness * root))[1][..., :, 0]
    return _delta_factor(ctx, 0.5 - beta, v[..., :, None] * (v.conj() * root)[..., None, :])


@functools.lru_cache(maxsize=1)
def _probe_draws(ctx: GnsContext, seed: int, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """The beta-free draws of ``duality_check`` and ``u_maps_cones``, read-only,
    in eigen coordinates, from one ``generator(seed)`` in the order of a
    sample-by-sample loop: a (samples, 2, n, n) stack of pairs of unit-trace
    Gram matrices G G^dagger / Tr (the Gram factor taken as X^dagger G), then
    ``samples`` random unit vectors g (as X^dagger g X); unchecked.  The last
    key is kept, so the probes at every beta of one context draw once."""
    n = ctx.dim
    rng = generator(seed)
    g = ctx.eigvecs.conj().T @ complex_gaussians(rng, 2 * samples, n, n)
    psd = _unit_trace_gram(g).reshape(samples, 2, n, n)
    g = complex_gaussians(rng, samples, n, n)
    xi = ctx.to_eigbasis(g / _norms(g)[:, None, None])
    psd.flags.writeable = xi.flags.writeable = False
    return psd, xi


@functools.lru_cache(maxsize=1)
def _v0_certificate(ctx: GnsContext, seed: int, samples: int) -> float:
    """The least V_0 certificate of U Delta^{1/2} zeta over the cone elements
    zeta of V_0 made from the second matrix of each ``_probe_draws`` pair, the
    half of ``u_maps_cones`` that does not depend on beta; unchecked."""
    zero = _cone_elements(ctx, 0.0, _probe_draws(ctx, seed, samples)[0][:, 1])
    _, cert = _v_beta_certificate(ctx, 0.0, _delta_factor(ctx, 0.5, zero).swapaxes(-1, -2))
    return float(np.min(cert, initial=np.inf))


def _check_probe(beta: float, samples: int, seed: int) -> None:
    """The contract of both probes, checked before either cache is reached,
    so that a bool or a float never hits an integer's entry."""
    _check_beta(beta)
    require_count(samples, "samples")
    require_seed(seed)


def duality_check(ctx: GnsContext, beta: float, samples: int = 100, seed: int = 0,
                  tol: float = DEFAULT_TOL) -> dict:
    """Numerical probe of V_beta = dual(V_{1/2-beta}).

    Pairings of constructive members of the two cones must be nonnegative;
    for random vectors failing the beta membership test a separating
    element of V_{1/2-beta} is produced from the witness eigenvector.
    The samples are the ``_probe_draws`` of (ctx, seed, samples), shared
    with ``u_maps_cones`` and with the calls at other beta.
    """
    _check_probe(beta, samples, seed)
    psd, xi = _probe_draws(ctx, seed, samples)
    members = _cone_elements(ctx, beta, psd[:, 0])
    eta = _cone_elements(ctx, 0.5 - beta, psd[:, 1])
    min_pairing = np.min(_inner(eta, members).real, initial=np.inf)

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
    """U carries V_beta into V_{1/2-beta}; U Delta^{1/2} fixes V_0.

    The samples are the PSD pairs of ``_probe_draws``: the first matrix of
    each pair probes the flip at beta, the second the V_0 half, which does
    not depend on beta and is computed once per (ctx, seed, samples)
    (``_v0_certificate``).
    """
    _check_probe(beta, samples, seed)
    xi = _cone_elements(ctx, beta, _probe_draws(ctx, seed, samples)[0][:, 0])
    _, flip_cert = _v_beta_certificate(ctx, 0.5 - beta, xi.swapaxes(-1, -2))
    worst_flip = np.min(flip_cert, initial=np.inf)
    worst_v0 = _v0_certificate(ctx, seed, samples)
    return {
        "beta": beta,
        "min_flip_certificate": float(worst_flip),
        "min_v0_certificate": worst_v0,
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
    """Joint GNS context of rho_A (x) rho_B, assembled from its factors.

    Its eigenpairs are the products lambda_i mu_j on x_i (x) y_j, sorted by
    descending product (stably, so equal products keep the factor order);
    a product of phase-fixed vectors is phase-fixed.  So Delta, J_m, J and
    U of the joint are the Kronecker products of the factors' maps.  The
    factors were validated when they were built; the joint keeps the
    dimension cap and the faithfulness check.  ``seed`` is not read.
    """
    vals = np.kron(ctx_a.eigvals, ctx_b.eigvals)
    order = np.argsort(-vals, kind="stable")
    joint = _gns_context(kron(ctx_a.rho, ctx_b.rho), vals[order],
                         np.kron(ctx_a.eigvecs, ctx_b.eigvecs)[:, order])
    return CompositeGnsContext(
        ctx_a=ctx_a, ctx_b=ctx_b, joint=joint,
        shape=BipartiteShape(ctx_a.dim, ctx_b.dim),
    )


def one_otimes_ub(comp: CompositeGnsContext, xi: GnsVector) -> GnsVector:
    """(1 (x) U_B) = Ad(1 (x) K_B) o Gamma on the joint GNS space, also on a stack."""
    lift = np.kron(np.eye(comp.shape.dim_a), comp.ctx_b.kernel)
    return GnsVector(lift @ _partial_transpose(xi.mat_in(comp.joint), comp.shape) @ lift.conj().T, comp.joint)


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

    cert_gamma = float(_gamma_min(m1.witness, comp.shape))
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
        u = _eigh(hermitize(np.einsum("prqs,krs->kpq", t, q.conj())))[1][:, :, -1]
        vals_b, vecs_b = _eigh(hermitize(np.einsum("prqs,kpq->krs", t, _gram(u).conj())))
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
    strict = upper[rows != cols]
    # the float view of a complex row holds Re d_i at 2i and Im d_i at 2i + 1
    gather = np.concatenate([2 * upper, 2 * strict + 1])
    weight = np.concatenate([np.where(rows == cols, 1.0, np.sqrt(2.0)), np.full(strict.size, np.sqrt(2.0))])
    herm = hermitize(target).ravel()

    def unpack(x):
        return (x[:k * m] + 1j * x[k * m:]).reshape(k, m)

    def coordinates(d):   # (..., n*n) Hermitian, contiguous -> (..., n*n) real
        return weight * d.view(np.float64)[..., gather]

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
    sq = r @ r
    mu = 1e-3 * sq
    eye = np.eye(r.size)
    jac = jacobian(x)
    jjt = jac @ jac.T   # J, J J^T and r^T r change only at an accepted step
    for _ in range(POLISH_NFEV):
        step = -jac.T @ np.linalg.solve(jjt + mu * eye, r)
        moved = x + step
        trial = residual(moved)
        trial_sq = trial @ trial
        if trial_sq < sq:
            x, r, sq, mu = moved, trial, trial_sq, mu / 3
            jac = jacobian(x)
            jjt = jac @ jac.T
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
    require_integer(iters, "iters")
    if iters < 0:
        raise ContractError(f"iters must be >= 0, got {iters}")
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
    neg = max(float(np.sum(np.minimum(_eigvalsh(m), 0.0) ** 2))
              for m in (herm, hermitize(_partial_transpose(herm, comp.shape, "B"))))
    lower = min(bound, float(np.sqrt(np.linalg.norm(target - herm) ** 2 + neg)))
    info = {"history": history, "terms": len(factors), "converged": bound <= 1e-9,
            "lower_bound": lower}
    return bound, GnsVector(approx, joint), info
