"""Constructive recipes and exploratory experiments.

Three things live here: the dim-2 anticommutator criterion (vanishing of
<f (x) y, {A (x) 1, rho} f (x) y> for all y forces the block transpose of
rho to stay positive), the recipe that manufactures PPT states from
cone-intersection vectors, and an exploratory harness probing how PPT-ness
of a state relates to PPT-ness of its square root.  The harness draws
its PPT states as one stack from ``optim``'s sampler, then tallies and
reports; it never asserts an answer to the open correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cones as cones_mod
from .cones import CompositeGnsContext, build_composite, density_of, one_otimes_ub
from .errors import ContractError, ShapeError
from .gns import GnsVector, _flip, apply_delta_power, apply_u, build_gns
from .linalg import (
    BipartiteShape,
    _eigvalsh,
    _gamma_min,
    _mat_sqrt_psd,
    _project_psd,
    hermitize,
    require_bipartite,
    require_count,
    require_density,
)
from .optim import PptSetSpec, _sample_ppt, sample_ppt_density
from .rand import complex_gaussian, generator, random_faithful_density

SOLUTION_SV_THRESHOLD = 1e-9
RESIDUAL_TOL = 1e-9
MAX_CONSTRUCT_DIM = 81  # joint dimension cap of construct_ppt_from_cone
CANDIDATE_BOUND = 0.05  # a PPT vector whose separable bound exceeds this is flagged as a candidate


@dataclass(frozen=True)
class AnticommutatorInstance:
    rho: np.ndarray        # density on 2 (x) m
    f: np.ndarray          # unit vector in C^2
    a_op: np.ndarray       # Hermitian 2x2, nonzero


def _anticommutator_blocks(rho: np.ndarray, f: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """V_f^* {A (x) 1, rho} V_f as an m x m matrix (V_f y = f (x) y), for one
    Hermitian 2x2 A or each of a stack.

    As (A (x) 1) V_f = V_{Af}, the block is sum_ij w_ij rho_ij over rho's
    (2, m, 2, m) block view, with w = conj(Af) f^T + conj(f) (Af)^T.
    """
    af = ops @ f
    w = af.conj()[..., :, None] * f + f.conj()[:, None] * af[..., None, :]
    m = rho.shape[0] // 2
    return np.einsum("...ij,irjs->...rs", w, rho.reshape(2, m, 2, m))


def find_anticommutator_solution(rho, f) -> np.ndarray | None:
    """Hermitian A on C^2, acting nontrivially on f, with
    <f (x) y, {A (x) 1, rho} f (x) y> = 0 for all y.

    The condition is the vanishing of one m x m Hermitian block, linear in
    A; with the vacuous f-annihilating direction removed it is a
    homogeneous real system in three parameters.  Returns None when that
    system's nullspace is trivial (smallest singular value at least
    SOLUTION_SV_THRESHOLD), which is the generic situation.

    The three parameters are the coordinates in the Hermitian basis of the
    operators acting nontrivially on f: in the orthonormal basis {f, g}
    these are ff*, (fg* + gf*)/sqrt2 and i(fg* - gf*)/sqrt2.  The missing
    fourth direction gg* annihilates f, which makes the anticommutator
    condition vacuous; solutions along it say nothing about rho, so the
    solver excludes it.
    """
    rho = require_density(rho)
    if rho.shape[0] % 2 != 0:
        raise ContractError(f"state must live on 2 (x) m, got dim {rho.shape[0]}")
    f = np.asarray(f, dtype=complex).ravel()
    if f.size != 2:
        raise ContractError(f"f must live in C^2, got dim {f.size}")
    f = f / np.linalg.norm(f)
    g = np.array([-f[1].conjugate(), f[0].conjugate()], dtype=complex)
    fg = np.outer(f, g.conj())
    basis = np.stack([np.outer(f, f.conj()), (fg + fg.conj().T) / np.sqrt(2), 1j * (fg - fg.conj().T) / np.sqrt(2)])
    blocks = _anticommutator_blocks(rho, f, basis).reshape(3, -1)
    system = np.concatenate([blocks.real, blocks.imag], axis=1).T  # one column per basis operator
    _, svals, vt = np.linalg.svd(system)
    if svals[-1] >= SOLUTION_SV_THRESHOLD:
        return None
    a_op = np.tensordot(vt[-1], basis, axes=1)
    return a_op / np.linalg.norm(a_op)


def instance_residual(rho, f, a_op) -> float:
    """max |V_f^* {A (x) 1, rho} V_f|, with f normalized."""
    f = np.asarray(f, dtype=complex).ravel() / np.linalg.norm(f)
    return float(np.max(np.abs(_anticommutator_blocks(rho, f, a_op))))


def make_instance(rho, f) -> AnticommutatorInstance | None:
    a_op = find_anticommutator_solution(rho, f)
    if a_op is None:
        return None
    return AnticommutatorInstance(rho=np.asarray(rho, dtype=complex),
                                  f=np.asarray(f, dtype=complex).ravel() / np.linalg.norm(f), a_op=a_op)


def random_anticommutator_instance(rng: np.random.Generator, m: int,
                                   kind: str = "herm_offdiag") -> AnticommutatorInstance | None:
    """Sample a state family known to satisfy the hypothesis, then solve.

    Kinds: 'product' (rho_A (x) rho_B, random f), 'block_diag' (vanishing
    off-diagonal block, f = e_1), 'herm_offdiag' / 'antiherm_offdiag'
    (structured off-diagonal block, f = e_1).
    """
    e1 = np.array([1.0, 0.0], dtype=complex)
    if kind == "product":
        rho = np.kron(random_faithful_density(rng, 2), random_faithful_density(rng, m))
        g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f = g / np.linalg.norm(g)
    elif kind == "block_diag":
        rho = np.zeros((2 * m, 2 * m), dtype=complex)
        p = rng.uniform(0.25, 0.75)
        rho[:m, :m] = p * random_faithful_density(rng, m)
        rho[m:, m:] = (1 - p) * random_faithful_density(rng, m)
        f = e1
    elif kind in ("herm_offdiag", "antiherm_offdiag"):
        g = complex_gaussian(rng, m, m)
        s = hermitize(g) if kind == "herm_offdiag" else (g - g.conj().T) / 2
        big = np.zeros((2 * m, 2 * m), dtype=complex)
        big[:m, :m] = hermitize(complex_gaussian(rng, m, m))
        big[m:, m:] = hermitize(complex_gaussian(rng, m, m))
        big[:m, m:] = s
        big[m:, :m] = s.conj().T
        shift = -float(_eigvalsh(big)[0]) + 0.2
        rho = big + shift * np.eye(2 * m)
        rho = rho / np.trace(rho).real
        f = e1
    else:
        raise ContractError(f"unknown instance kind {kind!r}")
    return make_instance(rho, f)


def verify_anticommutator_ppt(inst: AnticommutatorInstance) -> dict:
    """The criterion's conclusion: the block transpose of rho stays positive.

    The instance residual (``instance_residual`` of rho, f and A) is
    reported as ``residual``; above RESIDUAL_TOL it is a contract error.  A
    block transpose eigenvalue below -RESIDUAL_TOL is a falsification event
    and ships the serialized instance in the report.
    """
    residual = instance_residual(inst.rho, inst.f, inst.a_op)
    if residual > RESIDUAL_TOL:
        raise ContractError(f"instance residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}")
    shape = BipartiteShape(2, inst.rho.shape[0] // 2)
    min_eig = float(_gamma_min(require_bipartite(inst.rho, shape), shape, "A"))
    falsified = min_eig < -RESIDUAL_TOL
    report = {"residual": residual, "min_gamma_eig": min_eig, "falsified": bool(falsified)}
    if falsified:
        report["instance"] = {
            "rho_re": inst.rho.real.tolist(),
            "rho_im": inst.rho.imag.tolist(),
            "f_re": inst.f.real.tolist(),
            "f_im": inst.f.imag.tolist(),
            "a_re": inst.a_op.real.tolist(),
            "a_im": inst.a_op.imag.tolist(),
        }
    return report


def require_construct_dim(dim: int) -> None:
    if dim > MAX_CONSTRUCT_DIM:
        raise ShapeError(f"joint dimension {dim} exceeds the construction cap {MAX_CONSTRUCT_DIM}")


def construct_ppt_from_cone(comp: CompositeGnsContext, seed: int = 0) -> tuple[np.ndarray, dict]:
    """State construction from a vector in the PPT cone intersection.

    Projects a random Hermitian onto the PPT set, forms xi = Delta^{1/4} a
    Omega, and reports (i) the cone membership certificates of xi, (ii)
    the PPT verdict of the induced state mat(xi)^2 / Tr -- which need not
    be PPT; that relation is exactly what the square-root experiment
    probes -- and (iii) a bracket on the distance from xi to the product
    cone: the upper bound ``separable_bound`` (distance to an exhibited
    sum of ``separable_terms`` products) and ``separable_lower_bound``
    (distance to the PSD and partial-transpose constraints, so 0 on PPT
    vectors up to their feasibility slack).  An upper bound above
    CANDIDATE_BOUND flags the vector as a candidate for
    PPT-but-not-separable; nothing stronger is claimed.
    """
    joint = comp.joint
    require_construct_dim(joint.dim)
    rng = generator(seed)
    spec = PptSetSpec(comp.shape)
    a = sample_ppt_density(rng, spec)
    xi = apply_delta_power(joint, 0.25, GnsVector(_project_psd(a) @ joint.sqrt_rho, joint))
    xi = GnsVector(xi.mat / xi.norm(), joint)
    # certificates inherit the sampler's feasibility slack, so test at 10x that
    verdict = cones_mod.pn_intersection_membership(comp, xi, tol=10 * spec.tol_feas)
    dens = density_of(xi)
    dens = dens / np.trace(dens).real
    gamma_min = float(_gamma_min(dens, comp.shape))
    bound, _, info = cones_mod.separable_cone_distance(comp, xi, seed=seed)
    report = {
        "xi_certificate": verdict.certificate,
        "xi_inside": verdict.inside,
        "certificate_gap": verdict.detail["certificate_gap"],
        "state_gamma_min_eig": gamma_min,
        "state_is_ppt": bool(gamma_min >= -1e-9),
        "separable_bound": float(bound),
        "separable_lower_bound": info["lower_bound"],
        "separable_terms": info["terms"],
        "candidate_ppt_not_separable": bool(verdict.inside and bound > CANDIDATE_BOUND),
    }
    return dens, report


def sqrt_ppt_experiment(shape: BipartiteShape, samples: int = 100, seed: int = 0) -> tuple[dict, dict]:
    """Probe: does PPT-ness of a state transfer to its square root?

    For Dykstra-sampled PPT states D the harness tallies the PPT verdict
    of D^{1/2}, runs the always-true control (the flip unitary realizes
    the full transpose at the state level), and measures how far
    (1 (x) U_B) acts like a partial transpose on the state of the cone
    vector of D.  Only tallies and residuals are reported; the sampled
    states run as one stack.

    Returns (report, tallies): ``report`` is the ``experiment`` command's
    results, ``tallies`` the ``dykstra_*`` counters of ``optim._sample_ppt``,
    which stay out of report bodies.
    """
    require_count(samples, "samples")
    rng = generator(seed)
    ctx_a = build_gns(random_faithful_density(rng, shape.dim_a))
    ctx_b = build_gns(random_faithful_density(rng, shape.dim_b))
    comp = build_composite(ctx_a, ctx_b)
    joint = comp.joint

    d, tallies = _sample_ppt(rng, PptSetSpec(shape), samples)
    d = _project_psd(d)
    d = d / np.trace(d, axis1=-2, axis2=-1).real[:, None, None]
    ppt = _gamma_min(d, shape) >= -1e-7
    d = d[ppt]
    root = _mat_sqrt_psd(d)
    root_gamma_min = _gamma_min(root, shape)
    npt = root_gamma_min < -RESIDUAL_TOL
    counts = {"ppt_and_sqrt_ppt": int(np.sum(~npt)), "ppt_and_sqrt_npt": int(np.sum(npt)),
              "input_not_ppt": int(np.sum(~ppt))}
    counterexamples = [{"d_re": d[i].real.tolist(), "d_im": d[i].imag.tolist(),
                        "sqrt_gamma_min_eig": float(root_gamma_min[i])} for i in np.flatnonzero(npt)[:10]]
    xi = GnsVector(root, joint)  # the natural-cone vector of each d is its PSD root
    controls = np.max(np.abs(density_of(apply_u(joint, xi)) - _flip(joint, d)), axis=(1, 2))
    eigen_pt = one_otimes_ub(comp, GnsVector(d, joint)).mat  # d^Gamma in rho_B's eigenbasis
    probes = np.max(np.abs(density_of(one_otimes_ub(comp, xi)) - eigen_pt), axis=(1, 2))
    control_failures = int(np.sum(controls > 1e-10))
    report = {
        "samples": samples,
        "counts": counts,
        "counterexamples": counterexamples,
        "control_failures": control_failures,
        "max_control_residual": float(np.max(controls, initial=0.0)),
        "partial_transpose_probe": {
            "max_residual": float(np.max(probes, initial=0.0)),
            "min_residual": float(np.min(probes) if probes.size else 0.0),
            "matches_at_1e-9": int(np.sum(probes <= 1e-9)),
        },
        "passed": control_failures == 0,
    }
    return report, tallies


def reverify_counterexample(entry: dict, shape: BipartiteShape) -> float:
    """Recompute a serialized counterexample's sqrt-PT eigenvalue from scratch."""
    d = np.array(entry["d_re"]) + 1j * np.array(entry["d_im"])
    root = _mat_sqrt_psd(require_density(require_bipartite(d, shape)))
    return float(_gamma_min(root, shape))
