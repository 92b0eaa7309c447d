from pathlib import Path

import numpy as np
import pytest

from modular_ppt import cones, gns
from modular_ppt.cones import (
    build_composite,
    commutant_cone_check,
    density_of,
    duality_check,
    natural_cone_membership,
    one_otimes_ub,
    pn_intersection_membership,
    separable_cone_distance,
    state_to_cone_vector,
    transpose_state_vector,
    u_maps_cones,
    v_beta_membership,
)
from modular_ppt.errors import ContractError, FaithfulnessError
from modular_ppt.gns import apply_delta_power, apply_u, build_gns, inner, transpose_operator
from modular_ppt.linalg import hermitize, kron, partial_transpose
from modular_ppt import optim
from modular_ppt.optim import PptSetSpec, npt_witness, sample_ppt_density
from modular_ppt.rand import _unit_trace_gram, complex_gaussian, generator, random_faithful_density, random_psd


@pytest.fixture
def ctx3():
    return build_gns(random_faithful_density(generator(30), 3))


def composite(na, nb):
    rng = generator(31)
    return build_composite(build_gns(random_faithful_density(rng, na)),
                           build_gns(random_faithful_density(rng, nb)))


@pytest.fixture
def comp22():
    return composite(2, 2)


# shapes with na != nb pin the reshapes of the block maps
shapes = pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)], ids=["2x2", "2x3", "3x2"])
joint_shapes = pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)],
                                       ids=["2x2", "2x3", "3x2", "3x3"])


class TestVBeta:
    def test_omega_inside_any_beta(self, ctx3):
        for beta in (0.0, 0.2, 0.25, 0.5):
            verdict = v_beta_membership(ctx3, beta, ctx3.omega)
            assert verdict.inside

    def test_negative_operator_outside(self, ctx3):
        verdict = v_beta_membership(ctx3, 0.25, ctx3.vector(-np.eye(3)))
        assert not verdict.inside
        assert verdict.certificate < -0.5

    def test_constructive_samples_inside(self, ctx3):
        rng = generator(32)
        for k in range(100):
            beta = (k % 5) / 8.0
            # the constructive sample Delta^beta a Omega, with a random PSD a (eigen coordinates)
            coords = cones._cone_elements(ctx3, beta, ctx3.to_eigbasis(random_psd(rng, 3))[None])[0]
            xi = ctx3.vector(ctx3.from_eigbasis(coords))
            verdict = v_beta_membership(ctx3, beta, xi)
            assert verdict.inside, (beta, verdict.certificate)

    def test_beta_out_of_range(self, ctx3):
        for beta in (-0.1, 0.7):
            with pytest.raises(ContractError):
                v_beta_membership(ctx3, beta, ctx3.omega)


class TestNaturalCone:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_routes_agree_on_random_vectors(self, dim):
        rng = generator(40 + dim)
        ctx = build_gns(random_faithful_density(rng, dim))
        for _ in range(500):
            xi = ctx.vector(complex_gaussian(rng, dim, dim))
            verdict = natural_cone_membership(ctx, xi, tol=1e-8)
            spectral = verdict.detail["spectral_certificate"]
            vbeta = verdict.detail["vbeta_certificate"]
            assert (spectral >= -1e-8) == (vbeta >= -1e-8) or \
                min(abs(spectral), abs(vbeta)) <= 1e-7

    def test_psd_matrix_inside_both_routes(self, ctx3):
        rng = generator(44)
        xi = ctx3.vector(random_psd(rng, 3))
        verdict = natural_cone_membership(ctx3, xi)
        assert verdict.inside
        assert verdict.detail["spectral_certificate"] >= -1e-12

    def test_negative_eigenvalue_outside(self, ctx3):
        xi = ctx3.vector(np.diag([1.0, 1.0, -0.5]))
        verdict = natural_cone_membership(ctx3, xi)
        assert not verdict.inside


class TestDuality:
    @pytest.mark.parametrize("beta", [0.0, 0.125, 0.25, 0.375, 0.5])
    def test_duality_grid(self, ctx3, beta):
        report = duality_check(ctx3, beta, samples=100, seed=50)
        assert report["passed"]
        assert report["min_member_pairing"] >= -1e-10
        assert report["outside_missed"] == 0

    def test_v0_v_half_pairing_form(self, ctx3):
        # (b Omega, Delta^{1/2} a Omega) = Tr(rho^{1/2} b rho^{1/2} a) >= 0
        rng = generator(51)
        for _ in range(100):
            a, b = random_psd(rng, 3), random_psd(rng, 3)
            lhs = inner(ctx3.vector_for_operator(b),
                        apply_delta_power(ctx3, 0.5, ctx3.vector_for_operator(a))).real
            direct = np.trace(ctx3.sqrt_rho @ b @ ctx3.sqrt_rho @ a).real
            assert lhs == pytest.approx(direct, abs=1e-10)
            assert lhs >= -1e-10

    def test_separating_vector_for_outsider(self, ctx3):
        xi = ctx3.vector(np.diag([1.0, -2.0, 1.0]))
        witness, _ = cones._v_beta_certificate(ctx3, 0.25, ctx3.to_eigbasis(xi.mat))
        eta = ctx3.vector(ctx3.from_eigbasis(cones._separating_eta(ctx3, 0.25, witness)))
        assert inner(eta, xi).real < -1e-3
        verdict = v_beta_membership(ctx3, 0.25, eta)
        assert verdict.inside


class TestUMapsCones:
    @pytest.mark.parametrize("beta", [0.0, 0.125, 0.25])
    def test_flip(self, ctx3, beta):
        report = u_maps_cones(ctx3, beta, samples=60, seed=52)
        assert report["passed"]

    def test_transpose_fixes_v0(self, ctx3):
        # U Delta^{1/2} (a Omega) = a^t Omega, PSD transpose stays PSD
        rng = generator(53)
        a = random_psd(rng, 3)
        xi = ctx3.vector_for_operator(a)
        out = apply_u(ctx3, apply_delta_power(ctx3, 0.5, xi))
        recovered = out.mat @ ctx3.inv_sqrt_rho
        assert np.max(np.abs(recovered - transpose_operator(ctx3, a))) <= 1e-10


class TestStateCorrespondence:
    def test_reference_state_gives_omega(self, ctx3):
        xi = state_to_cone_vector(ctx3, ctx3.rho)
        assert np.max(np.abs(xi.mat - ctx3.omega.mat)) <= 1e-10

    def test_diagonal_closed_form(self, ctx3):
        eps = 0.01
        sigma = np.diag([1.0 - 2 * eps, eps, eps])
        ctx = build_gns(np.diag([0.5, 0.3, 0.2]))
        xi = state_to_cone_vector(ctx, sigma)
        assert np.allclose(xi.mat, np.diag(np.sqrt(np.diag(sigma).real)))

    def test_pure_state_projector(self, ctx3):
        v = np.array([1, 1j, 0]) / np.sqrt(2)
        sigma = np.outer(v, v.conj())
        xi = state_to_cone_vector(ctx3, sigma)
        assert np.max(np.abs(xi.mat - sigma)) <= 1e-9

    def test_state_values_match(self, ctx3):
        rng = generator(54)
        sigma = random_psd(rng, 3)
        xi = state_to_cone_vector(ctx3, sigma)
        for _ in range(50):
            a = complex_gaussian(rng, 3, 3)
            lhs = inner(xi, ctx3.vector(a @ xi.mat))
            assert abs(lhs - np.trace(sigma @ a)) <= 1e-9

    def test_transpose_state_vector(self, ctx3):
        rng = generator(55)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        sigma = np.outer(v, v.conj())
        xi = state_to_cone_vector(ctx3, sigma)
        out, report = transpose_state_vector(ctx3, xi)
        assert report["passed"]
        assert np.max(np.abs(density_of(out) - transpose_operator(ctx3, sigma))) <= 1e-10
        # genuinely complex pure state: transpose differs from the state
        assert np.max(np.abs(transpose_operator(ctx3, sigma) - sigma)) > 1e-3

    def test_transpose_batch(self):
        rng = generator(56)
        ctx = build_gns(random_faithful_density(rng, 4))
        worst = 0.0
        for _ in range(100):
            sigma = random_psd(rng, 4)
            xi = state_to_cone_vector(ctx, sigma)
            out, report = transpose_state_vector(ctx, xi)
            worst = max(worst, report["density_transpose_residual"])
        assert worst <= 1e-10

    def test_non_member_rejected(self, ctx3):
        with pytest.raises(ContractError):
            transpose_state_vector(ctx3, ctx3.vector(np.diag([1.0, -1.0, 0.0])))


class TestComposite:
    def test_tracial_composite(self):
        ca = build_gns(np.eye(2) / 2)
        cb = build_gns(np.eye(2) / 2)
        comp = build_composite(ca, cb)
        assert np.allclose(comp.joint.rho, np.eye(4) / 4)

    def test_delta_ratio_outer_product(self):
        ca = build_gns(np.diag([2 / 3, 1 / 3]))
        cb = build_gns(np.diag([3 / 4, 1 / 4]))
        comp = build_composite(ca, cb)
        joint_vals = np.sort(comp.joint.eigvals)[::-1]
        expected = np.sort(np.outer([2 / 3, 1 / 3], [3 / 4, 1 / 4]).ravel())[::-1]
        assert np.allclose(joint_vals, expected)

    def test_jm_factorizes_on_samples(self, comp22):
        rng = generator(57)
        for _ in range(50):
            ma, mb = complex_gaussian(rng, 2, 2), complex_gaussian(rng, 2, 2)
            xi = comp22.joint.vector(kron(ma, mb))
            lhs = gns.apply_jm(comp22.joint, xi).mat
            rhs = kron(ma.conj().T, mb.conj().T)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    @joint_shapes
    def test_delta_and_jm_factor_on_product_vectors(self, dims):
        rng = generator(66)
        ca, cb = (build_gns(random_faithful_density(rng, n)) for n in dims)
        comp = build_composite(ca, cb)
        for _ in range(50):
            ma, mb = complex_gaussian(rng, dims[0], dims[0]), complex_gaussian(rng, dims[1], dims[1])
            xi = comp.joint.vector(kron(ma, mb))
            images = [(gns.apply_jm(comp.joint, xi).mat, kron(ma.conj().T, mb.conj().T))]
            images += [(apply_delta_power(comp.joint, beta, xi).mat,
                        kron(apply_delta_power(ca, beta, ca.vector(ma)).mat,
                             apply_delta_power(cb, beta, cb.vector(mb)).mat))
                       for beta in (-1.0, 0.25, 1.0)]
            for joint_image, factored in images:
                assert np.max(np.abs(joint_image - factored)) <= 1e-12 * np.max(np.abs(joint_image))

    @joint_shapes
    def test_joint_matches_the_rediagonalized_state(self, dims):
        rng = generator(67)
        ca, cb = (build_gns(random_faithful_density(rng, n)) for n in dims)
        joint = build_composite(ca, cb).joint
        ref = build_gns(np.kron(ca.rho, cb.rho))
        assert np.all(np.diff(joint.eigvals) <= 0)
        assert np.max(np.abs(joint.eigvals - ref.eigvals)) <= 1e-14
        assert np.max(np.abs(joint.sqrt_rho - ref.sqrt_rho)) <= 1e-13
        assert np.max(np.abs(joint.kernel - ref.kernel)) <= 1e-11

    @pytest.mark.parametrize("diag", [[0.5, 0.5], [2 / 3, 1 / 3]], ids=["tracial", "repeated-product"])
    def test_eigenvectors_equal_build_gns_on_degenerate_products(self, diag):
        ctx = build_gns(np.diag(diag))
        joint = build_composite(ctx, ctx).joint
        assert np.array_equal(joint.eigvecs, build_gns(np.kron(ctx.rho, ctx.rho)).eigvecs)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (2, None), (3, None)],
                             ids=["2x2", "2x3", "3x2", "3x3", "rho2xrho2", "rho3xrho3"])
    def test_kernel_is_the_product_of_the_factor_kernels(self, dims):
        # on rho (x) rho the repeated products lambda_i lambda_j = lambda_j lambda_i
        # form clusters, which re-diagonalizing rho (x) rho would re-span
        rng = generator(68)
        ca = build_gns(random_faithful_density(rng, dims[0]))
        cb = ca if dims[1] is None else build_gns(random_faithful_density(rng, dims[1]))
        joint = build_composite(ca, cb).joint
        assert np.max(np.abs(joint.kernel - np.kron(ca.kernel, cb.kernel))) <= 1e-14

    def test_builds_no_eigensolver_and_no_generator(self, monkeypatch):
        rng = generator(69)
        ca, cb = (build_gns(random_faithful_density(rng, n)) for n in (2, 3))
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        for name in ("Generator", "default_rng"):
            monkeypatch.setattr(np.random, name, counting(name, getattr(np.random, name)))
        build_composite(ca, cb, seed=12)
        assert calls == []

    def test_factors_within_the_trace_tolerance_compose(self):
        # each factor passes build_gns at trace 1 + 0.9e-10; their product has
        # trace 1 + 1.8e-10, and the joint is not validated a second time
        rng = generator(70)
        rho_a, rho_b = (random_faithful_density(rng, n) * (1 + 0.9e-10) for n in (2, 3))
        comp = build_composite(build_gns(rho_a), build_gns(rho_b))
        assert np.array_equal(comp.joint.rho, np.kron(rho_a, rho_b))

    def test_unfaithful_joint_is_rejected(self):
        ctx = build_gns(np.diag([1 - 2e-7, 2e-7]))
        with pytest.raises(FaithfulnessError, match=r"state is not faithful: eigenvalue 4\.000e-14 < 1\.0e-12"):
            build_composite(ctx, ctx)

    @shapes
    def test_one_otimes_ub_and_density_of_act_on_each_vector_of_a_stack(self, dims):
        comp = composite(*dims)
        rng = generator(69)
        stack = np.stack([complex_gaussian(rng, comp.joint.dim, comp.joint.dim) for _ in range(4)])
        flipped = one_otimes_ub(comp, gns.GnsVector(stack, comp.joint))
        states = density_of(flipped)
        for m, out, state in zip(stack, flipped.mat, states):
            alone = one_otimes_ub(comp, comp.joint.vector(m))
            assert np.array_equal(out, alone.mat)
            assert np.array_equal(state, density_of(alone))

    @joint_shapes
    def test_one_otimes_ub_equals_the_block_formula(self, dims):
        # (1 (x) U_B) = Ad(1 (x) K_B) o Gamma is K_B m_ij^T K_B^dagger on each B block m_ij
        comp = composite(*dims)
        na, nb = dims
        kb = comp.ctx_b.kernel
        rng = generator(71)
        stack = np.stack([complex_gaussian(rng, na * nb, na * nb) for _ in range(5)])
        t = stack.reshape(5, na, nb, na, nb).transpose(0, 1, 3, 4, 2)
        blocks = (kb @ t @ kb.conj().T).transpose(0, 1, 3, 2, 4).reshape(stack.shape)
        assert np.max(np.abs(one_otimes_ub(comp, gns.GnsVector(stack, comp.joint)).mat - blocks)) <= 1e-15
        assert np.max(np.abs(one_otimes_ub(comp, comp.joint.vector(stack[0])).mat - blocks[0])) <= 1e-15

    @shapes
    def test_one_otimes_ub_involution(self, dims):
        comp = composite(*dims)
        rng = generator(58)
        xi = comp.joint.vector(complex_gaussian(rng, comp.joint.dim, comp.joint.dim))
        twice = one_otimes_ub(comp, one_otimes_ub(comp, xi))
        assert np.max(np.abs(twice.mat - xi.mat)) <= 1e-12

    @shapes
    def test_one_otimes_ub_on_product_vectors(self, dims):
        # (1 (x) U_B)(m_a (x) m_b) = m_a (x) U_B m_b, with U_B m = K_B m^T K_B^dagger
        comp = composite(*dims)
        rng = generator(65)
        for _ in range(10):
            ma, mb = complex_gaussian(rng, dims[0], dims[0]), complex_gaussian(rng, dims[1], dims[1])
            out = one_otimes_ub(comp, comp.joint.vector(kron(ma, mb))).mat
            expected = kron(ma, apply_u(comp.ctx_b, comp.ctx_b.vector(mb)).mat)
            assert np.max(np.abs(out - expected)) <= 1e-12


class TestPnIntersection:
    def test_omega_inside(self, comp22):
        verdict = pn_intersection_membership(comp22, comp22.joint.omega)
        assert verdict.inside

    def test_constructive_ppt_inside(self, comp22):
        rng = generator(59)
        spec = PptSetSpec(comp22.shape)
        for _ in range(10):
            a = sample_ppt_density(rng, spec)
            xi = apply_delta_power(comp22.joint, 0.25, comp22.joint.vector_for_operator(a))
            verdict = pn_intersection_membership(comp22, xi, tol=1e-7)
            assert verdict.inside, verdict.certificate

    def test_phi_plus_outside_with_known_certificate(self, comp22, phi_plus):
        xi = apply_delta_power(comp22.joint, 0.25, comp22.joint.vector_for_operator(phi_plus))
        verdict = pn_intersection_membership(comp22, xi)
        assert not verdict.inside
        assert verdict.certificate == pytest.approx(-0.5, abs=1e-9)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_routes_agree_on_random_vectors(self, dims):
        rng = generator(60 + dims[0] * 10 + dims[1])
        comp = build_composite(build_gns(random_faithful_density(rng, dims[0])),
                               build_gns(random_faithful_density(rng, dims[1])))
        dim = dims[0] * dims[1]
        for _ in range(100):
            xi = comp.joint.vector(complex_gaussian(rng, dim, dim))
            verdict = pn_intersection_membership(comp, xi, tol=1e-8)
            assert verdict.detail["certificate_gap"] <= 1e-8

    def test_flip_preserves_intersection(self, comp22):
        rng = generator(61)
        spec = PptSetSpec(comp22.shape)
        a = sample_ppt_density(rng, spec)
        xi = apply_delta_power(comp22.joint, 0.25, comp22.joint.vector_for_operator(a))
        flipped = one_otimes_ub(comp22, xi)
        verdict = pn_intersection_membership(comp22, flipped, tol=1e-7)
        assert verdict.inside


class TestCommutantCone:
    def test_single_term_trivial(self, comp22):
        rng = generator(62)
        ops_a = complex_gaussian(rng, 2, 2)[None, None]
        ops_b = np.eye(2, dtype=complex)[None, None]
        plain = cones._natural_cone_generator(comp22, ops_a, ops_b)[0]
        lhs = one_otimes_ub(comp22, comp22.joint.vector(plain)).mat
        rhs = cones._commutant_cone_generator(comp22, ops_a, ops_b)[0]
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    @shapes
    def test_generator_identity_and_pairings(self, dims):
        report = commutant_cone_check(composite(*dims), samples=12, seed=63)
        assert report["passed"]
        assert report["generator_identity_residual"] <= 1e-10
        assert report["min_cross_pairing"] >= -1e-10

    def test_intersection_matches_commutant_characterization(self, comp22):
        # members of P ∩ P^tau pair nonnegatively with commutant-cone
        # generators; a vector in P but outside P^tau is separated by an
        # exhibited element of the flipped cone
        rng = generator(64)
        ops = np.stack([[complex_gaussian(rng, 2, 2) for _ in range(4)] for _ in range(12)])
        gens = cones._commutant_cone_generator(comp22, ops[:, :2], ops[:, 2:])
        spec = PptSetSpec(comp22.shape)
        joint = comp22.joint
        for _ in range(5):
            a = sample_ppt_density(rng, spec)
            xi = apply_delta_power(joint, 0.25, joint.vector_for_operator(a))
            for g in gens:
                assert np.trace(xi.mat.conj().T @ g).real >= -1e-8
        # singlet-based vector: in P, not in P^tau
        psi = np.zeros(4, dtype=complex)
        psi[1], psi[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        singlet = np.outer(psi, psi.conj())
        xi_bad = apply_delta_power(joint, 0.25, joint.vector_for_operator(singlet))
        assert natural_cone_membership(joint, xi_bad).inside
        assert not pn_intersection_membership(comp22, xi_bad).inside
        flipped = one_otimes_ub(comp22, xi_bad)
        w = hermitize(joint.sqrt_rho @ (apply_delta_power(joint, -0.25, flipped).mat
                                        @ joint.inv_sqrt_rho) @ joint.sqrt_rho)
        vals, vecs = np.linalg.eigh(w)
        eta = apply_delta_power(joint, 0.25, joint.vector_for_operator(
            np.outer(vecs[:, 0], vecs[:, 0].conj())))
        separator = one_otimes_ub(comp22, eta)
        assert inner(separator, xi_bad).real < -1e-6

    def test_terms_must_be_positive(self, comp22):
        with pytest.raises(ContractError):
            commutant_cone_check(comp22, samples=3, terms=0)


def pure_product_mixture(rng, na, nb, terms):
    """sum_k w_k (u_k u_k*) (x) (v_k v_k*) with Dirichlet weights: separable
    and of rank at most ``terms``."""
    out = np.zeros((na * nb, na * nb), dtype=complex)
    for w in rng.dirichlet(np.ones(terms)):
        u, v = _unit_trace_gram(complex_gaussian(rng, na, 1)), _unit_trace_gram(complex_gaussian(rng, nb, 1))
        out += w * kron(u, v)
    return out


def unit_vector_of(comp, m):
    return comp.joint.vector(m / np.linalg.norm(m))


def assert_bracket(bound, approx, info):
    """The bound is the distance to a PSD approximant and lies above the lower bound."""
    assert 0.0 <= info["lower_bound"] <= bound
    assert info["converged"] == (bound <= 1e-9)
    assert np.linalg.eigvalsh(hermitize(approx.mat))[0] >= -1e-12 * max(1.0, approx.norm())


class TestSeparableDistance:
    def test_product_vector_reached(self, comp22):
        rng = generator(65)
        target = kron(random_psd(rng, 2), random_psd(rng, 2))
        xi = comp22.joint.vector(target / np.linalg.norm(target))
        bound, approx, info = separable_cone_distance(comp22, xi, iters=50, seed=66)
        assert bound <= 1e-8
        assert_bracket(bound, approx, info)

    def test_exact_product_fit(self, comp22):
        # the first atom reproduces a product of basis projectors exactly: a zero residual
        target = np.zeros((4, 4), dtype=complex)
        target[0, 0] = 1.0
        bound, approx, info = separable_cone_distance(comp22, comp22.joint.vector(target), seed=66)
        assert bound == 0.0 and info["terms"] == 1
        assert np.array_equal(approx.mat, target)

    def test_singlet_stays_far(self, comp22, singlet):
        xi = state_to_cone_vector(comp22.joint, singlet)
        bound, approx, info = separable_cone_distance(comp22, xi, iters=500, seed=67)
        assert bound > 0.1
        assert_bracket(bound, approx, info)
        # the lower bound alone certifies that the singlet stays far
        assert info["lower_bound"] > 0.1
        # cross-check: the singlet is certified entangled by its witness
        assert npt_witness(singlet, comp22.shape) is not None

    def test_three_product_mixture(self, comp22):
        rng = generator(68)
        mats = [kron(random_psd(rng, 2), random_psd(rng, 2)) for _ in range(3)]
        mix = sum(mats)
        xi = comp22.joint.vector(mix / np.linalg.norm(mix))
        bound, approx, info = separable_cone_distance(comp22, xi, iters=200, seed=69)
        assert bound <= 1e-6
        assert_bracket(bound, approx, info)

    def test_bound_history_monotone(self, comp22):
        rng = generator(70)
        xi = comp22.joint.vector(complex_gaussian(rng, 4, 4))
        xi = comp22.joint.vector(xi.mat / xi.norm())
        bound, approx, info = separable_cone_distance(comp22, xi, iters=60, seed=71)
        hist = info["history"]
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(hist, hist[1:]))
        assert hist[-1] == bound
        assert_bracket(bound, approx, info)
        # the anti-Hermitian part of a Gaussian target is out of reach of any separable point
        anti = np.linalg.norm(xi.mat - hermitize(xi.mat))
        assert anti > 0.1 and info["lower_bound"] >= anti

    @pytest.mark.parametrize("na,nb,terms", [(2, 2, 2), (2, 2, 3), (2, 3, 3)], ids=["2x2-2", "2x2-3", "2x3-3"])
    def test_low_rank_pure_product_mixtures_converge(self, na, nb, terms):
        comp = composite(na, nb)
        xi = unit_vector_of(comp, pure_product_mixture(generator(72 + terms + nb), na, nb, terms))
        bound, approx, info = separable_cone_distance(comp, xi, seed=73)
        assert bound <= 1e-9
        assert_bracket(bound, approx, info)
        assert info["terms"] <= (na * nb) ** 2

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)], ids=["2x2", "2x3"])
    def test_sampled_ppt_states_converge(self, dims):
        # PPT = separable in 2x2 and 2x3 (Horodecki 1996); the sampler is feasible
        # only to tol_feas, so a 1e-6 blend with the identity makes each state PPT
        comp = composite(*dims)
        n = comp.shape.dim
        spec = PptSetSpec(comp.shape)
        states = optim._dykstra(optim._seedlings(generator(74), spec, 3), spec)[0]
        for d in states:
            d = (1 - 1e-6) * d + 1e-6 * np.eye(n) / n
            bound, approx, info = separable_cone_distance(comp, unit_vector_of(comp, d), seed=75)
            assert bound <= 1e-9
            assert_bracket(bound, approx, info)

    def test_work_is_bounded_outside_the_cone(self):
        # 3x3 maximally entangled projector: the bound falls by 6-8% a round toward
        # its distance 1/sqrt 3, so the stall rule, not the round budget, stops it
        comp = composite(3, 3)
        phi = np.zeros(9, dtype=complex)
        phi[[0, 4, 8]] = 1 / np.sqrt(3)
        bound, approx, info = separable_cone_distance(comp, comp.joint.vector(np.outer(phi, phi.conj())),
                                                      iters=500, seed=1)
        hist = info["history"]
        assert len(hist) == cones.STALL_ROUNDS + 1
        assert hist[-1] > 0.5 * hist[0]
        assert_bracket(bound, approx, info)
        assert info["lower_bound"] == pytest.approx(1 / np.sqrt(3), abs=1e-12)

    @pytest.mark.parametrize("iters", [2.5, 3.0, True, "4", None, -1, -3])
    def test_rejects_an_iters_that_is_not_a_count_of_rounds(self, comp22, iters):
        # 2.5 would escape from range() as a TypeError, and -3 would return the trivial bound ||mat(xi)||
        with pytest.raises(ContractError, match="iters must be"):
            separable_cone_distance(comp22, comp22.joint.omega, iters=iters)
        _, _, info = separable_cone_distance(comp22, comp22.joint.omega, iters=np.int64(2))
        assert len(info["history"]) <= 2   # numpy's integers count rounds



class TestSeparableLowerBound:
    def test_zero_on_full_rank_ppt_input(self, comp22):
        mix = hermitize(pure_product_mixture(generator(78), 2, 2, 8) + np.eye(4) / 40)
        bound, _, info = separable_cone_distance(comp22, unit_vector_of(comp22, mix), seed=79)
        assert info["lower_bound"] == 0.0
        assert bound <= 1e-9

    def test_negative_parts_of_state_and_partial_transpose(self, comp22, singlet):
        # singlet: PSD, and its partial transpose has the single eigenvalue -1/2
        _, _, info = separable_cone_distance(comp22, comp22.joint.vector(singlet), iters=1)
        assert info["lower_bound"] == pytest.approx(0.5, abs=1e-12)
        # -singlet: eigenvalue -1 outweighs the partial transpose's -1/2 (x3); no
        # atom pairs positively with it, so 0 is the nearest point and the bracket closes
        bound, _, info = separable_cone_distance(comp22, comp22.joint.vector(-singlet), iters=1)
        assert bound == pytest.approx(1.0, abs=1e-12) and info["terms"] == 0
        assert info["lower_bound"] == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_before_any_round(self, comp22, singlet):
        # both T and T^Gamma have negative parts; with no round the upper bound is
        # ||T||, so the lower bound is not clipped
        t = singlet.copy()
        t[0, 0] -= 0.3
        neg = [np.linalg.norm(np.minimum(np.linalg.eigvalsh(m), 0.0))
               for m in (t, partial_transpose(t, comp22.shape, "B"))]
        bound, _, info = separable_cone_distance(comp22, comp22.joint.vector(t), iters=0)
        assert bound == pytest.approx(np.linalg.norm(t), abs=1e-15) and info["terms"] == 0
        assert min(neg) > 0.1 and info["lower_bound"] == pytest.approx(max(neg), abs=1e-12)
        # with its rounds the bracket closes on this 2x2 input
        bound, _, info = separable_cone_distance(comp22, comp22.joint.vector(t), seed=1)
        assert info["lower_bound"] <= bound <= info["lower_bound"] + 1e-9

    def test_never_above_the_upper_bound(self, comp22):
        rng = generator(80)
        for _ in range(10):
            xi = comp22.joint.vector(hermitize(complex_gaussian(rng, 4, 4)))
            bound, _, info = separable_cone_distance(comp22, unit_vector_of(comp22, xi.mat), iters=20, seed=81)
            assert 0.0 < info["lower_bound"] <= bound


# --- stacked cone layer against per-sample reference loops --------------------

BETAS = (0.0, 0.125, 0.25, 0.375, 0.5)


def ref_delta(ctx, beta, m):
    """Delta^beta on one matrix, in numpy alone."""
    if beta == 0.0:
        return m
    coords = ctx.eigvecs.conj().T @ m @ ctx.eigvecs * np.exp(beta * ctx.log_ratio)
    return ctx.eigvecs @ coords @ ctx.eigvecs.conj().T


def ref_flip(ctx, m):
    return ctx.kernel @ m.T @ ctx.kernel.conj().T


def ref_certificate(ctx, beta, m):
    return float(np.linalg.eigvalsh(hermitize(ref_delta(ctx, -beta, m) @ ctx.inv_sqrt_rho))[0])


def ref_cone_element(ctx, beta, rng):
    g = rng.standard_normal((ctx.dim, ctx.dim)) + 1j * rng.standard_normal((ctx.dim, ctx.dim))
    p = g @ g.conj().T
    xi = ref_delta(ctx, beta, p / np.trace(p).real @ ctx.sqrt_rho)
    return xi / np.linalg.norm(xi)


def ref_pairing(x, y):
    return complex(np.trace(x.conj().T @ y)).real


def reference_duality_check(ctx, beta, samples, seed, tol=1e-10):
    """duality_check as a numpy loop over one sample at a time."""
    rng = generator(seed)
    min_pairing = np.inf
    for _ in range(samples):
        xi = ref_cone_element(ctx, beta, rng)
        eta = ref_cone_element(ctx, 0.5 - beta, rng)
        min_pairing = min(min_pairing, ref_pairing(eta, xi))
    separated = missed = outside_seen = 0
    for _ in range(samples):
        g = rng.standard_normal((ctx.dim, ctx.dim)) + 1j * rng.standard_normal((ctx.dim, ctx.dim))
        xi = g / np.linalg.norm(g)
        if ref_certificate(ctx, beta, xi) >= -tol:
            continue
        outside_seen += 1
        a = ref_delta(ctx, -beta, xi) @ ctx.inv_sqrt_rho
        v = np.linalg.eigh(hermitize(ctx.sqrt_rho @ a @ ctx.sqrt_rho))[1][:, 0]
        eta = ref_delta(ctx, 0.5 - beta, np.outer(v, v.conj()) @ ctx.sqrt_rho)
        if ref_pairing(eta, xi) < -tol:
            separated += 1
        else:
            missed += 1
    return {
        "beta": beta,
        "min_member_pairing": float(min_pairing),
        "outside_samples": outside_seen,
        "outside_separated": separated,
        "outside_missed": missed,
        "passed": bool(min_pairing >= -tol and missed == 0),
    }


def reference_u_maps_cones(ctx, beta, samples, seed, tol=1e-10):
    """u_maps_cones as a numpy loop over one sample at a time."""
    rng = generator(seed)
    worst_flip = worst_v0 = np.inf
    for _ in range(samples):
        xi = ref_cone_element(ctx, beta, rng)
        worst_flip = min(worst_flip, ref_certificate(ctx, 0.5 - beta, ref_flip(ctx, xi)))
        zero = ref_cone_element(ctx, 0.0, rng)
        back = ref_flip(ctx, ref_delta(ctx, 0.5, zero))
        worst_v0 = min(worst_v0, ref_certificate(ctx, 0.0, back))
    return {
        "beta": beta,
        "min_flip_certificate": float(worst_flip),
        "min_v0_certificate": float(worst_v0),
        "passed": bool(worst_flip >= -tol and worst_v0 >= -tol),
    }


def reference_lmo_starts(residual, na, nb, rng, rounds=25, starts=3):
    """Each start of _lmo_product_atom run alone: (u, v, value) per start."""
    t = residual.reshape(na, nb, na, nb)
    out = []
    for _ in range(starts):
        v = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
        v /= np.linalg.norm(v)
        for _ in range(rounds):
            q = np.outer(v, v.conj())
            u = np.linalg.eigh(hermitize(np.einsum("prqs,rs->pq", t, q.conj())))[1][:, -1]
            p = np.outer(u, u.conj())
            vals_b, vecs_b = np.linalg.eigh(hermitize(np.einsum("prqs,pq->rs", t, p.conj())))
            v_new = vecs_b[:, -1]
            settled = np.linalg.norm(np.outer(v_new, v_new.conj()) - q) < 1e-13
            v = v_new
            if settled:
                break
        out.append((u, v, float(vals_b[-1])))
    return out


def ref_one_otimes_ub(comp, m):
    """(1 (x) U_B) on one matrix: (1 (x) K_B) m^Gamma (1 (x) K_B)^dagger."""
    lift = np.kron(np.eye(comp.shape.dim_a), comp.ctx_b.kernel)
    return lift @ partial_transpose(m, comp.shape, "B") @ lift.conj().T


def reference_commutant_cone_check(comp, samples, seed, terms, tol=1e-10):
    """commutant_cone_check as a numpy loop over one sample at a time."""
    rng = generator(seed)
    na, nb = comp.ctx_a.dim, comp.ctx_b.dim
    sqrt_rho = comp.joint.sqrt_rho
    worst_residual = 0.0
    flipped_p, commutant_gen = [], []
    for _ in range(samples):
        ops_a = [(rng.standard_normal((na, na)) + 1j * rng.standard_normal((na, na))) / np.sqrt(na)
                 for _ in range(terms)]
        ops_b = [(rng.standard_normal((nb, nb)) + 1j * rng.standard_normal((nb, nb))) / np.sqrt(nb)
                 for _ in range(terms)]
        t_op = sum(np.kron(a, b) for a, b in zip(ops_a, ops_b))
        lhs = ref_one_otimes_ub(comp, t_op @ sqrt_rho @ t_op.conj().T)
        lefts = [np.kron(a, np.eye(nb)) for a in ops_a]
        rights = [np.kron(np.eye(na), ref_flip(comp.ctx_b, b)) for b in ops_b]
        half = sum(left @ sqrt_rho @ right for left, right in zip(lefts, rights))
        rhs = sum(left @ half.conj().T @ right for left, right in zip(lefts, rights))
        worst_residual = max(worst_residual, float(np.max(np.abs(lhs - rhs))))
        flipped_p.append(lhs / np.linalg.norm(lhs))
        commutant_gen.append(rhs / np.linalg.norm(rhs))
    min_pairing = np.inf
    for x in flipped_p:
        for y in commutant_gen:
            min_pairing = min(min_pairing, np.einsum("ij,ij->", x.conj(), y).real)  # Tr x^dagger y
    return {
        "generator_identity_residual": worst_residual,
        "min_cross_pairing": float(min_pairing),
        "passed": bool(worst_residual <= 1e-10 and min_pairing >= -tol),
    }


def assert_report_matches(report, reference):
    """Verdicts and counts equal, float fields within 1e-12: the kernels run
    in rho's eigenbasis and the reference loops in standard coordinates."""
    assert report.keys() == reference.keys()
    for key, value in reference.items():
        if isinstance(value, float) and key != "beta":
            assert report[key] == pytest.approx(value, rel=0, abs=1e-12), key
        else:
            assert report[key] == value, key


class TestStackedConeLayer:
    @pytest.mark.parametrize("dim", range(2, 10))
    def test_duality_and_flip_equal_reference_loops(self, dim):
        ctx = build_gns(random_faithful_density(generator(80 + dim), dim))
        for beta in BETAS:
            assert_report_matches(duality_check(ctx, beta, samples=30, seed=dim),
                                  reference_duality_check(ctx, beta, samples=30, seed=dim))
            assert_report_matches(u_maps_cones(ctx, beta, samples=30, seed=dim),
                                  reference_u_maps_cones(ctx, beta, samples=30, seed=dim))

    def test_no_samples(self, ctx3):
        for check in (duality_check, u_maps_cones):
            with pytest.raises(ContractError):
                check(ctx3, 0.25, samples=0)

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_delta_kernel_on_a_stack_equals_single_calls(self, dim):
        rng = generator(90 + dim)
        ctx = build_gns(random_faithful_density(rng, dim))
        stack = np.stack([complex_gaussian(rng, dim, dim) for _ in range(20)])
        for beta in (-0.5, -0.125, 0.0, 0.25, 0.5, 1.0):
            out = apply_delta_power(ctx, beta, gns.GnsVector(stack, ctx)).mat
            for m, o in zip(stack, out):
                assert np.array_equal(o, apply_delta_power(ctx, beta, ctx.vector(m)).mat)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)], ids=["2x2", "2x3", "3x2", "3x3"])
    def test_lmo_picks_the_reference_start(self, dims):
        na, nb = dims
        picked_other_than_first = 0
        for seed in range(10):
            residual = complex_gaussian(generator(100 + seed), na * nb, na * nb)
            u, v = cones._lmo_product_atom(residual, na, nb, rng := generator(seed))
            after = rng.standard_normal()
            ref_rng = generator(seed)
            starts = reference_lmo_starts(residual, na, nb, ref_rng)
            assert after == ref_rng.standard_normal()   # starts drawn in the same order
            vals = [val for _, _, val in starts]
            best = vals.index(max(vals))
            picked_other_than_first += best > 0
            ref_u, ref_v, ref_val = starts[best]
            atom = np.kron(np.outer(u, u.conj()), np.outer(v, v.conj()))
            ref_atom = np.kron(np.outer(ref_u, ref_u.conj()), np.outer(ref_v, ref_v.conj()))
            assert np.max(np.abs(atom - ref_atom)) <= 1e-12
            assert np.trace(atom.conj().T @ residual).real == pytest.approx(ref_val, abs=1e-12)
        assert picked_other_than_first > 0

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)], ids=["2x2", "2x3", "3x2", "3x3"])
    @pytest.mark.parametrize("terms", [1, 3])
    def test_commutant_check_equals_reference_loop(self, dims, terms):
        comp = composite(*dims)
        for seed, samples in ((0, 1), (1, 7), (2, 20)):
            assert commutant_cone_check(comp, samples=samples, seed=seed, terms=terms) == \
                reference_commutant_cone_check(comp, samples, seed, terms)

    def test_beta_checked_at_each_public_call(self, ctx3):
        for call in (lambda: duality_check(ctx3, 0.6, samples=3),
                     lambda: u_maps_cones(ctx3, -0.1, samples=3),
                     lambda: v_beta_membership(ctx3, 0.7, ctx3.omega)):
            with pytest.raises(ContractError):
                call()


def clear_probe_caches():
    cones._probe_draws.cache_clear()


def cold_probe(check, ctx, beta, samples, seed):
    """A probe's report with the beta-free cache emptied first."""
    clear_probe_caches()
    return check(ctx, beta, samples=samples, seed=seed)


class TestProbeCache:
    KEY = dict(samples=20, seed=6)

    def probe_orders(self, ctx, other):
        """The benchmark's interleaved order, the CLI's order, and the
        interleaved order with a probe of another (ctx, seed, samples)
        between every two calls, as lists of (check, ctx, beta, samples, seed)."""
        samples, seed = self.KEY["samples"], self.KEY["seed"]
        bench = [(check, ctx, beta, samples, seed) for beta in BETAS for check in (duality_check, u_maps_cones)]
        cli = [(check, ctx, beta, samples, seed) for check in (duality_check, u_maps_cones) for beta in BETAS]
        evicting = []
        for k, call in enumerate(bench):
            evicting.append(call)
            evicting.append(((duality_check, u_maps_cones)[k % 2], *other[k % len(other)]))
        return {"bench": bench, "cli": cli, "evicting": evicting}

    def test_reports_equal_cold_reports_in_every_order(self):
        ctx = build_gns(random_faithful_density(generator(41), 4))
        ctx2 = build_gns(random_faithful_density(generator(42), 4))
        other = [(ctx2, 0.125, 20, 6), (ctx, 0.25, 21, 6), (ctx, 0.375, 20, 7)]
        for name, calls in self.probe_orders(ctx, other).items():
            cold = [cold_probe(*call) for call in calls]
            warm = [check(c, beta, samples=samples, seed=seed) for check, c, beta, samples, seed in calls]
            assert warm == cold, name

    def test_cache_clears(self, ctx3):
        cones._probe_draws(ctx3, 6, 20)
        assert cones._probe_draws.cache_info().currsize == 1
        clear_probe_caches()
        assert cones._probe_draws.cache_info().currsize == 0

    def test_cached_draws_are_read_only(self, ctx3):
        psd, xi, _ = cones._probe_draws(ctx3, 6, 20)
        for view in (psd, xi, psd[:, 0], xi[3]):
            with pytest.raises(ValueError, match="read-only"):
                view[..., 0, 0] = 0.0

    def counted_calls(self, monkeypatch, ctx, calls):
        """Counts of ``generator`` and ``np.linalg.eigvalsh`` calls over the
        given (check, beta) probe calls at KEY, on an emptied cache."""
        counts = {"generator": 0, "eigvalsh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cones, "generator", counted("generator", cones.generator))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        clear_probe_caches()
        for check, beta in calls:
            check(ctx, beta, **self.KEY)
        return counts

    def test_draws_and_v0_certificate_run_once_per_context(self, monkeypatch):
        ctx = build_gns(random_faithful_density(generator(43), 5))
        bench = [(check, beta) for beta in BETAS for check in (duality_check, u_maps_cones)]
        cli = [(check, beta) for check in (duality_check, u_maps_cones) for beta in BETAS]
        for calls in (bench, cli):
            # one draw; one eigvalsh per duality_check and per flip, and one for the V_0 half
            assert self.counted_calls(monkeypatch, ctx, calls) == {"generator": 1, "eigvalsh": 11}

    def test_lone_cold_duality_check_pays_the_v0_certificate(self, monkeypatch):
        ctx = build_gns(random_faithful_density(generator(43), 5))
        # the V_0 certificate comes with the draws: one eigvalsh for it, one for the duality check
        assert self.counted_calls(monkeypatch, ctx, [(duality_check, 0.25)]) == {"generator": 1, "eigvalsh": 2}

    def test_cones_keeps_one_cache(self):
        source = Path(cones.__file__).read_text()
        assert source.count("lru_cache(") == 1


EIGEN_STATES = ("random", "maximally-mixed", "twofold")


def eigen_ctx(kind, dim):
    """The context of a random faithful state, of I/n, or of a rotated state
    with a twofold eigenvalue (a cluster that herm_eig re-spans)."""
    rng = generator(120 + dim)
    if kind == "random":
        return build_gns(random_faithful_density(rng, dim))
    if kind == "maximally-mixed":
        return build_gns(np.eye(dim) / dim)
    vals = np.sort(rng.uniform(0.5, 1.5, dim))
    vals[1] = vals[0]
    q, _ = np.linalg.qr(complex_gaussian(rng, dim, dim))
    return build_gns(hermitize((q * (vals / vals.sum())) @ q.conj().T))


def unit_stack(rng, count, dim):
    g = np.stack([complex_gaussian(rng, dim, dim) for _ in range(count)])
    return g / np.linalg.norm(g, axis=(1, 2))[:, None, None]


class TestEigenKernels:
    """The cone kernels run in rho's eigen coordinates X^dagger m X."""

    @pytest.mark.parametrize("kind", EIGEN_STATES)
    @pytest.mark.parametrize("dim", range(2, 10))
    def test_eigen_operators_equal_the_standard_ones(self, kind, dim):
        ctx = eigen_ctx(kind, dim)
        rng = generator(130 + dim)
        stack = unit_stack(rng, 12, dim)
        coords = ctx.to_eigbasis(stack)
        root = np.sqrt(ctx.eigvals)
        xi = gns.GnsVector(stack, ctx)
        pairs = [(coords.swapaxes(-1, -2), apply_u(ctx, xi).mat),
                 (coords * root, stack @ ctx.sqrt_rho),
                 (coords / root, stack @ ctx.inv_sqrt_rho)]
        pairs += [(gns._delta_factor(ctx, beta, coords), apply_delta_power(ctx, beta, xi).mat)
                  for beta in (-0.5, -0.25, 0.125, 0.25, 0.5, 1.0)]
        for eig, standard in pairs:
            assert np.max(np.abs(ctx.from_eigbasis(eig) - standard)) <= 1e-12

    @pytest.mark.parametrize("kind", EIGEN_STATES)
    @pytest.mark.parametrize("dim", range(2, 10))
    def test_cone_kernels_equal_standard_formulas(self, kind, dim):
        ctx = eigen_ctx(kind, dim)
        rng = generator(140 + dim)
        stack = unit_stack(rng, 12, dim)
        psd = np.stack([random_psd(rng, dim) for _ in range(12)])
        for beta in BETAS:
            elements = cones._cone_elements(ctx, beta, ctx.to_eigbasis(psd))
            standard = apply_delta_power(ctx, beta, gns.GnsVector(psd @ ctx.sqrt_rho, ctx)).mat
            standard = standard / np.linalg.norm(standard, axis=(1, 2))[:, None, None]
            assert np.max(np.abs(ctx.from_eigbasis(elements) - standard)) <= 1e-12

            witness, cert = cones._v_beta_certificate(ctx, beta, ctx.to_eigbasis(stack))
            a = apply_delta_power(ctx, -beta, gns.GnsVector(stack, ctx)).mat @ ctx.inv_sqrt_rho
            assert np.max(np.abs(ctx.from_eigbasis(witness) - a)) <= 1e-12
            assert np.max(np.abs(cert - np.linalg.eigvalsh(hermitize(a))[:, 0])) <= 1e-12

            eta = ctx.from_eigbasis(cones._separating_eta(ctx, beta, witness))
            v = np.linalg.eigh(hermitize(ctx.sqrt_rho @ a @ ctx.sqrt_rho))[1][:, :, 0]
            outer = v[:, :, None] * v.conj()[:, None, :]
            ref = apply_delta_power(ctx, 0.5 - beta, gns.GnsVector(outer @ ctx.sqrt_rho, ctx)).mat
            assert np.max(np.abs(eta - ref)) <= 1e-12

    @pytest.mark.parametrize("kind", EIGEN_STATES)
    @pytest.mark.parametrize("dim", range(2, 10))
    def test_kernels_on_a_stack_equal_single_calls(self, kind, dim):
        ctx = eigen_ctx(kind, dim)
        rng = generator(150 + dim)
        coords = ctx.to_eigbasis(unit_stack(rng, 12, dim))
        psd = ctx.to_eigbasis(np.stack([random_psd(rng, dim) for _ in range(12)]))
        for beta in BETAS:
            witness, cert = cones._v_beta_certificate(ctx, beta, coords)
            kernels = [(lambda m: gns._delta_factor(ctx, beta, m), coords),
                       (lambda m: cones._cone_elements(ctx, beta, m), psd),
                       (lambda m: cones._separating_eta(ctx, beta, m), witness)]
            for kernel, stack in kernels:
                out = kernel(stack)
                for k in range(len(stack)):
                    assert np.array_equal(out[k], kernel(stack[k:k + 1])[0])
            for k in range(len(coords)):
                one_witness, one_cert = cones._v_beta_certificate(ctx, beta, coords[k:k + 1])
                assert np.array_equal(witness[k], one_witness[0]) and cert[k] == one_cert[0]

    @pytest.mark.parametrize("kind", ("maximally-mixed", "twofold"))
    @pytest.mark.parametrize("dim", range(2, 10))
    def test_probes_pass_on_degenerate_states(self, kind, dim):
        ctx = eigen_ctx(kind, dim)
        for beta in BETAS:
            duality = duality_check(ctx, beta, samples=30, seed=dim)
            assert duality["passed"] and duality["outside_missed"] == 0
            assert_report_matches(duality, reference_duality_check(ctx, beta, samples=30, seed=dim))
            flip = u_maps_cones(ctx, beta, samples=30, seed=dim)
            assert flip["passed"]
            assert_report_matches(flip, reference_u_maps_cones(ctx, beta, samples=30, seed=dim))


# every public call that applies a vector to a context, given a vector of another context
OWNERSHIP_CALLS = {
    "inner": lambda comp, xi: inner(comp.joint.omega, xi),
    "apply_delta_power": lambda comp, xi: apply_delta_power(comp.joint, 0.5, xi),
    "apply_jm": lambda comp, xi: gns.apply_jm(comp.joint, xi),
    "apply_j": lambda comp, xi: gns.apply_j(comp.joint, xi),
    "apply_u": lambda comp, xi: apply_u(comp.joint, xi),
    "apply_tau": lambda comp, xi: gns.apply_tau(comp.joint, xi),
    "v_beta_membership": lambda comp, xi: v_beta_membership(comp.joint, 0.25, xi),
    "one_otimes_ub": one_otimes_ub,
    "pn_intersection_membership": pn_intersection_membership,
    "separable_cone_distance": separable_cone_distance,
}


class TestContextOwnership:
    @pytest.mark.parametrize("call", OWNERSHIP_CALLS.values(), ids=OWNERSHIP_CALLS.keys())
    def test_vector_of_another_context_rejected(self, comp22, call):
        # same dimension as the joint context, so only ownership can tell them apart
        other = build_gns(random_faithful_density(generator(32), 4))
        with pytest.raises(ContractError, match="does not belong"):
            call(comp22, other.omega)


class TestSeparableTerms:
    def test_terms_count_the_returned_approximant(self, comp22, monkeypatch):
        # each round's jointly polished factors; the returned approximant is one of them
        rng = generator(203)
        mix = sum(kron(random_psd(rng, 2), random_psd(rng, 2)) for _ in range(2))
        xi = comp22.joint.vector(mix / np.linalg.norm(mix))
        polished = []

        def recording_polish(factors, target, na):
            out = real_polish(factors, target, na)
            polished.append(out)
            return out

        real_polish = cones._polish
        monkeypatch.setattr(cones, "_polish", recording_polish)
        bound, approx, info = separable_cone_distance(comp22, xi, iters=30, seed=3)
        assert len(polished) >= len(info["history"])
        returned = [f for f in polished if np.array_equal(cones._product_sum(f, 2), approx.mat)]
        assert returned and info["terms"] == len(returned[-1])
        assert np.linalg.matrix_rank(approx.mat, tol=1e-9) <= info["terms"]
