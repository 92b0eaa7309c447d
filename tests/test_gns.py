import tracemalloc

import numpy as np
import pytest

from modular_ppt import gns
from modular_ppt.cli import RunConfig, run_gns_verify
from modular_ppt.errors import ConditioningError, ContractError, FaithfulnessError
from modular_ppt.gns import (
    apply_delta_power,
    apply_j,
    apply_jm,
    apply_tau,
    apply_u,
    build_gns,
    inner,
    transpose_operator,
    verify_modular_identities,
)
from modular_ppt.rand import complex_gaussian, generator, random_faithful_density


@pytest.fixture
def ctx_diag():
    return build_gns(np.diag([2 / 3, 1 / 3]).astype(complex))


@pytest.fixture
def ctx_rand():
    rng = generator(42)
    return build_gns(random_faithful_density(rng, 3))


E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = E12.T.copy()


class TestBuildGns:
    def test_tracial_case(self):
        ctx = build_gns(np.eye(2) / 2)
        assert np.allclose(ctx.eigvals, [0.5, 0.5])
        assert np.allclose(ctx.omega.mat, np.eye(2) / np.sqrt(2))
        xi = ctx.vector(E12)
        assert np.allclose(apply_delta_power(ctx, 1.0, xi).mat, xi.mat)

    def test_delta_on_matrix_units(self, ctx_diag):
        assert np.allclose(apply_delta_power(ctx_diag, 1.0, ctx_diag.vector(E12)).mat, 2 * E12)
        assert np.allclose(apply_delta_power(ctx_diag, 1.0, ctx_diag.vector(E21)).mat, 0.5 * E21)

    def test_non_faithful_rejected(self):
        with pytest.raises(FaithfulnessError) as err:
            build_gns(np.diag([1.0, 0.0]))
        assert "eigenvalue" in str(err.value)

    def test_state_reproduced(self, ctx_rand):
        rng = generator(1)
        for _ in range(50):
            a = complex_gaussian(rng, 3, 3)
            expected = np.trace(ctx_rand.rho @ a)
            # omega(a) computed in the representation, (Omega, pi(a) Omega)
            assert abs(inner(ctx_rand.omega, ctx_rand.vector_for_operator(a)) - expected) <= 1e-10

    def test_omega_fixed_by_conjugations(self, ctx_rand):
        omega = ctx_rand.omega
        assert np.max(np.abs(apply_j(ctx_rand, omega).mat - omega.mat)) <= 1e-10
        assert np.max(np.abs(apply_jm(ctx_rand, omega).mat - omega.mat)) <= 1e-10
        assert np.max(np.abs(apply_u(ctx_rand, omega).mat - omega.mat)) <= 1e-10


class TestDeltaPower:
    def test_zero_power_is_identity(self, ctx_rand):
        xi = ctx_rand.vector(complex_gaussian(generator(2), 3, 3))
        assert apply_delta_power(ctx_rand, 0.0, xi) is xi

    def test_half_power_diag(self, ctx_diag):
        out = apply_delta_power(ctx_diag, 0.5, ctx_diag.vector(E12))
        assert np.allclose(out.mat, np.sqrt(2) * E12)

    def test_inverse_composition(self, ctx_rand):
        rng = generator(3)
        xi = ctx_rand.vector(complex_gaussian(rng, 3, 3))
        back = apply_delta_power(ctx_rand, -0.25, apply_delta_power(ctx_rand, 0.25, xi))
        assert np.max(np.abs(back.mat - xi.mat)) <= 1e-10

    def test_omega_invariant(self, ctx_rand):
        out = apply_delta_power(ctx_rand, 0.25, ctx_rand.omega)
        assert np.max(np.abs(out.mat - ctx_rand.omega.mat)) <= 1e-12

    def test_overflow_reported(self):
        ctx = build_gns(np.diag([1 - 1e-12, 1e-12]))
        with pytest.raises(ConditioningError):
            apply_delta_power(ctx, 30.0, ctx.vector(E12))

    def test_context_mismatch(self, ctx_diag, ctx_rand):
        with pytest.raises(ContractError):
            apply_delta_power(ctx_rand, 0.5, ctx_diag.vector(E12))


class TestConjugations:
    def test_jm_fixes_omega(self, ctx_diag):
        out = apply_jm(ctx_diag, ctx_diag.omega)
        assert np.allclose(out.mat, ctx_diag.omega.mat)

    def test_j_antilinear(self, ctx_rand):
        c = 0.3 - 1.7j
        lhs = apply_j(ctx_rand, ctx_rand.vector(c * ctx_rand.omega.mat))
        assert np.max(np.abs(lhs.mat - np.conj(c) * ctx_rand.omega.mat)) <= 1e-10

    def test_jm_matches_definition(self, ctx_diag):
        # J_m(a Omega) = rho^{1/2} a^dagger, evaluated directly
        xi = ctx_diag.vector_for_operator(E12)
        out = apply_jm(ctx_diag, xi)
        expected = ctx_diag.sqrt_rho @ E12.conj().T
        assert np.max(np.abs(out.mat - expected)) <= 1e-12
        assert np.allclose(out.mat, np.sqrt(1 / 3) * E21)

    def test_involutions(self, ctx_rand):
        rng = generator(4)
        for _ in range(10):
            xi = ctx_rand.vector(complex_gaussian(rng, 3, 3))
            assert np.max(np.abs(apply_j(ctx_rand, apply_j(ctx_rand, xi)).mat - xi.mat)) <= 1e-10
            assert np.max(np.abs(apply_jm(ctx_rand, apply_jm(ctx_rand, xi)).mat - xi.mat)) <= 1e-10
            assert np.array_equal(apply_u(ctx_rand, apply_u(ctx_rand, xi)).mat.shape, xi.mat.shape)


class TestFlipUnitary:
    def test_matrix_unit_flip(self, ctx_diag):
        out = apply_u(ctx_diag, ctx_diag.vector(E12))
        assert np.allclose(out.mat, E21)

    def test_self_adjoint(self, ctx_rand):
        rng = generator(5)
        for _ in range(20):
            xi = ctx_rand.vector(complex_gaussian(rng, 3, 3))
            eta = ctx_rand.vector(complex_gaussian(rng, 3, 3))
            assert abs(inner(xi, apply_u(ctx_rand, eta)) - inner(apply_u(ctx_rand, xi), eta)) <= 1e-10

    def test_u_delta_commutation(self, ctx_rand):
        rng = generator(6)
        for beta in (0.25, 0.5, 1.0):
            xi = ctx_rand.vector(complex_gaussian(rng, 3, 3))
            lhs = apply_u(ctx_rand, apply_delta_power(ctx_rand, beta, xi))
            rhs = apply_delta_power(ctx_rand, -beta, apply_u(ctx_rand, xi))
            assert np.max(np.abs(lhs.mat - rhs.mat)) <= 1e-10


class TestTransposition:
    def test_identity(self, ctx_rand):
        assert np.allclose(transpose_operator(ctx_rand, np.eye(3)), np.eye(3), atol=1e-12)

    def test_eigenbasis_equals_canonical_for_diagonal_rho(self, ctx_diag):
        assert np.allclose(transpose_operator(ctx_diag, E12), E21, atol=1e-12)

    def test_spectrum_preserved(self, ctx_rand):
        rng = generator(7)
        for _ in range(50):
            a = complex_gaussian(rng, 3, 3)
            a = a + a.conj().T
            ta = transpose_operator(ctx_rand, a)
            assert np.allclose(np.linalg.eigvalsh(a), np.linalg.eigvalsh((ta + ta.conj().T) / 2), atol=1e-9)

    def test_composition_reverses(self, ctx_rand):
        rng = generator(8)
        a, b = complex_gaussian(rng, 3, 3), complex_gaussian(rng, 3, 3)
        lhs = transpose_operator(ctx_rand, a @ b)
        rhs = transpose_operator(ctx_rand, b) @ transpose_operator(ctx_rand, a)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestTau:
    def test_omega_fixed(self, ctx_rand):
        out = apply_tau(ctx_rand, ctx_rand.omega)
        assert np.max(np.abs(out.mat - ctx_rand.omega.mat)) <= 1e-10

    def test_diag_example_cross_checked(self, ctx_diag):
        xi = ctx_diag.vector_for_operator(E12)
        via_transpose = apply_tau(ctx_diag, xi)
        via_polar = apply_u(ctx_diag, apply_delta_power(ctx_diag, 0.5, xi))
        assert np.allclose(via_transpose.mat, E21 @ ctx_diag.sqrt_rho)
        assert np.max(np.abs(via_transpose.mat - via_polar.mat)) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_polar_decomposition_batch(self, dim):
        rng = generator(100 + dim)
        ctx = build_gns(random_faithful_density(rng, dim))
        worst = 0.0
        for _ in range(200):
            a = complex_gaussian(rng, dim, dim)
            a /= np.linalg.norm(a)
            xi = ctx.vector_for_operator(a)
            gap = np.max(np.abs(apply_tau(ctx, xi).mat
                                - apply_u(ctx, apply_delta_power(ctx, 0.5, xi)).mat))
            worst = max(worst, float(gap))
        assert worst <= 1e-10

    def test_operator_form_j_a_star_j(self, ctx_rand):
        rng = generator(9)
        for _ in range(50):
            a = complex_gaussian(rng, 3, 3)
            a /= np.linalg.norm(a)
            xi = ctx_rand.vector(complex_gaussian(rng, 3, 3))
            lhs = transpose_operator(ctx_rand, a) @ xi.mat
            rhs = apply_j(ctx_rand, ctx_rand.vector(a.conj().T @ apply_j(ctx_rand, xi).mat)).mat
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestIdentitySuite:
    def test_tracial_context_trivial(self):
        report = verify_modular_identities(build_gns(np.eye(2) / 2), samples=30, seed=0)
        assert report["max_residual"] <= 1e-12

    def test_diag_context(self, ctx_diag):
        report = verify_modular_identities(ctx_diag, samples=100, seed=1)
        assert report["passed"]
        assert report["max_residual"] <= 1e-10

    def test_negative_control_detects_wrong_commutant(self, ctx_diag):
        # alpha replaced by the identity map: plain left multiplications do
        # not commute, so the residual must be visibly large
        rng = generator(10)
        worst = 0.0
        for _ in range(10):
            a = complex_gaussian(rng, 2, 2)
            b = complex_gaussian(rng, 2, 2)
            a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
            xi = ctx_diag.vector(complex_gaussian(rng, 2, 2))
            lhs = a @ (b @ xi.mat)
            rhs = b @ (a @ xi.mat)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst > 0.1

    def test_requires_samples(self, ctx_diag):
        with pytest.raises(ContractError):
            verify_modular_identities(ctx_diag, samples=0)


# --- stacked identity suite against per-sample reference loops ---------------

def ref_delta(ctx, beta, m):
    """Delta^beta on one matrix, in numpy alone."""
    coords = ctx.eigvecs.conj().T @ m @ ctx.eigvecs * np.exp(beta * ctx.log_ratio)
    return ctx.eigvecs @ coords @ ctx.eigvecs.conj().T


def ref_u(ctx, m):
    return ctx.kernel @ m.T @ ctx.kernel.conj().T


def ref_j(ctx, m):
    return ctx.kernel @ m.conj() @ ctx.kernel.conj().T


def ref_gaussian(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def ref_inner(x, y):
    """Tr x^dagger y = sum_ij conj(x_ij) y_ij, as one contraction."""
    return complex(np.einsum("ij,ij->", x.conj(), y))


def reference_identities(ctx, samples, seed):
    """verify_modular_identities as a numpy loop over one sample at a time."""
    rng = generator(seed)
    res = dict.fromkeys(("u_squared", "u_selfadjoint", "j_eq_u_jm", "commute_j_jm", "commute_j_u",
                         "commute_jm_u", "delta_half_j", "u_delta_flip", "commutant"), 0.0)

    def bump(key, x, y):
        res[key] = max(res[key], float(np.max(np.abs(x - y))))

    vecs = []
    for _ in range(samples):
        g = ref_gaussian(rng, ctx.dim)
        vecs.append(g / np.linalg.norm(g))
    for xi in vecs:
        u_xi = ref_u(ctx, xi)
        bump("u_squared", ref_u(ctx, u_xi), xi)
        bump("j_eq_u_jm", ref_j(ctx, xi), ref_u(ctx, xi.conj().T))
        bump("commute_j_jm", ref_j(ctx, xi.conj().T), ref_j(ctx, xi).conj().T)
        bump("commute_j_u", ref_j(ctx, u_xi), ref_u(ctx, ref_j(ctx, xi)))
        bump("commute_jm_u", u_xi.conj().T, ref_u(ctx, xi.conj().T))
        bump("delta_half_j", ref_j(ctx, ref_delta(ctx, 0.5, xi)), ref_delta(ctx, 0.5, ref_j(ctx, xi)))
        bump("u_delta_flip", ref_u(ctx, ref_delta(ctx, 1.0, xi)), ref_delta(ctx, -1.0, u_xi))
    for xi, eta in zip(vecs, vecs[1:] + vecs[:1]):
        skew = ref_inner(xi, ref_u(ctx, eta)) - ref_inner(ref_u(ctx, xi), eta)
        res["u_selfadjoint"] = max(res["u_selfadjoint"], abs(skew))
    for xi in vecs:
        a = ref_gaussian(rng, ctx.dim)
        b = ref_gaussian(rng, ctx.dim)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        bump("commutant", ref_u(ctx, a @ ref_u(ctx, b @ xi)), b @ ref_u(ctx, a @ ref_u(ctx, xi)))
    res["max_residual"] = max(res.values())
    res["condition_warning"] = ctx.eigvals[-1] / ctx.eigvals[0] < gns.CONDITION_RATIO_WARN
    res["passed"] = res["max_residual"] <= 1e-10
    return res


def reference_gns_verify_checks(ctx, samples, seed):
    """The polar-decomposition and transpose-via-J checks of ``gns-verify``,
    one sample at a time."""
    rng = generator(seed, stream=1)
    polar = transp = 0.0
    for _ in range(samples):
        a = ref_gaussian(rng, ctx.dim)
        a /= np.linalg.norm(a)
        xi = a @ ctx.sqrt_rho
        tau = ref_u(ctx, xi @ ctx.inv_sqrt_rho) @ ctx.sqrt_rho
        polar = max(polar, float(np.max(np.abs(tau - ref_u(ctx, ref_delta(ctx, 0.5, xi))))))
        zeta = ref_gaussian(rng, ctx.dim)
        lhs = ref_u(ctx, a) @ zeta
        rhs = ref_j(ctx, a.conj().T @ ref_j(ctx, zeta))
        transp = max(transp, float(np.max(np.abs(lhs - rhs))))
    return polar, transp


class TestStackedIdentitySuite:
    @pytest.mark.parametrize("dim", range(2, 10))
    def test_equals_reference_loop(self, dim):
        for k in range(5):
            ctx = build_gns(random_faithful_density(generator(120 + 10 * dim + k), dim))
            assert verify_modular_identities(ctx, samples=30, seed=k) == reference_identities(ctx, 30, k)

    def test_degenerate_state(self):
        ctx = build_gns(np.eye(2) / 2)
        for samples in (1, 2, 30):
            assert verify_modular_identities(ctx, samples=samples, seed=3) == \
                reference_identities(ctx, samples, 3)

    @pytest.mark.parametrize("dim", [2, 3, 5, 9])
    def test_cli_checks_equal_reference_loop(self, dim):
        for seed in range(6):
            cfg = RunConfig(command="gns-verify", seed=seed, dims=dim, samples=25)
            results, _ = run_gns_verify(cfg)
            ctx = build_gns(random_faithful_density(generator(seed), dim))
            polar, transp = reference_gns_verify_checks(ctx, 25, seed)
            assert results["residuals"]["polar_decomposition"] == polar
            assert results["residuals"]["operator_transpose_via_j"] == transp

    def test_cli_peak_is_a_few_stacks(self):
        # each residual is reduced as soon as its pair exists: 512 samples of 32 x 32 peak near
        # 7 stacks of 8 MB (tracemalloc sees numpy's buffers)
        samples, dim = 512, 32
        cfg = RunConfig(command="gns-verify", seed=0, dims=dim, samples=samples)
        tracemalloc.start()
        try:
            run_gns_verify(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * samples * dim * dim * np.dtype(complex).itemsize
