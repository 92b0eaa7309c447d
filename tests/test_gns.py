import numpy as np
import pytest

from modular_ppt import gns
from modular_ppt.errors import ConditioningError, ContractError, FaithfulnessError
from modular_ppt.gns import (
    apply_delta_power,
    apply_j,
    apply_jm,
    apply_tau,
    apply_u,
    build_gns,
    inner,
    state_value,
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
            assert abs(state_value(ctx_rand, a) - expected) <= 1e-10

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
