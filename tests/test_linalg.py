import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modular_ppt import choi, cones, linalg, optim
from modular_ppt.errors import ContractError, DimensionLimitError, ShapeError
from modular_ppt.linalg import (
    BipartiteShape,
    herm_eig,
    hermitize,
    kron,
    mat_sqrt_psd,
    partial_trace,
    partial_transpose,
)
from modular_ppt.gns import build_gns
from modular_ppt.optim import PptSetSpec
from modular_ppt.rand import complex_gaussian, generator, random_faithful_density, random_psd


def unit(i, j, n):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_matrix_units(self):
        out = kron(unit(0, 0, 2), unit(1, 1, 2))
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0
        assert np.array_equal(out, expected)

    def test_diagonal_expansion(self):
        # worked by hand: (1,2) x (3,4) -> (3,4,6,8)
        out = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_DIM", 8)
        with pytest.raises(DimensionLimitError):
            kron(np.eye(3), np.eye(3))

    def test_dimension_cap_in_ppt_set(self, monkeypatch):
        monkeypatch.setattr(optim, "MAX_DIM", 8)
        with pytest.raises(DimensionLimitError):
            PptSetSpec(BipartiteShape(3, 3))
        assert PptSetSpec(BipartiteShape(2, 4)).shape.dim == 8

    def test_mixed_product_random(self, rng):
        for _ in range(20):
            a, b = complex_gaussian(rng, 2, 3), complex_gaussian(rng, 3, 2)
            c, d = complex_gaussian(rng, 3, 2), complex_gaussian(rng, 2, 3)
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_rejects_nan(self):
        with pytest.raises(ContractError):
            kron(np.array([[np.nan, 0], [0, 1]]), np.eye(2))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
def test_kron_matrix_unit_bookkeeping(i, j, k, l):
    out = kron(unit(i, j, 2), unit(k, l, 2))
    expected = np.zeros((4, 4), dtype=complex)
    expected[i * 2 + k, j * 2 + l] = 1.0
    assert np.array_equal(out, expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4))
def test_partial_transpose_spectrum_invariant(da, db):
    rng = generator(da * 10 + db)
    m = hermitize(complex_gaussian(rng, da * db, da * db))
    shape = BipartiteShape(da, db)
    eigs_b = np.linalg.eigvalsh(hermitize(partial_transpose(m, shape, "B")))
    eigs_a = np.linalg.eigvalsh(hermitize(partial_transpose(m, shape, "A")))
    # transposing either factor gives the same spectrum (full transpose of each other)
    assert np.allclose(eigs_a, eigs_b, atol=1e-10)


class TestPartialTranspose:
    def test_matrix_unit_action(self, shape22):
        m = kron(unit(0, 1, 2), unit(0, 1, 2))
        out = partial_transpose(m, shape22, "B")
        assert np.array_equal(out, kron(unit(0, 1, 2), unit(1, 0, 2)))

    def test_phi_plus_spectrum(self, phi_plus, shape22):
        # 4x4 eigendecomposition done by brute force once: {-1/2, 1/2, 1/2, 1/2}
        out = partial_transpose(phi_plus, shape22, "B")
        eigs = np.sort(np.linalg.eigvalsh(hermitize(out)))
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_product_state_stays_psd(self, rng, shape22):
        d = kron(random_psd(rng, 2), random_psd(rng, 2))
        out = partial_transpose(d, shape22, "B")
        assert np.linalg.eigvalsh(hermitize(out))[0] >= -linalg.TOL_PSD

    def test_involution_exact(self, rng, shape22):
        m = complex_gaussian(rng, 4, 4)
        assert np.array_equal(partial_transpose(partial_transpose(m, shape22, "B"), shape22, "B"), m)
        assert np.array_equal(partial_transpose(partial_transpose(m, shape22, "A"), shape22, "A"), m)

    def test_trace_and_hermiticity_preserved(self, rng, shape22):
        m = hermitize(complex_gaussian(rng, 4, 4))
        out = partial_transpose(m, shape22, "B")
        assert np.trace(out) == np.trace(m)
        assert linalg.herm_defect(out) <= 1e-10

    def test_subsystem_a_swaps_blocks(self, rng):
        shape = BipartiteShape(2, 3)
        m = complex_gaussian(rng, 6, 6)
        out = partial_transpose(m, shape, "A")
        assert np.array_equal(out[:3, 3:], m[3:, :3])

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            partial_transpose(np.eye(5), BipartiteShape(2, 2))


class TestPartialTrace:
    def test_product_factorization(self, rng):
        sa, sb = random_psd(rng, 2), random_psd(rng, 3)
        out = partial_trace(kron(sa, sb), BipartiteShape(2, 3), "A")
        assert np.allclose(out, sa * np.trace(sb))

    def test_phi_plus_marginal(self, phi_plus, shape22):
        out = partial_trace(phi_plus, shape22, "A")
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_identity(self, shape22):
        out = partial_trace(np.eye(4) / 4, shape22, "B")
        assert np.allclose(out, np.eye(2) / 2)

    def test_trace_preserved(self, rng, shape22):
        m = complex_gaussian(rng, 4, 4)
        assert abs(np.trace(partial_trace(m, shape22, "B")) - np.trace(m)) <= 1e-12


class TestHermEig:
    def test_identity_gives_canonical_basis(self):
        vals, vecs = herm_eig(np.eye(3))
        assert np.allclose(vals, [1, 1, 1])
        assert np.allclose(vecs, np.eye(3), atol=1e-12)

    def test_diagonal_permutation(self):
        vals, vecs = herm_eig(np.diag([1.0, 3.0, 2.0]))
        assert np.allclose(vals, [3, 2, 1])
        assert np.allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]], atol=1e-12)
        # phase convention: the pivot entries are +1
        assert vecs[1, 0] == pytest.approx(1.0)

    def test_pauli_x_closed_form(self):
        vals, vecs = herm_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(vals, [1, -1])
        assert np.allclose(vecs[:, 0], np.array([1, 1]) / np.sqrt(2))
        assert np.allclose(vecs[:, 1], np.array([1, -1]) / np.sqrt(2))

    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_reconstruction(self, rng, dim):
        m = hermitize(complex_gaussian(rng, dim, dim))
        vals, vecs = herm_eig(m)
        recon = (vecs * vals) @ vecs.conj().T
        assert np.max(np.abs(m - recon)) <= 1e-9

    def test_degenerate_cluster_respans(self, rng):
        # two-fold degeneracy: the eigenspace basis must come from canonical seeds
        m = np.diag([2.0, 1.0, 1.0])
        vals, vecs = herm_eig(m)
        assert np.allclose(vecs, np.eye(3), atol=1e-12)

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(ContractError):
            herm_eig(complex_gaussian(rng, 3, 3))

    @pytest.mark.parametrize("aligned", [False, True], ids=["generic", "coordinate"])
    def test_cluster_basis_always_spans_the_cluster(self, aligned):
        # the Gram-Schmidt over the columns of V V^dagger never ends short of k vectors;
        # coordinate-aligned clusters make most of those columns exactly zero
        rng = generator(90 + aligned)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            k = int(rng.integers(1, n + 1))
            mix = np.linalg.qr(complex_gaussian(rng, k, k))[0]
            if aligned:
                v = np.eye(n)[:, rng.permutation(n)[:k]] @ mix
            else:
                v = np.linalg.qr(complex_gaussian(rng, n, k))[0]
            q = linalg._canonical_cluster_basis(v)
            assert q.shape == (n, k)
            assert np.linalg.norm(q.conj().T @ q - np.eye(k)) <= 1e-12
            assert np.linalg.norm(q @ q.conj().T - v @ v.conj().T) <= 1e-12


class TestMatSqrtPsd:
    def test_identity(self):
        assert np.allclose(mat_sqrt_psd(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(mat_sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_multiply_back_rank2(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v, w = v / np.linalg.norm(v), w / np.linalg.norm(w)
        m = 0.5 * np.outer(v, v.conj()) + 0.5 * np.outer(w, w.conj())
        root = mat_sqrt_psd(m)
        assert np.max(np.abs(root @ root - m)) <= 1e-9
        assert np.max(np.abs(root @ m - m @ root)) <= 1e-9

    def test_rejects_negative(self):
        with pytest.raises(ContractError):
            mat_sqrt_psd(np.diag([1.0, -1.0]))


class TestRequireCount:
    @pytest.mark.parametrize("samples", [0, -1])
    @pytest.mark.parametrize("check", ["duality_check", "u_maps_cones", "stormer_block_test",
                                       "lemma_fi_functional"])
    def test_sampled_check_rejects_no_samples(self, check, samples):
        # with no sample these checks would report a minimum over nothing, +inf, as a pass
        ctx = build_gns(random_faithful_density(generator(5), 3))
        units = [[1.0, 0.0], [0.0, 1.0]]
        calls = {
            "duality_check": lambda: cones.duality_check(ctx, 0.25, samples=samples),
            "u_maps_cones": lambda: cones.u_maps_cones(ctx, 0.25, samples=samples),
            "stormer_block_test": lambda: choi.stormer_block_test(choi.identity_map_table(2), samples=samples),
            "lemma_fi_functional": lambda: choi.lemma_fi_functional(np.eye(4) / 4, 2, 2, units, units,
                                                                    check_samples=samples),
        }
        with pytest.raises(ContractError, match=f"samples must be >= 1, got {samples}"):
            calls[check]()
