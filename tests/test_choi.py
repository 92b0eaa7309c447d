import numpy as np
import pytest

from modular_ppt.choi import (
    DecomposableWitness,
    MapTable,
    apply_map,
    choi_from_map,
    dual_pairing_test,
    hierarchy_report,
    identity_map_table,
    lemma_fi_functional,
    map_from_choi,
    random_decomposable,
    stormer_block_test,
    transposition_map_table,
)
from modular_ppt.errors import ContractError, ShapeError
from modular_ppt.linalg import BipartiteShape, hermitize
from modular_ppt.optim import PptSetSpec, min_trace_over_ppt, sample_ppt_density
from modular_ppt.rand import complex_gaussian, generator, random_psd, random_unit_vector


class TestChoiCorrespondence:
    def test_identity_choi_blocks(self, shape22):
        t = map_from_choi(np.eye(4, dtype=complex), shape22)
        assert np.allclose(t.blocks[0, 0], np.eye(2))
        assert np.allclose(t.blocks[1, 1], np.eye(2))
        assert np.allclose(t.blocks[0, 1], 0)

    def test_swap_gives_transposition(self, swap22, shape22, rng):
        t = map_from_choi(swap22, shape22)
        a = complex_gaussian(rng, 2, 2)
        assert np.allclose(apply_map(t, a), a.T)

    def test_round_trips_bit_exact(self, rng, shape22):
        h = hermitize(complex_gaussian(rng, 4, 4))
        t = map_from_choi(h, shape22)
        assert np.array_equal(choi_from_map(t), h)
        t2 = map_from_choi(choi_from_map(t), shape22)
        assert np.array_equal(t2.blocks, t.blocks)

    def test_identity_map_choi_is_rank_one(self):
        h = choi_from_map(identity_map_table(2))
        eigs = np.linalg.eigvalsh(hermitize(h))
        assert np.allclose(eigs, [0, 0, 0, 2], atol=1e-12)

    def test_transposition_choi_is_swap(self, swap22):
        h = choi_from_map(transposition_map_table(2))
        assert np.array_equal(h, swap22)
        assert np.allclose(np.linalg.eigvalsh(hermitize(h)), [-1, 1, 1, 1], atol=1e-12)

    def test_zero_map(self, shape22):
        t = MapTable(2, 2, np.zeros((2, 2, 2, 2), dtype=complex))
        assert np.array_equal(choi_from_map(t), np.zeros((4, 4)))

    def test_apply_map_orthogonality(self, shape22):
        t = map_from_choi(np.eye(4, dtype=complex), shape22)
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.allclose(apply_map(t, e12), 0)

    def test_apply_map_linear(self, rng, shape22):
        t = map_from_choi(hermitize(complex_gaussian(rng, 4, 4)), shape22)
        a, b = complex_gaussian(rng, 2, 2), complex_gaussian(rng, 2, 2)
        lhs = apply_map(t, 1.5 * a - 0.5j * b)
        rhs = 1.5 * apply_map(t, a) - 0.5j * apply_map(t, b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_hermiticity_inheritance(self, rng, shape22):
        for _ in range(100):
            h = hermitize(complex_gaussian(rng, 4, 4))
            t = map_from_choi(h, shape22)
            for i in range(2):
                for j in range(2):
                    assert np.max(np.abs(t.blocks[j, i] - t.blocks[i, j].conj().T)) <= 1e-12
        g = complex_gaussian(rng, 4, 4)  # generically non-Hermitian
        t = map_from_choi(g, shape22)
        assert np.max(np.abs(t.blocks[1, 0] - t.blocks[0, 1].conj().T)) > 1e-6

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            map_from_choi(np.eye(5), BipartiteShape(2, 2))


class TestDecomposable:
    def test_seed_reproducibility(self, shape22):
        w1 = random_decomposable(shape22, seed=9)
        w2 = random_decomposable(shape22, seed=9)
        assert np.array_equal(w1.h, w2.h)

    def test_cp_case_has_psd_choi(self, rng, shape22):
        h1 = random_psd(rng, 4)
        w = DecomposableWitness(h1=h1, h2=np.zeros((4, 4), dtype=complex), shape=shape22)
        assert np.linalg.eigvalsh(hermitize(w.h))[0] >= -1e-12

    def test_co_cp_case_choi_not_psd(self, phi_plus, shape22):
        w = DecomposableWitness(h1=np.zeros((4, 4), dtype=complex), h2=2 * phi_plus, shape=shape22)
        eigs = np.linalg.eigvalsh(hermitize(w.h))
        assert eigs[0] < -1e-3  # partial transpose of the entangled projector

    def test_identity_pairing(self, shape22):
        report = dual_pairing_test(np.eye(4), shape22, samples=30, seed=1)
        assert report["min_pairing"] == pytest.approx(1.0, abs=1e-8)

    def test_swap_pairing_reaches_zero(self, swap22, shape22):
        report = dual_pairing_test(swap22, shape22, samples=40, seed=2, optimizer=True,
                                   opt_iters=600, opt_restarts=3)
        assert report["min_pairing"] >= -1e-8
        assert report["optimizer_value"] == pytest.approx(0.0, abs=1e-4)
        assert report["optimizer_lower_bound"] <= 0.0 <= report["optimizer_value"] + 1e-12
        assert report["optimizer_gap"] <= 1e-6
        assert "optimizer_spread" not in report
        # attained by the product state |01><01|
        d = np.zeros((4, 4), dtype=complex)
        d[1, 1] = 1.0
        assert np.trace(d @ swap22).real == pytest.approx(0.0, abs=1e-12)

    def test_decomposable_forward_direction(self, shape22):
        for seed in range(5):
            w = random_decomposable(shape22, seed=seed)
            report = dual_pairing_test(w.h, shape22, samples=60, seed=seed)
            assert report["min_pairing"] >= -1e-8

    def test_decomposable_forward_direction_dense_sampling(self, shape22):
        w = random_decomposable(shape22, seed=77)
        report = dual_pairing_test(w.h, shape22, samples=500, seed=78, optimizer=True,
                                   opt_iters=200, opt_restarts=2)
        assert report["min_pairing"] >= -1e-8
        # the certified lower bound shows the pairing is nonnegative on every PPT state
        assert report["optimizer_lower_bound"] >= -1e-6

    def test_non_psd_parts_rejected(self, shape22):
        with pytest.raises(ContractError):
            DecomposableWitness(h1=np.diag([1.0, -1.0, 0.0, 0.0]),
                                h2=np.zeros((4, 4)), shape=shape22)


class TestChoiMap:
    """The Choi map is positive but not decomposable: a PPT state pairs
    negatively with its operator, at the minimum 1 - 2/sqrt(3)."""

    def test_certified_bracket(self, choi_map):
        value, minimizer, trace = min_trace_over_ppt(choi_map, PptSetSpec(BipartiteShape(3, 3)),
                                                     iters=300, restarts=2)
        assert trace.gap <= 1e-6 and value < 0
        assert trace.lower_bound <= -0.15470053838 <= value
        assert np.trace(minimizer @ choi_map).real < 0

    def test_pairing_report_shows_indecomposability(self, choi_map):
        report = dual_pairing_test(choi_map, BipartiteShape(3, 3), samples=20, seed=3, optimizer=True)
        assert report["optimizer_value"] < 0 and report["min_pairing"] == report["optimizer_value"]
        assert report["optimizer_lower_bound"] <= -0.15470053838


class TestStormerBlock:
    def test_identity_map(self, shape22):
        report = stormer_block_test(identity_map_table(2), k=2, samples=20, seed=3)
        assert report["min_output_eigenvalue"] >= -1e-9

    def test_transposition_map(self):
        report = stormer_block_test(transposition_map_table(2), k=2, samples=20, seed=4)
        assert report["min_output_eigenvalue"] >= -1e-8

    def test_decomposable_witness_maps(self, shape22):
        for seed in range(3):
            w = random_decomposable(shape22, seed=seed)
            t = map_from_choi(w.h, shape22)
            for k in (2, 3):
                report = stormer_block_test(t, k=k, samples=25, seed=seed + 5)
                assert report["passed"], report


class TestLemmaFi:
    def test_scalar_case(self):
        a = np.array([[1.0]])
        psi, report = lemma_fi_functional(a, k=1, n=1, xs=[np.array([1.0, 0.0])],
                                          hs=[np.array([1.0])], check_samples=50, seed=6)
        assert report["passed"]

    def test_identity_input(self, rng):
        xs = [random_unit_vector(rng, 2) for _ in range(2)]
        hs = [random_unit_vector(rng, 2) for _ in range(2)]
        psi, report = lemma_fi_functional(np.eye(4) / 4, k=2, n=2, xs=xs, hs=hs,
                                          check_samples=100, seed=7)
        assert report["passed"]
        assert report["kernel_herm_defect"] <= 1e-12

    def test_ppt_random_inputs(self):
        rng = generator(300)
        spec = PptSetSpec(BipartiteShape(2, 2))
        for _ in range(10):
            a = sample_ppt_density(rng, spec)
            xs = [random_unit_vector(rng, 2) for _ in range(2)]
            hs = [random_unit_vector(rng, 2) for _ in range(2)]
            psi, report = lemma_fi_functional(a, k=2, n=2, xs=xs, hs=hs,
                                              check_samples=100, seed=8)
            assert report["min_functional_value"] >= -1e-9
            assert report["min_functional_value_after_transpose"] >= -1e-9

    def test_npt_input_rejected(self, singlet):
        xs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        hs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        with pytest.raises(ContractError):
            lemma_fi_functional(singlet, k=2, n=2, xs=xs, hs=hs)

    def test_kernel_represents_functional(self, rng):
        # spot check: Tr(Psi C) recomputed from the defining double sum
        spec = PptSetSpec(BipartiteShape(2, 2))
        gen = generator(301)
        a = sample_ppt_density(gen, spec)
        xs = [random_unit_vector(gen, 3) for _ in range(2)]
        hs = [random_unit_vector(gen, 2) for _ in range(2)]
        psi, _ = lemma_fi_functional(a, k=2, n=2, xs=xs, hs=hs, check_samples=10, seed=9)
        c = complex_gaussian(gen, 6, 6)
        a4 = a.reshape(2, 2, 2, 2)
        c4 = c.reshape(2, 3, 2, 3)
        direct = 0.0
        for i in range(2):
            for j in range(2):
                for p in range(2):
                    for r in range(2):
                        w = np.einsum("s,st,t->", hs[i].conj(), a4[:, p, :, r], hs[j])
                        inner = np.einsum("u,uv,v->", xs[i].conj(), c4[p, :, r, :], xs[j])
                        direct += w * inner
        assert abs(np.trace(psi @ c) - direct) <= 1e-10


class TestHierarchy:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
    def test_all_items(self, dims):
        report = hierarchy_report(BipartiteShape(*dims), seed=10, separable_samples=100)
        assert report["passed"]
        assert report["transposition_choi_min_eig"] == pytest.approx(-1.0, abs=1e-10)
        assert report["separable_min_gamma_eig"] >= -1e-10
        assert report["singlet_gamma_min_eig"] == pytest.approx(-0.5, abs=1e-10)
