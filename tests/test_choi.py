import numpy as np
import pytest

from modular_ppt.choi import (
    VERDICT_TOL,
    DecomposableWitness,
    MapTable,
    apply_map,
    choi_from_map,
    dual_pairing_test,
    generalized_choi_map,
    hierarchy_report,
    identity_map_table,
    lemma_fi_functional,
    map_from_choi,
    random_decomposable,
    stormer_block_test,
    transposition_map_table,
)
from modular_ppt.errors import ContractError, ShapeError
from modular_ppt import choi, optim
from modular_ppt.linalg import BipartiteShape, hermitize, partial_transpose
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
        report = dual_pairing_test(np.eye(4), shape22)
        assert report["min_pairing"] == pytest.approx(1.0, abs=1e-8)

    def test_swap_pairing_reaches_zero(self, monkeypatch, swap22, shape22):
        monkeypatch.setattr(choi, "OPT_ITERS", 600)
        report = dual_pairing_test(swap22, shape22)
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
            report = dual_pairing_test(w.h, shape22)
            assert report["min_pairing"] >= -1e-8

    def test_decomposable_forward_direction_dense_sampling(self, monkeypatch, shape22):
        w = random_decomposable(shape22, seed=77)
        report = dual_pairing_test(w.h, shape22)
        assert report["min_pairing"] >= -1e-8
        # the certified lower bound shows the pairing is nonnegative on every PPT state
        monkeypatch.setattr(choi, "OPT_ITERS", 200)
        report = dual_pairing_test(w.h, shape22)
        assert report["verdict"] == "decomposable"
        assert report["optimizer_lower_bound"] >= -1e-6

    def test_non_psd_parts_rejected(self, shape22):
        with pytest.raises(ContractError):
            DecomposableWitness(h1=np.diag([1.0, -1.0, 0.0, 0.0]),
                                h2=np.zeros((4, 4)), shape=shape22)


class TestPairingVerdicts:
    """dual_pairing_test decides from the certified bracket alone and hands
    back what certifies the verdict."""

    @staticmethod
    def assert_reproduces(report, h):
        assert report["verdict"] == "decomposable" and report["ppt_state"] is None
        witness = report["decomposition"]
        assert isinstance(witness, DecomposableWitness)  # h1 and h2 checked PSD on construction
        assert np.linalg.norm(witness.h - h) <= 1e-10 * np.linalg.norm(h)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_decomposition_round_trip(self, dims):
        shape = BipartiteShape(*dims)
        for seed in range(4):
            h = random_decomposable(shape, seed=seed).h
            self.assert_reproduces(dual_pairing_test(h, shape), h)

    def test_witness_accepts_a_bound_at_the_tolerance(self, shape22):
        # least eigenvalue -c just inside -VERDICT_TOL: the solver certifies s >= -VERDICT_TOL, and the
        # witness's own PSD check, a second rounding of the same eigenvalue, must accept the h1 it is given
        for seed in range(30):
            q = np.linalg.qr(complex_gaussian(generator(seed), 4, 4))[0]
            for k in range(40):
                c = VERDICT_TOL * (1 - k * 1e-7)
                h = hermitize(q @ (np.diag([0.0, 0.3, 0.6, 1.0]) - c * np.eye(4)) @ q.conj().T)
                report = dual_pairing_test(h, shape22)
                assert report["verdict"] == "decomposable"
                s = report["optimizer_lower_bound"]
                shift = report["decomposition"].h - h  # max(0, -s) I up to rounding
                assert np.max(np.abs(shift - max(0.0, -s) * np.eye(4))) <= 1e-14

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_solve_counts_its_eigensolves(self, dims, monkeypatch):
        # two eigh per iteration and per exact check, less the first check's X^Gamma = I/n (closed form),
        # and only the witness's two PSD checks besides
        shape = BipartiteShape(*dims)
        h = random_decomposable(shape, seed=1000).h
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            def counting(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        report = dual_pairing_test(h, shape)
        assert report["verdict"] == "decomposable"
        assert calls == {"eigh": 2 * (report["optimizer_iterations"] + report["optimizer_checks"]) - 1,
                         "eigvalsh": 2}

    def test_swap_decomposition_round_trip(self, swap22, shape22):
        self.assert_reproduces(dual_pairing_test(swap22, shape22), swap22)

    def test_swap_without_iterations_is_undecided(self, monkeypatch, swap22, shape22):
        monkeypatch.setattr(choi, "OPT_ITERS", 0)
        report = dual_pairing_test(swap22, shape22)
        assert report["verdict"] == "undecided"
        assert report["optimizer_value"] == pytest.approx(0.5, abs=1e-12)
        assert report["optimizer_lower_bound"] == pytest.approx(-1.0, abs=1e-12)
        assert report["decomposition"] is None and report["ppt_state"] is None

    def test_optimizer_route_draws_no_sample(self, monkeypatch, choi_map, shape22):
        def forbidden(*args, **kwargs):
            raise AssertionError("dual_pairing_test projected with Dykstra")
        monkeypatch.setattr(optim, "_dykstra", forbidden)
        h = random_decomposable(shape22, seed=5).h
        for op, shape in ((h, shape22), (choi_map, BipartiteShape(3, 3))):
            report = dual_pairing_test(op, shape, samples=200)
            assert "samples" not in report and "optimizer_used" not in report
            assert report["min_pairing"] == report["optimizer_value"]

    def test_sampling_route_is_refused(self, shape22):
        with pytest.raises(ContractError, match="no sampling route"):
            dual_pairing_test(np.eye(4), shape22, optimizer=False)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)], ids=["2x2", "2x3", "choi-map"])
    def test_benchmark_call_shape_matches_default(self, dims, choi_map):
        # the benchmark still passes samples=, seed= and optimizer=True; none changes the report
        shape = BipartiteShape(*dims)
        h = choi_map if dims == (3, 3) else random_decomposable(shape, seed=dims[1] + 10).h
        plain = dual_pairing_test(h, shape)
        assert plain["verdict"] == ("not_decomposable" if dims == (3, 3) else "decomposable")
        for seed in (0, 3):
            kept = dual_pairing_test(h, shape, samples=137, seed=seed, optimizer=True)
            assert kept.keys() == plain.keys()
            for key, value in plain.items():
                if isinstance(value, DecomposableWitness):
                    assert np.array_equal(kept[key].h1, value.h1) and np.array_equal(kept[key].h2, value.h2)
                else:
                    assert np.array_equal(kept[key], value), key


# (a, b, c) with a in [1, 3], b, c in [0, 2], a + b + c >= 3 and |bc - ((3 - a)/2)^2| >= 0.02,
# drawn with default_rng(1992) at two decimals, the first 20 of each closed-form class
CHO_KYE_LEE_DECOMPOSABLE = (
    (2.51, 0.63, 0.71), (2.56, 1.72, 0.42), (2.8, 1.85, 1.25), (2.01, 1.92, 1.2),
    (1.12, 1.34, 1.47), (1.58, 0.88, 1.86), (1.79, 0.72, 0.66), (1.86, 1.55, 0.44),
    (2.24, 1.84, 1.15), (1.92, 1.93, 1.8), (2.06, 0.81, 1.75), (1.65, 1.14, 0.98),
    (2.2, 1.24, 1.7), (2.58, 2.0, 1.59), (2.68, 0.44, 1.1), (2.24, 0.24, 1.58),
    (2.96, 0.19, 0.63), (1.19, 1.27, 1.8), (1.82, 0.59, 0.82), (1.51, 1.89, 0.62),
)
CHO_KYE_LEE_INDECOMPOSABLE = (
    (1.76, 0.14, 1.41), (2.25, 0.07, 1.67), (1.24, 1.99, 0.33), (1.73, 0.19, 1.11),
    (1.52, 1.55, 0.08), (1.94, 1.0, 0.24), (1.81, 0.79, 0.41), (1.45, 0.25, 1.7),
    (2.43, 0.54, 0.11), (1.19, 0.46, 1.53), (1.12, 0.24, 1.78), (1.51, 1.6, 0.33),
    (1.05, 0.39, 1.66), (1.4, 0.0, 1.67), (1.98, 0.03, 1.09), (2.07, 0.09, 1.84),
    (1.33, 1.73, 0.38), (1.66, 0.27, 1.09), (1.49, 1.9, 0.03), (1.12, 1.92, 0.09),
)


class TestGeneralizedChoiMaps:
    """Phi[a,b,c] (Cho, Kye & Lee 1992): decomposable iff a >= 3 or
    bc >= ((3 - a)/2)^2 on a in [1, 3]."""

    @pytest.mark.parametrize("abc", [(2, 0, 1), (1.3, 0.7, 2.1), (0.0, -1.0, 3.5)])
    def test_map_formula(self, abc, rng):
        a, b, c = abc
        x = complex_gaussian(rng, 3, 3)
        d = np.diag(x)
        expected = np.diag([a * d[0] + b * d[1] + c * d[2], c * d[0] + a * d[1] + b * d[2],
                            b * d[0] + c * d[1] + a * d[2]]) - x
        assert np.max(np.abs(apply_map(generalized_choi_map(a, b, c), x) - expected)) <= 1e-14

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(ContractError):
            generalized_choi_map(2.0, np.nan, 1.0)

    def test_pinned_triples_are_away_from_the_boundary(self):
        for triples, decomposable in ((CHO_KYE_LEE_DECOMPOSABLE, True), (CHO_KYE_LEE_INDECOMPOSABLE, False)):
            for a, b, c in triples:
                assert 1 <= a <= 3 and 0 <= b <= 2 and 0 <= c <= 2 and a + b + c >= 3
                boundary = ((3 - a) / 2) ** 2
                assert abs(b * c - boundary) >= 0.02
                assert (a >= 3 or b * c >= boundary) == decomposable

    def test_verdict_matches_closed_form(self):
        shape = BipartiteShape(3, 3)
        wrong = []
        for triples, expected in ((CHO_KYE_LEE_DECOMPOSABLE, "decomposable"),
                                  (CHO_KYE_LEE_INDECOMPOSABLE, "not_decomposable")):
            for abc in triples:
                report = dual_pairing_test(choi_from_map(generalized_choi_map(*abc)), shape)
                if report["verdict"] != expected:
                    wrong.append((abc, report["verdict"], report["optimizer_lower_bound"],
                                  report["optimizer_value"]))
        assert not wrong


class TestChoiMap:
    """The Choi map is positive but not decomposable: a PPT state pairs
    negatively with its operator, at the minimum 1 - 2/sqrt(3)."""

    def test_certified_bracket(self, choi_map):
        value, minimizer, trace = min_trace_over_ppt(choi_map, PptSetSpec(BipartiteShape(3, 3)), iters=300)
        assert trace.gap <= 1e-6 and value < 0 and trace.iterates <= 30
        assert trace.lower_bound <= -0.15470053838 <= value
        assert np.trace(minimizer @ choi_map).real < 0

    def test_verdict_hands_back_a_negative_ppt_state(self, choi_map):
        shape = BipartiteShape(3, 3)
        report = dual_pairing_test(choi_map, shape)
        assert report["verdict"] == "not_decomposable" and report["decomposition"] is None
        d = report["ppt_state"]
        assert np.linalg.eigvalsh(d)[0] >= -1e-12
        assert np.linalg.eigvalsh(hermitize(partial_transpose(d, shape)))[0] >= -1e-12
        assert np.trace(d).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(d @ choi_map).real < 0

    def test_pairing_report_shows_indecomposability(self, choi_map):
        report = dual_pairing_test(choi_map, BipartiteShape(3, 3))
        assert report["optimizer_value"] < 0 and report["min_pairing"] == report["optimizer_value"]
        assert report["optimizer_lower_bound"] <= -0.15470053838


class TestSignStop:
    """dual_pairing_test stops its solve at the first certified sign, and hierarchy_report keeps
    the gap-closing solve; each verdict is the full solve's, and each certificate holds."""

    @staticmethod
    def cases(choi_map):
        shape33 = BipartiteShape(3, 3)
        yield choi_map, shape33
        for abc in CHO_KYE_LEE_DECOMPOSABLE[:8] + CHO_KYE_LEE_INDECOMPOSABLE[:8]:
            yield choi_from_map(generalized_choi_map(*abc)), shape33
        for dims in ((2, 2), (2, 3), (3, 3)):
            for seed in range(1000, 1010):
                yield random_decomposable(BipartiteShape(*dims), seed=seed).h, BipartiteShape(*dims)

    def test_same_verdict_as_the_full_solve(self, choi_map):
        stopped_early = 0
        for h, shape in self.cases(choi_map):
            signed, full = dual_pairing_test(h, shape), choi._pairing_report(h, shape, None)
            assert signed["verdict"] == full["verdict"] != "undecided"
            assert signed["optimizer_iterations"] <= full["optimizer_iterations"]
            stopped_early += signed["optimizer_iterations"] < full["optimizer_iterations"]
        assert stopped_early > 0

    def test_certificates_hold(self, choi_map):
        verdicts = set()
        for h, shape in self.cases(choi_map):
            report = dual_pairing_test(h, shape)
            verdicts.add(report["verdict"])
            if report["verdict"] == "decomposable":
                witness = report["decomposition"]
                for part in (witness.h1, witness.h2):
                    assert np.linalg.eigvalsh(hermitize(part))[0] >= -1e-10
                assert np.max(np.abs(witness.h - h)) <= 1e-10
            else:
                assert report["verdict"] == "not_decomposable"
                d = report["ppt_state"]
                assert np.linalg.eigvalsh(d)[0] >= -1e-12
                assert np.linalg.eigvalsh(hermitize(partial_transpose(d, shape)))[0] >= -1e-12
                assert np.trace(d).real == pytest.approx(1.0, abs=1e-12)
                assert np.trace(d @ h).real < -choi.VERDICT_TOL
        assert verdicts == {"decomposable", "not_decomposable"}

    def test_report_counts_the_solver(self, choi_map):
        shape = BipartiteShape(3, 3)
        _, _, trace = min_trace_over_ppt(choi_map, PptSetSpec(shape), iters=choi.OPT_ITERS)
        full = choi._pairing_report(choi_map, shape, None)
        assert (full["optimizer_iterations"], full["optimizer_checks"]) == (trace.iterates, trace.checks)
        signed = dual_pairing_test(choi_map, shape)
        assert 1 <= signed["optimizer_checks"] <= trace.checks
        assert signed["optimizer_iterations"] < trace.iterates

    def test_hierarchy_keeps_the_full_bracket(self):
        report = hierarchy_report(BipartiteShape(2, 2), seed=0, separable_samples=20)
        assert not any(key.startswith("optimizer") for key in report)
        assert report["choi_map_lower_bound"] <= 1 - 2 / np.sqrt(3) <= report["choi_map_value"]
        assert report["choi_map_value"] - report["choi_map_lower_bound"] <= 1e-6


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


def reference_stormer_block_test(t, k, samples, seed):
    """stormer_block_test as a loop over one sampled state at a time."""
    rng = generator(seed)
    n, m = t.dim_in, t.dim_out
    in_spec = PptSetSpec(BipartiteShape(k, n), tol_feas=1e-9)
    min_eig = np.inf
    for _ in range(samples):
        a = sample_ppt_density(rng, in_spec)
        out = np.einsum("sirj,ijkl->skrl", a.reshape(k, n, k, n), t.blocks)
        w = np.linalg.eigvalsh(hermitize(out.reshape(k * m, k * m)))
        min_eig = min(min_eig, float(w[0]))
    return {"k": k, "samples": samples, "min_output_eigenvalue": float(min_eig),
            "passed": bool(min_eig >= -1e-8)}


class TestStackedSampleConsumers:
    """The Størmer test takes its sampled inputs as one stack and reports what
    a loop over single draws reports.  dual_pairing_test samples no state: it
    has one certified route, and keeps the ``samples`` and ``optimizer``
    keywords only because the benchmark passes them (TestPairingVerdicts)."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)], ids=["2x2", "2x3", "3x3"])
    def test_stormer_equals_reference_loop(self, dims):
        shape = BipartiteShape(*dims)
        t = map_from_choi(random_decomposable(shape, seed=dims[1]).h, shape)
        for k, samples in ((1, 5), (2, 30), (3, 12)):
            assert stormer_block_test(t, k=k, samples=samples, seed=k) == \
                reference_stormer_block_test(t, k, samples, k)

    def test_stormer_across_a_chunk(self):
        # 300 samples: past the 256-sample chunks the sampler once projected in
        t = transposition_map_table(2)
        assert stormer_block_test(t, k=2, samples=300, seed=6) == reference_stormer_block_test(t, 2, 300, 6)


def sampled_functional_values(psi, shape, samples, seed):
    """Tr(Psi C) and Tr(Psi C^Gamma) on random PSD C, the draws the positivity
    report of lemma_fi_functional once took its minimum over."""
    rng = generator(seed)
    n, m = shape.dim_a, shape.dim_b
    values = []
    for _ in range(samples):
        g = rng.standard_normal((n * m, n * m)) + 1j * rng.standard_normal((n * m, n * m))
        p = g @ g.conj().T
        c = p / np.trace(p).real
        c_tau = c.reshape(n, m, n, m).swapaxes(0, 2).reshape(n * m, n * m)
        values.append((float(np.trace(psi @ c).real), float(np.trace(psi @ c_tau).real)))
    return np.array(values)


def exact_functional_minima(psi, shape):
    """lambda_min of the Hermitian parts of Psi and of its partial transpose on the first factor."""
    n, m = shape.dim_a, shape.dim_b
    psi_tau = psi.reshape(n, m, n, m).swapaxes(0, 2).reshape(n * m, n * m)
    return tuple(float(np.linalg.eigvalsh((x + x.conj().T) / 2)[0]) for x in (psi, psi_tau))


class TestLemmaFi:
    def test_scalar_case(self):
        a = np.array([[1.0]])
        psi, report = lemma_fi_functional(a, k=1, n=1, xs=[np.array([1.0, 0.0])], hs=[np.array([1.0])])
        assert report["passed"]

    def test_identity_input(self, rng):
        xs = [random_unit_vector(rng, 2) for _ in range(2)]
        hs = [random_unit_vector(rng, 2) for _ in range(2)]
        psi, report = lemma_fi_functional(np.eye(4) / 4, k=2, n=2, xs=xs, hs=hs)
        assert report["passed"]
        assert report["kernel_herm_defect"] <= 1e-12

    def test_ppt_random_inputs(self):
        rng = generator(300)
        spec = PptSetSpec(BipartiteShape(2, 2))
        for _ in range(10):
            a = sample_ppt_density(rng, spec)
            xs = [random_unit_vector(rng, 2) for _ in range(2)]
            hs = [random_unit_vector(rng, 2) for _ in range(2)]
            psi, report = lemma_fi_functional(a, k=2, n=2, xs=xs, hs=hs)
            assert report["min_functional_value"] >= -1e-9
            assert report["min_functional_value_after_transpose"] >= -1e-9

    @pytest.mark.parametrize("k,n,m", [(1, 1, 2), (2, 2, 2), (2, 2, 3), (2, 3, 3)])
    def test_report_equals_exact_reference(self, k, n, m):
        rng = generator(302 + n * m)
        a = sample_ppt_density(rng, PptSetSpec(BipartiteShape(k, n)))
        xs = [random_unit_vector(rng, m) for _ in range(k)]
        hs = [random_unit_vector(rng, k) for _ in range(k)]
        psi, report = lemma_fi_functional(a, k=k, n=n, xs=xs, hs=hs)
        exact = exact_functional_minima(psi, BipartiteShape(n, m))
        reported = (report["min_functional_value"], report["min_functional_value_after_transpose"])
        assert np.max(np.abs(np.subtract(reported, exact))) <= 1e-15
        assert report["kernel_herm_defect"] == float(np.max(np.abs(psi - psi.conj().T)))
        # the exact minima lie below every value the sampled check could see
        for samples in (1, 40):
            assert np.all(sampled_functional_values(psi, BipartiteShape(n, m), samples, samples) >= reported)

    @pytest.mark.parametrize("k,n,m", [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 2, 2)])
    def test_minima_obey_the_derived_bound(self, k, n, m):
        # lambda_min(Psi) >= min(0, lambda_min A) s^2, and with A's k-side partial transpose after
        # transposition, s = sum_j ||h_j|| ||x_j||; checked up to rounding on vectors of norm 0.5 to 2
        rng = generator(310 + 10 * k + n * m)
        for _ in range(25):
            a = sample_ppt_density(rng, PptSetSpec(BipartiteShape(k, n), tol_feas=1e-9))
            xs = [rng.uniform(0.5, 2) * random_unit_vector(rng, m) for _ in range(k)]
            hs = [rng.uniform(0.5, 2) * random_unit_vector(rng, k) for _ in range(k)]
            s = sum(np.linalg.norm(h) * np.linalg.norm(x) for h, x in zip(hs, xs))
            _, report = lemma_fi_functional(a, k=k, n=n, xs=xs, hs=hs)
            least = np.linalg.eigvalsh(a)[0]
            least_pt = np.linalg.eigvalsh(partial_transpose(a, BipartiteShape(k, n), "A"))[0]
            assert report["min_functional_value"] >= min(0.0, least) * s**2 - 1e-14 * s**2
            assert report["min_functional_value_after_transpose"] >= min(0.0, least_pt) * s**2 - 1e-14 * s**2
            assert report["passed"]

    @pytest.mark.parametrize("k", [2, 3])
    def test_passed_follows_the_scaled_bound(self, k):
        # A = I/(kn) + (lam - 1/(kn)) P, P the projector on the product h (x) u, with lam = -0.9e-9
        # admitted by the input check; equal h_j and equal x_j make the bound sharp:
        # both minima are lam s^2, below a flat -1e-9 once s^2 > 1.12, yet above -1e-9 s^2
        n, m, lam = 2, 3, -0.9e-9
        rng = generator(320 + k)
        h, u = random_unit_vector(rng, k), random_unit_vector(rng, n)
        p = np.kron(np.outer(h, h.conj()), np.outer(u, u.conj()))
        a = hermitize(np.eye(k * n) / (k * n) + (lam - 1 / (k * n)) * p)
        x = random_unit_vector(rng, m)
        hs, xs = [2.0 * h] * k, [1.5 * x] * k
        s = k * 2.0 * 1.5
        _, report = lemma_fi_functional(a, k=k, n=n, xs=xs, hs=hs)
        for key in ("min_functional_value", "min_functional_value_after_transpose"):
            assert report[key] == pytest.approx(lam * s**2, rel=1e-6)
            assert report[key] < -1e-9
        assert report["passed"]

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
        psi, _ = lemma_fi_functional(a, k=2, n=2, xs=xs, hs=hs)
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


def reference_separable_rung(rng, shape, samples):
    """The separable rung of hierarchy_report one mixture at a time, as it ran
    before its stacked form: the least eigenvalue of each mixture's partial transpose."""
    worst = np.inf
    for _ in range(samples):
        terms = int(rng.integers(1, 11))
        d = np.zeros((shape.dim, shape.dim), dtype=complex)
        for w in (rng.dirichlet(np.ones(terms)) if terms > 1 else [1.0]):
            d = d + w * np.kron(random_psd(rng, shape.dim_a), random_psd(rng, shape.dim_b))
        worst = min(worst, float(np.linalg.eigvalsh(hermitize(partial_transpose(d, shape, "B")))[0]))
    return worst


class TestHierarchy:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_separable_rung_equals_the_per_mixture_loop(self, dims, monkeypatch):
        shape = BipartiteShape(*dims)
        made, seeds = [], []
        monkeypatch.setattr(choi, "generator",
                            lambda seed: seeds.append(seed) or made.append(generator(seed)) or made[-1])
        report = hierarchy_report(shape, seed=10, separable_samples=100)
        rng = generator(10)
        random_psd(rng, shape.dim)  # the CP map's operator is drawn first
        assert report["separable_min_gamma_eig"] == reference_separable_rung(rng, shape, 100)
        assert seeds == [10, int(rng.integers(2**32))]  # then the block test's seed
        assert np.array_equal(made[0].standard_normal(8), rng.standard_normal(8))  # same stream position

    def test_separable_samples_must_be_positive(self):
        with pytest.raises(ContractError):
            hierarchy_report(BipartiteShape(2, 2), separable_samples=0)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
    def test_all_items(self, dims):
        report = hierarchy_report(BipartiteShape(*dims), seed=10, separable_samples=100)
        assert report["passed"]
        assert report["transposition_choi_min_eig"] == pytest.approx(-1.0, abs=1e-10)
        assert report["separable_min_gamma_eig"] >= -1e-10
        assert report["singlet_gamma_min_eig"] == pytest.approx(-0.5, abs=1e-10)
