from dataclasses import replace

import numpy as np
import pytest

from modular_ppt.constructions import (
    RESIDUAL_TOL,
    AnticommutatorInstance,
    construct_ppt_from_cone,
    find_anticommutator_solution,
    instance_residual,
    random_anticommutator_instance,
    reverify_counterexample,
    sqrt_ppt_experiment,
    verify_anticommutator_ppt,
)
from modular_ppt import optim
from modular_ppt.cones import build_composite
from modular_ppt.errors import ContractError, ShapeError
from modular_ppt.gns import apply_u, build_gns, transpose_operator
from modular_ppt.linalg import BipartiteShape, hermitize, kron, partial_transpose
from modular_ppt.rand import generator, random_faithful_density

KINDS = ("product", "block_diag", "herm_offdiag", "antiherm_offdiag")


def compressed_block_loop(rho, f, a_op, m):
    """V_f^* {A (x) 1, rho} V_f entrywise, by explicit matrix-vector products."""
    out = np.zeros((m, m), dtype=complex)
    for q in range(m):
        v = np.zeros((2, m), dtype=complex)
        v[:, q] = f
        vec = v.ravel()
        av = (a_op @ (rho @ vec).reshape(2, m)).ravel() + (rho @ (a_op @ vec.reshape(2, m)).ravel())
        for p in range(m):
            w = np.zeros((2, m), dtype=complex)
            w[:, p] = f
            out[p, q] = w.ravel().conj() @ av
    return out


class TestAnticommutatorSolver:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [2, 3])
    def test_structured_families_solve(self, kind, m):
        rng = generator(hash((kind, m)) % 2**32)
        for _ in range(5):
            inst = random_anticommutator_instance(rng, m, kind)
            assert inst is not None
            assert instance_residual(inst) <= 1e-10
            assert np.linalg.norm(inst.a_op) == pytest.approx(1.0)

    def test_residual_cross_check_loop_vs_vectorized(self):
        rng = generator(400)
        for kind in KINDS:
            inst = random_anticommutator_instance(rng, 3, kind)
            fast = instance_residual(inst)
            slow = float(np.max(np.abs(compressed_block_loop(inst.rho, inst.f, inst.a_op, 3))))
            assert abs(fast - slow) <= 1e-12
            assert slow <= 1e-9

    def test_generic_states_have_no_solution(self):
        rng = generator(401)
        absent = 0
        for _ in range(100):
            rho = random_faithful_density(rng, 4)
            f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            if find_anticommutator_solution(rho, f) is None:
                absent += 1
        assert absent >= 95

    def test_singlet_mixture_has_no_solution(self, singlet):
        rho = 0.98 * singlet + 0.02 * np.eye(4) / 4
        assert find_anticommutator_solution(rho, np.array([1.0, 0.0])) is None

    def test_solution_acts_on_f(self):
        rng = generator(402)
        inst = random_anticommutator_instance(rng, 2, "herm_offdiag")
        assert np.linalg.norm(inst.a_op @ inst.f) > 1e-6

    def test_wrong_shape_rejected(self):
        with pytest.raises(ContractError):
            find_anticommutator_solution(np.eye(9) / 9, np.array([1.0, 0.0]))


class TestAnticommutatorVerdict:
    def test_zero_falsifications_across_suite(self):
        rng = generator(403)
        for k in range(60):
            inst = random_anticommutator_instance(rng, 2 + k % 2, KINDS[k % 4])
            report = verify_anticommutator_ppt(inst)
            assert not report["falsified"], report
            assert report["min_gamma_eig"] >= -1e-9

    def test_bad_residual_rejected(self):
        rng = generator(404)
        rho = np.kron(random_faithful_density(rng, 2), random_faithful_density(rng, 2))
        bad = AnticommutatorInstance(rho=rho, f=np.array([1.0, 0.0]), a_op=np.eye(2, dtype=complex))
        assert instance_residual(bad) > RESIDUAL_TOL
        with pytest.raises(ContractError):
            verify_anticommutator_ppt(bad)

    def test_forged_residual_rejected(self):
        # the verdict reports the residual it computes from rho, f and A, so an instance
        # carrying a valid state with a foreign A is caught
        rng = generator(404)
        inst = random_anticommutator_instance(rng, 2, "product")
        report = verify_anticommutator_ppt(inst)
        assert 0.0 < report["residual"] == instance_residual(inst) <= RESIDUAL_TOL
        with pytest.raises(ContractError):
            verify_anticommutator_ppt(replace(inst, a_op=np.eye(2, dtype=complex)))

    def test_product_instance_explicit(self):
        # rho_A = I/2 makes the compressed condition <f|A|f> rho_B = 0
        rng = generator(405)
        rho = np.kron(np.eye(2) / 2, random_faithful_density(rng, 3))
        f = np.array([1.0, 1.0]) / np.sqrt(2)
        a_op = find_anticommutator_solution(rho, f)
        assert a_op is not None
        assert abs(np.vdot(f, a_op @ f)) <= 1e-9


class TestAnticommutatorContract:
    @pytest.mark.parametrize("f,a_op", [
        ([1.0, 0.0], np.diag([0.0, 1.0])),
        ([1.0, 0.0], np.zeros((2, 2))),
        ([0.0, 0.0], np.diag([1.0, 0.0])),
        ([1.0, 0.0], 1e-12 * np.diag([1.0, 0.0])),
    ], ids=["a-annihilates-f", "a-zero", "f-zero", "a-tiny"])
    def test_npt_singlet_is_never_falsified(self, singlet, f, a_op):
        # the singlet is NPT, so each of these, once reported as a falsification, breaks the hypothesis:
        # A f = 0 (the block vanishes for every state), f = 0 (a NaN residual), or a block that vanishes
        # only on the absolute scale 1e-12 of A
        with pytest.raises(ContractError):
            verify_anticommutator_ppt(AnticommutatorInstance(rho=singlet, f=np.array(f), a_op=a_op))

    @pytest.mark.parametrize("rho,a_op", [(np.eye(6) / 6, np.eye(3)), (np.eye(3) / 3, np.eye(2))],
                             ids=["a-3x3", "rho-odd"])
    def test_wrong_dimension_is_named(self, rho, a_op):
        with pytest.raises((ShapeError, ContractError)):
            verify_anticommutator_ppt(AnticommutatorInstance(rho=rho, f=np.array([1.0, 0.0]), a_op=a_op))

    @pytest.mark.parametrize("f", [[0.0, 0.0], [np.nan, 1.0]], ids=["zero", "nan"])
    def test_solver_refuses_a_degenerate_f(self, singlet, f):
        with pytest.raises(ContractError):
            find_anticommutator_solution(singlet, np.array(f))

    def test_f_is_stored_normalized(self, singlet):
        inst = AnticommutatorInstance(rho=singlet, f=np.array([3.0, 4.0j]), a_op=np.eye(2))
        assert np.max(np.abs(inst.f - np.array([0.6, 0.8j]))) <= 1e-15

    def test_checked_arrays_are_read_only(self, singlet):
        # an A zeroed after the check once turned the singlet into a falsification
        a_op = np.diag([1.0, 0.0])
        inst = AnticommutatorInstance(rho=singlet, f=np.array([1.0, 0.0]), a_op=a_op)
        with pytest.raises(ValueError):
            inst.a_op[0, 0] = 0.0
        a_op[0, 0] = 0.0
        with pytest.raises(ContractError):
            verify_anticommutator_ppt(inst)

    def test_residual_gate_is_scale_free(self):
        # the block is linear in A, so the gate scales with ||A f||: no scale of A moves the verdict
        # (A is made exactly Hermitian first, as the Hermiticity check is absolute)
        inst = random_anticommutator_instance(generator(407), 3, "product")
        inst = replace(inst, a_op=hermitize(inst.a_op))
        base = verify_anticommutator_ppt(inst)
        for scale in (1e-8, 1e8):
            report = verify_anticommutator_ppt(replace(inst, a_op=scale * inst.a_op))
            assert report["min_gamma_eig"] == base["min_gamma_eig"] and not report["falsified"]


class TestConeConstruction:
    def test_reference_state_roundtrip(self):
        # a = I/(nm) reproduces the reference state, which is PPT (product)
        rng = generator(406)
        ca = build_gns(random_faithful_density(rng, 2))
        cb = build_gns(random_faithful_density(rng, 2))
        comp = build_composite(ca, cb)
        from modular_ppt.cones import density_of
        from modular_ppt.gns import apply_delta_power
        xi = apply_delta_power(comp.joint, 0.25,
                               comp.joint.vector_for_operator(np.eye(4) / 4))
        xi = comp.joint.vector(xi.mat / xi.norm())
        d = density_of(xi)
        d = d / np.trace(d).real
        assert np.max(np.abs(d - comp.joint.rho)) <= 1e-10

    def test_random_seeds_pass_membership(self):
        rng = generator(407)
        ca = build_gns(random_faithful_density(rng, 2))
        cb = build_gns(random_faithful_density(rng, 2))
        comp = build_composite(ca, cb)
        for seed in range(4):
            dens, report = construct_ppt_from_cone(comp, seed=seed)
            assert report["xi_inside"]
            assert report["certificate_gap"] <= 1e-8
            assert abs(np.trace(dens).real - 1) <= 1e-10


class TestSqrtExperiment:
    def test_tallies_are_consistent(self):
        report, _ = sqrt_ppt_experiment(BipartiteShape(2, 2), samples=30, seed=408)
        assert sum(report["counts"].values()) == report["samples"]
        assert report["control_failures"] == 0
        assert report["max_control_residual"] <= 1e-10

    def test_product_reference_cases(self):
        # products and the maximally mixed state have PPT square roots
        rng = generator(409)
        from modular_ppt.linalg import hermitize, mat_sqrt_psd, partial_transpose
        shape = BipartiteShape(2, 3)
        for d in (np.eye(6) / 6, kron(random_faithful_density(rng, 2), random_faithful_density(rng, 3))):
            root = mat_sqrt_psd(d)
            gamma = hermitize(partial_transpose(root, shape, "B"))
            assert np.linalg.eigvalsh(gamma)[0] >= -1e-10

    def test_counterexamples_reverify(self):
        shape = BipartiteShape(3, 3)
        report, _ = sqrt_ppt_experiment(shape, samples=60, seed=410)
        assert sum(report["counts"].values()) == report["samples"]
        for entry in report["counterexamples"]:
            recomputed = reverify_counterexample(entry, shape)
            assert recomputed == pytest.approx(entry["sqrt_gamma_min_eig"], abs=1e-9)
            assert recomputed < -1e-9

    def test_counterexample_with_a_negative_eigenvalue_is_refused_as_a_density(self):
        # -5e-9 used to pass a looser density check and fail the square root's PSD check
        d = np.diag([0.5 + 5e-9, 0.3, 0.2, -5e-9])
        entry = {"d_re": d.tolist(), "d_im": np.zeros_like(d).tolist()}
        with pytest.raises(ContractError, match="density matrix has negative eigenvalue -5.000e-09"):
            reverify_counterexample(entry, BipartiteShape(2, 2))

    def test_counterexamples_of_the_pinned_run_reverify(self):
        # the run of `experiment --dims 2x2 --seed 3 --samples 300`
        shape = BipartiteShape(2, 2)
        report, _ = sqrt_ppt_experiment(shape, samples=300, seed=3)
        assert report["counterexamples"]
        for entry in report["counterexamples"]:
            assert reverify_counterexample(entry, shape) == pytest.approx(entry["sqrt_gamma_min_eig"], abs=1e-9)

    def test_probe_reports_residuals(self):
        report, _ = sqrt_ppt_experiment(BipartiteShape(2, 2), samples=10, seed=411)
        probe = report["partial_transpose_probe"]
        assert probe["max_residual"] >= probe["min_residual"] >= 0.0


def _reference_experiment(shape, samples, seed):
    """The square-root experiment one sample at a time, as it ran before its
    stacked form: each state projected alone, each probe on one matrix."""
    rng = generator(seed)
    ctx_a = build_gns(random_faithful_density(rng, shape.dim_a))
    ctx_b = build_gns(random_faithful_density(rng, shape.dim_b))
    comp = build_composite(ctx_a, ctx_b)
    joint = comp.joint
    lift = np.kron(np.eye(shape.dim_a), comp.ctx_b.kernel)
    spec = optim.PptSetSpec(shape)

    def sqrt_psd(m):
        vals, vecs = np.linalg.eigh(hermitize(m))
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T

    def one_otimes_ub(m):
        return lift @ partial_transpose(m, shape, "B") @ lift.conj().T

    counts = {"ppt_and_sqrt_ppt": 0, "ppt_and_sqrt_npt": 0, "input_not_ppt": 0}
    counterexamples, traces = [], []
    control_failures, max_control = 0, 0.0
    pt_max, pt_min, pt_matches = 0.0, np.inf, 0
    for _ in range(samples):
        n = shape.dim
        seedling = hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        seedling /= np.linalg.norm(seedling)
        seedling += (1.0 - np.trace(seedling).real) / n * np.eye(n)
        d_raw, trace = optim.project_ppt(seedling, spec)
        traces.append(trace)
        vals, vecs = np.linalg.eigh(hermitize(d_raw))
        d = (vecs * np.clip(vals, 0.0, None)[None, :]) @ vecs.conj().T
        d = d / np.trace(d).real
        d_gamma = partial_transpose(d, shape, "B")
        if float(np.linalg.eigvalsh(hermitize(d_gamma))[0]) < -1e-7:
            counts["input_not_ppt"] += 1
            continue
        root = sqrt_psd(d)
        root_gamma_min = float(np.linalg.eigvalsh(hermitize(partial_transpose(root, shape, "B")))[0])
        if root_gamma_min >= -1e-9:
            counts["ppt_and_sqrt_ppt"] += 1
        else:
            counts["ppt_and_sqrt_npt"] += 1
            if len(counterexamples) < 10:
                counterexamples.append({"d_re": d.real.tolist(), "d_im": d.imag.tolist(),
                                        "sqrt_gamma_min_eig": root_gamma_min})
        flipped = apply_u(joint, joint.vector(root)).mat
        control = float(np.max(np.abs(flipped @ flipped.conj().T - transpose_operator(joint, d))))
        max_control = max(max_control, control)
        control_failures += control > 1e-10
        zeta = one_otimes_ub(root)
        probe = float(np.max(np.abs(zeta @ zeta.conj().T - one_otimes_ub(d))))
        pt_max, pt_min = max(pt_max, probe), min(pt_min, probe)
        pt_matches += probe <= 1e-9
    sweeps = sorted(t.iterates for t in traces)
    report = {
        "samples": samples, "counts": counts,
        "counterexamples": counterexamples, "control_failures": control_failures,
        "max_control_residual": max_control,
        "partial_transpose_probe": {"max_residual": pt_max, "min_residual": pt_min if pt_min < np.inf else 0.0,
                                    "matches_at_1e-9": pt_matches},
        "passed": control_failures == 0,
    }
    tallies = {"dykstra_sweeps": sum(sweeps), "dykstra_sweeps_p90": sweeps[-(-9 * len(sweeps) // 10) - 1],
               "dykstra_snaps": sum(t.snapped for t in traces)}
    return report, tallies


class TestStackedSqrtExperiment:
    """The stacked experiment reports what the per-sample loop reports, float for float."""

    @pytest.mark.parametrize("dims,samples,seed", [
        ((2, 2), 40, 0),   # 3 counterexamples
        ((2, 3), 40, 1),   # 1 counterexample
        ((3, 3), 80, 0),   # 9 counterexamples
        ((2, 2), 300, 3),  # 14 counterexamples: the first 10 are kept
    ])
    def test_fields_equal_the_per_sample_loop(self, dims, samples, seed):
        shape = BipartiteShape(*dims)
        report, tallies = sqrt_ppt_experiment(shape, samples=samples, seed=seed)
        reference, reference_tallies = _reference_experiment(shape, samples, seed)
        assert set(report) == set(reference)
        for key, expected in reference.items():
            assert report[key] == expected, key
        assert tallies == reference_tallies
        assert report["counts"]["ppt_and_sqrt_npt"] > 0
