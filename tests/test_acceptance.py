"""Acceptance suite.

One test per criterion, each printing a [PASS]/[FAIL] line, visible with
``python -m pytest -s tests/test_acceptance.py``.  Tolerances are pinned here
and nowhere else; every expected value is either trivial, derived from an
independent oracle in-line, or cross-checked against a frozen closed form.
"""

import numpy as np

from modular_ppt import choi, cones, constructions, gns, optim
from modular_ppt.cli import RunConfig, run_command
from modular_ppt.io import report_body_text
from modular_ppt.linalg import BipartiteShape, hermitize
from modular_ppt.rand import complex_gaussian, generator, random_faithful_density, random_unit_vector

SEED = 20240915


def _line(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, detail


def _contexts(count: int = 20, dims=(2, 3, 4)):
    rng = generator(SEED)
    out = []
    for k in range(count):
        dim = dims[k % len(dims)]
        out.append(gns.build_gns(random_faithful_density(rng, dim)))
    return out


def test_criterion_01_modular_identity_suite():
    worst = 0.0
    for i, ctx in enumerate(_contexts()):
        report = gns.verify_modular_identities(ctx, samples=40, seed=SEED + i)
        worst = max(worst, report["max_residual"])
    _line("criterion 1 modular identities", worst <= 1e-10,
          f"max residual over 20 contexts = {worst:.3e} (tol 1e-10)")


def test_criterion_02_polar_decomposition():
    worst_polar = 0.0
    worst_transp = 0.0
    for i, ctx in enumerate(_contexts()):
        rng = generator(SEED + 1000 + i)
        for _ in range(200):
            a = complex_gaussian(rng, ctx.dim, ctx.dim)
            a /= np.linalg.norm(a)
            xi = ctx.vector_for_operator(a)
            polar_gap = np.max(np.abs(
                gns.apply_tau(ctx, xi).mat
                - gns.apply_u(ctx, gns.apply_delta_power(ctx, 0.5, xi)).mat))
            worst_polar = max(worst_polar, float(polar_gap))
            zeta = ctx.vector(complex_gaussian(rng, ctx.dim, ctx.dim))
            lhs = gns.transpose_operator(ctx, a) @ zeta.mat
            rhs = gns.apply_j(ctx, ctx.vector(a.conj().T @ gns.apply_j(ctx, zeta).mat)).mat
            worst_transp = max(worst_transp, float(np.max(np.abs(lhs - rhs))))
    ok = worst_polar <= 1e-10 and worst_transp <= 1e-10
    _line("criterion 2 polar decomposition", ok,
          f"max |a^t Omega - U Delta^(1/2) a Omega| = {worst_polar:.3e}, "
          f"max |a^t xi - J a* J xi| = {worst_transp:.3e} (tol 1e-10)")


def test_criterion_03_cone_geometry():
    ctx = gns.build_gns(random_faithful_density(generator(SEED + 2), 3))
    betas = (0.0, 0.125, 0.25, 0.375, 0.5)
    min_pairing = np.inf
    flips_ok = True
    for beta in betas:
        duality = cones.duality_check(ctx, beta, samples=500, seed=SEED, tol=1e-10)
        min_pairing = min(min_pairing, duality["min_member_pairing"])
        assert duality["passed"], (beta, duality)
        flip = cones.u_maps_cones(ctx, beta, samples=200, seed=SEED, tol=1e-10)
        flips_ok = flips_ok and flip["passed"]
    ok = min_pairing >= -1e-10 and flips_ok
    _line("criterion 3 cone duality + U flips", ok,
          f"min member pairing over betas {betas} = {min_pairing:.3e} (>= -1e-10), flips pass = {flips_ok}")


def test_criterion_04_ppt_cone_route_equivalence():
    worst_gap = 0.0
    all_inside = True
    for dims in ((2, 2), (2, 3), (3, 3)):
        rng = generator(SEED + 10 * dims[0] + dims[1])
        comp = cones.build_composite(
            gns.build_gns(random_faithful_density(rng, dims[0])),
            gns.build_gns(random_faithful_density(rng, dims[1])))
        dim = dims[0] * dims[1]
        for _ in range(500):
            xi = comp.joint.vector(complex_gaussian(rng, dim, dim))
            verdict = cones.pn_intersection_membership(comp, xi, tol=1e-8)
            worst_gap = max(worst_gap, verdict.detail["certificate_gap"])
        spec = optim.PptSetSpec(comp.shape)
        for _ in range(20):
            a = optim.sample_ppt_density(rng, spec)
            xi = gns.apply_delta_power(comp.joint, 0.25, comp.joint.vector_for_operator(a))
            verdict = cones.pn_intersection_membership(comp, xi, tol=10 * spec.tol_feas)
            all_inside = all_inside and verdict.inside
    ok = worst_gap <= 1e-8 and all_inside
    _line("criterion 4 route equivalence", ok,
          f"max certificate gap = {worst_gap:.3e} (tol 1e-8), constructive samples inside = {all_inside}")


def test_criterion_05_state_level_transpose():
    worst = 0.0
    for dim in (2, 3, 4):
        rng = generator(SEED + 3 * dim)
        ctx = gns.build_gns(random_faithful_density(rng, dim))
        for _ in range(100):
            sigma = 0.95 * np.outer(*(lambda v: (v, v.conj()))(random_unit_vector(rng, dim))) \
                + 0.05 * random_faithful_density(rng, dim)
            sigma = hermitize(sigma)
            xi = cones.state_to_cone_vector(ctx, sigma)
            _, report = cones.transpose_state_vector(ctx, xi)
            worst = max(worst, report["density_transpose_residual"])
    _line("criterion 5 state-level transposition", worst <= 1e-10,
          f"max |density(U xi) - sigma^t| = {worst:.3e} (tol 1e-10)")


def test_criterion_06_choi_layer():
    shape = BipartiteShape(2, 2)
    rng = generator(SEED + 4)
    h = hermitize(complex_gaussian(rng, 4, 4))
    round_exact = np.array_equal(choi.choi_from_map(choi.map_from_choi(h, shape)), h)
    transp_spec = np.linalg.eigvalsh(hermitize(choi.choi_from_map(choi.transposition_map_table(2))))
    spectrum_ok = bool(np.max(np.abs(np.sort(transp_spec) - np.array([-1.0, 1.0, 1.0, 1.0]))) <= 1e-10)
    hier = choi.hierarchy_report(BipartiteShape(3, 3), seed=SEED, separable_samples=200)
    ok = round_exact and spectrum_ok and hier["passed"]
    _line("criterion 6 Choi layer", ok,
          f"round trip exact = {round_exact}, transposition spectrum (1,1,1,-1) ok = {spectrum_ok}, "
          f"hierarchy items pass = {hier['passed']}")


def test_criterion_07_decomposable_forward_direction():
    worst_value = np.inf
    for idx, dims in enumerate(((2, 2), (2, 3))):
        shape = BipartiteShape(*dims)
        spec = optim.PptSetSpec(shape)
        for seed in range(25):
            witness = choi.random_decomposable(shape, seed=SEED + 100 * idx + seed)
            value, _, _ = optim.min_trace_over_ppt(witness.h, spec, iters=60)
            worst_value = min(worst_value, value)
    worst_block = np.inf
    maps = [choi.map_from_choi(choi.random_decomposable(BipartiteShape(2, 2), seed=SEED + s).h,
                               BipartiteShape(2, 2)) for s in range(5)]
    for k in (2, 3):
        for i, table in enumerate(maps):
            report = choi.stormer_block_test(table, k=k, samples=20, seed=SEED + 10 * k + i)
            worst_block = min(worst_block, report["min_output_eigenvalue"])
    ok = worst_value >= -1e-6 and worst_block >= -1e-8
    _line("criterion 7 decomposable forward direction", ok,
          f"min pairing over 50 witnesses = {worst_value:.3e} (>= -1e-6), "
          f"min block-test output eig over 200 PPT inputs = {worst_block:.3e} (>= -1e-8)")


def test_criterion_08_optimizer_targets(swap22, phi_plus):
    spec = optim.PptSetSpec(BipartiteShape(2, 2))
    ok = True
    details = []
    for name, h, target in (("identity", np.eye(4), 1.0), ("swap", swap22, 0.0), ("-phi+", -phi_plus, -0.5)):
        value, _, trace = optim.min_trace_over_ppt(h, spec, iters=300)
        # the closed form lies in the certified bracket, up to rounding
        bracketed = trace.lower_bound - 1e-12 <= target <= value + 1e-12
        ok = ok and bracketed and trace.converged and trace.gap <= 1e-6
        details.append(f"{name} {target} in [{trace.lower_bound:.10f}, {value:.10f}] = {bracketed}, "
                       f"gap {trace.gap:.1e}")
    _line("criterion 8 optimizer targets", ok, "; ".join(details) + " (gap <= 1e-6)")


def test_criterion_09_functional_positivity():
    rng = generator(SEED + 5)
    spec = optim.PptSetSpec(BipartiteShape(2, 2), tol_feas=1e-9)
    worst = np.inf
    for i in range(200):
        a = optim.sample_ppt_density(rng, spec)
        xs = [random_unit_vector(rng, 2) for _ in range(2)]
        hs = [random_unit_vector(rng, 2) for _ in range(2)]
        _, report = choi.lemma_fi_functional(a, k=2, n=2, xs=xs, hs=hs)
        worst = min(worst, report["min_functional_value"],
                    report["min_functional_value_after_transpose"])
    _line("criterion 9 functional positivity", worst >= -1e-9,
          f"min functional value over 200 instances (both compositions) = {worst:.3e} (>= -1e-9)")


def test_criterion_10_anticommutator_criterion():
    rng = generator(SEED + 6)
    kinds = ("product", "block_diag", "herm_offdiag", "antiherm_offdiag")
    produced = 0
    falsifications = 0
    worst = np.inf
    for k in range(200):
        m = 2 if k < 100 else 3
        inst = constructions.random_anticommutator_instance(rng, m, kinds[k % 4])
        assert inst is not None
        produced += 1
        report = constructions.verify_anticommutator_ppt(inst)
        assert report["residual"] <= 1e-9
        falsifications += report["falsified"]
        worst = min(worst, report["min_gamma_eig"])
    ok = produced == 200 and falsifications == 0 and worst >= -1e-9
    _line("criterion 10 anticommutator criterion", ok,
          f"200 instances on 2x2 and 2x3, falsifications = {falsifications}, "
          f"min transposed eigenvalue = {worst:.3e} (>= -1e-9)")


def test_criterion_11_sqrt_experiment_harness():
    details = []
    ok = True
    for dims in ((2, 2), (3, 3)):
        report, _ = constructions.sqrt_ppt_experiment(BipartiteShape(*dims), samples=1000,
                                                      seed=SEED + dims[0])
        tallies_ok = sum(report["counts"].values()) == report["samples"]
        control_ok = report["control_failures"] == 0 and report["max_control_residual"] <= 1e-10
        reverified = all(
            abs(constructions.reverify_counterexample(entry, BipartiteShape(*dims))
                - entry["sqrt_gamma_min_eig"]) <= 1e-9
            for entry in report["counterexamples"])
        ok = ok and tallies_ok and control_ok and reverified
        details.append(f"{dims}: counts {report['counts']}, control residual "
                       f"{report['max_control_residual']:.1e}")
    _line("criterion 11 square-root experiment", ok, "; ".join(details))


def test_criterion_12_determinism():
    ok = True
    details = []
    for cfg in (RunConfig(command="gns-verify", seed=SEED, dims=3, samples=20),
                RunConfig(command="hierarchy", seed=SEED, dims=(2, 2), samples=50),
                RunConfig(command="experiment", seed=SEED, dims=(2, 2), samples=15)):
        _, r1 = run_command(cfg)
        _, r2 = run_command(cfg)
        same = report_body_text(r1["body"]) == report_body_text(r2["body"])
        ok = ok and same
        details.append(f"{cfg.command}: byte-identical = {same}")
    _line("criterion 12 determinism", ok, "; ".join(details))
