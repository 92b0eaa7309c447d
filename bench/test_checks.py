"""Tests of the benchmark itself: each output check rejects a wrong answer,
the oracles agree with their closed forms, the tracer restores what it
wraps, and BENCHMARK.json names exactly the metrics the benchmark prints.

Run with:  python3 -m pytest bench
"""

import json
import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(REPO_DIR, "src"))

import oracles  # noqa: E402


def test_npt_state_called_ppt_is_rejected():
    dims = (3, 3)
    threshold = oracles.isotropic_threshold(*dims)
    sigma = oracles.isotropic_state(*dims, threshold + 0.2)
    cert = min(oracles.min_eig(sigma), oracles.min_eig(oracles.partial_transpose(sigma, *dims)))
    assert cert < 0
    assert oracles.check_membership(sigma, *dims, threshold + 0.2, False, cert) == []
    assert oracles.check_membership(sigma, *dims, threshold + 0.2, True, cert)
    assert oracles.check_membership(sigma, *dims, threshold + 0.2, False, cert + 1e-6)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_isotropic_threshold_is_the_ppt_boundary(dims):
    threshold = oracles.isotropic_threshold(*dims)
    at = oracles.isotropic_state(*dims, threshold)
    assert abs(oracles.min_eig(oracles.partial_transpose(at, *dims))) < 1e-12
    above = oracles.isotropic_state(*dims, threshold + 1e-3)
    assert oracles.min_eig(oracles.partial_transpose(above, *dims)) < 0
    assert abs(np.trace(at @ oracles.max_entangled(*dims)).real - threshold) < 1e-12


def test_minimum_off_its_target_is_rejected():
    for _, _, h, target in oracles.closed_form_targets():
        assert oracles.check_min_value(target, h, target) == []
        assert oracles.check_min_value(target + 1e-3, h, target)
    # below lambda_min is impossible for any trace-one D
    assert oracles.check_min_value(-1.5, oracles.swap_operator(2))


def test_infeasible_minimizer_is_rejected():
    assert oracles.check_feasible(np.eye(9) / 9, 3, 3) == []
    assert oracles.check_feasible(oracles.max_entangled(3, 3), 3, 3)        # not PPT
    assert oracles.check_feasible(np.eye(9) / 8, 3, 3)                      # trace 9/8
    not_psd = np.eye(9) / 9
    not_psd[0, 0], not_psd[1, 1] = -1e-3, 2 / 9 + 1e-3
    assert oracles.check_feasible(not_psd, 3, 3)


def test_separable_bound_disagreeing_with_its_approximant_is_rejected():
    rng = np.random.default_rng(0)
    sigma = oracles.product_mixture(rng, 2, 2, 3, pure=True)
    approx = oracles.product_mixture(rng, 2, 2, 2, pure=True)
    bound = float(np.linalg.norm(sigma - approx))
    assert oracles.check_separable(sigma, bound, approx, 2, 2) == []
    assert oracles.check_separable(sigma, bound - 1e-3, approx, 2, 2)
    assert oracles.check_separable(sigma, 0.0, approx, 2, 2)
    entangled = oracles.max_entangled(2, 2)
    assert oracles.check_separable(sigma, float(np.linalg.norm(sigma - entangled)), entangled, 2, 2)


def test_counterexample_checks():
    assert oracles.check_counterexample(
        {"d_re": (np.eye(4) / 4).tolist(), "d_im": np.zeros((4, 4)).tolist(),
         "sqrt_gamma_min_eig": -0.1}, 2, 2)                                 # root of I/4 is PPT
    singlet = np.zeros(4)
    singlet[1], singlet[2] = 2 ** -0.5, -(2 ** -0.5)
    d = np.outer(singlet, singlet)
    root_gamma = oracles.min_eig(oracles.partial_transpose(oracles.psd_sqrt(d), 2, 2))
    entry = {"d_re": d.tolist(), "d_im": np.zeros((4, 4)).tolist(), "sqrt_gamma_min_eig": root_gamma}
    assert any("not PPT" in p for p in oracles.check_counterexample(entry, 2, 2))


def test_decomposable_witness_check():
    rng = np.random.default_rng(1)
    h1, h2 = oracles.random_psd(rng, 6), oracles.random_psd(rng, 6)
    h = h1 + oracles.partial_transpose_a(h2, 2, 3)
    assert oracles.check_decomposable(h1, h2, h, 2, 3) == []
    assert oracles.check_decomposable(h1, h2, h1 + h2, 2, 3)


def test_choi_map_operator_from_its_formula():
    c = oracles.choi_map_operator()
    assert oracles.herm_defect(c) == 0
    assert abs(oracles.min_eig(c) + 1.0) < 1e-12                            # not completely positive
    rng = np.random.default_rng(2)
    for _ in range(200):                                                    # block-positive on products
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = np.kron(u, v)
        assert (x.conj() @ c @ x).real >= -1e-12


def test_tracer_counts_nested_calls_and_restores_originals():
    import tracing
    from modular_ppt import constructions, optim
    from modular_ppt.linalg import BipartiteShape

    originals = (optim.project_ppt, constructions.sample_ppt_density, np.linalg.eigh)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        op = tracer.begin("op")
        optim.sample_ppt_density(np.random.default_rng(3), optim.PptSetSpec(BipartiteShape(2, 2)))
        tracer.finish(op)
        np.linalg.eigh(np.eye(2))                                           # outside an op: not counted
    finally:
        tracer.uninstall()
    metrics = tracer.pass_metrics(mark)
    assert (optim.project_ppt, constructions.sample_ppt_density, np.linalg.eigh) == originals
    assert metrics["optim.sample_ppt_density.calls"] == 1
    assert metrics["optim.project_ppt.calls"] == 1
    assert metrics["optim.project_ppt.sweeps"] >= 1
    assert metrics["linalg.eig.calls"] >= 2 * metrics["optim.project_ppt.sweeps"]
    assert metrics["optim.sample_ppt_density.busy_s"] >= metrics["optim.project_ppt.busy_s"] > 0
    assert set(metrics) == set(tracing.metric_names()) - {
        "trace.pass.traced_s", "trace.pass.untraced_s", "trace.pass.overhead_s"}


def test_benchmark_json_lists_the_printed_metrics():
    import run
    import tracing

    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expected = [(name, *tracing.STAT_UNITS[name.rsplit(".", 1)[1]]) for name in tracing.metric_names()]
    assert layer == expected


def test_composite_rounding_fault_is_counted_on_its_fixed_input(tmp_path):
    import run
    import workloads

    workload = workloads.ConeCertify(0, str(tmp_path))
    op = workload.rounding_op()
    result = op.call()
    assert op.check(result) == [] and op.fault(result)      # fails today, without a wrong answer

    def one_round(r):
        yield op
    tally = run.Tally()
    run.run_round(type("Fixed", (), {"round": staticmethod(one_round)})(), 0, tally)
    assert (tally.attempted, tally.failed, tally.problems) == (1, 1, [])


def test_drawn_input_that_hits_the_rounding_fault_is_drawn_again():
    import run
    import workloads
    from modular_ppt.errors import ConsistencyError

    def fail():
        raise ConsistencyError("composite factorization residual 1.068e-10 > 1e-10")

    def one_round(r):
        result = yield workloads.Op("drawn", fail, lambda _: [], redraw=True)
        assert result is workloads.REDRAW
        yield workloads.Op("drawn", lambda: 1, lambda value: [] if value == 1 else ["wrong"], redraw=True)
        yield workloads.Op("not-redrawn", fail, lambda _: [])

    def other_fault():
        raise ConsistencyError("control failure")

    def other_round(r):
        yield workloads.Op("drawn", other_fault, lambda _: [], redraw=True)

    tally = run.Tally()
    run.run_round(type("Drawn", (), {"round": staticmethod(one_round)})(), 0, tally)
    assert len(tally.redrawn) == 1
    assert (tally.attempted, tally.failed, len(tally.problems)) == (2, 1, 1)   # raising elsewhere is wrong
    tally = run.Tally()
    run.run_round(type("Other", (), {"round": staticmethod(other_round)})(), 0, tally)
    assert (tally.redrawn, tally.attempted, tally.failed, len(tally.problems)) == ([], 1, 1, 1)


def test_speed_probe_keeps_its_share_and_scales_to_the_reference():
    import speed

    probe = speed.SpeedProbe()
    mark = probe.mark()
    probe.after_op(0.02)
    assert probe.seconds >= speed.SHARE * 0.02 and probe.units > 0
    per_unit = (probe.seconds - mark[1]) / (probe.units - mark[0])
    assert probe.scale_since(mark) == pytest.approx(speed.REFERENCE_UNIT_S / per_unit)
