import numpy as np
import pytest

from modular_ppt import optim
from modular_ppt.errors import ContractError
from modular_ppt.linalg import BipartiteShape, hermitize, kron, partial_transpose, psd_check
from modular_ppt.optim import (
    PptSetSpec,
    feasibility_residual,
    min_trace_over_ppt,
    npt_witness,
    project_ppt,
    project_psd,
    sample_ppt_densities,
    sample_ppt_density,
)
from modular_ppt.rand import complex_gaussian, generator, random_density, random_psd


@pytest.fixture
def spec22(shape22):
    return PptSetSpec(shape22)


class TestProjectPsd:
    def test_idempotent_on_psd(self, rng):
        p = random_psd(rng, 4)
        assert np.max(np.abs(project_psd(p) - p)) <= 1e-12

    def test_clamps(self):
        assert np.allclose(project_psd(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]))

    def test_nearest_point_property(self, rng):
        m = hermitize(complex_gaussian(rng, 4, 4))
        out = project_psd(m)
        d_out = np.linalg.norm(m - out)
        for _ in range(100):
            p = random_psd(rng, 4) * rng.uniform(0.1, 4.0)
            assert d_out <= np.linalg.norm(m - p) + 1e-12


class TestProjectPpt:
    def test_fixed_point_single_sweep(self, spec22):
        d = np.eye(4) / 4
        out, trace = project_ppt(d, spec22)
        assert trace.iterates == 1
        assert np.max(np.abs(out - d)) <= 1e-10

    def test_singlet_moves_far(self, singlet, spec22):
        out, trace = project_ppt(singlet, spec22)
        assert trace.converged
        assert np.linalg.norm(out - singlet) > 0.1

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_random_hermitian_feasible(self, dims):
        rng = generator(200 + dims[1])
        spec = PptSetSpec(BipartiteShape(*dims))
        for _ in range(10):
            m = hermitize(complex_gaussian(rng, spec.shape.dim, spec.shape.dim))
            m += (1 - np.trace(m).real) / spec.shape.dim * np.eye(spec.shape.dim)
            out, trace = project_ppt(m, spec)
            assert trace.converged, trace.feasibility_residual
            assert feasibility_residual(out, spec) <= spec.tol_feas

    def test_idempotent_on_own_output(self, rng, spec22):
        m = hermitize(complex_gaussian(rng, 4, 4))
        out, _ = project_ppt(m, spec22)
        again, _ = project_ppt(out, spec22)
        assert np.max(np.abs(again - out)) <= 1e-8

    def test_membership_oracle_equivalence(self, spec22):
        # PSD + PSD-Gamma + trace-1 iff the projection does not move the point
        rng = generator(201)
        for _ in range(200):
            m = hermitize(complex_gaussian(rng, 4, 4)) / 4
            m += (1 - np.trace(m).real) / 4 * np.eye(4)
            is_ppt = psd_check(m, 1e-9)[0] and psd_check(partial_transpose(m, spec22.shape, "B"), 1e-9)[0]
            out, _ = project_ppt(m, spec22)
            moved = np.linalg.norm(out - m) > 1e-7
            assert is_ppt == (not moved)


class TestMinTrace:
    def test_identity_objective(self, spec22):
        value, minimizer, trace = min_trace_over_ppt(np.eye(4), spec22, iters=100, restarts=3)
        assert value == pytest.approx(1.0, abs=1e-6)
        assert trace.restart_spread <= 1e-6

    def test_swap_target(self, swap22, spec22):
        value, minimizer, trace = min_trace_over_ppt(swap22, spec22, iters=1500, restarts=5)
        assert value == pytest.approx(0.0, abs=1e-4)
        assert trace.restart_spread <= 1e-4
        # the minimizer sits on the zero face of the swap pairing
        assert np.trace(minimizer @ swap22).real == pytest.approx(0.0, abs=1e-6)

    def test_max_entangled_fidelity_bound(self, phi_plus, spec22):
        value, minimizer, trace = min_trace_over_ppt(-phi_plus, spec22, iters=1500, restarts=5)
        assert value == pytest.approx(-0.5, abs=1e-3)
        assert trace.restart_spread <= 1e-4

    def test_brute_force_cross_check_of_fidelity(self, phi_plus, spec22):
        # independent oracle: fidelity of any PPT sample with phi+ stays <= 1/2
        rng = generator(202)
        best = 0.0
        for _ in range(60):
            d = sample_ppt_density(rng, spec22)
            best = max(best, float(np.trace(d @ phi_plus).real))
        assert best <= 0.5 + 1e-6

    def test_descent_from_uniform_start(self, rng, spec22):
        h = hermitize(complex_gaussian(rng, 4, 4))
        value, _, _ = min_trace_over_ppt(h, spec22, iters=150, restarts=2)
        start = float(np.trace(np.eye(4) / 4 @ h).real)
        assert value <= start + 1e-10


class TestNptWitness:
    def test_singlet_witness_value(self, singlet, shape22):
        w = npt_witness(singlet, shape22)
        assert w is not None
        assert np.linalg.norm(w) == pytest.approx(1.0)
        assert np.trace(w @ singlet).real == pytest.approx(-0.5, abs=1e-10)

    def test_maximally_mixed_has_none(self, shape22):
        assert npt_witness(np.eye(4) / 4, shape22) is None

    def test_product_state_has_none(self, rng, shape22):
        d = kron(random_psd(rng, 2), random_psd(rng, 2))
        assert npt_witness(d, shape22) is None

    def test_witness_nonnegative_on_ppt(self, singlet, shape22, spec22):
        w = npt_witness(singlet, shape22)
        rng = generator(203)
        for _ in range(50):
            d = sample_ppt_density(rng, spec22)
            assert np.trace(w @ d).real >= -1e-6
        value, _, _ = min_trace_over_ppt(w, spec22, iters=200, restarts=2)
        assert value >= -1e-6


class TestSamplePpt:
    def test_samples_are_feasible(self, spec22):
        rng = generator(204)
        for _ in range(20):
            d = sample_ppt_density(rng, spec22)
            assert feasibility_residual(d, spec22) <= spec22.tol_feas


class TestStackedDykstra:
    """The stacked loop gives every sample the result of projecting it alone."""

    @staticmethod
    def assert_matches_one_by_one(stack, spec):
        out, traces = optim._dykstra(stack, spec)
        assert len(traces) == len(stack)
        for m, got, trace in zip(stack, out, traces):
            alone, alone_trace = project_ppt(m, spec)
            assert np.array_equal(got, alone)
            assert trace == alone_trace
        return traces

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_stack_equals_one_by_one(self, dims):
        spec = PptSetSpec(BipartiteShape(*dims))
        rng = generator(300 + dims[0] * dims[1])
        stack = np.stack([optim._seedling(rng, spec) for _ in range(50)])
        traces = self.assert_matches_one_by_one(stack, spec)
        assert len({t.iterates for t in traces}) > 1  # samples left the stack at different sweeps

    def test_converged_and_snapped_samples_in_one_stack(self):
        spec = PptSetSpec(BipartiteShape(2, 2), max_iters=5)
        rng = generator(310)
        stack = np.stack([optim._seedling(rng, spec) for _ in range(50)])
        traces = self.assert_matches_one_by_one(stack, spec)
        snapped = [t.snapped for t in traces]
        assert any(snapped) and not all(snapped)
        assert all(t.iterates == 5 for t in traces if t.snapped)

    def test_densities_match_single_draws_across_a_chunk(self):
        spec = PptSetSpec(BipartiteShape(2, 2))
        k = optim.SAMPLE_CHUNK + 3
        stacked_rng, single_rng = generator(311), generator(311)
        stacked = list(sample_ppt_densities(stacked_rng, spec, k))
        single = [sample_ppt_density(single_rng, spec) for _ in range(k)]
        assert len(stacked) == k
        assert all(np.array_equal(a, b) for a, b in zip(stacked, single))
        # both generators are left in the same state
        assert np.array_equal(stacked_rng.integers(0, 2**62, 8), single_rng.integers(0, 2**62, 8))


def _min_trace_one_restart_at_a_time(h, spec, iters, restarts, seed):
    """The subgradient method with each restart run to its end in turn."""
    n = spec.shape.dim
    eta0 = 1.0 / np.linalg.norm(h)
    rng = generator(seed, stream=17)
    best_vals, best_d, steps = [], None, 0
    for r in range(restarts):
        if r == 0:
            d = np.eye(n, dtype=complex) / n * spec.trace_target
        else:
            d, _ = project_ppt(hermitize(random_density(rng, n)) * spec.trace_target, spec)
        avg = np.zeros_like(d)
        run_best = prev_best = np.trace(d @ h).real
        run_best_d, stall = d, 0
        for t in range(iters):
            d, _ = project_ppt(d - eta0 / np.sqrt(t + 1.0) * h, spec)
            avg += d
            val = np.trace(d @ h).real
            if val < run_best:
                run_best, run_best_d = val, d
            steps += 1
            if abs(run_best - prev_best) < 1e-10:
                stall += 1
                if stall >= 50:
                    break
            else:
                stall, prev_best = 0, run_best
        avg_proj, _ = project_ppt(avg / (t + 1), spec)
        if np.trace(avg_proj @ h).real < run_best:
            run_best, run_best_d = np.trace(avg_proj @ h).real, avg_proj
        best_vals.append(float(run_best))
        if best_d is None or run_best <= min(best_vals):
            best_d = run_best_d
    value = min(best_vals)
    minimizer = optim._polish_density(best_d) * spec.trace_target
    return value, minimizer, steps, max(best_vals) - value


class TestStackedRestarts:
    @pytest.mark.parametrize("restarts", [1, 3])
    def test_matches_restarts_run_in_turn(self, swap22, spec22, restarts):
        # iters long enough that some restarts stall and leave the stack early
        value, minimizer, trace = min_trace_over_ppt(swap22, spec22, iters=400, restarts=restarts, seed=4)
        ref_value, ref_minimizer, ref_steps, ref_spread = _min_trace_one_restart_at_a_time(
            swap22, spec22, 400, restarts, 4)
        assert value == ref_value
        assert np.array_equal(minimizer, ref_minimizer)
        assert trace.iterates == ref_steps
        assert trace.restart_spread == ref_spread
        assert trace.feasibility_residual == feasibility_residual(ref_minimizer, spec22)

    def test_random_objective_matches_restarts_run_in_turn(self, spec22):
        h = hermitize(complex_gaussian(generator(312), 4, 4))
        value, minimizer, trace = min_trace_over_ppt(h, spec22, iters=30, restarts=3, seed=1)
        ref_value, ref_minimizer, ref_steps, _ = _min_trace_one_restart_at_a_time(h, spec22, 30, 3, 1)
        assert (value, trace.iterates) == (ref_value, ref_steps)
        assert ref_steps == 3 * 30  # every restart runs to the end
        assert np.array_equal(minimizer, ref_minimizer)

    def test_restarts_must_be_positive(self, swap22, spec22):
        with pytest.raises(ContractError):
            min_trace_over_ppt(swap22, spec22, iters=10, restarts=0)
