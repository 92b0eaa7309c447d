import functools
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modular_ppt import optim
from modular_ppt.choi import (
    VERDICT_TOL,
    choi_from_map,
    dual_pairing_test,
    generalized_choi_map,
    identity_map_table,
    random_decomposable,
    stormer_block_test,
)
from modular_ppt.constructions import sqrt_ppt_experiment
from modular_ppt.errors import ContractError
from modular_ppt.linalg import BipartiteShape, hermitize, kron, partial_transpose, project_psd
from modular_ppt.optim import (
    PptSetSpec,
    feasibility_residual,
    min_trace_over_ppt,
    npt_witness,
    project_ppt,
    sample_ppt_density,
)
from modular_ppt.rand import complex_gaussian, generator, random_psd


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
    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8, True])
    def test_tol_feas_must_be_finite_and_positive(self, shape22, tol):
        # a NaN tolerance passes no comparison: Dykstra would run all MAX_SWEEPS and never snap,
        # an infinite one would accept the first sweep, and True once ran as 1.0
        with pytest.raises(ContractError, match="tol_feas must be finite and positive"):
            PptSetSpec(shape22, tol_feas=tol)

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
            is_ppt = all(np.linalg.eigvalsh(hermitize(x))[0] >= -1e-9
                         for x in (m, partial_transpose(m, spec22.shape, "B")))
            out, _ = project_ppt(m, spec22)
            moved = np.linalg.norm(out - m) > 1e-7
            assert is_ppt == (not moved)


def _max_entangled(d):
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1 / np.sqrt(d)
    return np.outer(v, v.conj())


def _swap(d):
    m = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            m[i * d + j, j * d + i] = 1.0
    return m


# (name, d, h, min Tr(D h) over PPT states): the PPT fidelity bound is 1/d
CLOSED_FORMS = [
    (f"{name}-{d}x{d}", d, h, target)
    for d in (2, 3)
    for name, h, target in (("identity", np.eye(d * d, dtype=complex), 1.0),
                            ("swap", _swap(d), 0.0),
                            ("minus-phi", -_max_entangled(d), -1.0 / d))
]


def assert_feasible_state(d, spec):
    assert np.linalg.eigvalsh(hermitize(d))[0] >= -1e-12
    assert np.linalg.eigvalsh(hermitize(partial_transpose(d, spec.shape, "B")))[0] >= -1e-12
    assert abs(np.trace(d).real - 1.0) <= 1e-12


class TestMinTrace:
    def test_identity_objective(self, spec22):
        value, minimizer, trace = min_trace_over_ppt(np.eye(4), spec22, iters=100)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert trace.lower_bound <= value and trace.gap <= 1e-12 and trace.converged

    def test_zero_operator(self, spec22):
        # every state is a minimizer: the bracket is [0, 0] with no check, and the state is I/n
        value, minimizer, trace = min_trace_over_ppt(np.zeros((4, 4)), spec22)
        assert value == trace.lower_bound == trace.gap == 0.0
        assert trace.converged and trace.checks == 0
        assert np.array_equal(minimizer, np.eye(4) / 4)

    def test_trace_leaves_the_minimizer_residual_to_the_caller(self, swap22, spec22):
        # the ADMM loop sets no residual; feasibility_residual of its minimizer gives it
        _, minimizer, trace = min_trace_over_ppt(swap22, spec22, iters=50)
        assert trace.feasibility_residual is None
        assert feasibility_residual(minimizer, spec22) <= spec22.tol_feas

    def test_swap_target(self, swap22, spec22):
        value, minimizer, trace = min_trace_over_ppt(swap22, spec22, iters=1500)
        assert trace.lower_bound <= 0.0 <= value + 1e-12
        assert trace.gap <= 1e-6
        # the minimizer sits on the zero face of the swap pairing
        assert np.trace(minimizer @ swap22).real == pytest.approx(0.0, abs=1e-6)

    def test_max_entangled_fidelity_bound(self, phi_plus, spec22):
        value, minimizer, trace = min_trace_over_ppt(-phi_plus, spec22, iters=1500)
        assert value >= -0.5 - 1e-12  # the value belongs to a feasible state, so it cannot undercut 1/2
        assert trace.lower_bound <= -0.5 and trace.gap <= 1e-6

    @pytest.mark.parametrize("name,d,h,target", CLOSED_FORMS, ids=[c[0] for c in CLOSED_FORMS])
    def test_closed_form_is_certified(self, name, d, h, target):
        spec = PptSetSpec(BipartiteShape(d, d))
        value, minimizer, trace = min_trace_over_ppt(h, spec, iters=300)
        assert trace.lower_bound <= value
        # the screen runs the exact check at the iterate where the gap closes, well before the scheduled one
        assert trace.gap == value - trace.lower_bound <= 1e-12
        assert trace.converged and trace.iterates <= (0 if name == "identity" else 5)
        # the closed form lies in the bracket, up to rounding; value belongs to a feasible state
        assert trace.lower_bound - 1e-12 <= target <= value + 1e-12
        assert value >= target - 1e-12
        assert_feasible_state(minimizer, spec)
        assert np.trace(minimizer @ h).real == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_lower_bound_is_sound(self, dims):
        spec = PptSetSpec(BipartiteShape(*dims))
        rng = generator(205 + dims[1])
        h = hermitize(complex_gaussian(rng, spec.shape.dim, spec.shape.dim))
        value, minimizer, trace = min_trace_over_ppt(h, spec, iters=300)
        assert trace.converged
        assert_feasible_state(minimizer, spec)
        # sampled states are feasible to tol_feas, so they may undercut the bound by that much
        slack = spec.tol_feas * spec.shape.dim * np.linalg.norm(h)
        states = optim._dykstra(optim._seedlings(rng, spec, 200), spec)[0]
        pairings = [np.trace(d @ h).real for d in states]
        assert min(pairings) >= trace.lower_bound - slack

    def test_value_is_scale_invariant(self, spec22):
        h = hermitize(complex_gaussian(generator(206), 4, 4))
        value, _, trace = min_trace_over_ppt(h, spec22, iters=300)
        for c in (1e-3, 1.0, 1e3):
            scaled, _, scaled_trace = min_trace_over_ppt(c * h, spec22, iters=300)
            assert scaled_trace.converged
            assert abs(scaled - c * value) <= scaled_trace.gap + c * trace.gap

    def test_uncertified_run_keeps_a_valid_bracket(self, choi_map):
        # the Choi-map operator needs more than 5 iterations to certify
        spec = PptSetSpec(BipartiteShape(3, 3))
        value, minimizer, trace = min_trace_over_ppt(choi_map, spec, iters=5)
        assert not trace.converged and trace.iterates == 5
        assert trace.gap > optim.GAP_TOL * np.linalg.norm(choi_map)
        assert trace.lower_bound <= 1 - 2 / np.sqrt(3) <= value
        assert_feasible_state(minimizer, spec)

    def test_an_overflowing_norm_is_refused_before_any_iterate(self, spec22):
        # finite entries, but ||h||_F overflows: rho = inf would reach eigh as NaN; at 1e308
        # hermitizing alone would overflow, so the refusal must name the input's entries
        h = np.diag([1.0, -1.0, 2.0, 0.5]) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no overflow warning on the way
            for big, peak in ((h, "2.000e+160"), (np.diag([1.0, -1.0, 1.5, 0.5]) * 1e308, "1.500e+308")):
                for solve in (min_trace_over_ppt, lambda m, s: dual_pairing_test(m, s.shape)):
                    with pytest.raises(ContractError, match=re.escape(f"entries up to {peak}: its")):
                        solve(big, spec22)
        value, _, trace = min_trace_over_ppt(h * 1e-10, spec22, iters=300)
        assert trace.converged and value == pytest.approx(-1e150, rel=1e-6)

    def test_iters_must_be_an_integer(self, swap22, spec22):
        for iters in (1.5, 2.0, -1, "3", None, True, False):
            with pytest.raises(ContractError, match="iters must be an integer >= 0"):
                min_trace_over_ppt(swap22, spec22, iters=iters)
        for iters in (0, np.int64(0)):
            assert min_trace_over_ppt(swap22, spec22, iters=iters)[2].iterates == 0

    def test_no_dykstra_projection(self, monkeypatch, swap22, spec22):
        def forbidden(*args, **kwargs):
            raise AssertionError("min_trace_over_ppt projected with Dykstra")
        monkeypatch.setattr(optim, "_dykstra", forbidden)
        value, _, trace = min_trace_over_ppt(swap22, spec22, iters=300)
        assert trace.converged and abs(value) <= 1e-6

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
        value, _, _ = min_trace_over_ppt(h, spec22, iters=150)
        start = float(np.trace(np.eye(4) / 4 @ h).real)
        assert value <= start + 1e-10


@pytest.mark.parametrize("n", [1, 2, 4, 6, 9])
def test_simplex_equals_the_vectorized_reference(n):
    # the sort-and-threshold projection written with numpy, as it stood before the threshold moved to Python floats
    def reference(w):
        desc = w[::-1]
        excess = np.cumsum(desc) - 1.0
        kept = np.count_nonzero(desc - excess / np.arange(1, len(w) + 1) > 0)
        return np.maximum(w - excess[kept - 1] / kept, 0.0)

    rng = generator(90 + n)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(200):
            w = np.sort(scale * rng.standard_normal(n))
            w[rng.integers(n):] = w[-1]  # ties at the top of the spectrum
            assert np.array_equal(optim._simplex(w), reference(w))


def _exact_check(h, spec, x, x_gamma, u, rho):
    """The value and the bound that min_trace_over_ppt's exact check computes at an iterate."""
    n = spec.shape.dim
    eps = max(0.0, -np.linalg.eigvalsh(x_gamma)[0])
    lam = eps / (eps + 1 / n)
    value = np.trace(((1 - lam) * x + lam * np.eye(n) / n) @ h).real
    return value, np.linalg.eigvalsh(h + rho * partial_transpose(u, spec.shape))[0]


class TestScreen:
    """The screen between scheduled checks: sound bounds and never a later stop.  Its early
    certificates are pinned by TestMinTrace.test_closed_form_is_certified."""

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([(2, 2), (2, 3), (3, 3)]), st.integers(0, 2**31 - 1))
    def test_bounds_are_sound(self, dims, seed):
        spec = PptSetSpec(BipartiteShape(*dims))
        seen = []
        bounds = optim._Screen.bounds

        def recording(screen, x, x_gamma, u, rho, near_least):
            seen.append((screen.h, x, x_gamma, u, rho, bounds(screen, x, x_gamma, u, rho, near_least)))
            return seen[-1][-1]

        with mock.patch.object(optim._Screen, "bounds", recording):
            min_trace_over_ppt(random_decomposable(spec.shape, seed=seed).h, spec, iters=300)
        assert seen
        for h, x, x_gamma, u, rho, (v_lo, b_hi) in seen:
            value, bound = _exact_check(h, spec, x, x_gamma, u, rho)
            slack = 1e-12 * np.linalg.norm(h)  # rounding of the two routes
            assert v_lo <= value + slack and b_hi >= bound - slack

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(2, 2), (2, 3), (3, 3)]), st.integers(0, 2**31 - 1))
    def test_bounds_hold_for_any_unit_vectors(self, dims, seed):
        # Rayleigh-Ritz takes any unit vector: random ones exercise both branches of v_lo (the centre's value
        # when Tr(X h) exceeds it); the PSD draw keeps u's place in the stream
        spec = PptSetSpec(BipartiteShape(*dims))
        n = spec.shape.dim
        rng = generator(seed)
        h = hermitize(complex_gaussian(rng, n, n))
        x = random_psd(rng, n)
        x /= np.trace(x).real
        x_gamma = partial_transpose(x, spec.shape)
        _, u = random_psd(rng, n), hermitize(complex_gaussian(rng, n, n))
        z, z_x, near = (v / np.linalg.norm(v) for v in complex_gaussian(rng, 3, n))
        screen = optim._Screen(h, np.trace(h).real / n, np.outer(z_x, z_x.conj()), np.vdot(z, h @ z).real,
                               partial_transpose(np.outer(z, z.conj()), spec.shape))
        rho = float(rng.uniform(0.1, 10.0))
        v_lo, b_hi = screen.bounds(x, x_gamma, u, rho, near)
        value, bound = _exact_check(h, spec, x, x_gamma, u, rho)
        slack = 1e-12 * np.linalg.norm(h)
        assert v_lo <= value + slack and b_hi >= bound - slack

    def test_never_stops_later_than_the_scheduled_checks(self, monkeypatch, choi_map):
        cases = [(h, BipartiteShape(d, d)) for _, d, h, _ in CLOSED_FORMS] + [(choi_map, BipartiteShape(3, 3))]
        cases += [(random_decomposable(BipartiteShape(*dims), seed=seed).h, BipartiteShape(*dims))
                  for dims in ((2, 2), (2, 3), (3, 3)) for seed in range(1000, 1050)]
        screened = [min_trace_over_ppt(h, PptSetSpec(shape), iters=300) for h, shape in cases]
        monkeypatch.setattr(optim, "_may_close", lambda *args: False)
        for (h, shape), (value, _, trace) in zip(cases, screened):
            plain_value, _, plain = min_trace_over_ppt(h, PptSetSpec(shape), iters=300)
            assert trace.iterates <= plain.iterates and trace.converged >= plain.converged
            if trace.iterates == plain.iterates:  # a superset of the same checks: a bracket at least as tight
                assert trace.checks >= plain.checks
                assert value <= plain_value and trace.lower_bound >= plain.lower_bound and trace.gap <= plain.gap


# (iterates, checks) of the gap-closing solves at iters=300, which the sign stop must leave as they are
GAP_STOP_COUNTS = {"identity-2x2": (0, 1), "swap-2x2": (2, 2), "minus-phi-2x2": (2, 2),
                   "identity-3x3": (0, 1), "swap-3x3": (3, 2), "minus-phi-3x3": (2, 2), "choi-map": (30, 8)}


class TestSignStop:
    """The private ``_sign_tol`` stop: the first exact check whose bracket excludes
    [-tol, tol].  None leaves the gap stop alone."""

    @pytest.mark.parametrize("name", GAP_STOP_COUNTS)
    def test_none_keeps_the_gap_stop(self, name, choi_map):
        d, h = (3, choi_map) if name == "choi-map" else next((d, h) for n, d, h, _ in CLOSED_FORMS if n == name)
        spec = PptSetSpec(BipartiteShape(d, d))
        default = min_trace_over_ppt(h, spec, iters=300)
        value, minimizer, trace = min_trace_over_ppt(h, spec, iters=300, _sign_tol=None)
        assert (trace.iterates, trace.checks) == (default[2].iterates, default[2].checks) == GAP_STOP_COUNTS[name]
        assert value == default[0] and np.array_equal(minimizer, default[1])
        assert (trace.lower_bound, trace.gap) == (default[2].lower_bound, default[2].gap)

    def test_stops_at_the_first_certified_sign(self, choi_map):
        spec = PptSetSpec(BipartiteShape(3, 3))
        value, minimizer, trace = min_trace_over_ppt(choi_map, spec, iters=300, _sign_tol=VERDICT_TOL)
        assert value < -VERDICT_TOL and trace.iterates < GAP_STOP_COUNTS["choi-map"][0]
        assert not trace.converged and trace.lower_bound <= 1 - 2 / np.sqrt(3) <= value
        assert np.trace(minimizer @ choi_map).real == pytest.approx(value, abs=1e-12)
        witness = random_decomposable(BipartiteShape(3, 3), seed=1000).h
        _, _, full = min_trace_over_ppt(witness, spec, iters=300)
        _, _, trace = min_trace_over_ppt(witness, spec, iters=300, _sign_tol=VERDICT_TOL)
        assert trace.lower_bound >= -VERDICT_TOL and trace.iterates < full.iterates

    def test_may_close_asks_for_the_sign(self):
        tol, sign_tol = 1e-7, 1e-10
        straddling = dict(upper=0.5, lower=-0.5, v_lo=0.1, b_hi=-0.1)
        assert not optim._may_close(*straddling.values(), tol, None)
        assert not optim._may_close(*straddling.values(), tol, sign_tol)
        # a bound that could reach -sign_tol, or a value that could fall below it, may decide the sign
        for key, value, decides in (("b_hi", -sign_tol, True), ("b_hi", -2 * sign_tol, False),
                                    ("v_lo", -2 * sign_tol, True), ("v_lo", -sign_tol, False)):
            bracket = {**straddling, key: value}
            assert optim._may_close(*bracket.values(), tol, sign_tol) == decides
            assert not optim._may_close(*bracket.values(), tol, None)

    def test_never_stops_later_than_the_scheduled_checks(self, monkeypatch, choi_map):
        cases = [(h, BipartiteShape(d, d)) for _, d, h, _ in CLOSED_FORMS] + [(choi_map, BipartiteShape(3, 3))]
        cases += [(random_decomposable(BipartiteShape(*dims), seed=seed).h, BipartiteShape(*dims))
                  for dims in ((2, 2), (2, 3), (3, 3)) for seed in range(1000, 1030)]
        cases += [(choi_from_map(generalized_choi_map(a, b, c)), BipartiteShape(3, 3))
                  for a in (1.0, 1.5, 2.0, 2.5) for b in (0.0, 0.5, 1.5) for c in (0.5, 1.5)]
        solve = functools.partial(min_trace_over_ppt, iters=300, _sign_tol=VERDICT_TOL)
        screened = [solve(h, PptSetSpec(shape)) for h, shape in cases]
        monkeypatch.setattr(optim, "_may_close", lambda *args: False)
        for (h, shape), (value, _, trace) in zip(cases, screened):
            plain_value, _, plain = solve(h, PptSetSpec(shape))
            assert trace.iterates <= plain.iterates
            if trace.iterates == plain.iterates:  # a superset of the same checks: a bracket at least as tight
                assert trace.checks >= plain.checks
                assert value <= plain_value and trace.lower_bound >= plain.lower_bound


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
        value, _, _ = min_trace_over_ppt(w, spec22, iters=200)
        assert value >= -1e-6


class TestSamplePpt:
    def test_samples_are_feasible(self, spec22):
        rng = generator(204)
        for _ in range(20):
            d = sample_ppt_density(rng, spec22)
            assert feasibility_residual(d, spec22) <= spec22.tol_feas

    def test_every_sampler_projects_one_stack(self, monkeypatch):
        # sample_ppt_density, sqrt_ppt_experiment and stormer_block_test reach _dykstra once per call;
        # only sample_ppt_density goes through project_ppt, as the benchmark's tracer test expects
        stacks, calls = [], []
        dykstra, project = optim._dykstra, optim.project_ppt

        def counting(m, spec):
            stacks.append(len(m))
            return dykstra(m, spec)

        def projecting(m, spec):
            calls.append(len(stacks))
            return project(m, spec)

        monkeypatch.setattr(optim, "_dykstra", counting)
        monkeypatch.setattr(optim, "project_ppt", projecting)
        sample_ppt_density(generator(207), PptSetSpec(BipartiteShape(2, 2)))
        sqrt_ppt_experiment(BipartiteShape(2, 2), samples=20, seed=0)
        stormer_block_test(identity_map_table(2), k=2, samples=15, seed=0)
        assert stacks == [1, 20, 15] and calls == [0]


class TestStackedDykstra:
    """The stacked loop gives every sample the result of projecting it alone."""

    @staticmethod
    def assert_matches_one_by_one(stack, spec):
        out, sweeps, snapped, residual = optim._dykstra(stack, spec)
        assert len(sweeps) == len(snapped) == len(residual) == len(stack)
        for m, got, sweep, snap, res in zip(stack, out, sweeps, snapped, residual):
            alone, alone_trace = project_ppt(m, spec)
            assert np.array_equal(got, alone)
            assert (sweep, snap, res, res <= spec.tol_feas) == (
                alone_trace.iterates, alone_trace.snapped, alone_trace.feasibility_residual, alone_trace.converged)
        return sweeps, snapped, residual

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_stack_equals_one_by_one(self, dims):
        spec = PptSetSpec(BipartiteShape(*dims))
        rng = generator(300 + dims[0] * dims[1])
        stack = optim._seedlings(rng, spec, 50)
        sweeps, _, _ = self.assert_matches_one_by_one(stack, spec)
        assert len(set(sweeps)) > 1  # samples left the stack at different sweeps

    def test_converged_and_snapped_samples_in_one_stack(self, monkeypatch):
        monkeypatch.setattr(optim, "MAX_SWEEPS", 5)
        spec = PptSetSpec(BipartiteShape(2, 2))
        rng = generator(310)
        stack = optim._seedlings(rng, spec, 50)
        sweeps, snapped, residual = self.assert_matches_one_by_one(stack, spec)
        assert snapped.any() and not snapped.all()
        assert np.all(sweeps[snapped] == 5)
        assert np.all(residual[snapped] <= spec.tol_feas)  # the blend makes every snapped sample feasible

    def test_densities_match_single_draws_across_a_chunk(self):
        spec = PptSetSpec(BipartiteShape(2, 2))
        k = 259  # past the 256-sample chunks the sampler once projected in
        stacked_rng, single_rng = generator(311), generator(311)
        stacked = list(optim._dykstra(optim._seedlings(stacked_rng, spec, k), spec)[0])
        single = [sample_ppt_density(single_rng, spec) for _ in range(k)]
        assert len(stacked) == k
        assert all(np.array_equal(a, b) for a, b in zip(stacked, single))
        # both generators are left in the same state
        assert np.array_equal(stacked_rng.integers(0, 2**62, 8), single_rng.integers(0, 2**62, 8))


def _reference_dykstra(m, spec, correct_trace=False):
    """The Dykstra loop as it ran with a hermitize after every step and in
    every residual, and with one matrix at a time in its bookkeeping and its
    blend toward I/n, kept to pin the lean, stacked loop's bits.  Only the
    two cones carry correction terms; with ``correct_trace`` the trace
    hyperplane carries one too, as the loop once did, which is the same
    algorithm in exact arithmetic (the correction is a multiple of I, which
    the next trace projection cancels)."""
    def residuals(x):
        return np.maximum.reduce([
            -np.linalg.eigvalsh(hermitize(x))[:, 0],
            -np.linalg.eigvalsh(hermitize(optim._partial_transpose(x, spec.shape, "B")))[:, 0],
            np.abs(optim._trace(x) - 1.0),
        ])

    def proj_psd(y):
        vals, vecs = np.linalg.eigh(hermitize(y))
        return optim._spectral(vecs, np.clip(vals, 0.0, None))

    def proj_gamma_psd(y):
        return optim._partial_transpose(proj_psd(optim._partial_transpose(y, spec.shape, "B")), spec.shape, "B")

    def proj_trace(y):
        return y + ((1.0 - optim._trace(y)) / n)[:, None, None] * np.eye(n)

    x = hermitize(m)
    n = x.shape[-1]
    corrected = (proj_psd, proj_gamma_psd, proj_trace) if correct_trace else (proj_psd, proj_gamma_psd)
    out = np.empty_like(x)
    sweeps = np.zeros(len(x), dtype=int)
    snapped = np.zeros(len(x), dtype=bool)
    final = np.empty(len(x))
    live = np.arange(len(x))
    incr = np.zeros((len(corrected),) + x.shape, dtype=x.dtype)
    checkpoint = np.full(len(x), np.inf)
    for sweep in range(1, optim.MAX_SWEEPS + 1):
        for k, proj in enumerate(corrected):
            shifted = x + incr[k]
            x = hermitize(proj(shifted))
            incr[k] = shifted - x
        if not correct_trace:
            x = hermitize(proj_trace(x))
        residual = residuals(x)
        done = residual <= spec.tol_feas
        if sweep % 100 == 0:
            if sweep >= 200:
                done |= residual > 0.5 * checkpoint
            checkpoint = residual
        if sweep == optim.MAX_SWEEPS:
            done[:] = True
        if done.any():
            finished = live[done]
            for i in finished:
                sweeps[i] = sweep
            out[finished] = x[done]
            final[finished] = residual[done]
            keep = ~done
            live, x, incr = live[keep], x[keep], incr[:, keep]
            checkpoint = checkpoint[keep]
            if not live.size:
                break
    center = 1 / n
    for i in np.flatnonzero(final > spec.tol_feas):
        lam = min(1.0, 1.1 * final[i] / (final[i] + center))
        out[i] = (1 - lam) * out[i] + lam * center * np.eye(n)
        final[i] = residuals(out[i][None])[0]
        snapped[i] = True
    return out, sweeps, snapped, final


def _reference_seedling(rng, spec):
    """One sampler seedling, drawn and normalized on its own."""
    n = spec.shape.dim
    seedling = hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    seedling /= np.linalg.norm(seedling)
    seedling += (1.0 - np.trace(seedling).real) / n * np.eye(n)
    return seedling


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_seedling_stack_equals_single_draws(dims):
    spec = PptSetSpec(BipartiteShape(*dims))
    stacked_rng, single_rng = generator(330), generator(330)
    stack = optim._seedlings(stacked_rng, spec, 30)
    assert all(np.array_equal(s, _reference_seedling(single_rng, spec)) for s in stack)
    assert np.array_equal(stacked_rng.integers(0, 2**62, 8), single_rng.integers(0, 2**62, 8))


class TestLeanDykstraSweep:
    """Dropping the hermitize calls that act on exactly Hermitian iterates, and
    screening the exact feasibility check, change no bit."""

    CASES = [((2, 2), 5000), ((2, 3), 5000), ((3, 3), 5000), ((2, 2), 5), ((2, 4), 5000), ((3, 4), 5000)]

    @staticmethod
    def stack(spec, dims):
        """40 seedlings and 10 Hermitian matrices that are not trace one."""
        rng = generator(320 + dims[0] * dims[1])
        return np.concatenate([optim._seedlings(rng, spec, 40)]
                              + [hermitize(complex_gaussian(rng, spec.shape.dim, spec.shape.dim))[None]
                                 for _ in range(10)])

    @pytest.mark.parametrize("dims,max_iters", CASES)
    def test_same_bits_as_the_hermitizing_sweep(self, monkeypatch, dims, max_iters):
        monkeypatch.setattr(optim, "MAX_SWEEPS", max_iters)
        spec = PptSetSpec(BipartiteShape(*dims))
        stack = self.stack(spec, dims)
        out, sweeps, snapped, residual = optim._dykstra(stack, spec)
        expected, expected_sweeps, expected_snapped, expected_residual = _reference_dykstra(stack, spec)
        assert np.array_equal(out, expected)
        assert np.array_equal(sweeps, expected_sweeps)
        assert np.array_equal(snapped, expected_snapped)
        assert np.array_equal(residual, expected_residual)
        # a stack of one seedling, as project_ppt and construct project it
        for got, expected in zip(optim._dykstra(stack[:1], spec), _reference_dykstra(stack[:1], spec)):
            assert np.array_equal(got, expected)
        if max_iters == 5:
            assert snapped.any() and not snapped.all()
        if dims in ((3, 3), (2, 4)):
            # the checkpoints run: samples pass sweep 200, and some stop there tangentially and are snapped
            assert np.any(sweeps > 200) and np.any(snapped & (sweeps < max_iters))

    @pytest.mark.parametrize("dims,max_iters", CASES)
    def test_trace_correction_changes_only_rounding(self, monkeypatch, dims, max_iters):
        # the trace hyperplane is affine: a correction term for it changes no iterate in exact arithmetic
        monkeypatch.setattr(optim, "MAX_SWEEPS", max_iters)
        spec = PptSetSpec(BipartiteShape(*dims))
        stack = self.stack(spec, dims)
        out, sweeps, snapped, residual = optim._dykstra(stack, spec)
        expected, expected_sweeps, expected_snapped, expected_residual = _reference_dykstra(
            stack, spec, correct_trace=True)
        assert np.array_equal(sweeps, expected_sweeps)
        assert np.array_equal(snapped, expected_snapped)
        assert np.max(np.abs(out - expected)) <= 1e-13
        assert np.max(np.abs(residual - expected_residual)) <= 1e-13

    def test_screen_skips_most_exact_checks(self, monkeypatch):
        spec = PptSetSpec(BipartiteShape(3, 3))
        rows = []
        residuals = optim._residuals

        def counting(x, spec):
            rows.append(len(x))
            return residuals(x, spec)

        monkeypatch.setattr(optim, "_residuals", counting)
        _, sweeps, _, _ = optim._dykstra(optim._seedlings(generator(400), spec, 100), spec)
        assert sum(rows) < 0.1 * sweeps.sum()


def _local_unitaries(seed: int, shape: BipartiteShape) -> np.ndarray:
    """U (x) V for Haar-like unitaries U, V (QR of complex Gaussians)."""
    rng = generator(seed)
    u, v = (np.linalg.qr(complex_gaussian(rng, d, d))[0] for d in (shape.dim_a, shape.dim_b))
    return kron(u, v)


class TestRealOperators:
    """A real symmetric h is solved in float64, a complex one in complex128, by the same loop;
    what is returned is complex128 either way."""

    def test_local_unitary_rotation_keeps_the_choi_map_bracket(self, choi_map):
        # (U (x) V) D (U (x) V)^dagger is PPT iff D is, so the minimum 1 - 2/sqrt(3) is unchanged
        shape = BipartiteShape(3, 3)
        w = _local_unitaries(17, shape)
        rotated = w @ choi_map @ w.conj().T
        assert np.any(hermitize(rotated).imag)
        solves = [min_trace_over_ppt(h, PptSetSpec(shape), iters=300) for h in (choi_map, rotated)]
        for value, minimizer, trace in solves:
            assert trace.converged and trace.lower_bound <= 1 - 2 / np.sqrt(3) <= value
            assert_feasible_state(minimizer, PptSetSpec(shape))
        assert abs(solves[0][0] - solves[1][0]) <= optim.GAP_TOL * np.linalg.norm(choi_map)

    def test_loop_follows_the_operator_and_returns_complex(self, monkeypatch, choi_map):
        shape = BipartiteShape(3, 3)
        w = _local_unitaries(17, shape)
        seen = []

        def recording(a, *args, _real=np.linalg.eigh, **kwargs):
            seen.append(a.dtype)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        for h, dtype in ((choi_map, np.float64), (choi_map.real, np.float64),
                         (w @ choi_map @ w.conj().T, np.complex128)):
            seen.clear()
            _, minimizer, trace = min_trace_over_ppt(h, PptSetSpec(shape), iters=300)
            assert seen and set(seen) == {np.dtype(dtype)}
            assert minimizer.dtype == trace.dual.dtype == np.complex128
        _, minimizer, trace = min_trace_over_ppt(np.zeros((9, 9)), PptSetSpec(shape))
        assert minimizer.dtype == trace.dual.dtype == np.complex128


class TestOneStart:
    def test_starts_at_center(self):
        # with no iteration the bracket is the start's own: I/6 above, Q = 0 gives lambda_min(h) below
        spec = PptSetSpec(BipartiteShape(2, 3))
        h = hermitize(complex_gaussian(generator(313), 6, 6))
        value, minimizer, trace = min_trace_over_ppt(h, spec, iters=0)
        assert trace.iterates == 0
        assert np.array_equal(minimizer, np.eye(6) / 6)
        assert value == pytest.approx(np.trace(h).real / 6, abs=1e-12)
        assert trace.lower_bound == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_benchmark_call_shape_matches_default(self, choi_map, seed):
        # the benchmark still passes restarts= and seed=; neither is read
        cases = [(h, BipartiteShape(d, d)) for _, d, h, _ in CLOSED_FORMS] + [(choi_map, BipartiteShape(3, 3))]
        cases.append((hermitize(complex_gaussian(generator(314), 6, 6)), BipartiteShape(2, 3)))
        for h, shape in cases:
            spec = PptSetSpec(shape)
            value, minimizer, trace = min_trace_over_ppt(h, spec, iters=300, restarts=2, seed=seed)
            plain_value, plain_minimizer, plain = min_trace_over_ppt(h, spec, iters=300)
            assert value == plain_value and np.array_equal(minimizer, plain_minimizer)
            assert (trace.lower_bound, trace.gap, trace.iterates) == (plain.lower_bound, plain.gap, plain.iterates)
            assert np.array_equal(trace.dual, plain.dual)
