"""The benchmark's three workloads.

A workload is a sequence of rounds.  Round r is a generator of ops whose
inputs come from ``numpy.random.default_rng([seed, r])``; every round holds
the same list of ops, so a run of any length attempts whole rounds and the
share of failed ops is fixed.  An op is one public call into the package,
timed from outside; its check runs after the timer stops.  A round
generator receives each op's result, because later ops take earlier
results (a GNS context, a composite context) as input.

Two faults of the package are counted as failed ops on fixed inputs that do
not depend on --seed, so every run fails the same share of its ops: the
separable bound that stalls on low-rank mixtures, and ``build_composite``
rejecting a valid composite because its factorization residual exceeds an
absolute 1e-10 tolerance by rounding alone.  The second also strikes about
one drawn input in several thousand; such an attempt is not counted, and the
round draws the input again (``Op.redraw``), so that the failed share stays
exact.  The runner records every redrawn attempt.

Calls go through module attributes (``cones.build_composite``), never
through names bound at import, so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles
from modular_ppt import choi, cli, cones, gns, optim
from modular_ppt.errors import ConsistencyError
from modular_ppt.linalg import BipartiteShape

# inputs of the two counted faults do not depend on --seed
FAULT_INPUT_SEED = 2007
FIXED_INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixed_inputs.json")
SEPARABLE_TOL = 1e-6
# sent back to a round in place of a result when a redraw op hit build_composite's rounding fault
REDRAW = object()


def is_rounding_fault(exc: BaseException) -> bool:
    """Whether exc is build_composite's factorization check failing, and not another fault."""
    return isinstance(exc, ConsistencyError) and str(exc).startswith("composite factorization residual")


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    # a counted fault: True counts the op as failed without making the run incorrect
    fault: Callable[[object], bool] | None = None
    # on the rounding fault the attempt is not counted and the round draws this input again
    redraw: bool = False


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _log_uniform_count(rng: np.random.Generator, center: int, spread: float) -> int:
    """A count drawn log-uniformly from [center / spread, center * spread]."""
    return round(float(np.exp(rng.uniform(np.log(center / spread), np.log(center * spread)))))


def _max_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def _expect(condition: bool, message: str) -> list:
    return [] if condition else [message]


# --- sqrt-sampling -------------------------------------------------------------

def _run_cli(argv: list) -> tuple:
    return cli.run_command(cli.config_from_args(cli.build_parser().parse_args(argv)))


def _check_experiment(dims: tuple, samples: int, out_path: str, result) -> list:
    code, report = result
    body = report["body"]
    res = body["results"]
    problems = _expect(code == 0, f"exit code {code}")
    problems += _expect(sum(res["counts"].values()) == samples == res["samples"],
                        f"tallies {res['counts']} do not sum to {samples}")
    problems += _expect(res["control_failures"] == 0, f"{res['control_failures']} control failures")
    for entry in res["counterexamples"]:
        problems += oracles.check_counterexample(entry, *dims)
    with open(out_path) as handle:
        on_disk = json.load(handle)
    printed = json.dumps(body, sort_keys=True, indent=2)
    problems += _expect(json.dumps(on_disk["body"], sort_keys=True, indent=2) == printed,
                        "report file body differs from the printed body")
    return problems


class SqrtSampling:
    """``experiment`` commands through ``cli.run_command``; one op is one command."""

    name = "sqrt-sampling"
    # (dims, commands per round), each with the CLI's default --samples (100).
    # A 3x3 command takes about six times as long as a 2x2 one, so the
    # latencies form two clusters; with six of eight commands at 2x2 the
    # median op sits inside the 2x2 cluster, not in the gap between them.
    COMMANDS = (((2, 2), 6), ((3, 3), 2))

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.out_path = os.path.join(work_dir, "experiment.json")

    def round(self, r: int):
        rng = np.random.default_rng([self.seed, r])
        samples = cli.build_parser().parse_args(["experiment"]).samples
        for dims, count in self.COMMANDS:
            text = f"{dims[0]}x{dims[1]}"
            for _ in range(count):
                while True:
                    argv = ["experiment", "--dims", text, "--samples", str(samples),
                            "--seed", str(_seed(rng)), "--out", self.out_path]
                    result = yield Op(f"experiment-{text}", functools.partial(_run_cli, argv),
                                      functools.partial(_check_experiment, dims, samples, self.out_path),
                                      redraw=True)
                    if result is not REDRAW:
                        break


# --- ppt-minimize --------------------------------------------------------------

SOLVER = {"iters": 300, "restarts": 2}   # the optimizer settings of dual_pairing_test
# sampled PPT states per pairing call: the default, or log-uniform within a factor 2 of it
PAIRING_SAMPLES, PAIRING_SPREAD = 100, 2.0


def _check_target(h: np.ndarray, target: float, result) -> list:
    return oracles.check_min_value(result[0], h, target)


def _check_pairing(witness, dims: tuple, result) -> list:
    problems = oracles.check_decomposable(witness.h1, witness.h2, witness.h, *dims)
    problems += _expect(result["min_pairing"] >= -1e-8,
                        f"decomposable witness pairs at {result['min_pairing']!r} < -1e-8")
    problems += oracles.check_min_value(result["optimizer_value"], witness.h)
    return problems


def _check_choi_map(c: np.ndarray, result) -> list:
    value, minimizer, _ = result
    problems = _expect(value < 0, f"Choi-map value {value!r} is not negative")
    problems += oracles.check_min_value(value, c)
    problems += oracles.check_feasible(minimizer, 3, 3)
    pairing = float(np.trace(minimizer @ c).real)
    problems += _expect(pairing < 0, f"Tr(D C) = {pairing!r} is not negative")
    return problems


class PptMinimize:
    """``min_trace_over_ppt`` on closed-form targets and the Choi map, and
    ``dual_pairing_test`` on decomposable witnesses; one op is one call."""

    name = "ppt-minimize"
    # (dims, whether the sample count is drawn) per witness.  The four fast
    # solves (identity and swap) sit below the two ~0.2-s ops (-Phi_2 and the
    # 2x2 pairing) and four slower ops above them, so the median op lies in
    # the middle of that pair's latencies.  The 2x2 pairing draws its sample
    # count, so that its latencies overlap those of -Phi_2 and the median has
    # no gap to jump across; the 2x3 pairings keep the default of 100.
    PAIRINGS = (((2, 2), True), ((2, 3), False), ((2, 3), False))

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.targets = oracles.closed_form_targets()
        self.choi_map = oracles.choi_map_operator()
        self.specs = {dims: optim.PptSetSpec(BipartiteShape(*dims))
                      for dims in ((2, 2), (2, 3), (3, 3))}

    def round(self, r: int):
        rng = np.random.default_rng([self.seed, r])
        solver_seed = _seed(rng)
        for label, d, h, target in self.targets:
            yield Op(label, functools.partial(optim.min_trace_over_ppt, h, self.specs[(d, d)],
                                              seed=solver_seed, **SOLVER),
                     functools.partial(_check_target, h, target))
        for dims, drawn in self.PAIRINGS:
            shape = BipartiteShape(*dims)
            witness = choi.random_decomposable(shape, seed=_seed(rng))
            samples = _log_uniform_count(rng, PAIRING_SAMPLES, PAIRING_SPREAD) if drawn else PAIRING_SAMPLES
            yield Op(f"dual-pairing-{dims[0]}x{dims[1]}",
                     functools.partial(choi.dual_pairing_test, witness.h, shape, samples=samples,
                                       seed=solver_seed, optimizer=True),
                     functools.partial(_check_pairing, witness, dims))
        yield Op("choi-map-3x3", functools.partial(optim.min_trace_over_ppt, self.choi_map,
                                                   self.specs[(3, 3)], seed=solver_seed, **SOLVER),
                 functools.partial(_check_choi_map, self.choi_map))


# --- cone-certify --------------------------------------------------------------

BETAS = (0.0, 0.125, 0.25, 0.375, 0.5)
CONE_SAMPLES = 50


def _check_gns(rho: np.ndarray, ctx) -> list:
    problems = _expect(_max_gap(ctx.rho, rho) == 0.0, "context holds another state")
    expected = np.linalg.eigvalsh(rho)[::-1]
    problems += _expect(_max_gap(ctx.eigvals, expected) <= 1e-12, "context eigenvalues differ from numpy's")
    problems += _expect(_max_gap(ctx.sqrt_rho @ ctx.sqrt_rho, rho) <= 1e-12, "Omega^2 != rho")
    return problems


def _check_identities(report: dict) -> list:
    return _expect(report["passed"] and report["max_residual"] <= 1e-10,
                   f"modular identity residual {report['max_residual']!r} > 1e-10")


def _modular_s(ctx, xi):
    """S = J_m Delta^{1/2}, which sends a Omega to a^dagger Omega."""
    return gns.apply_jm(ctx, gns.apply_delta_power(ctx, 0.5, xi))


def _check_modular_s(expected: np.ndarray, result) -> list:
    gap = _max_gap(result.mat, expected)
    return _expect(gap <= 1e-10, f"|S a Omega - a^dagger Omega| = {gap:.3e} > 1e-10")


def _check_duality(report: dict) -> list:
    return _expect(report["passed"] and report["min_member_pairing"] >= -1e-10
                   and report["outside_missed"] == 0, f"cone duality failed at beta {report['beta']}")


def _check_flip(report: dict) -> list:
    return _expect(report["passed"], f"U does not map V_beta onto V_(1/2-beta) at beta {report['beta']}")


def _check_composite(rho_a: np.ndarray, rho_b: np.ndarray, comp) -> list:
    problems = _expect(_max_gap(comp.joint.rho, np.kron(rho_a, rho_b)) <= 1e-15,
                       "joint state is not rho_A (x) rho_B")
    return problems + _expect((comp.shape.dim_a, comp.shape.dim_b) == (len(rho_a), len(rho_b)),
                              "composite shape differs from its factors")


def _check_commutant(report: dict) -> list:
    return _expect(report["passed"] and report["generator_identity_residual"] <= 1e-10,
                   f"commutant generator residual {report['generator_identity_residual']!r} > 1e-10")


def _check_membership(sigma: np.ndarray, dims: tuple, fidelity: float, verdict) -> list:
    return oracles.check_membership(sigma, *dims, fidelity, verdict.inside, verdict.certificate)


def _check_separable(sigma: np.ndarray, dims: tuple, named_fault: bool, result) -> list:
    bound, approx, _ = result
    problems = oracles.check_separable(sigma, bound, approx.mat, *dims)
    if not named_fault:
        problems += _expect(bound <= SEPARABLE_TOL,
                            f"separable bound {bound:.3e} > {SEPARABLE_TOL} on a separable input")
    return problems


def _separable_fault(result) -> bool:
    return result[0] > SEPARABLE_TOL


def _build_composite_or_error(ctx_a, ctx_b):
    """``build_composite`` with its rounding fault returned, not raised."""
    try:
        return cones.build_composite(ctx_a, ctx_b)
    except ConsistencyError as exc:
        if not is_rounding_fault(exc):
            raise
        return exc


def _check_composite_or_error(rho_a: np.ndarray, rho_b: np.ndarray, result) -> list:
    if isinstance(result, ConsistencyError):
        return []   # counted by _composite_rounding_fault; every input it gets is valid
    return _check_composite(rho_a, rho_b, result)


def _composite_rounding_fault(result) -> bool:
    return isinstance(result, ConsistencyError)


def _load_matrix(entry: dict) -> np.ndarray:
    return np.array(entry["re"]) + 1j * np.array(entry["im"])


def _factor_states(rng: np.random.Generator, dims: tuple):
    rho_a = oracles.faithful_density(rng, dims[0])
    rho_b = oracles.faithful_density(rng, dims[1])
    return rho_a, rho_b, gns.build_gns(rho_a), gns.build_gns(rho_b)


class ConeCertify:
    """GNS contexts, composite contexts and the separable bound; one op is one
    public call.  No Dykstra projection runs in this workload."""

    name = "cone-certify"
    # (dims, product terms, pure terms): separable mixtures drawn from --seed,
    # on which the bound converges
    SEEDED_MIXTURES = (((2, 2), 8, False), ((2, 2), 16, False))
    # the separable-bound fault: on these fixed mixtures the bound stalls at
    # 1.6e-3, 7.1e-3 and 1.4e-2
    FAULT_MIXTURES = (((2, 2), 2, True), ((2, 2), 3, True), ((2, 3), 3, True))

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        # the composite rounding fault: build_composite rejects rho_A (x) rho_B for
        # these two valid 3x3 states, with a residual of 1.068e-10 > 1e-10
        with open(FIXED_INPUTS) as handle:
            fixed = json.load(handle)["composite_rounding_3x3"]
        self.rounding_states = (_load_matrix(fixed["rho_a"]), _load_matrix(fixed["rho_b"]))
        self.rounding_ctxs = tuple(gns.build_gns(rho) for rho in self.rounding_states)
        rng = np.random.default_rng(FAULT_INPUT_SEED)
        self.fault_comps = {}
        for dims in ((2, 2), (2, 3)):
            _, _, ctx_a, ctx_b = _factor_states(rng, dims)
            self.fault_comps[dims] = cones.build_composite(ctx_a, ctx_b)
        self.fault_inputs = [(dims, terms, oracles.product_mixture(rng, *dims, terms, pure))
                             for dims, terms, pure in self.FAULT_MIXTURES]

    def rounding_op(self) -> Op:
        return Op("build_composite-3x3-fixed",
                  functools.partial(_build_composite_or_error, *self.rounding_ctxs),
                  functools.partial(_check_composite_or_error, *self.rounding_states),
                  fault=_composite_rounding_fault)

    def round(self, r: int):
        rng = np.random.default_rng([self.seed, r])
        for d in range(2, 10):
            rho = oracles.faithful_density(rng, d)
            ctx = yield Op(f"build_gns-{d}", functools.partial(gns.build_gns, rho),
                           functools.partial(_check_gns, rho))
            yield Op("verify_modular_identities",
                     functools.partial(gns.verify_modular_identities, ctx, seed=_seed(rng)),
                     _check_identities)
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            omega = oracles.psd_sqrt(rho)
            xi = ctx.vector(a @ omega)
            yield Op("modular-S", functools.partial(_modular_s, ctx, xi),
                     functools.partial(_check_modular_s, a.conj().T @ omega))
            cone_seed = _seed(rng)
            for beta in BETAS:
                yield Op("duality_check", functools.partial(
                    cones.duality_check, ctx, beta, samples=CONE_SAMPLES, seed=cone_seed), _check_duality)
                yield Op("u_maps_cones", functools.partial(
                    cones.u_maps_cones, ctx, beta, samples=CONE_SAMPLES, seed=cone_seed), _check_flip)

        yield self.rounding_op()
        comps = {}
        for dims in ((2, 2), (2, 3), (3, 3)):
            text = f"{dims[0]}x{dims[1]}"
            while True:
                rho_a, rho_b, ctx_a, ctx_b = _factor_states(rng, dims)
                comp = yield Op(f"build_composite-{text}",
                                functools.partial(cones.build_composite, ctx_a, ctx_b, seed=_seed(rng)),
                                functools.partial(_check_composite, rho_a, rho_b), redraw=True)
                if comp is not REDRAW:
                    break
            comps[dims] = comp
            yield Op(f"commutant_cone_check-{text}",
                     functools.partial(cones.commutant_cone_check, comp, seed=_seed(rng)), _check_commutant)
            quarter = oracles.psd_sqrt(np.kron(rho_a, rho_b), 0.25)
            threshold = oracles.isotropic_threshold(*dims)
            below = threshold * rng.uniform(0.1, 0.9, size=2)
            above = threshold + (1 - threshold) * rng.uniform(0.1, 0.9, size=2)
            for fidelity in (*below, *above):
                sigma = oracles.isotropic_state(*dims, fidelity)
                xi = comp.joint.vector(quarter @ sigma @ quarter)
                yield Op(f"pn_intersection_membership-{text}",
                         functools.partial(cones.pn_intersection_membership, comp, xi),
                         functools.partial(_check_membership, sigma, dims, float(fidelity)))

        for dims, terms, pure in self.SEEDED_MIXTURES:
            sigma = oracles.product_mixture(rng, *dims, terms, pure)
            yield Op(f"separable-{dims[0]}x{dims[1]}-{terms}-terms",
                     functools.partial(cones.separable_cone_distance, comps[dims], comps[dims].joint.vector(sigma)),
                     functools.partial(_check_separable, sigma, dims, False))
        for dims, terms, sigma in self.fault_inputs:
            comp = self.fault_comps[dims]
            yield Op(f"separable-{dims[0]}x{dims[1]}-{terms}-pure-terms",
                     functools.partial(cones.separable_cone_distance, comp, comp.joint.vector(sigma)),
                     functools.partial(_check_separable, sigma, dims, True), fault=_separable_fault)


WORKLOADS = {w.name: w for w in (SqrtSampling, PptMinimize, ConeCertify)}
