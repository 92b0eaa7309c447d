"""Command-line surface.

Every command runs a seeded, deterministic suite and emits a JSON report
of the form {"body": ..., "timing": ...}; identical configurations give
byte-identical bodies (timing is kept outside the body for that reason).

Exit codes: 0 all assertions passed, 1 an assertion failed (the body
names the offending residual), 2 input or contract error, 3 a numerical
computation failed: two independent computation routes disagreed
(ConsistencyError) or a LAPACK routine did not converge (LinAlgError).
For 2 and 3 a JSON diagnostic object is emitted instead of a report.
Exit 2 comes before anything is drawn for a bad --tol (malformed, not
finite or negative), --seed, --samples or --dims (``choi`` and
``hierarchy`` need dim_a >= 2, ``construct`` a joint dimension within
constructions.MAX_CONSTRUCT_DIM), for samples * N^2 over
linalg.MAX_STACK_ENTRIES on the commands that stack --samples N x N
matrices (READS), and for an --out that is a directory or lies in a
missing one.

``minimize`` reports a certified bracket of min Tr(DH) over PPT states:
``value`` (Tr(DH) at a PPT state, whose diagonal is ``minimizer_diag``),
``lower_bound``, their ``gap`` and ``converged`` (the gap met the solver's
criterion within ``--iters``); see ``optim.min_trace_over_ppt``.  Its
timing section holds the solver's ``iterations`` and
``certificate_checks`` (exact bracket evaluations).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import choi, cones, constructions, gns, linalg, optim, rand
from .errors import ConditioningError, ConsistencyError, ContractError, DimensionLimitError, ShapeError
from .io import load_matrix, report_body_text, save_report
from .linalg import TOL_PSD, BipartiteShape, _norms, hermitize, require_bipartite, require_count, require_density
from .rand import complex_gaussian, complex_gaussians, generator, random_faithful_density

@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int = 0
    dims: tuple[int, int] | int | None = None
    samples: int = 100
    iters: int | None = None
    tol: dict = field(default_factory=dict)
    in_path: str | None = None
    out_path: str | None = None

    def echo(self) -> dict:
        return {
            "command": self.command,
            "seed": self.seed,
            "dims": list(self.dims) if isinstance(self.dims, tuple) else self.dims,
            "samples": self.samples,
            "iters": self.iters,
            "tol": dict(sorted(self.tol.items())),
            "in": self.in_path,
        }


def _parse_dims(text: str) -> tuple[int, int] | int:
    try:
        factors = tuple(int(part) for part in text.lower().split("x", 1))
    except ValueError:
        raise ContractError(f"--dims expects N or NxM, got {text!r}") from None
    if min(factors) < 1 or math.prod(factors) > linalg.MAX_DIM:
        raise ContractError(f"--dims {text!r} needs factors >= 1 and a dense dimension <= {linalg.MAX_DIM}")
    return factors if len(factors) == 2 else factors[0]


def _bipartite(cfg: RunConfig) -> BipartiteShape:
    if not isinstance(cfg.dims, tuple):
        raise ContractError(f"command {cfg.command!r} needs --dims NxM")
    return BipartiteShape(*cfg.dims)


def _single_dim(cfg: RunConfig) -> int:
    if isinstance(cfg.dims, tuple):
        raise ContractError(f"command {cfg.command!r} needs a single --dims N")
    if cfg.dims is None:
        raise ContractError(f"command {cfg.command!r} needs --dims N")
    return cfg.dims


def _input_operator(cfg: RunConfig) -> tuple[np.ndarray, BipartiteShape, str]:
    """The --in matrix, its split (from --dims or else the file's shape field) and its load-validated kind."""
    if cfg.in_path is None:
        raise ContractError(f"{cfg.command} needs --in FILE")
    m, meta = load_matrix(cfg.in_path)
    shape = _bipartite(cfg) if cfg.dims is not None else meta.get("shape")
    if shape is None:
        raise ContractError(f"{cfg.command} needs --dims NxM (or a shape field in the file)")
    return m, shape, meta["kind"]


def _context_for(cfg: RunConfig, dim: int) -> gns.GnsContext:
    return gns.build_gns(random_faithful_density(generator(cfg.seed), dim))


def run_gns_verify(cfg: RunConfig) -> tuple[dict, bool]:
    ctx = _context_for(cfg, _single_dim(cfg))
    report = gns.verify_modular_identities(ctx, samples=cfg.samples, seed=cfg.seed)
    rng = generator(cfg.seed, stream=1)
    n = ctx.dim
    draws = complex_gaussians(rng, 2 * cfg.samples, n, n).reshape(cfg.samples, 2, n, n)
    a = draws[:, 0]
    a /= _norms(a)[:, None, None]  # in place: one stack fewer at the peak
    zeta = gns.GnsVector(draws[:, 1], ctx)
    xi = gns.GnsVector(a @ ctx.sqrt_rho, ctx)
    polar = gns._gap(gns.apply_tau(ctx, xi), gns.apply_u(ctx, gns.apply_delta_power(ctx, 0.5, xi)))
    del xi
    lhs = gns._flip(ctx, a) @ zeta.mat
    rhs = gns.apply_j(ctx, gns.GnsVector(a.conj().swapaxes(-1, -2) @ gns.apply_j(ctx, zeta).mat, ctx)).mat
    transp = float(np.max(np.abs(lhs - rhs)))
    report["polar_decomposition"] = polar
    report["operator_transpose_via_j"] = transp
    passed = report["passed"] and polar <= 1e-10 and transp <= 1e-10
    report["passed"] = bool(passed)
    return {"residuals": report}, passed


def run_cone_check(cfg: RunConfig) -> tuple[dict, bool]:
    ctx = _context_for(cfg, _single_dim(cfg))
    tol = cfg.tol.get("membership", cones.DEFAULT_TOL)
    betas = (0.0, 0.125, 0.25, 0.375, 0.5)
    duality = [cones.duality_check(ctx, b, samples=cfg.samples, seed=cfg.seed, tol=tol) for b in betas]
    flips = [cones.u_maps_cones(ctx, b, samples=cfg.samples, seed=cfg.seed, tol=tol) for b in betas]
    passed = all(r["passed"] for r in duality) and all(r["passed"] for r in flips)
    return {"duality": duality, "u_maps": flips, "passed": passed}, passed


def run_choi(cfg: RunConfig) -> tuple[dict, bool]:
    shape = _bipartite(cfg)
    rng = generator(cfg.seed)
    h = hermitize(complex_gaussian(rng, shape.dim, shape.dim))
    table = choi.map_from_choi(h, shape)
    round_exact = bool(np.array_equal(choi.choi_from_map(table), h))
    a1 = complex_gaussian(rng, shape.dim_a, shape.dim_a)
    a2 = complex_gaussian(rng, shape.dim_a, shape.dim_a)
    lin = float(np.max(np.abs(
        choi.apply_map(table, a1 + 2j * a2)
        - choi.apply_map(table, a1) - 2j * choi.apply_map(table, a2))))
    transp_choi = choi.choi_from_map(choi.transposition_map_table(shape.dim_a))
    transp_min = float(linalg._eigvalsh(hermitize(transp_choi))[0])
    ident_choi = choi.choi_from_map(choi.identity_map_table(shape.dim_a))
    ident_eigs = linalg._eigvalsh(hermitize(ident_choi))
    body = {
        "round_trip_bit_exact": round_exact,
        "linearity_residual": lin,
        "transposition_choi_min_eig": transp_min,
        "identity_choi_top_eig": float(ident_eigs[-1]),
        "identity_choi_rank_one": bool(np.all(np.abs(ident_eigs[:-1]) <= 1e-10)),
    }
    passed = round_exact and lin <= 1e-12 and abs(transp_min + 1.0) <= 1e-10 and body["identity_choi_rank_one"]
    body["passed"] = bool(passed)
    return body, passed


def run_ppt_check(cfg: RunConfig) -> tuple[dict, bool]:
    m, shape, kind = _input_operator(cfg)
    tol = cfg.tol.get("psd", TOL_PSD)
    d = require_bipartite(m, shape)  # loading has validated a density file; any other kind is checked here
    min_eig, witness = optim._gamma_witness(d if kind == "density" else require_density(d), shape, tol)
    body = {
        "ppt": bool(min_eig >= -tol),
        "min_eig_gamma": min_eig,
        "witness_found": witness is not None,
    }
    if witness is not None:
        body["witness_pairing"] = float(np.trace(witness @ m).real)
    return body, True  # verdict reporting, not an assertion


def run_minimize(cfg: RunConfig) -> tuple[dict, bool, dict]:
    h, shape, _ = _input_operator(cfg)
    spec = optim.PptSetSpec(shape)
    value, minimizer, trace = optim.min_trace_over_ppt(h, spec, iters=1500 if cfg.iters is None else cfg.iters)
    body = {
        "value": value,
        "lower_bound": trace.lower_bound,
        "gap": trace.gap,
        "converged": trace.converged,
        "feasibility_residual": optim.feasibility_residual(minimizer, spec),
        "minimizer_diag": np.diag(minimizer).real.tolist(),
    }
    return body, True, {"iterations": trace.iterates, "certificate_checks": trace.checks}


def run_construct(cfg: RunConfig) -> tuple[dict, bool]:
    shape = _bipartite(cfg)
    rng = generator(cfg.seed, stream=7)
    ctx_a = gns.build_gns(random_faithful_density(rng, shape.dim_a))
    ctx_b = gns.build_gns(random_faithful_density(rng, shape.dim_b))
    comp = cones.build_composite(ctx_a, ctx_b)
    _, report = constructions.construct_ppt_from_cone(comp, seed=cfg.seed)
    passed = bool(report["xi_inside"])
    report["passed"] = passed
    return report, passed


def run_anticomm(cfg: RunConfig) -> tuple[dict, bool]:
    shape = _bipartite(cfg)
    if shape.dim_a != 2:
        raise ContractError(f"anticomm needs --dims 2xM, got {shape.dim_a}x{shape.dim_b}")
    rng = generator(cfg.seed)
    kinds = ("product", "block_diag", "herm_offdiag", "antiherm_offdiag")
    reports = []
    for k in range(cfg.samples):
        inst = constructions.random_anticommutator_instance(rng, shape.dim_b, kinds[k % len(kinds)])
        if inst is not None:
            reports.append(constructions.verify_anticommutator_ppt(inst))
    falsified = [rep for rep in reports if rep["falsified"]]
    body = {
        "instances": len(reports),
        "falsifications": len(falsified),
        "min_gamma_eig": float(min((rep["min_gamma_eig"] for rep in reports), default=np.inf)),
        "max_instance_residual": max((rep["residual"] for rep in reports), default=0.0),
        "passed": not falsified and len(reports) == cfg.samples,
    }
    if falsified:  # the first 10, each with its serialized instance (rho, f, A)
        body["falsified_instances"] = [{**rep, "passed": False} for rep in falsified[:10]]
    return body, bool(body["passed"])


def run_experiment(cfg: RunConfig) -> tuple[dict, bool, dict]:
    body, tallies = constructions.sqrt_ppt_experiment(_bipartite(cfg), samples=cfg.samples, seed=cfg.seed)
    return body, body["passed"], tallies


def run_hierarchy(cfg: RunConfig) -> tuple[dict, bool]:
    shape = _bipartite(cfg)
    body = choi.hierarchy_report(shape, seed=cfg.seed, separable_samples=cfg.samples)
    return body, bool(body["passed"])


RUNNERS = {
    "gns-verify": run_gns_verify,
    "cone-check": run_cone_check,
    "choi": run_choi,
    "ppt-check": run_ppt_check,
    "minimize": run_minimize,
    "construct": run_construct,
    "anticomm": run_anticomm,
    "experiment": run_experiment,
    "hierarchy": run_hierarchy,
}
# the --in, --iters and --tol settings each command reads; run_command rejects any other that is set.
# --samples is listed where it sizes a stack of N x N matrices, whose entries config_from_args budgets
READS = {"gns-verify": ("--samples",), "cone-check": ("--samples", "--tol membership"),
         "ppt-check": ("--in", "--tol psd"), "minimize": ("--in", "--iters"),
         "experiment": ("--samples",), "hierarchy": ("--samples",)}


def run_command(cfg: RunConfig) -> tuple[int, dict]:
    """Execute one command; returns (exit code, full report).  A runner returns
    (results, passed) and may add a dict of solver counters for the timing."""
    if cfg.command not in RUNNERS:
        raise ContractError(f"unknown command {cfg.command!r}")
    reads = READS.get(cfg.command, ())
    given = [flag for flag, value in (("--in", cfg.in_path), ("--iters", cfg.iters)) if value is not None]
    for setting in given + [f"--tol {key}" for key in cfg.tol]:
        if setting not in reads:
            raise ContractError(f"{setting} is not read by {cfg.command!r} (it reads: {', '.join(reads) or 'none'})")
    started = time.time()
    results, passed, *counters = RUNNERS[cfg.command](cfg)
    body = {"command": cfg.command, "config": cfg.echo(), "results": results,
            "passed": bool(passed)}
    if not passed:
        body["failure"] = _name_failure(results)
    report = {"body": body, "timing": {"seconds": time.time() - started, **dict(*counters)}}
    if cfg.out_path:
        save_report(report, cfg.out_path)
    return (0 if passed else 1), report


def _name_failure(results: dict) -> str:
    for key, value in results.items():
        if isinstance(value, bool) and key != "passed" and not value:
            return key
        if isinstance(value, dict) and value.get("passed") is False:
            return key
        if isinstance(value, list):
            for i, entry in enumerate(value):
                if isinstance(entry, dict) and entry.get("passed") is False:
                    return f"{key}[{i}]"
    return "see results"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modular-ppt",
        description="PPT-state toolkit: modular cone geometry, map duality, PPT solvers.",
    )
    parser.add_argument("command", choices=RUNNERS)
    parser.add_argument("--in", dest="in_path", help="input matrix file (JSON)")
    parser.add_argument("--out", dest="out_path", help="report output path")
    parser.add_argument("--dims", help="N for one system, NxM for a bipartite one")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--iters", type=int, default=None)
    parser.add_argument("--tol", action="append", default=[], metavar="KEY=VAL",
                        help="tolerance override, e.g. --tol psd=1e-11")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    tol = {}
    for entry in args.tol:
        if "=" not in entry:
            raise ContractError(f"--tol expects KEY=VAL, got {entry!r}")
        key, val = entry.split("=", 1)
        try:
            tol[key] = float(val)
        except ValueError:
            raise ContractError(f"--tol {key} expects a number, got {val!r}") from None
        if not math.isfinite(tol[key]) or tol[key] < 0:
            raise ContractError(f"--tol {key} must be finite and >= 0, got {val!r}")
    require_count(args.samples, "--samples")
    if args.out_path and (os.path.isdir(args.out_path) or not os.path.isdir(os.path.dirname(args.out_path) or ".")):
        raise ContractError(f"--out must name a file in an existing directory, got {args.out_path!r}")
    if not 0 <= args.seed < rand.SEED_LIMIT:
        raise ContractError(f"--seed must lie in [0, 2^32), got {args.seed}")
    dims = _parse_dims(args.dims) if args.dims else None
    if args.command in ("choi", "hierarchy") and isinstance(dims, tuple) and dims[0] < 2:
        # on M_1 transposition is the identity map, so "positive but not CP" cannot hold there
        raise ContractError(f"{args.command} needs --dims NxM with N >= 2, got {args.dims!r}")
    if args.command == "construct" and isinstance(dims, tuple):
        constructions.require_construct_dim(math.prod(dims))
    if dims and "--samples" in READS.get(args.command, ()):
        dim = math.prod(dims) if isinstance(dims, tuple) else dims
        if args.samples * dim * dim > linalg.MAX_STACK_ENTRIES:
            raise ContractError(f"--samples {args.samples} at --dims {args.dims} stacks samples * N^2 ="
                                f" {args.samples * dim * dim} entries, over the cap {linalg.MAX_STACK_ENTRIES}")
    return RunConfig(
        command=args.command, seed=args.seed, dims=dims, samples=args.samples,
        iters=args.iters, tol=tol, in_path=args.in_path, out_path=args.out_path,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        code, report = run_command(cfg)
    except (ContractError, ShapeError, DimensionLimitError, ConditioningError,
            ConsistencyError, np.linalg.LinAlgError) as exc:
        diagnostic = {"error": str(exc), "kind": type(exc).__name__}
        field_name = getattr(exc, "field", None)
        if field_name:
            diagnostic["field"] = field_name
        print(json.dumps(diagnostic, sort_keys=True, indent=2))
        return 3 if isinstance(exc, (ConsistencyError, np.linalg.LinAlgError)) else 2
    print(report_body_text(report["body"]))
    return code


if __name__ == "__main__":
    sys.exit(main())
