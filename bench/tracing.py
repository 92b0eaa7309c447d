"""Per-layer tracing, installed from outside the package.

``Tracer.install`` replaces each traced function by a wrapper at every
module of the package that binds it, so that nested calls are seen too:
``constructions`` imports ``sample_ppt_density`` by name, and ``optim``
calls ``project_ppt`` through its own module globals.  numpy's ``eigh`` and
``eigvalsh`` are wrapped on ``numpy.linalg`` itself, because the package
calls them as ``np.linalg.eigh``.  ``uninstall`` puts every original back,
so an untraced pass wraps nothing.

A wrapper records a span (name, start, end, parent) only while an op span
opened by the benchmark is on the stack, so the benchmark's own numpy
checks are not counted.  Spans stay in memory in flat arrays and are
written out at the end; self time and busy time are derived from them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array

import numpy as np

PACKAGE = "modular_ppt"

# span name -> (module, attribute) pairs that it covers
TARGETS = {
    "linalg.as_matrix": [("linalg", "as_matrix")],
    "linalg.partial_transpose": [("linalg", "partial_transpose")],
    "linalg.project_psd": [("linalg", "project_psd")],
    "linalg.mat_sqrt_psd": [("linalg", "mat_sqrt_psd")],
    "optim.project_ppt": [("optim", "project_ppt")],
    "optim.sample_ppt_density": [("optim", "sample_ppt_density")],
    "optim.min_trace_over_ppt": [("optim", "min_trace_over_ppt")],
    "choi.dual_pairing_test": [("choi", "dual_pairing_test")],
    "gns.build_gns": [("gns", "build_gns")],
    "gns.apply": [("gns", f) for f in ("apply_u", "apply_delta_power", "apply_j",
                                        "apply_jm", "apply_tau")],
    "gns.verify_modular_identities": [("gns", "verify_modular_identities")],
    "cones.build_composite": [("cones", "build_composite")],
    "cones.one_otimes_ub": [("cones", "one_otimes_ub")],
    "cones.state_to_cone_vector": [("cones", "state_to_cone_vector")],
    "cones.pn_intersection_membership": [("cones", "pn_intersection_membership")],
    "cones.duality_check": [("cones", "duality_check")],
    "cones.u_maps_cones": [("cones", "u_maps_cones")],
    "cones.commutant_cone_check": [("cones", "commutant_cone_check")],
    "cones.separable_cone_distance": [("cones", "separable_cone_distance")],
    "constructions.sqrt_ppt_experiment": [("constructions", "sqrt_ppt_experiment")],
    "cli.run_command": [("cli", "run_command")],
    "io.save_report": [("io", "save_report")],
}
NUMPY_TARGETS = {"linalg.eig": ("eigh", "eigvalsh")}

# (layer, stats) in report order; each stat is one per-layer metric
LAYER_STATS = [
    ("linalg.eig", ("calls", "busy_s", "n3_sum")),
    ("linalg.as_matrix", ("calls", "busy_s")),
    ("linalg.partial_transpose", ("calls", "busy_s")),
    ("linalg.project_psd", ("calls", "busy_s")),
    ("linalg.mat_sqrt_psd", ("calls", "busy_s")),
    ("optim.project_ppt", ("calls", "busy_s", "sweeps", "sweeps_p90", "snaps", "snap_share")),
    ("optim.sample_ppt_density", ("calls", "busy_s")),
    ("optim.min_trace_over_ppt", ("calls", "busy_s", "steps", "inner_projections",
                                  "projections_per_step")),
    ("choi.dual_pairing_test", ("calls", "self_s")),
    ("gns.build_gns", ("calls", "busy_s")),
    ("gns.apply", ("calls", "busy_s")),
    ("gns.verify_modular_identities", ("busy_s",)),
    ("cones.build_composite", ("calls", "busy_s")),
    ("cones.one_otimes_ub", ("calls", "busy_s")),
    ("cones.state_to_cone_vector", ("calls", "busy_s")),
    ("cones.pn_intersection_membership", ("calls", "busy_s")),
    ("cones.duality_check", ("busy_s",)),
    ("cones.u_maps_cones", ("busy_s",)),
    ("cones.commutant_cone_check", ("busy_s",)),
    ("cones.separable_cone_distance", ("calls", "busy_s", "lmo_steps", "converged",
                                       "converged_share")),
    ("constructions.sqrt_ppt_experiment", ("calls", "self_s")),
    ("cli.run_command", ("self_s",)),
    ("io.save_report", ("calls", "busy_s", "bytes")),
    ("trace.pass", ("traced_s", "untraced_s", "overhead_s")),
]

# stat -> (unit, better)
STAT_UNITS = {
    "calls": ("count", "lower"),
    "busy_s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "n3_sum": ("count", "lower"),
    "sweeps": ("count", "lower"),
    "sweeps_p90": ("count", "lower"),
    "snaps": ("count", "lower"),
    "snap_share": ("ratio", "lower"),
    "steps": ("count", "lower"),
    "inner_projections": ("count", "lower"),
    "projections_per_step": ("ratio", "lower"),
    "lmo_steps": ("count", "lower"),
    "converged": ("count", "higher"),
    "converged_share": ("ratio", "higher"),
    "bytes": ("B", "lower"),
    "traced_s": ("s", "lower"),
    "untraced_s": ("s", "lower"),
    "overhead_s": ("s", "lower"),
}

# metrics that count work and must repeat exactly for a fixed seed
COUNT_STATS = ("calls", "n3_sum", "sweeps", "sweeps_p90", "snaps", "steps",
               "inner_projections", "lmo_steps", "converged")


def metric_names() -> list[str]:
    return [f"{layer}.{stat}" for layer, stats in LAYER_STATS for stat in stats]


class Tracer:
    """Span recorder plus the counters that need a function's return value."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.nested = array("b")      # 1 when a span of the same name encloses it
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.sweeps: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        depth = self.active.get(name, 0)
        self.nested.append(1 if depth else 0)
        self.active[name] = depth + 1
        self.stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        name = self.names[self.name[idx]]
        self.active[name] -= 1

    def bump(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = {mod_name: importlib.import_module(f"{PACKAGE}.{mod_name}")
                   for pairs in TARGETS.values() for mod_name, _ in pairs}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for span, pairs in TARGETS.items():
            for mod_name, attr in pairs:
                original = getattr(targets[mod_name], attr)
                wrapper = self._wrap(span, original, AFTER.get(span))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
        for span, attrs in NUMPY_TARGETS.items():
            for attr in attrs:
                original = getattr(np.linalg, attr)
                self._patches.append((np.linalg, attr, original))
                setattr(np.linalg, attr, self._wrap(span, original, AFTER.get(span)))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    # -- derived metrics ---------------------------------------------------

    def mark(self) -> tuple[int, dict, int]:
        """Position to pass to ``pass_metrics`` once a traced pass is over."""
        return len(self.name), dict(self.counts), len(self.sweeps)

    def pass_metrics(self, since: tuple[int, dict, int]) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded after ``since``."""
        lo, counts0, sweeps0 = since
        hi = len(self.name)
        name = np.frombuffer(self.name, dtype=np.uint16)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        nested = np.frombuffer(self.nested, dtype=np.int8)[lo:hi].astype(bool)
        dur = np.frombuffer(self.end, dtype=np.float64)[lo:hi] - np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        child = np.zeros(hi - lo)
        inside = parent >= lo
        np.add.at(child, parent[inside] - lo, dur[inside])
        self_time = dur - child

        def count(key: str) -> float:
            return self.counts.get(key, 0.0) - counts0.get(key, 0.0)

        out: dict[str, float] = {}
        for layer, stats in LAYER_STATS:
            if layer == "trace.pass":
                continue
            nid = self._ids.get(layer)
            mask = name == nid if nid is not None else np.zeros(hi - lo, dtype=bool)
            values = {
                "calls": float(mask.sum()),
                "busy_s": float(dur[mask & ~nested].sum()),
                "self_s": float(self_time[mask].sum()),
            }
            for stat in stats:
                key = f"{layer}.{stat}"
                out[key] = values[stat] if stat in values else count(key)
        # derived stats, overwriting the zero counts above
        sweeps = sorted(self.sweeps[sweeps0:])
        # nearest-rank p90
        out["optim.project_ppt.sweeps_p90"] = float(sweeps[-(-9 * len(sweeps) // 10) - 1]) if sweeps else 0.0
        out["optim.project_ppt.snap_share"] = _share(out["optim.project_ppt.snaps"],
                                                     out["optim.project_ppt.calls"])
        out["optim.min_trace_over_ppt.projections_per_step"] = _share(
            out["optim.min_trace_over_ppt.inner_projections"], out["optim.min_trace_over_ppt.steps"])
        out["cones.separable_cone_distance.converged_share"] = _share(
            out["cones.separable_cone_distance.converged"], out["cones.separable_cone_distance.calls"])
        return {name: out[name] for name in metric_names() if name in out}

    def discard(self, since: tuple[int, dict, int]) -> None:
        """Drop the spans recorded after ``since``, once their metrics are taken."""
        lo, _, sweeps0 = since
        for arr in (self.name, self.parent, self.nested, self.start, self.end):
            del arr[lo:]
        del self.sweeps[sweeps0:]

    def write_spans(self, path: str) -> None:
        """All spans as flat arrays; times in ns from the tracer's creation."""
        base = self.t0
        payload = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": [int((t - base) * 1e9) for t in self.start],
            "end_ns": [int((t - base) * 1e9) for t in self.end],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# --- counters read from return values ----------------------------------------

def _after_eig(tracer: Tracer, args, kwargs, result) -> None:
    shape = np.shape(args[0] if args else kwargs["a"])
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    tracer.bump("linalg.eig.n3_sum", batch * shape[-1] ** 3)


def _after_project_ppt(tracer: Tracer, args, kwargs, result) -> None:
    trace = result[1]
    tracer.bump("optim.project_ppt.sweeps", trace.iterates)
    tracer.bump("optim.project_ppt.snaps", int(trace.snapped))
    tracer.sweeps.append(int(trace.iterates))
    if tracer.active.get("optim.min_trace_over_ppt", 0):
        tracer.bump("optim.min_trace_over_ppt.inner_projections")


def _after_min_trace(tracer: Tracer, args, kwargs, result) -> None:
    tracer.bump("optim.min_trace_over_ppt.steps", result[2].iterates)


def _after_separable(tracer: Tracer, args, kwargs, result) -> None:
    info = result[2]
    tracer.bump("cones.separable_cone_distance.lmo_steps", len(info["history"]))
    tracer.bump("cones.separable_cone_distance.converged", int(bool(info["converged"])))


def _after_save_report(tracer: Tracer, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.bump("io.save_report.bytes", os.path.getsize(path))


AFTER = {
    "linalg.eig": _after_eig,
    "optim.project_ppt": _after_project_ppt,
    "optim.min_trace_over_ppt": _after_min_trace,
    "cones.separable_cone_distance": _after_separable,
    "io.save_report": _after_save_report,
}
