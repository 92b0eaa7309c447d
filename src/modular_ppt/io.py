"""Matrix and report serialization.

Matrices travel as JSON with split real/imaginary arrays (schema version
1), which keeps counterexamples diffable and round-trips every finite
double exactly.  A declared ``kind`` ("hermitian", "density", "generic")
is re-validated on load with the module tolerances.  All writes are
atomic: temp file in the target directory, then rename.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import ContractError, ShapeError
from .linalg import BipartiteShape, require_density, require_hermitian

SCHEMA_VERSION = "1"
KINDS = ("hermitian", "density", "generic")


class MatrixFileError(ContractError):
    """Raised with the offending field named, for exit-2 diagnostics."""

    def __init__(self, message: str, field: str):
        super().__init__(message)
        self.field = field


def matrix_to_payload(m: np.ndarray, kind: str = "generic",
                      shape: BipartiteShape | None = None) -> dict:
    m = np.asarray(m, dtype=complex)
    if kind not in KINDS:
        raise MatrixFileError(f"unknown kind {kind!r}", field="kind")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "rows": m.shape[0],
        "cols": m.shape[1],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
        "kind": kind,
    }
    if shape is not None:
        payload["shape"] = {"dim_a": shape.dim_a, "dim_b": shape.dim_b}
    return payload


def matrix_from_payload(payload: dict) -> tuple[np.ndarray, dict]:
    if not isinstance(payload, dict):
        raise MatrixFileError(f"matrix file must hold a JSON object, got {type(payload).__name__}", field="json")
    for key in ("schema_version", "rows", "cols", "re", "im"):
        if key not in payload:
            raise MatrixFileError(f"matrix file is missing field {key!r}", field=key)
    if payload["schema_version"] != SCHEMA_VERSION:
        raise MatrixFileError(
            f"unsupported schema_version {payload['schema_version']!r}", field="schema_version")
    rows, cols = payload["rows"], payload["cols"]
    try:
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise MatrixFileError(f"re/im arrays malformed: {exc}", field="re") from exc
    if re.shape != (rows, cols):
        raise MatrixFileError(f"re has shape {re.shape}, expected {(rows, cols)}", field="re")
    if im.shape != (rows, cols):
        raise MatrixFileError(f"im has shape {im.shape}, expected {(rows, cols)}", field="im")
    m = re + 1j * im
    meta = {"kind": payload.get("kind", "generic")}
    if "shape" in payload:
        shape = payload["shape"]
        dims = [shape.get(key) for key in ("dim_a", "dim_b")] if isinstance(shape, dict) else [None]
        if not all(type(d) is int and d >= 1 for d in dims):
            raise MatrixFileError(f"shape needs integers dim_a and dim_b >= 1, got {shape!r}", field="shape")
        if not dims[0] * dims[1] == rows == cols:
            raise MatrixFileError(f"shape {dims[0]}x{dims[1]} does not split a {rows}x{cols} matrix", field="shape")
        meta["shape"] = BipartiteShape(*dims)
    kind = meta["kind"]
    if kind not in KINDS:
        raise MatrixFileError(f"unknown kind {kind!r}", field="kind")
    try:
        if kind == "hermitian":
            require_hermitian(m)
        elif kind == "density":
            require_density(m)
    except (ContractError, ShapeError) as exc:
        raise MatrixFileError(f"matrix violates declared kind {kind!r}: {exc}", field="kind") from exc
    return m, meta


def atomic_write_text(text: str, path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_matrix(m: np.ndarray, path: str, kind: str = "generic",
                shape: BipartiteShape | None = None) -> None:
    atomic_write_text(json.dumps(matrix_to_payload(m, kind, shape), indent=2) + "\n", path)


def load_matrix(path: str) -> tuple[np.ndarray, dict]:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:  # missing, a directory, unreadable
        raise MatrixFileError(f"cannot read {path}: {exc.strerror}", field="path") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MatrixFileError(f"not valid JSON: {exc}", field="json") from exc
    return matrix_from_payload(payload)


def report_body_text(body: dict) -> str:
    """Canonical byte representation of a report body (determinism contract)."""
    return json.dumps(body, sort_keys=True, indent=2)


def save_report(report: dict, path: str) -> None:
    atomic_write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", path)
