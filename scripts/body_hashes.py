#!/usr/bin/env python3
"""Print short hashes of the report body and timing counters of each
pinned CLI configuration.

Each configuration runs in its own process with OPENBLAS_NUM_THREADS=1,
against the ``src`` tree next to this script, and writes its report with
``--out`` (which the body does not echo).  One line is printed per run:
``command args body timing``, where ``body`` is sha256[:16] of the printed
body and ``timing`` that of the saved report's ``timing`` without its
``seconds`` (the solver counters, such as ``experiment``'s ``dykstra_*``
tallies).  A run that leaves no report (an input error, exit 2, or a
traceback) prints ``command args exit N``; the last configurations are
out-of-range inputs that must exit 2.  Run the same copy of the script in
two checkouts (copy it into the other one's ``scripts``) and diff the
outputs to check that a change keeps report bodies byte-identical and the
counters unchanged:

    python scripts/body_hashes.py > after.txt
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIGS = (
    *(("experiment", "--dims", "2x2", "--seed", str(s)) for s in range(5)),
    *(("experiment", "--dims", dims, "--seed", str(s)) for dims in ("2x3", "3x3") for s in range(2)),
    *(("experiment", "--dims", "3x3", "--seed", str(s)) for s in range(2, 5)),
    ("experiment", "--dims", "2x4", "--seed", "0"),
    ("experiment", "--dims", "3x3", "--seed", "4", "--samples", "300"),  # has a snapped sample
    # 14 counterexamples on both sides of sample 256, of which 10 are reported
    ("experiment", "--dims", "2x2", "--seed", "3", "--samples", "300"),
    ("construct", "--dims", "2x2"),
    ("construct", "--dims", "2x3"),
    ("construct", "--dims", "3x3"),
    *(("construct", "--dims", "3x3", "--seed", str(s)) for s in range(1, 5)),
    ("hierarchy", "--dims", "2x2"),
    ("hierarchy", "--dims", "2x3"),
    ("hierarchy", "--dims", "3x3"),
    ("choi", "--dims", "2x2"),
    *(("cone-check", "--dims", d) for d in ("2", "3", "6", "9")),  # 9: the largest cone-certify dimension
    *(("gns-verify", "--dims", d) for d in ("2", "4", "9")),
    ("minimize", "--in", "swap.json", "--dims", "2x2"),
    ("minimize", "--in", "swap.json", "--dims", "2x2", "--iters", "300"),
    ("minimize", "--in", "choi_map.json", "--dims", "3x3"),  # real: the solver's float64 loop
    ("minimize", "--in", "choi_map_rotated.json", "--dims", "3x3"),  # complex: its complex128 loop
    ("anticomm", "--dims", "2x2"),
    ("anticomm", "--dims", "2x3"),
    ("anticomm", "--dims", "2x4"),
    ("ppt-check", "--in", "singlet.json", "--dims", "2x2"),
    ("ppt-check", "--in", "singlet.json", "--dims", "2x2", "--tol", "psd=1e-11"),
    ("ppt-check", "--in", "mixed.json", "--dims", "2x2"),  # PPT: no witness
    ("cone-check", "--dims", "3", "--tol", "membership=1e-9"),
    ("cone-check", "--dims", "4", "--samples", "7", "--seed", "3"),  # every field of the probes' draw key off its default
    ("minimize", "--in", "swap.json"),  # the split comes from the file's shape field
    ("minimize", "--in", "choi_map.json", "--dims", "3x3", "--seed", "2"),
    # ends uncertified: pins the check at the last iteration and an open bracket
    ("minimize", "--in", "choi_map.json", "--dims", "3x3", "--iters", "12"),
    ("hierarchy", "--dims", "3x3", "--seed", "1"),
    ("hierarchy", "--dims", "2x2", "--seed", "4294967295"),  # the last seed: every command takes [0, 2^32)
    # out of range: each exits 2 before it draws or allocates anything
    ("gns-verify", "--dims", "0"),
    ("cone-check", "--dims", "0"),
    ("choi", "--dims", "2x2", "--seed", "-1"),
    ("experiment", "--dims", "2x2", "--seed", "-1"),
    ("experiment", "--dims", "2x2", "--seed", "4294967296"),
    ("ppt-check", "--in", "bad_shape.json"),
    ("ppt-check", "--in", "."),  # a directory, not a matrix file
    ("ppt-check", "--in", "null.json"),  # valid JSON that is not an object
    ("choi", "--dims", "1x3"),  # transposition on M_1 is the identity map
    ("hierarchy", "--dims", "1x2"),
    ("construct", "--dims", "10x9"),  # over the construction cap 81, refused before any GNS context is built
    ("minimize", "--in", "huge.json"),  # finite entries whose Frobenius norm overflows
    ("anticomm", "--dims", "3x2"),  # anticomm needs a qubit first factor
    ("gns-verify", "--dims", "2x2"),  # one system, not a split
    ("experiment", "--dims", "3"),  # a split, not one system
    ("ppt-check", "--in", "mixed.json", "--dims", "2x2", "--tol", "psd=nan"),
    ("cone-check", "--dims", "3", "--tol", "membership=-1"),
)

# the 2x2 swap, the operator sum_ij E_ij (x) Phi(E_ij) of the Choi map Phi[2,0,1]
# Phi(X) = diag(2x11 + x33, 2x22 + x11, 2x33 + x22) - X on M_3 and its rotation
# (U (x) V) C (U (x) V)^dagger by two fixed-seed unitaries (complex, same minimum), the 2x2 singlet density
# and the 2x2 maximally mixed density I/4, that density with a shape field lacking dim_b,
# a JSON null, and diag(1, -1, 2, 0.5) * 1e160 on 2x2, finite with an infinite Frobenius norm
WRITE_INPUTS = (
    "import numpy as np\n"
    "from modular_ppt.choi import choi_from_map, generalized_choi_map, transposition_map_table\n"
    "from modular_ppt.io import save_matrix\n"
    "from modular_ppt.linalg import BipartiteShape\n"
    "save_matrix(choi_from_map(transposition_map_table(2)), 'swap.json', kind='hermitian',"
    " shape=BipartiteShape(2, 2))\n"
    "c = choi_from_map(generalized_choi_map(2, 0, 1))\n"
    "save_matrix(c, 'choi_map.json', kind='hermitian', shape=BipartiteShape(3, 3))\n"
    "rng = np.random.default_rng(7)\n"
    "u, v = (np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0] for _ in range(2))\n"
    "w = np.kron(u, v)\n"
    "save_matrix(w @ c @ w.conj().T, 'choi_map_rotated.json', kind='hermitian', shape=BipartiteShape(3, 3))\n"
    "psi = np.array([0, 1, -1, 0]) / np.sqrt(2)\n"
    "save_matrix(np.outer(psi, psi), 'singlet.json', kind='density', shape=BipartiteShape(2, 2))\n"
    "save_matrix(np.eye(4) / 4, 'mixed.json', kind='density', shape=BipartiteShape(2, 2))\n"
    "import json\n"
    "payload = json.load(open('mixed.json'))\n"
    "payload['shape'] = {'dim_a': 2}\n"
    "json.dump(payload, open('bad_shape.json', 'w'))\n"
    "json.dump(None, open('null.json', 'w'))\n"
    "save_matrix(np.diag([1.0, -1.0, 2.0, 0.5]) * 1e160, 'huge.json', kind='hermitian',"
    " shape=BipartiteShape(2, 2))\n"
)


def main() -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as work:
        # the body echoes the --in path, so it is the same relative name everywhere
        subprocess.run([sys.executable, "-c", WRITE_INPUTS], cwd=work, env=env, check=True)
        report = Path(work) / "report.json"
        for args in CONFIGS:
            report.unlink(missing_ok=True)
            run = subprocess.run([sys.executable, "-m", "modular_ppt.cli", *args, "--out", report.name],
                                 cwd=work, env=env, capture_output=True, check=False)
            if not report.exists():
                print(" ".join(args), f"exit {run.returncode}")
                continue
            timing = json.loads(report.read_text())["timing"]
            timing.pop("seconds")
            counters = json.dumps(timing, sort_keys=True).encode()
            print(" ".join(args), _digest(run.stdout), _digest(counters))
    return 0


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
