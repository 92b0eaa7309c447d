"""Seeded sampling helpers.

All randomness in the package flows through ``generator``, which wraps
numpy's Philox bit generator.  Philox is counter-based, so a given integer
seed reproduces the same stream on every platform and numpy build; this is
what makes seeded CLI reports byte-identical across runs.
"""

from __future__ import annotations

import numpy as np


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for ``seed``; ``stream`` splits independent uses."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed) + (np.uint64(stream) << np.uint64(32))))


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return complex_gaussians(rng, 1, rows, cols)[0]


def complex_gaussians(rng: np.random.Generator, count: int, rows: int, cols: int) -> np.ndarray:
    """``count`` successive ``complex_gaussian`` draws as one (count, rows, cols)
    stack; the generator moves on exactly as after the single draws."""
    z = rng.standard_normal((count, 2, rows, cols))
    return z[:, 0] + 1j * z[:, 1]


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Wishart-style PSD sample G G^dagger, normalized to unit trace."""
    return _unit_trace_gram(complex_gaussian(rng, dim, dim))


def _unit_trace_gram(g: np.ndarray) -> np.ndarray:
    """G G^dagger / Tr, for a matrix or for each matrix of a stack."""
    p = g @ g.conj().swapaxes(-1, -2)
    return p / np.trace(p, axis1=-2, axis2=-1).real[..., None, None]


def random_faithful_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Trace-one PSD sample with min eigenvalue >= 0.1/dim (well-conditioned)."""
    return 0.9 * random_psd(rng, dim) + 0.1 * np.eye(dim) / dim


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_product_density(rng: np.random.Generator, dim_a: int, dim_b: int, terms: int = 1) -> np.ndarray:
    """Convex mixture of ``terms`` product states on the given bipartite shape."""
    out = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
    weights = rng.dirichlet(np.ones(terms)) if terms > 1 else [1.0]
    for w in weights:
        out = out + w * np.kron(random_psd(rng, dim_a), random_psd(rng, dim_b))
    return out
