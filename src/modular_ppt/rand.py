"""Seeded sampling helpers.

All randomness in the package flows through ``generator``, which wraps
numpy's Philox bit generator.  Philox is counter-based, so a given integer
seed reproduces the same stream on every platform and numpy build; this is
what makes seeded CLI reports byte-identical across runs.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .linalg import require_integer

SEED_LIMIT = 2**32  # seeds lie in [0, SEED_LIMIT); the key's high 32 bits are the stream


def require_seed(seed: int) -> None:
    """seed is an integer in [0, SEED_LIMIT): ``np.uint64`` would truncate a
    float such as 1.5 to seed 1's stream."""
    require_integer(seed, "seed")
    if not 0 <= seed < SEED_LIMIT:
        raise ContractError(f"seed must lie in [0, 2^32), got {seed}")


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for ``seed``; ``stream`` splits independent uses."""
    require_seed(seed)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed) + (np.uint64(stream) << np.uint64(32))))


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return complex_gaussians(rng, 1, rows, cols)[0]


def complex_gaussians(rng: np.random.Generator, count: int, rows: int, cols: int) -> np.ndarray:
    """``count`` successive ``complex_gaussian`` draws as one (count, rows, cols)
    stack; the generator moves on exactly as after the single draws."""
    z = rng.standard_normal((count, 2, rows, cols))
    return z[:, 0] + 1j * z[:, 1]


def _factor_draws(rng: np.random.Generator, samples: int, terms: int,
                  na: int, nb: int) -> tuple[np.ndarray, np.ndarray]:
    """(samples, terms, ., .) stacks of a- and b-factors, the ``complex_gaussian`` draws of a loop
    over samples (terms a-factors, then terms b-factors), as one row per sample cut at the a block."""
    cut = 2 * terms * na * na
    z = rng.standard_normal((samples, cut + 2 * terms * nb * nb))
    z_a = z[:, :cut].reshape(samples, terms, 2, na, na)
    z_b = z[:, cut:].reshape(samples, terms, 2, nb, nb)
    return z_a[:, :, 0] + 1j * z_a[:, :, 1], z_b[:, :, 0] + 1j * z_b[:, :, 1]


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
