"""Deterministic, chunk-parallel random streams.

Every stream is identified by an integer key tuple and generated in
fixed-size blocks: block ``b`` of stream ``key`` comes from its own
counter-based Philox generator seeded from ``SeedSequence([*key, b])``.
Block boundaries depend only on the draw index, never on the worker
count, so a stream can be filled by any number of threads and still
produce bit-identical output.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["BLOCK_SIZE", "block_generator", "standard_normal_stream", "uniform_stream",
           "derive_seed"]

BLOCK_SIZE = 1 << 16

# stream tags keep the samplers of different quantities decorrelated
STREAM_PAIRS = 1
STREAM_POINT_BRIDGE = 2
STREAM_POINT_SHIFT = 3
STREAM_INTERVAL_SIGNAL = 4
STREAM_INTERVAL_BRIDGE = 5


def _as_entropy(key) -> list[int]:
    if isinstance(key, (int, np.integer)):
        key = (int(key),)
    ent = [int(k) for k in key]
    if any(k < 0 for k in ent):
        raise ValueError(f"seed key must be nonnegative, got {ent}")
    return ent


def block_generator(key, block: int) -> np.random.Generator:
    """Generator for one block of the stream identified by `key`."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(_as_entropy(key) + [block])))


def derive_seed(seed: int, *path: int) -> int:
    """Collision-resistant child seed for (seed, path), e.g. one per table cell."""
    ss = np.random.SeedSequence(_as_entropy(seed) + [int(p) for p in path])
    return int(ss.generate_state(1, np.uint64)[0])


def _block_stream(key, n: int, cols: int, workers: int, draw) -> np.ndarray:
    """n rows of `cols` draws, block b filled in place by draw(block_generator(key, b), out=rows)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = np.empty((n, cols))
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE

    def fill(b: int) -> None:
        lo = b * BLOCK_SIZE
        hi = min(n, lo + BLOCK_SIZE)
        draw(block_generator(key, b), out=out[lo:hi])

    if workers > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(n_blocks)))
    else:
        for b in range(n_blocks):
            fill(b)
    return out[:, 0] if cols == 1 else out


def standard_normal_stream(key, n: int, cols: int = 1, workers: int = 1) -> np.ndarray:
    """n rows of `cols` iid standard normals, reproducible for fixed key.

    The output is independent of `workers`; threads fill disjoint blocks.
    Returns shape (n,) when cols == 1, else (n, cols).
    """
    return _block_stream(key, n, cols, workers, np.random.Generator.standard_normal)


def uniform_stream(key, n: int, workers: int = 1) -> np.ndarray:
    """n iid uniforms on [0, 1), reproducible for fixed key and independent of `workers`."""
    return _block_stream(key, n, 1, workers, np.random.Generator.random)
