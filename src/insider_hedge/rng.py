"""Deterministic, chunk-parallel random streams.

Every stream is identified by an integer key tuple and generated in
fixed-size blocks: block ``b`` of stream ``key`` comes from its own
SFC64 generator, seeded once from ``SeedSequence([*key, b])``.  No
generator is advanced or jumped past its own block, so a small, fast
generator suffices.  Block boundaries depend only on the draw index,
never on the worker count, so a stream can be filled by any number of
threads and still produce bit-identical output.  A stream is one flat
array of standard normals or of uniforms; the samplers key theirs by
(seed, stream tag), so every tag below fixes the draws behind a table's
numbers.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["BLOCK_SIZE", "block_generator", "standard_normal_stream", "uniform_stream",
           "derive_seed"]

BLOCK_SIZE = 1 << 16

# stream tags keep the samplers of different quantities decorrelated
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
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(_as_entropy(key) + [block])))


def derive_seed(seed: int, *path: int) -> int:
    """Collision-resistant child seed for (seed, path), e.g. one per conditioning mode.

    The path length is part of the entropy: SeedSequence pads its entropy
    with zeros, so without it (s,) and (s, 0) would give the same seed.
    """
    ss = np.random.SeedSequence(_as_entropy(seed) + [int(p) for p in path] + [len(path)])
    return int(ss.generate_state(1, np.uint64)[0])


def _block_stream(key, n: int, workers: int, draw) -> np.ndarray:
    """n draws, block b filled in place by draw(block_generator(key, b), out=block)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = np.empty(n)
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
    return out


def standard_normal_stream(key, n: int, workers: int = 1) -> np.ndarray:
    """n iid standard normals, reproducible for fixed key.

    The output is independent of `workers`; threads fill disjoint blocks.
    """
    return _block_stream(key, n, workers, np.random.Generator.standard_normal)


def uniform_stream(key, n: int, workers: int = 1) -> np.ndarray:
    """n iid uniforms on [0, 1), reproducible for fixed key and independent of `workers`."""
    return _block_stream(key, n, workers, np.random.Generator.random)
