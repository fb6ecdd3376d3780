"""Deterministic random streams, generated block by block.

Every stream is identified by an integer key tuple and generated in
fixed-size blocks: block ``b`` of stream ``key`` comes from its own
SFC64 generator, seeded once from ``SeedSequence([*key, b])``.  No
generator is advanced or jumped past its own block, so a small, fast
generator suffices.  Block boundaries depend only on the draw index,
and one loop fills the blocks in order, so a stream's values depend
only on its key.  A stream of standard normals or of uniforms comes
whole, as one flat array, or block by block in one reused buffer
(stream_blocks); both read the same loop.  Every command keys its
streams by (seed, stream tag): the tags below are distinct, so they
alone keep the streams of one seed apart, and a table and a hedge with
the same seed draw the same numbers.
Both point conditioning modes draw the one point stream.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = [
    "BLOCK_SIZE",
    "block_generator",
    "standard_normal_stream",
    "stream_blocks",
    "uniform_stream",
]

BLOCK_SIZE = 1 << 16

# stream tags keep the samplers of different quantities decorrelated
STREAM_POINT = 2
STREAM_INTERVAL_SIGNAL = 4
STREAM_INTERVAL_BRIDGE = 5


def _as_entropy(key) -> list[int]:
    ent = [int(k) for k in key]
    if any(k < 0 for k in ent):
        raise ValueError(f"seed key must be nonnegative, got {ent}")
    return ent


def block_generator(key, block: int) -> np.random.Generator:
    """Generator for one block of the stream identified by `key`."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(_as_entropy(key) + [block])))


def _fill_blocks(key, n: int, draw, out: np.ndarray) -> Iterator[np.ndarray]:
    """Fill and yield the blocks of n draws of stream `key`, in order.

    Block b is draw(block_generator(key, b), out=...) written into `out`:
    into its own slice out[b * BLOCK_SIZE:] of an n-long `out`, or into
    the head of a shorter `out`, one block long, that every block reuses.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    reuse = out.size < n
    for b, lo in enumerate(range(0, n, BLOCK_SIZE)):
        size = min(BLOCK_SIZE, n - lo)
        block = out[:size] if reuse else out[lo:lo + size]
        draw(block_generator(key, b), out=block)
        yield block


def _block_stream(key, n: int, draw) -> np.ndarray:
    """n draws, block b filled in place by draw(block_generator(key, b), out=block)."""
    out = np.empty(max(n, 0))
    for _ in _fill_blocks(key, n, draw, out):
        pass
    return out


def stream_blocks(key, n: int, draw) -> Iterator[np.ndarray]:
    """The n draws of stream `key`, one block of up to BLOCK_SIZE at a time.

    `draw` is np.random.Generator.standard_normal or .random, as for
    the whole streams, whose blocks these are, value for value.  Every
    block is filled into one buffer, allocated when the first block is
    asked for, so a block holds until the next one is.
    """
    yield from _fill_blocks(key, n, draw, np.empty(min(max(n, 0), BLOCK_SIZE)))


def standard_normal_stream(key, n: int) -> np.ndarray:
    """n iid standard normals, reproducible for fixed key."""
    return _block_stream(key, n, np.random.Generator.standard_normal)


def uniform_stream(key, n: int) -> np.ndarray:
    """n iid uniforms on [0, 1), reproducible for fixed key."""
    return _block_stream(key, n, np.random.Generator.random)
