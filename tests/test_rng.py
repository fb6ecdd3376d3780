"""The block streams themselves: frozen values, their law and block seams."""
import numpy as np
import pytest
from scipy import stats

from insider_hedge import rng
from insider_hedge.rng import (
    BLOCK_SIZE,
    STREAM_INTERVAL_SIGNAL,
    STREAM_POINT,
    standard_normal_stream,
    uniform_stream,
)

NORMAL_KEY = (0, STREAM_POINT)
UNIFORM_KEY = (0, STREAM_INTERVAL_SIGNAL)

# frozen from the SFC64 block streams: a change of generator, of block
# seeding or of block size fails here by name, not only in a golden digest
NORMAL_HEAD = [-0.9881975167249675, 0.7307761666850559, -0.3431564937220169, -0.7451915088394014]
NORMAL_BLOCK_1 = -0.020165636213936113
UNIFORM_HEAD = [0.6363148553098981, 0.7630177699481231, 0.40997015472979315, 0.3892096343904]
UNIFORM_BLOCK_1 = 0.5350126649051937

STREAMS = {"normal": (standard_normal_stream, NORMAL_KEY, "norm"),
           "uniform": (uniform_stream, UNIFORM_KEY, "uniform")}


class TestFrozenValues:
    def test_normal_stream(self):
        x = standard_normal_stream(NORMAL_KEY, BLOCK_SIZE + 1)
        assert x[:4].tolist() == NORMAL_HEAD
        assert x[BLOCK_SIZE] == NORMAL_BLOCK_1
        assert standard_normal_stream(NORMAL_KEY, 4).tolist() == NORMAL_HEAD

    def test_uniform_stream(self):
        u = uniform_stream(UNIFORM_KEY, BLOCK_SIZE + 1)
        assert u[:4].tolist() == UNIFORM_HEAD
        assert u[BLOCK_SIZE] == UNIFORM_BLOCK_1
        assert uniform_stream(UNIFORM_KEY, 4).tolist() == UNIFORM_HEAD


@pytest.mark.parametrize("kind", sorted(STREAMS))
class TestLaw:
    def test_ks_over_four_blocks(self, kind):
        stream, key, law = STREAMS[kind]
        x = stream(key, 4 * BLOCK_SIZE)
        assert stats.kstest(x, law).pvalue > 1e-3

    def test_no_correlation_across_block_boundaries(self, kind):
        stream, key, _ = STREAMS[kind]
        x = stream(key, 4 * BLOCK_SIZE)
        half = BLOCK_SIZE // 2
        for edge in range(BLOCK_SIZE, 4 * BLOCK_SIZE, BLOCK_SIZE):
            # lag-1 pairs in a window straddling the seam, half from each block
            window = x[edge - half:edge + half + 1]
            lag1 = np.corrcoef(window[:-1], window[1:])[0, 1]
            assert abs(lag1) < 4.0 / np.sqrt(window.size - 1), (edge, lag1)
            # draw i of one block against draw i of the next: a reused block seed gives 1
            cross = np.corrcoef(x[edge - BLOCK_SIZE:edge], x[edge:edge + BLOCK_SIZE])[0, 1]
            assert abs(cross) < 4.0 / np.sqrt(BLOCK_SIZE), (edge, cross)


def test_stream_tags_are_distinct():
    # every stream is keyed by (seed, tag), so the tags alone keep one seed's streams apart
    tags = [getattr(rng, name) for name in dir(rng) if name.startswith("STREAM_")]
    assert len(tags) == 3 and len(set(tags)) == len(tags)
