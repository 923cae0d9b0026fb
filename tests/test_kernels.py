"""The vectorized per-pixel kernels against their scalar oracles.

reproject.remap and fusion._consume_pass must agree bitwise with the
per-pixel loops in oracles.py.
"""

import numpy as np
import pytest

from mvsgeo.fusion import _consume_pass
from mvsgeo.reproject import CoordinateGrid, DepthMap, remap

from oracles import _scalar_bilinear, scalar_consume_pass


def flat_index(sx, sy, w):
    """The consume pass's int32 landing index of (sx, sy) pixels, -1 where sx is."""
    return np.where(sx >= 0, sy * w + sx, -1).astype(np.int32)


def _assert_remap_matches_oracle(values, valid, xs, ys, cv):
    got = remap(DepthMap(values, valid), CoordinateGrid(xs, ys, cv))
    values = np.where(valid, values, 0.0)
    h, w = xs.shape
    for i in range(h):
        for j in range(w):
            want = _scalar_bilinear(values, valid, xs[i, j], ys[i, j]) if cv[i, j] else None
            if want is None:
                assert not got.valid[i, j] and got.values[i, j] == 0.0
            else:
                assert got.valid[i, j] and got.values[i, j] == want
    return got


def test_remap_matches_scalar_oracle_bitwise(rng):
    for _ in range(10):
        hs, ws = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        h, w = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        values = rng.uniform(1, 1000, (hs, ws))
        valid = rng.random((hs, ws)) > 0.15
        xs = rng.uniform(-2, ws + 1, (h, w))
        ys = rng.uniform(-2, hs + 1, (h, w))
        cv = rng.random((h, w)) > 0.1
        _assert_remap_matches_oracle(values, valid, xs, ys, cv)
    # Queries exactly on the last column W-1 and the last row H-1, also on
    # 1-pixel-wide and 1-pixel-tall maps: all of them sample a valid map.
    for hs, ws in ((1, 1), (1, 6), (5, 1), (4, 7)):
        values = rng.uniform(1, 1000, (hs, ws))
        valid = np.ones((hs, ws), dtype=bool)
        xs, ys = np.meshgrid([0.0, (ws - 1) / 2, ws - 1.0], [0.0, (hs - 1) / 2, hs - 1.0])
        got = _assert_remap_matches_oracle(values, valid, xs, ys, np.ones(xs.shape, dtype=bool))
        assert got.valid.all()
        assert got.values[-1, -1] == values[-1, -1]


@pytest.mark.parametrize("mode", [0, 1])
@pytest.mark.parametrize("avg", [0, 1])
def test_consume_pass_matches_scalar_oracle_bitwise(rng, mode, avg):
    n_src, h, w = 4, 12, 15
    ref_depth = rng.uniform(400, 900, (h, w))
    ref_valid = rng.random((h, w)) > 0.1
    conf = rng.random((h, w))
    disp = np.where(rng.random((n_src, h, w)) > 0.2, rng.uniform(0, 2, (n_src, h, w)), np.inf)
    rdd = np.where(np.isfinite(disp), rng.uniform(0, 0.02, (n_src, h, w)), np.inf)
    dres = np.where(np.isfinite(disp), ref_depth[None] * rng.uniform(0.99, 1.01, (n_src, h, w)), 0.0)
    sx = rng.integers(-1, w, (n_src, h, w))
    sy = np.where(sx >= 0, rng.integers(0, h, (n_src, h, w)), -1)
    table = np.array([[1.0, 0.01], [1.25, 0.0125], [1.5, 0.015]])
    consumed1 = np.zeros((n_src + 1, h, w), dtype=np.uint8)
    consumed2 = consumed1.copy()
    src_idx = np.arange(1, n_src + 1, dtype=np.int64)
    f1, m1 = scalar_consume_pass(ref_depth, ref_valid, conf, disp, rdd, dres, sx, sy,
                                 consumed1, 0, src_idx, 0.4, 2, mode, table, avg)
    # The production pass has no mode: fusibile is its one-row table.  It
    # takes the landing pixel as one flat index.
    f2, m2 = _consume_pass(ref_depth, ref_valid, conf, disp, rdd, dres, flat_index(sx, sy, w),
                           consumed2, 0, src_idx, 0.4, 2, table[:1] if mode == 0 else table, avg)
    assert np.array_equal(m1, m2)
    assert np.array_equal(f1, f2)
    assert np.array_equal(consumed1, consumed2)
    assert m1.sum() > 0  # the configuration exercises real fusions


def test_consume_pass_respects_consumed_and_confidence():
    n_src, h, w = 2, 4, 4
    ref_depth = np.full((h, w), 500.0)
    ref_valid = np.ones((h, w), dtype=bool)
    conf = np.full((h, w), 0.9)
    conf[0, 0] = 0.1
    disp = np.zeros((n_src, h, w))
    rdd = np.zeros((n_src, h, w))
    dres = np.full((n_src, h, w), 500.0)
    sx = np.zeros((n_src, h, w), dtype=np.int64)
    sy = np.zeros((n_src, h, w), dtype=np.int64)
    consumed = np.zeros((3, h, w), dtype=np.uint8)
    consumed[0, 1, 1] = 1  # pre-consumed reference pixel
    table = np.array([[1.0, 0.01]])
    fused, mask = _consume_pass(ref_depth, ref_valid, conf, disp, rdd, dres, flat_index(sx, sy, w),
                                consumed, 0, np.array([1, 2], dtype=np.int64),
                                0.5, 1, table, 0)
    assert mask[0, 0] == 0      # confidence gate
    assert mask[1, 1] == 0      # consumed pixel skipped
    assert mask[2, 2] == 1
    assert fused[2, 2] == pytest.approx(500.0)
    # every passing source marked consumed at its landing pixel (0, 0)
    assert consumed[1, 0, 0] == 1 and consumed[2, 0, 0] == 1
