"""The vectorized per-pixel kernels against their scalar oracles.

reproject.remap and fuse's draw and consume pass must agree bitwise with
the per-pixel loops in oracles.py, and fusion's pass bits with the float
comparisons they store.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsgeo import reproject
from mvsgeo.fusion import (DEFAULT_DYNAMIC_TABLE, FusionParams, _consume_pass, _eligible_pixels, _row_bits,
                           _set_pass_bits)
from mvsgeo.reproject import CoordinateGrid, DepthMap, remap

from oracles import _scalar_bilinear, scalar_consume_pass


def flat_index(sx, sy, w):
    """The consume pass's int32 landing index of (sx, sy) pixels, -1 where sx is."""
    return np.where(sx >= 0, sy * w + sx, -1).astype(np.int32)


def pass_bits(disp, rdd, table):
    """The consume pass's pass bits, one pixel, source and row at a time.

    Rows 0 .. min(len(table), n_src) - 1 are kept; row r is bit r of the
    pixel's uint8 byte.
    """
    n_src, h, w = disp.shape
    bits = np.zeros((n_src, h, w), dtype=np.uint8)
    for s, i, j in np.ndindex(n_src, h, w):
        for r in range(min(len(table), n_src)):
            if disp[s, i, j] < table[r, 0] and rdd[s, i, j] < table[r, 1]:
                bits[s, i, j] |= 1 << r
    return bits


def consume(ref_depth, ref_valid, conf, bits, dres, flat, consumed, prob_threshold, min_consistent, n_table, avg):
    """fuse's draw and fusion._consume_pass on (H, W) frames and (n_src, H, W) stacks, reference 0.

    The draw (_eligible_pixels) packs the pixels the pass takes and the
    stacks at them; the sources are views 1 .. n_src; avg is the oracle's
    0 (mean) or 1 (median).  Returns the fused depth and mask as (H, W)
    frames, 0 and False at the pixels not drawn.
    """
    n_src, h, w = dres.shape
    params = FusionParams(prob_threshold=prob_threshold, consistency_threshold=min_consistent,
                          average=("mean", "median")[avg])
    pixels = _eligible_pixels(consumed[0], ref_valid, conf, prob_threshold)
    stacks = tuple(a.reshape(n_src, h * w)[:, pixels] for a in (bits, dres, flat))
    fused, mask = _consume_pass(DepthMap(ref_depth, ref_valid), pixels, stacks, consumed, 0,
                                list(range(1, n_src + 1)), params, n_table)
    fused_frame, mask_frame = np.zeros(h * w), np.zeros(h * w, dtype=bool)
    fused_frame[pixels], mask_frame[pixels] = fused, mask
    return fused_frame.reshape(h, w), mask_frame.reshape(h, w)


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


@pytest.mark.parametrize("hs, ws", [(1, 1), (1, 6), (5, 1), (4, 7)])
def test_remap_one_invalid_pixel_in_each_corner_matches_scalar_oracle_bitwise(monkeypatch, rng, hs, ws):
    # Each pixel in turn is the map's one invalid pixel, so the cells
    # around it see it as their upper-left, upper-right, lower-left and
    # lower-right corner.  Queries step by thirds of a pixel up to exactly
    # W-1 and H-1; 1-pixel-wide and 1-pixel-tall maps have one column
    # (row) of corners.  Bands of 5 pixels make the per-call scratch serve
    # several bands, the last one shorter.
    monkeypatch.setattr(reproject, "_BAND_PIXELS", 5)
    values = rng.uniform(1, 1000, (hs, ws))
    xs, ys = np.meshgrid(np.arange(3 * ws - 2) / 3, np.arange(3 * hs - 2) / 3)
    assert xs[-1, -1] == ws - 1 and ys[-1, -1] == hs - 1
    everywhere = np.ones(xs.shape, dtype=bool)
    seen = set()
    for k in range(hs * ws):
        valid = np.arange(hs * ws).reshape(hs, ws) != k
        got = _assert_remap_matches_oracle(values, valid, xs, ys, everywhere)
        iy, ix = divmod(k, ws)
        for y, x in zip(ys[~got.valid], xs[~got.valid]):
            # The invalid pixel's corner position in the dropped query's cell.
            x0, y0 = min(int(x), max(ws - 2, 0)), min(int(y), max(hs - 2, 0))
            seen.add((iy - y0, ix - x0))
    assert seen == {(dy, dx) for dy in range(min(hs, 2)) for dx in range(min(ws, 2))}
    # Non-finite and far-off coordinates marked valid are dropped before
    # any cell index is cast (a cast of nan or inf would warn).
    xs = np.array([[np.nan, np.inf, -np.inf, 1e300, 0.0, 0.0]])
    ys = np.array([[0.0, 0.0, 0.0, 0.0, np.nan, -1e300]])
    got = _assert_remap_matches_oracle(values, np.ones((hs, ws), dtype=bool), xs, ys, np.ones(xs.shape, dtype=bool))
    assert not got.valid.any()


def _consume_inputs(rng, n_src, h, w, scale=1.0, impossible=0.2):
    """Random consume-pass inputs: disp up to 2 * scale px, rdd up to 0.02 * scale, a share of impossible checks."""
    ref_depth = rng.uniform(400, 900, (h, w))
    ref_valid = rng.random((h, w)) > 0.1
    conf = rng.random((h, w))
    disp = np.where(rng.random((n_src, h, w)) > impossible, rng.uniform(0, 2 * scale, (n_src, h, w)), np.inf)
    rdd = np.where(np.isfinite(disp), rng.uniform(0, 0.02 * scale, (n_src, h, w)), np.inf)
    dres = np.where(np.isfinite(disp), ref_depth[None] * rng.uniform(0.99, 1.01, (n_src, h, w)), 0.0)
    sx = rng.integers(-1, w, (n_src, h, w))
    sy = np.where(sx >= 0, rng.integers(0, h, (n_src, h, w)), -1)
    return ref_depth, ref_valid, conf, disp, rdd, dres, sx, sy


def _assert_consume_pass_matches_oracle(inputs, table, min_consistent, mode, avg):
    """Run the oracle and the production pass on the same inputs; return the oracle's mask and consumed."""
    ref_depth, ref_valid, conf, disp, rdd, dres, sx, sy = inputs
    n_src, h, w = disp.shape
    src_idx = np.arange(1, n_src + 1)
    consumed1 = np.zeros((n_src + 1, h, w), dtype=np.uint8)
    consumed2 = consumed1.copy()
    f1, m1 = scalar_consume_pass(ref_depth, ref_valid, conf, disp, rdd, dres, sx, sy,
                                 consumed1, 0, src_idx, 0.4, min_consistent, mode, table, avg)
    # The production pass has no mode: fusibile is its one-row table.  It
    # reads the pass bits of the same disp and rdd, not the errors, and
    # takes the landing pixel as one flat index.  It is given the pixels
    # fuse's draw picks (valid, confident, not consumed); the oracle tests
    # eligibility itself, pixel by pixel.
    table = table[:1] if mode == 0 else table
    f2, m2 = consume(ref_depth, ref_valid, conf, pass_bits(disp, rdd, table), dres, flat_index(sx, sy, w),
                     consumed2, 0.4, min_consistent, len(table), avg)
    assert np.array_equal(m1, m2)
    assert np.array_equal(f1, f2)
    assert np.array_equal(consumed1, consumed2)
    return m1, consumed1


@pytest.mark.parametrize("mode", [0, 1])
@pytest.mark.parametrize("avg", [0, 1])
def test_consume_pass_matches_scalar_oracle_bitwise(rng, mode, avg):
    # The oracle tests every k up to the table length, the production pass
    # stops at the source count: a table longer than n_src and a required
    # count above n_src (nothing fuses, consumed stays untouched) show the
    # cut is exact.
    n_src, h, w = 4, 12, 15
    inputs = _consume_inputs(rng, n_src, h, w)
    three_rows = np.array([[1.0, 0.01], [1.25, 0.0125], [1.5, 0.015]])
    long_table = np.array(DEFAULT_DYNAMIC_TABLE)
    assert len(long_table) > n_src
    for table, min_consistent, fuses in ((three_rows, 2, True), (long_table, 1, True),
                                         (three_rows, n_src + 1, False)):
        m1, consumed1 = _assert_consume_pass_matches_oracle(inputs, table, min_consistent, mode, avg)
        # The configuration exercises real fusions, or none at all.
        assert (m1.sum() > 0) == fuses and consumed1.any() == fuses


@pytest.mark.parametrize("avg", [0, 1])
def test_consume_pass_reads_bit_7_for_counts_past_the_table(rng, avg):
    # An 8-row table (the dynamic table's length) and 10 sources: a count
    # of 8 reads row 7, the byte's top bit, and so do the required counts
    # 9 and 10, past the table, which clamp to its last row.  With rdd
    # tied to disp, row k - 1 passes about 0.95 * 10 * k / 8 sources:
    # row 7 every possible check, row 6 about 8.3, so the largest
    # qualifying count is often 8, and from 9 on only row 7 decides.
    n_src, h, w = 10, 6, 7
    inputs = list(_consume_inputs(rng, n_src, h, w, impossible=0.05))
    inputs[4] = 0.01 * inputs[3]
    k = np.arange(1, 9)[:, None]
    table = np.hstack([0.25 * k, 0.0025 * k])
    disp, rdd = inputs[3], inputs[4]
    row_7 = ((disp < table[7, 0]) & (rdd < table[7, 1])).sum(axis=0)
    row_6 = ((disp < table[6, 0]) & (rdd < table[6, 1])).sum(axis=0)
    assert (row_7 == n_src).any() and (row_6 < 8).any() and (row_7 > row_6).any()
    for min_consistent in (1, 8, 9, 10):
        m1, _ = _assert_consume_pass_matches_oracle(inputs, table, min_consistent, 1, avg)
        assert m1.sum() > 0, min_consistent


_thresholds = st.sampled_from([0.0, 0.5, 1.0, 2.5, np.inf]) | st.floats(0.0, 3.0)
_errors = st.sampled_from([0.0, 0.5, 1.0, 2.5, np.inf, np.nan]) | st.floats(0.0, 3.0)


@settings(max_examples=60, deadline=None)
@given(table=st.lists(st.tuples(_thresholds, _thresholds), min_size=1, max_size=8),
       errors=st.lists(st.tuples(_errors, _errors), min_size=1, max_size=12))
def test_pass_bits_equal_their_float_comparisons(table, errors):
    # Any table of 1 to 8 rows (monotone or not, equal or infinite
    # thresholds) and any PDE/RDD (inf where the check is impossible):
    # each stored bit is its row's strict float64 comparison, and
    # _row_bits reads it back.
    table = np.array(table, dtype=np.float64)
    pde, rdd = np.array(errors, dtype=np.float64).T
    bits = np.full(pde.shape, 0xFF, dtype=np.uint8)
    hit, tmp = np.empty(pde.shape, dtype=bool), np.empty(pde.shape, dtype=bool)
    _set_pass_bits(pde, rdd, table, bits, hit, tmp)
    out = np.empty(pde.shape, dtype=np.uint8)
    for r, (t_pde, t_rdd) in enumerate(table):
        want = (pde < t_pde) & (rdd < t_rdd)
        assert np.array_equal(_row_bits(bits, r, out), want)
        assert np.array_equal((bits >> r) & 1, want)
    # Bits past the last row stay 0.
    assert not (bits >> len(table)).any()


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
    fused, mask = consume(ref_depth, ref_valid, conf, pass_bits(disp, rdd, table), dres, flat_index(sx, sy, w),
                          consumed, 0.5, 1, len(table), 0)
    assert mask[0, 0] == 0      # confidence gate
    assert mask[1, 1] == 0      # consumed pixel skipped
    assert mask[2, 2] == 1
    assert fused[2, 2] == pytest.approx(500.0)
    # every passing source marked consumed at its landing pixel (0, 0)
    assert consumed[1, 0, 0] == 1 and consumed[2, 0, 0] == 1
