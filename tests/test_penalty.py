import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsgeo import formats, reproject, synth
from mvsgeo.camera import Camera, pixel_grid
from mvsgeo.fusion import FusionParams, fuse
from mvsgeo.penalty import (
    GcThresholds,
    PenaltyMap,
    STAGE_DEPTH_THRESHOLDS,
    STAGE_PIXEL_THRESHOLDS,
    apply_reference_mask,
    inconsistency_mask,
    penalty_histogram,
    per_pixel_penalty,
    stage_penalties,
)
from mvsgeo.reproject import CoordinateGrid, DepthMap

from oracles import naive_penalty
from truth import covisibility_mask, identity_grid


def constant_depth(h, w, value=100.0):
    return DepthMap.from_values(np.full((h, w), value))


def identity_reproj(d: DepthMap):
    h, w = d.shape
    return DepthMap(d.values.copy(), d.valid.copy()), identity_grid(h, w)


# The largest finite threshold: no finite error exceeds it.
HUGE = np.finfo(np.float64).max


@pytest.mark.parametrize("bad", [0.0, -0.5, np.nan, np.inf, -np.inf])
def test_thresholds_must_be_finite_and_positive(bad):
    for pair in ((bad, 0.01), (1.0, bad)):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            GcThresholds(*pair)
    assert GcThresholds(HUGE, 5e-324) == GcThresholds(HUGE, 5e-324)


def test_mask_perfect_consistency_is_zero():
    d = constant_depth(6, 8)
    d_re, p_re = identity_reproj(d)
    mask = inconsistency_mask(d, d_re, p_re, GcThresholds(1.0, 0.01))
    assert not mask.any()


def test_mask_rdd_direct_substitution():
    # D0 = 100, D'' = 102, d_depth = 0.01: RDD = 0.02 flags the pixel.
    d = constant_depth(1, 1, 100.0)
    d_re = DepthMap(np.array([[102.0]]), np.array([[True]]))
    p_re = identity_grid(1, 1)
    mask = inconsistency_mask(d, d_re, p_re, GcThresholds(1.0, 0.01))
    assert mask[0, 0]


def test_mask_pde_boundary_is_exclusive():
    # Reprojected 3-4-5 offset: PDE = 1.0 exactly, not > 1, so no flag.
    # Pixel (0, 0) keeps the 0.6/0.8 displacement exact in float.
    d = constant_depth(11, 11, 100.0)
    d_re, p_re = identity_reproj(d)
    x = p_re.x.copy()
    y = p_re.y.copy()
    x[0, 0] = 0.6
    y[0, 0] = 0.8
    assert np.sqrt(x[0, 0] ** 2 + y[0, 0] ** 2) == 1.0
    mask = inconsistency_mask(d, d_re, CoordinateGrid(x, y), GcThresholds(1.0, 0.01))
    assert not mask[0, 0]
    # Just beyond the threshold it flips.
    x[0, 0] = 1.1
    mask = inconsistency_mask(d, d_re, CoordinateGrid(x, y), GcThresholds(1.0, 0.01))
    assert mask[0, 0]


def test_mask_invalid_reprojection_counts_inconsistent():
    d = constant_depth(4, 4)
    d_re, p_re = identity_reproj(d)
    d_re.valid[2, 2] = False
    p_re.valid[2, 2] = False
    mask = inconsistency_mask(d, d_re, p_re, GcThresholds(1.0, 0.01))
    assert mask[2, 2]
    assert mask.sum() == 1


def test_mask_invalid_reference_never_votes():
    d = DepthMap(np.where(np.eye(4) > 0, 0.0, 100.0), ~np.eye(4, dtype=bool))
    d_re, p_re = identity_reproj(constant_depth(4, 4, 55.0))  # wildly inconsistent depth
    mask = inconsistency_mask(d, d_re, p_re, GcThresholds(1.0, 0.001))
    assert not mask[np.eye(4, dtype=bool)].any()


def test_mask_zero_reference_depth_errors():
    values = np.full((3, 3), 100.0)
    d = DepthMap(values, np.ones((3, 3), dtype=bool))
    d.values[1, 1] = 0.0  # corrupt after construction
    d_re, p_re = identity_reproj(constant_depth(3, 3))
    with pytest.raises(ValueError, match="zero reference depth"):
        inconsistency_mask(d, d_re, p_re, GcThresholds(1.0, 0.01))


@pytest.mark.parametrize("band", [1, 12, 14, 27, None], ids=["1", "W-1", "W+1", "2W+1", "default"])
def test_mask_is_the_full_frame_formula_in_any_band(rng, monkeypatch, band):
    # Depth validity and coordinate validity differ, so a vote must read
    # both.  Bands of 1, W-1 and W+1 pixels are one row each, 2W+1 pixels
    # two rows with a shorter last band, the default the whole frame: the
    # mask is the same full-frame formula bit for bit.  Row 0's valid
    # coordinates land half a pixel off, exactly d_pixel: no vote of their
    # own (strict).
    h, w = 9, 13
    if band is not None:
        monkeypatch.setattr(reproject, "_BAND_PIXELS", band)
    depth = rng.uniform(50, 150, (h, w))
    d_ref = DepthMap(depth, rng.random((h, w)) > 0.2)
    d_back = DepthMap(depth * rng.uniform(0.98, 1.02, (h, w)), rng.random((h, w)) > 0.2)
    gx, gy = pixel_grid(h, w)
    x, y = gx + rng.normal(0, 0.5, (h, w)), gy + rng.normal(0, 0.5, (h, w))
    x[0], y[0] = gx[0] + 0.5, gy[0]
    p_back = CoordinateGrid(x, y, rng.random((h, w)) > 0.2)
    assert (d_back.valid != p_back.valid).any()
    failed = ~(d_back.valid & p_back.valid)
    pde = np.sqrt(np.square(p_back.x - gx) + np.square(p_back.y - gy))
    rdd = np.abs(d_back.values - d_ref.values) / np.where(d_ref.valid, d_ref.values, 1.0)
    # The largest thresholds leave only the failed reprojections' votes.
    for thr in (GcThresholds(0.5, 0.01), GcThresholds(HUGE, HUGE)):
        mask = inconsistency_mask(d_ref, d_back, p_back, thr)
        want = d_ref.valid & (failed | (pde > thr.d_pixel) | (rdd > thr.d_depth))
        assert mask.dtype == bool and np.array_equal(mask, want)
        assert 0 < want.sum() < d_ref.valid.sum()
    assert (pde[0][p_back.valid[0]] == 0.5).all()


def test_mask_holds_no_float_frame():
    # Above its inputs, one vote holds the bool mask and band buffers: no
    # full-frame error stack and no gather of the valid reference depths
    # (every pixel is valid here, so that gather would be a whole frame).
    import tracemalloc

    h, w = 480, 640
    d = constant_depth(h, w)
    d_re, p_re = identity_reproj(d)
    thr = GcThresholds(1.0, 0.01)
    inconsistency_mask(d, d_re, p_re, thr)  # first-call allocations out of the measurement
    tracemalloc.start()
    try:
        mask = inconsistency_mask(d, d_re, p_re, thr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not mask.any()
    assert peak < h * w * 8, (peak, h * w * 8)


@pytest.mark.parametrize("m", [255, 256])
def test_vote_counts_at_the_narrow_integer_boundary(m):
    # Votes are counted in the narrowest unsigned integer that holds m:
    # uint8 up to 255 sources, uint16 from 256.  Three distinct views,
    # repeated to m sources, give counts of 0, of some or of all m at
    # different pixels; every level equals the nested-loop oracle's bits.
    spec = synth.make_scene("two-planes-offset", 4, 3, 4, seed=23)
    d0 = synth.render_depth(spec, 0)[0]
    views = [(synth.render_depth(spec, s)[0], spec.cameras[s]) for s in range(1, 4)]
    sources = [views[i % len(views)] for i in range(m)]
    thr = GcThresholds(0.25, 0.0025)
    for mode, top in (("one-two", 2.0), ("one-three", 3.0)):
        (pen,) = stage_penalties(d0, spec.cameras[0], sources, [thr], mode)
        oracle = naive_penalty(d0, spec.cameras[0], sources, thr.d_pixel, thr.d_depth, mode)
        assert pen.values.tobytes() == oracle.tobytes()
        levels = np.unique(oracle)
        assert levels[0] == 1.0 and levels[-1] == top and len(levels) >= 4


def test_penalty_arithmetic_of_final_line():
    # M = 8, one pixel inconsistent in 4 views.
    h, w = 2, 2
    d = constant_depth(h, w, 600.0)
    spec = synth.make_scene("plane", w, h, 9, seed=0)
    sources = [(synth.render_depth(spec, s)[0], spec.cameras[s]) for s in range(1, 9)]
    # Simulate via direct mask accumulation instead: construct penalty map.
    mask_sum = np.array([[4, 0], [8, 2]])
    one_two = 1.0 + mask_sum / 8
    one_three = 1.0 + 2.0 * mask_sum / 8
    assert one_two[0, 0] == 1.5 and one_three[0, 0] == 2.0
    assert one_two[1, 0] == 2.0 and one_three[1, 0] == 3.0
    assert len(sources) == 8  # scene wiring sanity


def test_penalty_exact_scene_all_ones():
    # The reference validity mask is trimmed to pixels co-visible in all
    # sources (border pixels leave some source frustums, which rightly
    # counts as inconsistent); votes then vanish everywhere.
    spec = synth.make_scene("plane", 40, 32, 5, seed=1)
    d0, _ = synth.render_depth(spec, 0)
    covis = np.logical_and.reduce([covisibility_mask(spec, 0, s) for s in range(1, 5)])
    d_ref = DepthMap(np.where(covis, d0.values, 0.0), d0.valid & covis)
    sources = [(synth.render_depth(spec, s)[0], spec.cameras[s]) for s in range(1, 5)]
    pen = per_pixel_penalty(d_ref, spec.cameras[0], sources, GcThresholds(1.0, 0.01))
    assert np.array_equal(pen.values, np.ones(d0.shape))
    assert pen.m == 4


def test_penalty_matches_naive_loop_oracle():
    # Two-plane occlusion scene against the nested-loop reimplementation,
    # compared bit-exactly at every pixel.
    spec = synth.make_scene("two-planes-offset", 40, 32, 4, seed=23)
    d0, _ = synth.render_depth(spec, 0)
    sources = [(synth.render_depth(spec, s)[0], spec.cameras[s]) for s in range(1, 4)]
    thr = GcThresholds(0.5, 0.005)
    for mode in ("one-two", "one-three"):
        lib = per_pixel_penalty(d0, spec.cameras[0], sources, thr, mode)
        oracle = naive_penalty(d0, spec.cameras[0], sources, thr.d_pixel, thr.d_depth, mode)
        assert np.array_equal(lib.values, oracle)


def test_stage_penalties_match_naive_loop_oracle_per_stage():
    # One reprojection per source shared by the paper's three default
    # stages: every stage still equals its own nested-loop oracle bit for bit.
    spec = synth.make_scene("two-planes-offset", 40, 32, 4, seed=23)
    d0, _ = synth.render_depth(spec, 0)
    sources = [(synth.render_depth(spec, s)[0], spec.cameras[s]) for s in range(1, 4)]
    stages = [GcThresholds(dp, dd) for dp, dd in zip(STAGE_PIXEL_THRESHOLDS, STAGE_DEPTH_THRESHOLDS)]
    for mode in ("one-two", "one-three"):
        pens = stage_penalties(d0, spec.cameras[0], sources, stages, mode)
        assert len(pens) == len(stages)
        for pen, thr in zip(pens, stages):
            assert pen.range_mode == mode and pen.m == len(sources)
            oracle = naive_penalty(d0, spec.cameras[0], sources, thr.d_pixel, thr.d_depth, mode)
            assert np.array_equal(pen.values, oracle)


def test_stage_penalties_read_a_sequence_of_sources_item_by_item_in_order():
    # As gc-penalty reads its depth files: each item is made as it is
    # read, into one frame that the next item overwrites.  stage_penalties
    # reads every item once, in order, and its maps are the list's bit for
    # bit.  A source shaped unlike the reference is rejected when it is
    # reached, with the list's message.
    from collections.abc import Sequence

    spec = synth.make_scene("two-planes-offset", 40, 32, 4, seed=23)
    d0, _ = synth.render_depth(spec, 0)
    sources = [(synth.render_depth(spec, s)[0], spec.cameras[s]) for s in range(1, 4)]
    stages = [GcThresholds(dp, dd) for dp, dd in zip(STAGE_PIXEL_THRESHOLDS, STAGE_DEPTH_THRESHOLDS)]

    class Reading(Sequence):
        def __init__(self, items):
            self.items, self.reads, self.frames = items, [], {}

        def __len__(self):
            return len(self.items)

        def __getitem__(self, i):
            d, cam = self.items[i]
            self.reads.append(i)
            frame = self.frames.setdefault(d.shape, (np.empty(d.shape), np.empty(d.shape, bool)))
            return DepthMap._of_bands(d.values.__getitem__, *frame), cam

    for mode in ("one-two", "one-three"):
        reading = Reading(sources)
        got = stage_penalties(d0, spec.cameras[0], reading, stages, mode)
        assert reading.reads == [0, 1, 2]
        for pen, want in zip(got, stage_penalties(d0, spec.cameras[0], sources, stages, mode), strict=True):
            assert pen.m == want.m == 3 and pen.counts.tobytes() == want.counts.tobytes()
    reading = Reading(sources[:2] + [(constant_depth(6, 5), spec.cameras[3])])
    with pytest.raises(ValueError, match=r"^source depth shape \(6, 5\) does not match reference \(32, 40\)$"):
        stage_penalties(d0, spec.cameras[0], reading, stages)
    assert reading.reads == [0, 1, 2]


def test_failed_reprojections_vote_under_the_largest_thresholds():
    # No finite displacement or depth difference exceeds the largest finite
    # threshold, so every vote left is a reprojection that cannot be done
    # (occluded, off the source image, an invalid bilinear corner): those
    # still vote inconsistent, bit for bit as in the nested-loop oracle
    # with infinite thresholds.
    spec = synth.make_scene("two-planes", 40, 32, 3, seed=0)
    d0, _ = synth.render_depth(spec, 0)
    sources = [(synth.render_depth(spec, s)[0], spec.cameras[s]) for s in (1, 2)]
    pen = per_pixel_penalty(d0, spec.cameras[0], sources, GcThresholds(HUGE, HUGE))
    oracle = naive_penalty(d0, spec.cameras[0], sources, np.inf, np.inf)
    assert pen.values.tobytes() == oracle.tobytes()
    assert np.count_nonzero(pen.values > 1.0) == 139
    d_re, p_re = identity_reproj(constant_depth(4, 4))
    d_re.valid[2, 2] = p_re.valid[2, 2] = False
    mask = inconsistency_mask(constant_depth(4, 4), d_re, p_re, GcThresholds(HUGE, HUGE))
    assert mask[2, 2] and mask.sum() == 1


@pytest.mark.parametrize("dtype, tiny", [(np.float64, 5e-324), (np.float32, 1.4e-45)])
@pytest.mark.parametrize("far", [20.0, 15.0])
def test_a_relative_depth_difference_that_overflows_votes_inconsistent(dtype, tiny, far):
    # The source camera sits 10 units behind the reference, on its axis.
    # The reference sees a plane at depth 5, except at its principal point
    # (4, 4), whose valid depth is the dtype's smallest subnormal.  That
    # pixel's reprojection succeeds, so its RDD |d'' - d| / d overflows
    # float64 (5e-324), or is about 4e45 (1.4e-45): the float64 divide
    # raised "overflow encountered in divide" under -W error.  Now RDD is
    # inf (or that finite value) with no RuntimeWarning and no NaN; the
    # pixel votes inconsistent, as in the nested-loop oracle and the
    # paper's composition, and fuses no point.  A source plane at 15 is
    # the reference's own plane, so (4, 4) is the only vote and every
    # fused point lies on the plane (z = 5); at 20 every pixel votes and
    # none fuses.
    K = np.array([[8.0, 0.0, 4.0], [0.0, 8.0, 4.0], [0.0, 0.0, 1.0]])
    behind = np.eye(4)
    behind[2, 3] = 10.0
    ref, src = Camera(K=K, E=np.eye(4)), Camera(K=K, E=behind)
    values = np.full((9, 9), 5.0, dtype)
    values[4, 4] = tiny
    d_ref, d_src = DepthMap.from_values(values), DepthMap.from_values(np.full((9, 9), far, dtype))
    assert d_ref.valid.all() and d_ref.values[4, 4] > 0
    rdd, failed = np.empty((9, 9)), np.empty((9, 9), bool)
    for rows, _, _, band_rdd, band_failed, _ in reproject._checks(d_ref, ref, d_src, src):
        rdd[rows], failed[rows] = band_rdd, band_failed
    assert not failed.any() and not np.isnan(rdd).any()
    assert rdd[4, 4] == np.inf if dtype == np.float64 else 1e45 < rdd[4, 4] < np.inf
    thr = GcThresholds(1.0, 0.01)
    (pen,) = stage_penalties(d_ref, ref, [(d_src, src)], [thr])
    votes = np.full((9, 9), far == 20.0)
    votes[4, 4] = True
    assert np.array_equal(pen.counts, votes)
    assert np.array_equal(pen.values, per_pixel_penalty(d_ref, ref, [(d_src, src)], thr).values)
    assert np.array_equal(pen.values, naive_penalty(d_ref, ref, [(d_src, src)], thr.d_pixel, thr.d_depth))
    conf = np.ones((9, 9))
    cloud = fuse([(d_ref, conf, ref), (d_src, conf, src)], FusionParams(consistency_threshold=1))
    assert np.isfinite(cloud.points).all()
    assert np.array_equal(cloud.points[:, 2], np.full(len(cloud), 5.0)) and (len(cloud) > 0) == (far == 15.0)


def test_stage_penalties_requires_a_stage():
    d = constant_depth(4, 5, 600.0)
    spec = synth.make_scene("plane", 5, 4, 2, seed=0)
    sources = [(constant_depth(4, 5, 600.0), spec.cameras[1])]
    with pytest.raises(ValueError, match="stage"):
        stage_penalties(d, spec.cameras[0], sources, [])


def test_penalty_requires_sources_and_matching_shapes():
    d = constant_depth(4, 5, 600.0)
    spec = synth.make_scene("plane", 5, 4, 2, seed=0)
    with pytest.raises(ValueError, match="source"):
        per_pixel_penalty(d, spec.cameras[0], [], GcThresholds(1.0, 0.01))
    bad = constant_depth(6, 5, 600.0)
    with pytest.raises(ValueError, match="shape"):
        per_pixel_penalty(d, spec.cameras[0], [(bad, spec.cameras[1])], GcThresholds(1.0, 0.01))


def test_penalty_quantization_levels(rng):
    spec = synth.make_scene("two-planes", 40, 32, 6, seed=3)
    d0, _ = synth.render_depth(spec, 0)
    vals = d0.values.copy()
    noise_region = rng.random(d0.shape) > 0.7
    vals = np.where(noise_region, vals * 1.08, vals)
    d_ref = DepthMap(vals, d0.valid)
    sources = [(synth.render_depth(spec, s)[0], spec.cameras[s]) for s in range(1, 6)]
    m = len(sources)
    pen = per_pixel_penalty(d_ref, spec.cameras[0], sources, GcThresholds(1.0, 0.01))
    allowed = {1.0 + k / m for k in range(m + 1)}
    assert set(np.unique(pen.values)) <= allowed
    assert pen.values.min() >= 1.0 and pen.values.max() <= 2.0
    pen3 = per_pixel_penalty(d_ref, spec.cameras[0], sources, GcThresholds(1.0, 0.01), "one-three")
    assert pen3.values.max() <= 3.0 and pen3.values.min() >= 1.0


def test_penalty_monotone_in_added_inconsistent_view():
    spec = synth.make_scene("plane", 30, 24, 5, seed=4)
    d0, _ = synth.render_depth(spec, 0)
    sources = [(synth.render_depth(spec, s)[0], spec.cameras[s]) for s in range(1, 4)]
    thr = GcThresholds(1.0, 0.01)
    base = per_pixel_penalty(d0, spec.cameras[0], sources, thr)
    # Append a corrupted view: every pixel's vote count can only grow.
    bad_depth, _ = synth.render_depth(spec, 4)
    bad = DepthMap(bad_depth.values * 1.5, bad_depth.valid)
    more = per_pixel_penalty(d0, spec.cameras[0], sources + [(bad, spec.cameras[4])], thr)
    base_counts = (base.values - 1.0) * 3
    more_counts = (more.values - 1.0) * 4
    assert (more_counts >= base_counts - 1e-12).all()


def test_penalty_degradation_single_pixel():
    # Perturbing one co-visible pixel beyond the depth threshold drives
    # its penalty to the maximum.
    spec = synth.make_scene("plane", 40, 32, 5, seed=5)
    d0, _ = synth.render_depth(spec, 0)
    i, j = 16, 20
    thr = GcThresholds(1.0, 0.01)
    vals = d0.values.copy()
    vals[i, j] *= 1.03  # 3x the relative depth threshold
    d_ref = DepthMap(vals, d0.valid)
    sources = [(synth.render_depth(spec, s)[0], spec.cameras[s]) for s in range(1, 5)]
    for s in range(1, 5):
        assert covisibility_mask(spec, 0, s)[i, j]
    pen = per_pixel_penalty(d_ref, spec.cameras[0], sources, thr)
    assert pen.values[i, j] == 2.0
    pen3 = per_pixel_penalty(d_ref, spec.cameras[0], sources, thr, "one-three")
    assert pen3.values[i, j] == 3.0


def test_stage_strictness(rng):
    # Any pixel flagged at a coarser stage threshold is flagged at every
    # finer stage for the same displacement/depth values.
    h, w = 24, 30
    d = constant_depth(h, w, 500.0)
    x, y = pixel_grid(h, w)
    dx = rng.uniform(-2.0, 2.0, (h, w))
    dy = rng.uniform(-2.0, 2.0, (h, w))
    depth_off = 500.0 * rng.uniform(-0.02, 0.02, (h, w))
    d_re = DepthMap(d.values + depth_off, np.ones((h, w), dtype=bool))
    p_re = CoordinateGrid(x + dx, y + dy)
    masks = [
        inconsistency_mask(d, d_re, p_re, GcThresholds(dp, dd))
        for dp, dd in zip(STAGE_PIXEL_THRESHOLDS, STAGE_DEPTH_THRESHOLDS)
    ]
    assert not (masks[0] & ~masks[1]).any()
    assert not (masks[1] & ~masks[2]).any()


def test_penalty_map_holds_counts_and_reads_fresh_levels():
    counts = np.array([[0, 3], [8, 4]], dtype=np.uint8)
    pen = PenaltyMap(counts, "one-three", 8)
    assert np.shares_memory(pen.counts, counts) and pen.counts.dtype == np.uint8
    levels = pen.values
    assert levels.dtype == np.float64 and np.array_equal(levels, [[1.0, 1.75], [3.0, 2.0]])
    levels[:] = 0.0
    assert pen.values is not levels and np.array_equal(pen.values, [[1.0, 1.75], [3.0, 2.0]])
    assert np.array_equal(counts, [[0, 3], [8, 4]])


def test_penalty_map_counts_are_read_only():
    # A count above m written after construction would escape the check
    # the constructor makes; the caller's own array stays writable.
    counts = np.array([[0, 1], [2, 1]], dtype=np.uint8)
    pen = PenaltyMap(counts, "one-two", 2)
    with pytest.raises(ValueError, match="read-only"):
        pen.counts[0, 0] = 3
    assert counts.flags.writeable and np.array_equal(pen.values, [[1.0, 1.5], [2.0, 1.5]])


def test_penalty_maps_compare_by_identity():
    counts = np.array([[0, 1], [2, 1]], dtype=np.uint8)
    pen = PenaltyMap(counts, "one-two", 2)
    assert pen == pen
    assert pen != PenaltyMap(counts, "one-two", 2)
    assert len({pen, PenaltyMap(counts, "one-two", 2)}) == 2


@pytest.mark.parametrize("counts, mode, m, match", [
    (np.array([[0, 3]]), "one-two", 2, r"lie in \[0, 2\]"),
    (np.array([[-1, 0]]), "one-two", 2, r"lie in \[0, 2\]"),
    (np.array([[0.0, 1.0]]), "one-two", 2, "integers"),
    (np.array([[0.5, 1.0]]), "one-two", 2, "integers"),
    (np.array([[0, 1]], dtype=np.uint8), "one-four", 2, "range_mode"),
    (np.array([[0, 0]], dtype=np.uint8), "one-two", 0, "source"),
], ids=["above m", "negative", "integral floats", "fractions", "unknown mode", "no sources"])
def test_penalty_map_rejects_what_is_not_a_vote_count(counts, mode, m, match):
    with pytest.raises(ValueError, match=match):
        PenaltyMap(counts, mode, m)


def test_apply_reference_mask():
    pen = PenaltyMap(np.full((4, 4), 4, dtype=np.uint8), "one-two", 8)
    assert np.array_equal(apply_reference_mask(pen, np.ones((4, 4))), np.full((4, 4), 1.5))
    assert np.array_equal(apply_reference_mask(pen, np.zeros((4, 4))), np.zeros((4, 4)))
    checker = np.indices((4, 4)).sum(axis=0) % 2
    out = apply_reference_mask(pen, checker)
    assert out.dtype == np.float64 and np.array_equal(out, np.where(checker == 1, 1.5, 0.0))
    assert (pen.counts == 4).all()
    with pytest.raises(ValueError, match="shape"):
        apply_reference_mask(pen, np.ones((3, 4)))


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.uint64])
def test_penalty_histogram_reports_levels(dtype):
    counts = np.array([[0, 1], [2, 2]], dtype=dtype)
    inside = np.array([[True, True], [False, True]])
    doc = penalty_histogram(PenaltyMap(counts, "one-two", 2), inside)
    assert doc["range_mode"] == "one-two" and doc["num_sources"] == 2
    assert doc["pixels_in_mask"] == 3
    assert doc["mean_penalty"] == pytest.approx(1.5)
    assert [h["level"] for h in doc["histogram"]] == [1.0, 1.5, 2.0]
    assert [h["count"] for h in doc["histogram"]] == [1, 1, 1]
    empty = penalty_histogram(PenaltyMap(counts, "one-three", 2), np.zeros((2, 2), bool))
    assert empty["pixels_in_mask"] == 0 and empty["mean_penalty"] == 0.0 and empty["histogram"] == []
    with pytest.raises(ValueError, match="shape"):
        penalty_histogram(PenaltyMap(counts, "one-two", 2), np.ones((2, 3), bool))


@st.composite
def _counts_and_mask(draw):
    """Vote counts of M sources (M from 1 to 300: uint8 and uint16), a range mode and a reference mask."""
    m = draw(st.integers(1, 300))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = rng.integers(0, m + 1, (h, w)).astype(np.min_scalar_type(m))
    count.flat[rng.integers(0, h * w)] = draw(st.sampled_from([0, m]))
    mask = draw(st.sampled_from(["random", "all", "none"]))
    valid = {"random": rng.random((h, w)) < 0.6, "all": np.ones((h, w), bool), "none": np.zeros((h, w), bool)}[mask]
    return count, valid, draw(st.sampled_from(["one-two", "one-three"])), m


@settings(max_examples=80, deadline=None)
@given(case=_counts_and_mask())
def test_masked_map_and_histogram_read_the_level_table(case):
    # gc-penalty writes each stage's PFM and histogram through
    # apply_reference_mask and penalty_histogram: the bytes of the table
    # 1 + k/M (or 1 + 2k/M) read at each count, zeroed outside the mask,
    # and the histogram np.unique takes of the levels inside it.
    count, valid, mode, m = case
    scale = 1.0 if mode == "one-two" else 2.0
    levels = (1.0 + scale * np.arange(m + 1) / m)[count]
    pen = PenaltyMap(count, mode, m)
    masked = apply_reference_mask(pen, valid)
    want = np.where(valid, levels, 0.0)
    assert masked.dtype == np.float64 and masked.tobytes() == want.tobytes()
    pfm = formats.write_pfm(formats.PfmImage(masked))
    assert pfm == formats.write_pfm(formats.PfmImage(want.astype(np.float32)))
    inside = levels[valid]
    seen, per_level = np.unique(inside, return_counts=True)
    want_doc = {
        "range_mode": mode,
        "num_sources": m,
        "pixels_in_mask": int(valid.sum()),
        "mean_penalty": float(inside.mean()) if inside.size else 0.0,
        "histogram": [{"level": float(lv), "count": int(n)} for lv, n in zip(seen, per_level)],
    }
    assert json.dumps(penalty_histogram(pen, valid)) == json.dumps(want_doc)


def test_stage_penalties_holds_band_buffers_and_counts(monkeypatch):
    # Votes are taken straight off the band walk of each pair check:
    # above its inputs, stage_penalties holds the vote counts, one pair's
    # bool corner-validity map (and, while it is built, one more) and a
    # constant number of band buffers.  Its penalty maps hold the counts,
    # so no float64 level map is made.  A full-frame reprojection (fbr's
    # x, y, depth and ok: 25 B/px), full-frame PDE/RDD arrays, a level
    # map, or two pairs' band buffers at once do not fit.
    import tracemalloc

    from mvsgeo import reproject

    w, h, n = 128, 256, 4
    spec = synth.make_scene("two-planes", w, h, n, seed=0)
    d0 = synth.render_depth(spec, 0)[0]
    sources = [(synth.render_depth(spec, s)[0], spec.cameras[s]) for s in range(1, n)]
    stages = [GcThresholds(dp, dd) for dp, dd in zip(STAGE_PIXEL_THRESHOLDS, STAGE_DEPTH_THRESHOLDS)]
    band = 4 * w
    monkeypatch.setattr(reproject, "_BAND_PIXELS", band)
    stage_penalties(d0, spec.cameras[0], sources, stages)  # first-call allocations out of the measurement
    tracemalloc.start()
    try:
        stage_penalties(d0, spec.cameras[0], sources, stages)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    corner_maps = 2 * h * w
    counts = len(stages) * h * w
    assert peak < corner_maps + counts + 11 * band * 8, (peak, corner_maps + counts)


def _degenerate_pair_penalties(src_of):
    """Every stage's penalty of a 64 x 48 plane view against one source built by src_of(ref).

    The source's depth map is the exact rendering of the plane in that
    camera.  A RuntimeWarning fails the call.
    """
    import warnings

    from mvsgeo.reproject import fbr

    spec = synth.make_scene("plane", 64, 48, 2, seed=0)
    ref = spec.cameras[0]
    src = src_of(ref)
    d_ref = synth.render_depth(spec, 0)[0]
    d_src = synth.render_depth(synth.SceneSpec(spec.geometry, (ref, src), spec.resolution), 1)[0]
    assert d_ref.valid.all()
    stages = [GcThresholds(dp, dd) for dp, dd in zip(STAGE_PIXEL_THRESHOLDS, STAGE_DEPTH_THRESHOLDS)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pens = {mode: stage_penalties(d_ref, ref, [(d_src, src)], stages, mode) for mode in ("one-two", "one-three")}
        reprojected = fbr(d_ref, ref, d_src, src)[0].valid
    return pens, reprojected


def test_source_equal_to_the_reference_gives_penalty_one():
    pens, reprojected = _degenerate_pair_penalties(lambda ref: ref)
    assert reprojected.all()
    for pen in pens["one-two"] + pens["one-three"]:
        assert np.array_equal(pen.values, np.ones((48, 64)))


def test_source_facing_away_gives_the_top_penalty_everywhere():
    # Same centre, looking the other way: the plane is behind the source
    # camera, so no pixel can be reprojected and every one votes.
    def away(ref):
        return synth.look_at_camera(ref.K, (0.0, 0.0, 0.0), (0.0, 0.0, -650.0), ref.depth_min, ref.depth_interval)

    pens, reprojected = _degenerate_pair_penalties(away)
    assert not reprojected.any()
    for pen in pens["one-two"]:
        assert np.array_equal(pen.values, np.full((48, 64), 2.0))
    for pen in pens["one-three"]:
        assert np.array_equal(pen.values, np.full((48, 64), 3.0))


def test_coincident_centres_with_different_rotations():
    # A pure rotation (yaw, pitch and roll about the shared centre) has no
    # parallax: every pixel the rotated view sees reprojects onto itself
    # within all stage thresholds, and the rest, outside the rotated view,
    # vote.  Measured split: 2178 consistent and 894 failed pixels.
    def rotated(ref):
        return synth.look_at_camera(ref.K, (0.0, 0.0, 0.0), (40.0, -30.0, 650.0), ref.depth_min,
                                    ref.depth_interval, down=(0.2, 1.0, 0.0))

    pens, reprojected = _degenerate_pair_penalties(rotated)
    assert int(reprojected.sum()) == 2178
    for mode, top in (("one-two", 2.0), ("one-three", 3.0)):
        for pen in pens[mode]:
            assert np.array_equal(pen.values, np.where(reprojected, 1.0, top))
