"""Depth maps stay float32 from the PFM file to the kernels.

A float32 DepthMap and its float64 widening must give byte-identical
results in every public computation that reads depths: the kernels widen
one band at a time, and the code around them widens before arithmetic
(a float32 array with a float32 or Python scalar runs a float32 loop).
"""

import tracemalloc
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsgeo import Scene, cli, formats, reproject, synth
from mvsgeo.fusion import FusionParams, fuse
from mvsgeo.hypotheses import StageConfig, refine_hypotheses
from mvsgeo.loss import ProbabilityVolume, cross_entropy_error
from mvsgeo.metrics import depth_metrics
from mvsgeo.penalty import (
    STAGE_DEPTH_THRESHOLDS,
    STAGE_PIXEL_THRESHOLDS,
    GcThresholds,
    per_pixel_penalty,
    stage_penalties,
)
from mvsgeo.reproject import DepthMap, fbr, forward_project, remap

STAGES = [GcThresholds(dp, dd) for dp, dd in zip(STAGE_PIXEL_THRESHOLDS, STAGE_DEPTH_THRESHOLDS)]


def _arrays(result):
    """Every array and float in a result, in a fixed order, for a byte comparison."""
    if isinstance(result, np.ndarray):
        return [result]
    if isinstance(result, (tuple, list)):
        return [a for item in result for a in _arrays(item)]
    if is_dataclass(result):
        return [a for f in fields(result) for a in _arrays(getattr(result, f.name))]
    if result is None or isinstance(result, str):
        return []
    return [np.float64(result)]  # int or float


def assert_same_bytes(got, want):
    got, want = _arrays(got), _arrays(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


@st.composite
def float32_scenes(draw):
    """Three float32 depth maps of a synthetic scene, perturbed and thinned, with their cameras."""
    kind = draw(st.sampled_from(synth.PRESET_SCENES))
    w, h = draw(st.integers(2, 36)), draw(st.integers(2, 28))
    spec = synth.make_scene(kind, w, h, 3, seed=draw(st.integers(0, 20)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = draw(st.sampled_from([0.0, 1e-4, 3e-3]))
    drop = draw(st.sampled_from([0.0, 0.1]))
    maps = []
    for v in range(3):
        d = synth.render_depth(spec, v)[0]
        kept = d.valid & (rng.random(d.shape) >= drop)
        maps.append(np.where(kept, d.values * (1.0 + rng.normal(0.0, noise, d.shape)), 0.0).astype(np.float32))
    return spec.cameras, maps


def _both(values32):
    """The float32 map of values32 and the map of its float64 widening."""
    d32, d64 = DepthMap.from_values(values32), DepthMap.from_values(values32.astype(np.float64))
    assert d32.values.dtype == np.float32 and d64.values.dtype == np.float64
    return d32, d64


@settings(max_examples=25, deadline=None)
@given(scene=float32_scenes(), band=st.sampled_from(["1", "w-1", "w+1", "default"]),
       range_mode=st.sampled_from(["one-two", "one-three"]), average=st.sampled_from(["mean", "median"]),
       stage=st.sampled_from([1, 2]))
def test_float32_maps_give_the_bytes_of_their_float64_widening(scene, band, range_mode, average, stage):
    cams, values = scene
    maps = [_both(v) for v in values]
    w = values[0].shape[1]
    pixels = {"1": 1, "w-1": max(w - 1, 1), "w+1": w + 1, "default": reproject._BAND_PIXELS}[band]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reproject, "_BAND_PIXELS", pixels)
        coords = forward_project(maps[0][1], cams[0], cams[1])[0]
        d_ref_64 = maps[0][1]

        def run(k):
            d = [m[k] for m in maps]
            sources = [(d[1], cams[1]), (d[2], cams[2])]
            conf = [np.where(m.valid, 0.9, 0.1) for m in d]
            views = [(m, c, cam) for m, c, cam in zip(d, conf, cams)]
            return [
                fbr(d[0], cams[0], d[1], cams[1]),
                forward_project(d[0], cams[0], cams[2]),
                remap(d[1], coords),
                stage_penalties(d[0], cams[0], sources, STAGES, range_mode),
                per_pixel_penalty(d[0], cams[0], sources, STAGES[1], range_mode),
                fuse(views, FusionParams(consistency_threshold=1, average=average)),
                fuse(views, FusionParams(mode="dynamic", consistency_threshold=2, average=average)),
            ]

        assert_same_bytes(run(0), run(1))

    valid = maps[0][1].valid & maps[1][1].valid
    if valid.any():
        assert_same_bytes(depth_metrics(maps[1][0], maps[0][0], valid),
                          depth_metrics(maps[1][1], maps[0][1], valid))
        # One input rule for every kind: a DepthMap against a raw array.
        assert_same_bytes(depth_metrics(maps[1][0], values[0], valid),
                          depth_metrics(maps[1][1], maps[0][1], valid))
    depths = d_ref_64.values[d_ref_64.valid]
    if depths.size:
        # Bounds inside the depth range and off the float32 grid, so that
        # centers clip at both ends in float64.
        lo, hi = np.quantile(depths, [0.25, 0.75])
        cfg = StageConfig(depth_min=float(lo) + 0.3, depth_max=float(max(hi, lo + 1.0)) + 0.1)
        assert_same_bytes(refine_hypotheses(maps[0][0], stage, cfg, 0.01),
                          refine_hypotheses(maps[0][1], stage, cfg, 0.01))
        # A file's volume: read-only float32 views, 1-D float32 hypotheses
        # spanning the ground truth's range, so most pixels are supervised.
        d, (h, w) = 7, values[0].shape
        hyp = np.linspace(float(depths.min()) - 0.5, float(depths.max()) + 0.5, d).astype(np.float32)
        raw = np.random.default_rng(d * h * w).random((d, h, w)).astype(np.float32) + np.float32(0.01)
        vol = ProbabilityVolume(raw / raw.sum(axis=0, keepdims=True), hyp)
        vol = formats.read_probability_volume(formats.write_probability_volume(vol))
        assert vol.hypotheses.dtype == np.float32 and vol.hypotheses.ndim == 1
        assert_same_bytes(cross_entropy_error(vol, maps[0][0]), cross_entropy_error(vol, maps[0][1]))


def test_a_loaded_scene_holds_five_bytes_per_pixel_and_view(tmp_path):
    # Float32 depths (4 B/px) and the bool mask (1 B/px); the float64
    # widening held 9.  The allowance covers cameras and the pairing.
    w, h, views = 160, 128, 4
    scene = tmp_path / "scene"
    assert cli.main(["synth", "--out", str(scene), "--kind", "two-planes",
                     "--width", str(w), "--height", str(h), "--views", str(views)]) == 0
    def load():
        opened = Scene(scene)
        return opened, {v: opened.depth(v) for v in opened.cams}

    load()  # first-call allocations (imports, caches)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loaded = load()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    _, depths = loaded
    assert all(d.values.dtype == np.float32 for d in depths.values())
    assert held <= views * (5 * w * h + 4096), held


def test_cross_entropy_measures_float32_depths_in_float64():
    # Two float32 hypotheses far apart and ground truths within 32 ulps of
    # their midpoint: a distance taken in float32 rounds |h_0 - g| and
    # picks the other bin for some of them.
    for pair in ((0.01, 3000.0), (0.003, 700.0), (0.1, 123.4)):
        hyp = np.array(pair, dtype=np.float32)
        mid = np.float32((np.float64(hyp[0]) + np.float64(hyp[1])) / 2)
        g = (mid + np.arange(-32, 32, dtype=np.float32) * np.spacing(mid)).reshape(8, 8)
        probs = np.stack([np.full(g.shape, 0.25, np.float32), np.full(g.shape, 0.75, np.float32)])
        vol = formats.read_probability_volume(formats.write_probability_volume(ProbabilityVolume(probs, hyp)))
        d32, d64 = _both(g)
        assert_same_bytes(cross_entropy_error(vol, d32), cross_entropy_error(vol, d64))


def test_refine_hypotheses_clips_float32_depths_in_float64():
    # Bounds off the float32 grid: a float32 clip would center a band on
    # float32(depth_min) and, after the shift back into range, differ in
    # the last bit for some configurations.
    rng = np.random.default_rng(1)
    d32, d64 = _both(rng.uniform(1.0, 3000.0, (64, 64)).astype(np.float32))
    for _ in range(40):
        lo = rng.uniform(1.0, 1000.0)
        cfg = StageConfig(depth_min=lo, depth_max=lo + rng.uniform(1.0, 2000.0))
        di = rng.uniform(0.5, 20.0)
        for stage in (1, 2):
            assert_same_bytes(refine_hypotheses(d32, stage, cfg, di), refine_hypotheses(d64, stage, cfg, di))
