import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsgeo import reproject, synth
from mvsgeo.camera import Camera, Pixel, back_project, pixel_grid, project, warp_transform
from mvsgeo.penalty import (
    STAGE_DEPTH_THRESHOLDS,
    STAGE_PIXEL_THRESHOLDS,
    GcThresholds,
    per_pixel_penalty,
    stage_penalties,
)
from mvsgeo.reproject import CoordinateGrid, DepthMap, fbr, forward_project, remap

from conftest import BAND_SCENES, band_sizes, random_camera
from oracles import homogeneous_warp, naive_penalty
from truth import fixed_point_mask, identity_grid, render_occlusion_truth


def identity_camera(f=500.0, cx=39.5, cy=31.5):
    K = np.array([[f, 0.0, cx], [0.0, f, cy], [0.0, 0.0, 1.0]])
    return Camera(K=K, E=np.eye(4))


def test_depthmap_invariants():
    with pytest.raises(ValueError, match="dimension mismatch"):
        DepthMap(np.ones((4, 5)), np.ones((5, 4), dtype=bool))
    with pytest.raises(ValueError, match="> 0"):
        DepthMap(np.zeros((4, 5)), np.ones((4, 5), dtype=bool))
    dm = DepthMap.from_values(np.array([[0.0, 2.0], [3.0, 0.0]]))
    assert dm.valid.tolist() == [[False, True], [True, False]]
    # invalid pixels are stored as 0
    assert dm.values[0, 0] == 0.0


def test_depthmap_rejects_non_finite_valid_depths():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="valid depth values must be finite and > 0"):
            DepthMap(np.array([[bad, 1e300]]), np.array([[True, True]]))
    # Large finite depths are valid; a non-finite value under a false mask is dropped.
    dm = DepthMap(np.array([[np.inf, 1e300]]), np.array([[False, True]]))
    assert dm.valid.tolist() == [[False, True]]
    assert dm.values.tolist() == [[0.0, 1e300]]


def test_depthmap_keeps_float32_and_float64_and_widens_other_dtypes():
    valid = np.array([[True, False]])
    for given, kept in ((np.float32, np.float32), (np.float64, np.float64), (np.int64, np.float64),
                        (np.float16, np.float64), (">f4", np.float64)):
        values = np.array([[2.0, 7.0]], dtype=given)
        for dm in (DepthMap(values, valid), DepthMap.from_values(values)):
            assert dm.values.dtype == kept
            assert dm.values[0, 0] == 2.0
    assert DepthMap([[1.0, 2.0]], [[True, True]]).values.dtype == np.float64


def test_depthmap_from_values_marks_finite_positive_depths(rng):
    # NaN, +-inf, negative and (signed) zero depths are invalid and stored
    # as 0; the map equals the checked constructor's on the same mask, and
    # the caller's float64 array (not copied by np.asarray) is left as it was.
    values = rng.uniform(0.5, 9.0, (6, 7))
    values[0, :6] = [np.nan, np.inf, -np.inf, -3.0, 0.0, -0.0]
    values[1, :2] = [1e300, 5e-324]
    before = values.tobytes()
    dm = DepthMap.from_values(values)
    assert values.tobytes() == before
    valid = np.isfinite(values) & (values > 0)
    assert dm.valid.dtype == bool and np.array_equal(dm.valid, valid)
    assert dm.valid[0].tolist() == [False] * 6 + [True] and dm.valid[1, :2].all()
    checked = DepthMap(np.where(valid, values, 0.0), valid)
    assert dm.values.dtype == np.float64 and dm.values.tobytes() == checked.values.tobytes()
    assert not np.shares_memory(dm.values, values)
    for shape in ((5,), (2, 3, 4)):
        with pytest.raises(ValueError, match="must be 2-D"):
            DepthMap.from_values(np.ones(shape))


@pytest.mark.parametrize("dtype, copied", [(np.float64, 0), (np.float32, 8)], ids=["float64", "float32"])
def test_depthmap_from_values_builds_the_map_once(rng, dtype, copied):
    # Above its input, from_values holds the map (8 + 1 B/px), the float64
    # copy np.asarray makes of a narrower input, and at most one more byte
    # per pixel: no gather of the valid depths to re-check them and no
    # second copy of the values.
    import tracemalloc

    h, w = 256, 320
    values = rng.uniform(1.0, 10.0, (h, w)).astype(dtype)
    values[rng.random((h, w)) < 0.2] = 0.0
    DepthMap.from_values(values)  # first-call allocations out of the measurement
    tracemalloc.start()
    try:
        DepthMap.from_values(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < h * w * (8 + 1 + copied + 1), (peak, h * w)


def test_forward_project_identity_view():
    cam = identity_camera()
    d = DepthMap.from_values(np.full((64, 80), 600.0))
    coords, warped = forward_project(d, cam, cam)
    xs, ys = pixel_grid(64, 80)
    assert np.abs(coords.x - xs).max() < 1e-9
    assert np.abs(coords.y - ys).max() < 1e-9
    assert np.abs(warped.values - 600.0).max() < 1e-9
    assert warped.valid.all()


def test_forward_project_disparity_shift():
    f = 500.0
    ref = identity_camera(f=f)
    E = np.eye(4)
    b = 10.0
    E[0, 3] = -b
    src = Camera(K=ref.K, E=E)
    depth = 625.0
    d = DepthMap.from_values(np.full((64, 80), depth))
    coords, warped = forward_project(d, ref, src)
    xs, _ = pixel_grid(64, 80)
    assert np.abs((coords.x - xs) + f * b / depth).max() < 1e-9
    assert np.abs(warped.values - depth).max() < 1e-9


def test_forward_project_behind_camera_invalidated():
    ref = identity_camera()
    # Source camera looking the opposite way: everything lands behind it.
    E = np.eye(4)
    E[0, 0] = -1.0
    E[2, 2] = -1.0
    src = Camera(K=ref.K, E=E)
    d = DepthMap.from_values(np.full((8, 10), 500.0))
    coords, warped = forward_project(d, ref, src)
    assert not warped.valid.any()
    assert not coords.valid.any()


def test_forward_project_matches_primitive_loop(rng):
    # Tilted-plane scene, two cameras: vectorized warp against the
    # per-pixel project(back_project(.)) loop.
    spec = synth.make_scene("tilted-plane", 40, 32, 2, seed=7)
    d0, _ = synth.render_depth(spec, 0)
    ref, src = spec.cameras
    coords, warped = forward_project(d0, ref, src)
    for i in range(0, 32, 3):
        for j in range(0, 40, 3):
            if not d0.valid[i, j]:
                continue
            point = back_project(Pixel(float(j), float(i)), d0.values[i, j], ref)
            pix, depth = project(point, src)
            assert coords.valid[i, j] == (depth > 1e-12)
            if depth > 1e-12:
                assert coords.x[i, j] == pytest.approx(pix.x, abs=1e-7)
                assert coords.y[i, j] == pytest.approx(pix.y, abs=1e-7)
                assert warped.values[i, j] == pytest.approx(depth, rel=1e-9)


def test_apply_warp_matches_homogeneous_formula_bitwise(rng):
    # A camera-to-camera warp ends exactly in (0, 0, 0, 1), so q is 1 and
    # _apply_warp skips its row and divide; the full formula must agree
    # bit for bit, extreme depths included.
    transform = warp_transform(random_camera(rng), random_camera(rng))
    assert tuple(transform[3]) == (0.0, 0.0, 0.0, 1.0)
    h, w = 30, 40
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)[:, None]
    depth = rng.uniform(100.0, 2000.0, (h, w))
    depth[::7, ::5] = -1000.0  # behind the camera
    depth[3, :4] = [1e300, 1e-300, 0.0, 5e-324]
    valid = rng.random((h, w)) > 0.1
    depth = np.where(valid, depth, 0.0)
    got = (np.empty((h, w)), np.empty((h, w)), np.empty((h, w)), np.empty((h, w), dtype=bool))
    reproject._apply_warp(transform, xs, ys, depth, valid, got, np.empty((h, w)), np.empty((h, w), dtype=bool))
    want = homogeneous_warp(transform, xs, ys, depth, valid)
    for g, e in zip(got, want):
        assert g.tobytes() == e.tobytes()
    assert got[3].any() and not got[3].all()


def test_an_overflowing_warp_invalidates_its_pixel_without_a_warning():
    # The plane scene at 32 x 24 with a depth of 1e307 at pixel (5, 20):
    # its warp overflows (at (5, 5) it does not).  Under the suite's
    # error::RuntimeWarning filter the pixel comes back invalid, as 0, and
    # every other pixel keeps its bits.
    spec = synth.make_scene("plane", 32, 24, 3, seed=0)
    cams = spec.cameras
    maps = [synth.render_depth(spec, v)[0] for v in range(3)]
    values = maps[0].values.copy()
    values[5, 20] = 1e307
    huge = DepthMap(values, maps[0].valid)
    others = np.ones(values.shape, dtype=bool)
    others[5, 20] = False

    def arrays(d, p):
        return [d.values, d.valid, p.x, p.y, p.valid]

    got, want = forward_project(huge, cams[0], cams[1]), forward_project(maps[0], cams[0], cams[1])
    assert not got[0].valid[5, 20] and (got[0].x[5, 20], got[0].y[5, 20], got[1].values[5, 20]) == (0, 0, 0)
    for g, w in zip(arrays(got[1], got[0]), arrays(want[1], want[0])):
        assert g[others].tobytes() == w[others].tobytes()
    got, want = fbr(huge, cams[0], maps[1], cams[1]), fbr(maps[0], cams[0], maps[1], cams[1])
    assert not got[0].valid[5, 20]
    for g, w in zip(arrays(*got), arrays(*want)):
        assert g[others].tobytes() == w[others].tobytes()
    stages = [GcThresholds(dp, dd) for dp, dd in zip(STAGE_PIXEL_THRESHOLDS, STAGE_DEPTH_THRESHOLDS)]
    sources = [(maps[1], cams[1]), (maps[2], cams[2])]
    got = stage_penalties(huge, cams[0], sources, stages)
    want = stage_penalties(maps[0], cams[0], sources, stages)
    for g, w in zip(got, want):
        assert g.values[5, 20] == 2.0  # no source can check it
        assert g.values[others].tobytes() == w.values[others].tobytes()
    # As a source, with 1e307 on the 3 x 3 block around the pixel, the
    # samples inside the block overflow the back warp.
    block = maps[0].values.copy()
    block[4:7, 19:22] = 1e307
    got = stage_penalties(maps[1], cams[1], [(DepthMap(block, maps[0].valid), cams[0]), (maps[2], cams[2])], stages)
    assert all(np.isin(g.values, [1.0, 1.5, 2.0]).all() for g in got)
    # The warp itself, against the homogeneous formula on the other pixels.
    transform = warp_transform(cams[0], cams[1])
    xs, ys = np.arange(32.0), np.arange(24.0)[:, None]
    out = (np.empty((24, 32)), np.empty((24, 32)), np.empty((24, 32)), np.empty((24, 32), dtype=bool))
    reproject._apply_warp(transform, xs, ys, values, maps[0].valid, out, np.empty((24, 32)),
                          np.empty((24, 32), dtype=bool))
    assert not out[3][5, 20] and all(a[5, 20] == 0 for a in out[:3])
    want = homogeneous_warp(transform, xs, ys, maps[0].values, maps[0].valid)
    for g, w in zip(out, want):
        assert g[others].tobytes() == w[others].tobytes()


def test_remap_identity_grid():
    values = np.arange(1, 21, dtype=np.float64).reshape(4, 5)
    src = DepthMap.from_values(values)
    out = remap(src, identity_grid(4, 5))
    assert np.array_equal(out.values, values)
    assert out.valid.all()


def test_remap_integer_position():
    values = np.arange(1, 101, dtype=np.float64).reshape(10, 10)
    src = DepthMap.from_values(values)
    coords = CoordinateGrid(np.full((1, 1), 5.0), np.full((1, 1), 7.0))
    out = remap(src, coords)
    assert out.values[0, 0] == values[7, 5]


def test_remap_midpoint_bilinear():
    values = np.full((10, 10), 50.0)
    values[7, 5] = 100.0
    values[7, 6] = 102.0
    src = DepthMap.from_values(values)
    coords = CoordinateGrid(np.full((1, 1), 5.5), np.full((1, 1), 7.0))
    out = remap(src, coords)
    assert out.values[0, 0] == pytest.approx(101.0, abs=1e-12)


def test_remap_out_of_bounds_and_invalid_neighbors():
    values = np.full((6, 6), 10.0)
    values[2, 2] = 0.0  # invalid hole
    src = DepthMap.from_values(values)
    xs = np.array([[-0.001, 5.0, 2.5, 5.001, 3.5]])
    ys = np.array([[2.0, 5.0, 2.5, 2.0, 3.5]])
    out = remap(src, CoordinateGrid(xs, ys))
    # out of bounds left, exact corner, hole-adjacent, out of bounds right, clean interior
    assert out.valid.tolist() == [[False, True, False, False, True]]
    assert out.values[0, 1] == 10.0


def test_remap_linear_along_axis(rng):
    # Bilinear must reproduce any per-axis linear field exactly at
    # arbitrary sample positions.
    h, w = 12, 15
    xs_grid, ys_grid = pixel_grid(h, w)
    field = 3.0 + 0.25 * xs_grid + 0.5 * ys_grid
    src = DepthMap.from_values(field)
    sx = rng.uniform(0, w - 1, size=(9, 9))
    sy = rng.uniform(0, h - 1, size=(9, 9))
    out = remap(src, CoordinateGrid(sx, sy))
    assert out.valid.all()
    assert np.abs(out.values - (3.0 + 0.25 * sx + 0.5 * sy)).max() < 1e-12


def test_fbr_same_view_identity():
    cam = identity_camera()
    d = DepthMap.from_values(np.full((32, 40), 600.0) + np.linspace(0, 5, 40))
    d_re, p_re = fbr(d, cam, d, cam)
    xs, ys = pixel_grid(32, 40)
    assert d_re.valid.all()
    assert np.abs(p_re.x - xs).max() < 1e-9
    assert np.abs(p_re.y - ys).max() < 1e-9
    assert np.abs(d_re.values - d.values).max() < 1e-9


@pytest.mark.parametrize("kind", ["plane", "tilted-plane", "sphere", "two-planes"])
def test_fbr_fixed_point_on_exact_scene(kind):
    # Exact renders of one scene: reprojection must return every
    # well-posed co-visible pixel to itself.  Resolution matters: the
    # bilinear resampling error grows with the per-pixel footprint.
    spec = synth.make_scene(kind, 160, 128, 3, seed=11)
    d0, _ = synth.render_depth(spec, 0)
    xs, ys = pixel_grid(128, 160)
    for s in (1, 2):
        ds, _ = synth.render_depth(spec, s)
        d_re, p_re = fbr(d0, spec.cameras[0], ds, spec.cameras[s])
        fp = fixed_point_mask(spec, 0, s)
        assert fp.sum() > 1000
        assert not (fp & ~d_re.valid).any()
        pde = np.hypot(p_re.x - xs, p_re.y - ys)[fp]
        rdd = (np.abs(d_re.values - d0.values) / d0.values)[fp]
        assert pde.max() < 1e-4
        assert rdd.max() < 1e-6


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(synth.PRESET_SCENES), seed=st.integers(0, 2**32 - 1), src=st.sampled_from([1, 2]))
def test_fbr_fixed_point_property(kind, seed, src):
    # The fixed point of test_criterion_01_fbr_fixed_point, with its
    # bounds, on every preset kind and any scene seed, at that test's
    # 160 x 128 frame.  The bilinear resampling error grows with the
    # square of the pixel footprint: at 80 x 64 a sphere's worst relative
    # depth difference over 40 seeds is 1.3e-6, at 40 x 32 5.1e-6, while
    # at 160 x 128 it stays near 3e-7 over 200.
    spec = synth.make_scene(kind, 160, 128, 3, seed=seed)
    d0, _ = synth.render_depth(spec, 0)
    ds, _ = synth.render_depth(spec, src)
    d_re, p_re = fbr(d0, spec.cameras[0], ds, spec.cameras[src])
    fp = fixed_point_mask(spec, 0, src)
    assert fp.any()
    assert not (fp & ~d_re.valid).any()
    xs, ys = pixel_grid(128, 160)
    assert np.hypot(p_re.x - xs, p_re.y - ys)[fp].max() < 1e-4
    assert (np.abs(d_re.values - d0.values) / d0.values)[fp].max() < 1e-6


def test_fbr_invalidity_is_monotone(rng):
    # The output valid set is always a subset of the input valid set.
    spec = synth.make_scene("two-planes", 60, 48, 3, seed=5)
    d0, _ = synth.render_depth(spec, 0)
    holes = rng.random(d0.shape) > 0.85
    d0 = DepthMap(np.where(holes, 0.0, d0.values), d0.valid & ~holes)
    d1, _ = synth.render_depth(spec, 1)
    d_re, p_re = fbr(d0, spec.cameras[0], d1, spec.cameras[1])
    assert not (d_re.valid & ~d0.valid).any()
    assert not (p_re.valid & ~d0.valid).any()


def test_fbr_sphere_occlusion_matches_ray_cast():
    # Wide-baseline sphere pair: reference pixels whose point is hidden
    # from the source (per the analytic ray-sphere visibility oracle)
    # must come back invalid or displaced.
    K = np.array([[120.0, 0.0, 49.5], [0.0, 120.0, 39.5], [0.0, 0.0, 1.0]])
    cams = (
        synth.look_at_camera(K, (0.0, 0.0, 0.0), (0.0, 0.0, 700.0)),
        synth.look_at_camera(K, (300.0, 80.0, 60.0), (0.0, 0.0, 700.0)),
    )
    spec = synth.SceneSpec(
        geometry=synth.Sphere((0.0, 0.0, 700.0), 260.0), cameras=cams, resolution=(100, 80)
    )
    d0, m0 = synth.render_depth(spec, 0)
    d1, _ = synth.render_depth(spec, 1)
    occluded = render_occlusion_truth(spec, 0, 1)
    assert occluded.sum() > 300
    d_re, p_re = fbr(d0, cams[0], d1, cams[1])
    xs, ys = pixel_grid(80, 100)
    pde = np.hypot(p_re.x - xs, p_re.y - ys)
    rdd = np.where(m0, np.abs(d_re.values - d0.values) / np.where(m0, d0.values, 1.0), 0.0)
    flagged = ~d_re.valid | (pde > 0.5) | (rdd > 0.005)
    assert flagged[occluded].mean() >= 0.99


def test_fbr_occlusion_classification_matches_ray_cast():
    # Occluded reference pixels must come back invalid or displaced on
    # nearly all pixels classified by the analytic ray-cast truth.
    spec = synth.make_scene("two-planes-offset", 80, 64, 3, seed=2)
    d0, _ = synth.render_depth(spec, 0)
    xs, ys = pixel_grid(64, 80)
    for s in (1, 2):
        ds, _ = synth.render_depth(spec, s)
        d_re, p_re = fbr(d0, spec.cameras[0], ds, spec.cameras[s])
        occluded = render_occlusion_truth(spec, 0, s)
        if occluded.sum() == 0:
            continue
        pde = np.hypot(p_re.x - xs, p_re.y - ys)
        rdd = np.where(d0.valid, np.abs(d_re.values - d0.values) / np.where(d0.valid, d0.values, 1.0), 0.0)
        flagged = ~d_re.valid | (pde > 0.5) | (rdd > 0.005)
        agree = flagged[occluded].mean()
        assert agree >= 0.99


def _reprojection_outputs(d0, ref, d1, src):
    """Every array of forward_project, remap, the back warp of the sample, and fbr on one pair."""
    coords, warped = forward_project(d0, ref, src)
    sampled = remap(d1, coords)
    h, w = d0.shape
    x, y, d, ok = np.empty((h, w)), np.empty((h, w)), np.empty((h, w)), np.empty((h, w), dtype=bool)
    reproject._apply_warp(warp_transform(src, ref), coords.x, coords.y, sampled.values, sampled.valid,
                          (x, y, d, ok), np.empty((h, w)), np.empty((h, w), dtype=bool))
    d_fbr, p_fbr = fbr(d0, ref, d1, src)
    return [coords.x, coords.y, coords.valid, warped.values, warped.valid, sampled.values, sampled.valid,
            d, ok, x, y, ok,
            d_fbr.values, d_fbr.valid, p_fbr.x, p_fbr.y, p_fbr.valid]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind, w, h, n, seed", BAND_SCENES)
def test_reprojection_is_band_invariant(monkeypatch, kind, w, h, n, seed):
    spec = synth.make_scene(kind, w, h, n, seed=seed)
    d0, _ = synth.render_depth(spec, 0)
    d1, _ = synth.render_depth(spec, 1)
    ref, src = spec.cameras[:2]
    base = _reprojection_outputs(d0, ref, d1, src)
    d_fbr_valid = base[13]
    assert 0.2 < d_fbr_valid.mean() < 1.0  # valid and invalid pixels both occur
    # fbr is forward_project, then remap, then the back warp, bit for bit.
    assert all(_same_bits(a, b) for a, b in zip(base[7:12], base[12:]))
    for band in band_sizes(h, w):
        monkeypatch.setattr(reproject, "_BAND_PIXELS", band)
        got = _reprojection_outputs(d0, ref, d1, src)
        assert all(_same_bits(a, b) for a, b in zip(base, got)), band


@pytest.mark.parametrize("kind, w, h, n, seed", BAND_SCENES)
def test_stage_penalties_are_band_invariant(monkeypatch, kind, w, h, n, seed):
    spec = synth.make_scene(kind, w, h, n, seed=seed)
    d0, _ = synth.render_depth(spec, 0)
    sources = [(synth.render_depth(spec, s)[0], spec.cameras[s]) for s in range(1, n)]
    stages = [GcThresholds(dp, dd) for dp, dd in zip(STAGE_PIXEL_THRESHOLDS, STAGE_DEPTH_THRESHOLDS)]
    modes = ("one-two", "one-three")
    base = {mode: stage_penalties(d0, spec.cameras[0], sources, stages, mode) for mode in modes}
    if w * h < 1000:  # the nested-loop oracle is too slow for the wide scene
        for mode in modes:
            for pen, thr in zip(base[mode], stages):
                oracle = naive_penalty(d0, spec.cameras[0], sources, thr.d_pixel, thr.d_depth, mode)
                assert np.array_equal(pen.values, oracle)
    for band in (None, *band_sizes(h, w)):
        if band is not None:
            monkeypatch.setattr(reproject, "_BAND_PIXELS", band)
        for mode in modes:
            got = stage_penalties(d0, spec.cameras[0], sources, stages, mode)
            assert all(_same_bits(a.values, b.values) for a, b in zip(base[mode], got)), (band, mode)
            # The votes taken off the pair-check walk equal the paper's sum
            # of public steps, inconsistency_mask(d_ref, *fbr(...)).
            for pen, thr in zip(got, stages):
                want = per_pixel_penalty(d0, spec.cameras[0], sources, thr, mode)
                assert _same_bits(pen.values, want.values), (band, mode, thr)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_forward_warp_makes_no_band_sized_copy(dtype):
    # The forward warp's pixel grid broadcasts over the band (xs a row, ys
    # a column).  A scaled grid vector sharing memory with the product's
    # output makes numpy copy it at the band size first.  What is left is
    # numpy's own iteration buffer (at most 8192 elements) and the row- and
    # column-sized grid vectors: under half a band buffer.  A float32 map
    # is widened into a band buffer the caller already has.
    import tracemalloc

    h, w = 64, 512  # one band of the default size, 256 KB per float64 buffer
    rng = np.random.default_rng(5)
    d_ref = DepthMap.from_values(rng.uniform(400.0, 900.0, (h, w)).astype(dtype))
    transform = warp_transform(random_camera(rng), random_camera(rng))
    out = tuple(np.empty((h, w), dtype=dtype) for dtype in reproject._WARP)
    tmp, failed, wide = np.empty((h, w)), np.empty((h, w), dtype=bool), np.empty((h, w))
    xs, ys = np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64)[:, None]  # the band's grid

    def forward():
        depth = d_ref.values
        if dtype == np.float32:  # as _depth_bands widens a band
            np.copyto(wide, depth)
            depth = wide
        reproject._apply_warp(transform, xs, ys, depth, d_ref.valid, out, tmp, failed)

    forward()  # first-call allocations
    tracemalloc.start()
    try:
        forward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < h * w * 8 // 2, peak
