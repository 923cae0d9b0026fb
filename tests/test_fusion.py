import numpy as np
import pytest

from mvsgeo import reproject, synth
from mvsgeo.fusion import (
    DEFAULT_DYNAMIC_TABLE,
    FusionParams,
    PointCloud,
    dynamic_thresholds,
    fuse,
)
from mvsgeo.reproject import DepthMap

from conftest import BAND_SCENES, band_sizes


def scene_views(kind="plane", w=80, h=64, n=5, seed=1, conf=None):
    spec = synth.make_scene(kind, w, h, n, seed=seed)
    views = []
    for v in range(n):
        d, m = synth.render_depth(spec, v)
        c = np.full(d.shape, conf) if isinstance(conf, float) else (
            conf[v] if conf is not None else m.astype(np.float64))
        views.append((d, c, spec.cameras[v]))
    return spec, views


def plane_distance(points, plane=(0.0, 0.0, -1.0, -600.0)):
    n = np.array(plane[:3])
    return np.abs(points @ n - plane[3]) / np.linalg.norm(n)


def test_params_validation():
    with pytest.raises(ValueError):
        FusionParams(mode="magic")
    with pytest.raises(ValueError):
        FusionParams(prob_threshold=1.5)
    with pytest.raises(ValueError):
        FusionParams(consistency_threshold=0)
    with pytest.raises(ValueError):
        FusionParams(disparity_threshold=0.0)
    with pytest.raises(ValueError):
        FusionParams(average="mode")
    with pytest.raises(ValueError):
        FusionParams(dynamic_table=())


def test_point_cloud_validation():
    with pytest.raises(ValueError, match="finite"):
        PointCloud(points=np.array([[np.inf, 0, 0]]))
    with pytest.raises(ValueError, match="colors"):
        PointCloud(points=np.zeros((2, 3)), colors=np.zeros((3, 3), dtype=np.uint8))
    assert len(PointCloud(points=np.zeros((0, 3)))) == 0


def test_dynamic_thresholds_table():
    assert dynamic_thresholds(1) == pytest.approx((0.25, 0.0025))
    for k in range(1, len(DEFAULT_DYNAMIC_TABLE)):
        a = dynamic_thresholds(k)
        b = dynamic_thresholds(k + 1)
        assert a[0] <= b[0]  # monotone displacement
    # beyond the table: clamp to the last entry
    assert dynamic_thresholds(99) == dynamic_thresholds(len(DEFAULT_DYNAMIC_TABLE))
    with pytest.raises(ValueError):
        dynamic_thresholds(0)


def test_exact_plane_scene_fuses_everything():
    spec, views = scene_views("plane", conf=1.0)
    params = FusionParams(prob_threshold=0.5, consistency_threshold=3)
    cloud = fuse(views, params)
    # Every valid reference pixel of view 0 fuses; points lie on the plane.
    assert len(cloud) >= views[0][0].valid.sum()
    assert plane_distance(cloud.points).max() < 1e-5


def test_prob_gate_closed_gives_empty_cloud():
    spec, views = scene_views("plane", conf=0.99)
    cloud = fuse(views, FusionParams(prob_threshold=1.0, consistency_threshold=1))
    assert len(cloud) == 0


def test_corrupted_view_and_consistency_threshold():
    spec, views = scene_views("plane", n=5, conf=1.0)
    # Corrupt one source view's depths by +50%.
    d3, c3, cam3 = views[3]
    views = list(views)
    views[3] = (DepthMap(d3.values * 1.5, d3.valid), c3, cam3)
    lenient = fuse(views, FusionParams(prob_threshold=0.5, consistency_threshold=3))
    strict = fuse(views, FusionParams(prob_threshold=0.5, consistency_threshold=4))
    assert len(lenient) > 0
    # With all 4 sources required, the corrupted view vetoes everything
    # (it can never agree with the exact geometry).
    assert len(strict) == 0


def test_monotone_in_thresholds(rng):
    # Exact scene, uniform confidence: raising either gate can only
    # shrink the cloud.  (With spatially varying confidence the
    # consume-marking dedup can fragment and the count is not monotone,
    # so uniform confidence is the meaningful setting for this sweep.)
    spec, views = scene_views("plane", conf=0.95)
    counts_prob = []
    for p in (0.0, 0.5, 0.9, 1.0):
        cloud = fuse(views, FusionParams(prob_threshold=p, consistency_threshold=2))
        counts_prob.append(len(cloud))
    assert counts_prob == sorted(counts_prob, reverse=True)
    assert counts_prob[0] > 0
    assert counts_prob[-1] == 0
    counts_k = []
    for k in (1, 2, 3, 4):
        cloud = fuse(views, FusionParams(prob_threshold=0.5, consistency_threshold=k))
        counts_k.append(len(cloud))
    assert counts_k == sorted(counts_k, reverse=True)
    assert counts_k[0] > 0


def test_each_surface_point_emitted_once():
    # On the exact plane with full covisibility, view 0 consumes almost
    # everything; later views only add their exclusive border strips.
    spec, views = scene_views("plane", conf=1.0)
    cloud = fuse(views, FusionParams(prob_threshold=0.5, consistency_threshold=2))
    n_ref = int(views[0][0].valid.sum())
    total_valid = sum(int(v[0].valid.sum()) for v in views)
    assert n_ref <= len(cloud) < total_valid * 0.6


def test_median_average_mode():
    spec, views = scene_views("plane", conf=1.0)
    mean_cloud = fuse(views, FusionParams(average="mean", consistency_threshold=2))
    med_cloud = fuse(views, FusionParams(average="median", consistency_threshold=2))
    assert len(mean_cloud) == len(med_cloud)
    assert plane_distance(med_cloud.points).max() < 1e-5


def test_dynamic_mode_on_exact_plane():
    spec, views = scene_views("plane", conf=1.0)
    cloud = fuse(views, FusionParams(mode="dynamic", prob_threshold=0.5, consistency_threshold=2))
    assert len(cloud) > 1000
    assert plane_distance(cloud.points).max() < 1e-5


def test_two_plane_scene_soundness_away_from_edges():
    # Occluder-edge pixels may fuse depths blended across the depth cliff
    # within the relative-depth gate; away from edges the cloud must sit
    # on one of the two surfaces.
    spec, views = scene_views("two-planes", conf=1.0)
    cloud = fuse(views, FusionParams(prob_threshold=0.5, consistency_threshold=2))
    d_back = np.abs(cloud.points[:, 2] - 760.0)
    d_front = np.abs(cloud.points[:, 2] - 560.0)
    off_surface = np.minimum(d_back, d_front)
    assert (off_surface < 1e-5).mean() > 0.95
    # and every deviation is bounded by the depth gate
    assert off_surface.max() < 0.01 * 760.0


def test_threads_bit_identical():
    spec, views = scene_views("two-planes", conf=1.0)
    params = FusionParams(prob_threshold=0.5, consistency_threshold=2)
    base = fuse(views, params, threads=1)
    for t in (2, 4):
        other = fuse(views, params, threads=t)
        assert np.array_equal(base.points, other.points)
        assert np.array_equal(base.confidence, other.confidence)


@pytest.mark.parametrize("kind, w, h, n, seed", BAND_SCENES)
def test_fused_cloud_is_band_invariant(monkeypatch, kind, w, h, n, seed):
    # The pair arrays come from the banded reprojection; no band size
    # (one pixel, around one row, past the whole frame) moves a bit.
    spec, views = scene_views(kind, w=w, h=h, n=n, seed=seed, conf=1.0)
    params = FusionParams(prob_threshold=0.5, consistency_threshold=1)
    base = fuse(views, params)
    assert len(base) > 0
    for band in band_sizes(h, w):
        monkeypatch.setattr(reproject, "_BAND_PIXELS", band)
        got = fuse(views, params)
        assert got.points.tobytes() == base.points.tobytes(), band
        assert got.confidence.tobytes() == base.confidence.tobytes(), band


def test_one_forward_warp_per_pair(monkeypatch):
    # The pair check reuses its forward warp for the back half instead of
    # warping again through fbr.
    import mvsgeo.fusion
    import mvsgeo.reproject

    calls = []
    original = mvsgeo.reproject.forward_project

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(mvsgeo.reproject, "forward_project", counting)
    monkeypatch.setattr(mvsgeo.fusion, "forward_project", counting)
    spec, views = scene_views("plane", w=40, h=32, n=4, conf=1.0)
    pairs = [[1, 2], [0], [0, 1, 3], [2]]
    fuse(views, FusionParams(consistency_threshold=1), pairs=pairs)
    assert len(calls) == sum(len(srcs) for srcs in pairs)


def test_colors_sampled_from_images(rng):
    from mvsgeo.camera import Pixel, back_project

    spec, views = scene_views("plane", w=40, h=32, conf=1.0)
    imgs = [rng.integers(0, 256, size=(32, 40, 3), dtype=np.uint8) for _ in range(5)]
    views = [(d, c, cam, img) for (d, c, cam), img in zip(views, imgs)]
    cloud = fuse(views, FusionParams(consistency_threshold=2))
    assert cloud.colors is not None and len(cloud.colors) == len(cloud)
    # an interior pixel of view 0 certainly fused; its point carries the
    # color sampled from image 0 at that pixel
    i, j = 16, 20
    d0 = views[0][0]
    expected = back_project(Pixel(float(j), float(i)), d0.values[i, j], views[0][2])
    dist = np.linalg.norm(cloud.points - expected, axis=1)
    k = int(dist.argmin())
    assert dist[k] < 1e-3
    assert (cloud.colors[k] == imgs[0][i, j]).all()


def test_input_validation():
    spec, views = scene_views("plane", w=20, h=16, n=3, conf=1.0)
    with pytest.raises(ValueError, match="two views"):
        fuse(views[:1], FusionParams())
    small, _ = synth.render_depth(synth.make_scene("plane", 10, 8, 1, seed=0), 0)
    bad = [(small, np.ones(small.shape), views[0][2])] + list(views[1:])
    with pytest.raises(ValueError, match="dimensions"):
        fuse(bad, FusionParams())
    with pytest.raises(ValueError, match="confidence"):
        fuse([(views[0][0], np.ones((3, 3)), views[0][2])] + list(views[1:]), FusionParams())
    with pytest.raises(ValueError, match="own source"):
        fuse(views, FusionParams(), pairs=[[0, 1], [0], [1]])
