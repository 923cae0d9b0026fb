import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsgeo import reproject, synth
from mvsgeo.fusion import (
    DEFAULT_DYNAMIC_TABLE,
    FusionParams,
    PointCloud,
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
    # Geometric thresholds are finite and positive: a NaN one would pass
    # no check and fuse nothing, silently.
    for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
        for field in ("disparity_threshold", "depth_threshold"):
            with pytest.raises(ValueError, match="finite and positive"):
                FusionParams(**{field: bad})
    with pytest.raises(ValueError):
        FusionParams(average="mode")
    # The required view count is an integer: a fractional count would be
    # cut to its integer part (2.5 fused as 2), a string would not compare.
    for count in (2.5, 2.0, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match="consistency_threshold must be an integer"):
            FusionParams(consistency_threshold=count)
    assert FusionParams(consistency_threshold=np.int64(3)).consistency_threshold == 3


def test_point_cloud_validation():
    with pytest.raises(ValueError, match="finite"):
        PointCloud(points=np.array([[np.inf, 0, 0]]))
    with pytest.raises(ValueError, match="colors"):
        PointCloud(points=np.zeros((2, 3)), colors=np.zeros((3, 3), dtype=np.uint8))
    assert len(PointCloud(points=np.zeros((0, 3)))) == 0


def test_dynamic_thresholds_table():
    # Row k - 1 is the (displacement px, relative depth) pair used when k
    # views must agree: looser as more views must agree.
    assert DEFAULT_DYNAMIC_TABLE[0] == pytest.approx((0.25, 0.0025))
    for a, b in zip(DEFAULT_DYNAMIC_TABLE, DEFAULT_DYNAMIC_TABLE[1:]):
        assert a[0] <= b[0] and a[1] <= b[1]


def test_dynamic_table_fits_one_pass_bit_byte():
    # Each (source, pixel) pair keeps its table rows' pass bits in one
    # uint8, bit r for row r: a table has at most 8 rows, and a ninth row
    # has no bit to go to.
    from mvsgeo.fusion import _set_pass_bits

    assert 1 <= len(DEFAULT_DYNAMIC_TABLE) <= 8
    errors = np.zeros(4)
    scratch = np.empty(4, dtype=bool), np.empty(4, dtype=bool)
    with pytest.raises(OverflowError):
        _set_pass_bits(errors, errors, np.ones((9, 2)), np.empty(4, dtype=np.uint8), *scratch)


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


@pytest.mark.parametrize("band", [1, 36, 37, 38, 23 * 37 + 5, 10**6])
def test_pair_stacks_match_full_frame_reprojection(monkeypatch, band):
    # The pair check at packed pixels equals fbr and the penalty's
    # sqrt/RDD formula at those pixels, bit for bit: each pass bit is that
    # PDE and RDD compared with its table row.  The landing index is
    # forward_project's rounded landing pixel, row-major in the source
    # image, -1 off it.  The pixels are a scattered ascending subset, some
    # of them invalid; one set of band buffers serves every chunk of a
    # pair: chunks of one row (W and W+1 pixels) and past all pixels.  The
    # two sources repeated four times keep eight table rows, every bit of
    # the pass-bit byte.
    from mvsgeo.camera import pixel_grid
    from mvsgeo.fusion import _new_stacks, _pair_stacks
    from mvsgeo.reproject import fbr, forward_project

    spec, views = scene_views("two-planes-offset", w=37, h=23, n=3, seed=2, conf=1.0)
    (d_ref, _, ref), sources = views[0], [(v[0], v[2]) for v in views[1:]]
    hole = np.ones(d_ref.shape, dtype=bool)
    hole[5:9, 10:20] = False
    d_ref = DepthMap(d_ref.values, d_ref.valid & hole)
    pixels = np.flatnonzero(np.random.default_rng(3).random(23 * 37) < 0.6)
    assert not d_ref.valid.reshape(-1)[pixels].all()
    xs, ys = pixel_grid(23, 37)
    want = []
    for d_src, src in sources:
        coords, _ = forward_project(d_ref, ref, src)
        d_back, p_back = fbr(d_ref, ref, d_src, src)
        ok = d_back.valid
        pde = np.where(ok, np.sqrt((p_back.x - xs) ** 2 + (p_back.y - ys) ** 2), np.inf)
        denom = np.where(d_ref.valid, d_ref.values, 1.0)
        rdd = np.where(ok, np.abs(d_back.values - d_ref.values) / denom, np.inf)
        sx, sy = np.rint(coords.x), np.rint(coords.y)
        on = coords.valid & (sx >= 0) & (sx <= 36) & (sy >= 0) & (sy <= 22)
        flat = np.where(on, sy * 37 + sx, -1)
        want.append(tuple(a.reshape(-1)[pixels] for a in (flat, d_back.values, pde, rdd)))
    # Rows at the errors' quartiles, at an error itself (strict <), at inf
    # and out of order, split over two tables: the first keeps 8 rows, a
    # ninth is past the source count; the second keeps 3 rows of a byte.
    finite = np.isfinite(want[0][2])
    q_pde = np.quantile(want[0][2][finite], [0.25, 0.5, 0.75])
    q_rdd = np.quantile(want[0][3][finite], [0.25, 0.5, 0.75])
    rows = np.array([(q_pde[1], q_rdd[1]), (np.inf, np.inf), (q_pde[0], np.inf), (np.inf, q_rdd[2]),
                     (want[0][2][finite][0], want[0][3][finite][0]), (q_pde[2], q_rdd[0]), (0.0, 0.0),
                     (q_pde[0], q_rdd[2]), (q_pde[2], q_rdd[2]), (1.0, 0.01), (0.0, np.inf)])
    sources, want = sources * 4, want * 4
    monkeypatch.setattr(reproject, "_BAND_PIXELS", band)
    n = pixels.size
    for table in (rows[:9], rows[8:]):
        kept = min(len(table), 8)
        bits, dres, flat = _pair_stacks(d_ref, ref, sources, table, pixels, _new_stacks(len(sources), n))
        assert bits.shape == dres.shape == flat.shape == (8, n)
        assert bits.dtype == np.uint8 and flat.dtype == np.int32
        for i, (want_flat, d_back, pde, rdd) in enumerate(want):
            for r in range(kept):
                want_bit = (pde < table[r, 0]) & (rdd < table[r, 1])
                assert np.array_equal((bits[i] >> r) & 1, want_bit), r
            assert not (bits[i] >> kept).any()
            assert dres[i].tobytes() == d_back.tobytes()
            assert np.array_equal(flat[i], want_flat)
            assert (want_flat >= 0).any() and not (want_flat >= 0).all()
        # Every row splits the pixels but the impossible ones.
        assert all(0 < ((bits[:2] >> r) & 1).sum() < 2 * n for r in range(kept) if table[r, 0] > 0)


def test_single_thread_holds_one_reference_views_stacks(monkeypatch):
    # Reference r's pair stacks hold only its eligible pixels, are drawn
    # just after reference r - 1's consume pass and dropped after r's, so
    # a single thread never holds two references' stacks.  Only the left
    # half of each view is confident: reference 0's stacks hold n0, half
    # the frame (13 B per pixel and source).  Above them: the consumed
    # marks of all views and the draw's masks, under 16 B per frame pixel,
    # and under 96 B per eligible pixel of reference 0 for its packed
    # indices, the consume pass's temporaries, the back-projection and the
    # cloud emitted so far (66 B measured).  Full-frame stacks do not fit,
    # nor do reference 1's stacks drawn before reference 0 has consumed
    # its pixels (about n0 of them then).  Row bands of 8 rows keep the
    # band temporaries small next to the stacks; the band size changes no
    # bit.
    import tracemalloc

    w, h, n = 80, 64, 8
    conf = np.zeros((h, w))
    conf[:, : w // 2] = 1.0
    spec, views = scene_views("two-planes", w=w, h=h, n=n, conf=[conf] * n)
    params = FusionParams(prob_threshold=0.5, consistency_threshold=2)
    monkeypatch.setattr(reproject, "_BAND_PIXELS", 8 * w)
    fuse(views, params)  # first-call allocations out of the measurement
    n0 = int((views[0][0].valid & (conf > 0.5)).sum())
    assert n0 <= h * w // 2
    stacks = (n - 1) * n0 * (1 + 8 + 4)  # one pass-bit byte, dres float64 + int32 landing index
    tracemalloc.start()
    try:
        fuse(views, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stacks + 16 * h * w + 96 * n0, (peak, stacks)


def test_median_consume_pass_holds_one_depth_stack(rng):
    # The median mode fills one (n_src + 1, H, W) float64 stack and sorts
    # it in place.  Beside it only the mean mode's own temporaries are
    # alive (about one more stack's worth at 7 sources), not np.where's,
    # np.concatenate's and np.nanmedian's copies of it.
    import tracemalloc

    from mvsgeo.fusion import _consume_pass

    n_src, h, w = 7, 64, 80
    d_ref = DepthMap.from_values(rng.uniform(400, 900, (h, w)))
    pixels = np.arange(h * w)
    dres = d_ref.values.reshape(1, -1) * rng.uniform(0.99, 1.01, (n_src, h * w))
    bits = rng.integers(0, 256, (n_src, h * w), dtype=np.uint8)
    flat = rng.integers(-1, h * w, (n_src, h * w), dtype=np.int32)
    stack = (n_src + 1) * h * w * 8
    peaks = []
    for average in ("mean", "median"):
        consumed = np.zeros((n_src + 1, h, w), dtype=np.uint8)
        params = FusionParams(consistency_threshold=2, average=average)
        tracemalloc.start()
        try:
            _, mask = _consume_pass(d_ref, pixels, (bits, dres, flat), consumed, 0,
                                    list(range(1, n_src + 1)), params, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mask.any()
        peaks.append(peak)
    assert peaks[0] < 1.5 * stack, peaks
    assert peaks[1] < peaks[0] + 1.5 * stack, peaks


def test_pair_band_views_die_with_their_pair(monkeypatch):
    # Above the stacks, filling one reference's stacks holds one pair's
    # band scratch (the chain's 10 float64 and 4 bool band buffers, and a
    # chunk's x, y, depths and validity: 3 float64 and 1 bool more), the
    # corner map (and its one intermediate while it is built) and a few
    # band-sized temporaries.  A band view kept past its pair keeps that
    # pair's buffers alive while the next pair allocates its own, and does
    # not fit.
    import tracemalloc

    from mvsgeo.fusion import _new_stacks, _pair_stacks

    w, h, n, rows = 80, 48, 5, 16
    spec, views = scene_views("two-planes", w=w, h=h, n=n, conf=1.0)
    (d_ref, _, ref), sources = views[0], [(v[0], v[2]) for v in views[1:]]
    assert d_ref.values.dtype == np.float64  # no widening buffer
    band = rows * w
    monkeypatch.setattr(reproject, "_BAND_PIXELS", band)
    table = np.array(DEFAULT_DYNAMIC_TABLE)
    pixels = np.flatnonzero(d_ref.valid)
    assert pixels.size > 2 * band  # several chunks
    stacks = _new_stacks(len(sources), pixels.size)
    _pair_stacks(d_ref, ref, sources, table, pixels, stacks)  # first-call allocations out of the measurement
    tracemalloc.start()
    try:
        _pair_stacks(d_ref, ref, sources, table, pixels, stacks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    scratch = band * (13 * 8 + 5)
    corner_map = 2 * h * w
    assert peak < scratch + corner_map + 4 * band * 8, (peak, scratch + corner_map)


def test_far_off_landing_pixel_raises_no_warning():
    # A valid pixel whose landing point lies beyond any integer range must
    # be dropped by the bounds test before its index is cast.
    from mvsgeo.camera import Camera

    K = np.array([[100.0, 0.0, 50.0], [0.0, 100.0, 50.0], [0.0, 0.0, 1.0]])
    ref = Camera(K=K, E=np.eye(4))
    E = np.eye(4)
    E[:3, :3] = [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]  # 90 degrees about y
    E[2, 3] = 1e-11
    src = Camera(K=K, E=E)
    depth = DepthMap.from_values(np.full((100, 100), 1e7))
    conf = np.ones((100, 100))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cloud = fuse([(depth, conf, ref), (depth, conf, src)], FusionParams(consistency_threshold=1))
    assert len(cloud) == 0


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


def test_one_forward_warp_per_pair(monkeypatch):
    # Each pair of a reference with pixels left to fuse builds its forward
    # and back transform once (inside reproject's pair check) and warps
    # twice per chunk of those pixels, forward and back, instead of going
    # through forward_project or fbr.  A reference with no pixel left to
    # fuse (view 3, whose confidence is 0) checks no pair.
    import mvsgeo.fusion
    import mvsgeo.reproject

    transforms, warps, eligible = [], [], []
    original_transform, original_warp = mvsgeo.reproject.warp_transform, mvsgeo.reproject._apply_warp
    original_stacks = mvsgeo.fusion._new_stacks

    def counting_transform(ref, src):
        transforms.append((id(ref), id(src)))
        return original_transform(ref, src)

    def counting_warp(*args, **kwargs):
        warps.append(1)
        return original_warp(*args, **kwargs)

    def recording_stacks(n_src, n):
        eligible.append(n)  # drawn in reference order
        return original_stacks(n_src, n)

    def refused(*args, **kwargs):
        raise AssertionError("fusion must not call the full-frame reprojection")

    monkeypatch.setattr(mvsgeo.reproject, "warp_transform", counting_transform)
    monkeypatch.setattr(mvsgeo.reproject, "_apply_warp", counting_warp)
    monkeypatch.setattr(mvsgeo.fusion, "_new_stacks", recording_stacks)
    for name in ("forward_project", "fbr"):
        monkeypatch.setattr(mvsgeo.reproject, name, refused)
    chunk = 100
    monkeypatch.setattr(mvsgeo.reproject, "_BAND_PIXELS", chunk)
    spec, views = scene_views("plane", w=40, h=32, n=4, conf=1.0)
    views[3] = (views[3][0], np.zeros((32, 40)), views[3][2])
    pairs = [[1, 2], [0], [0, 1, 3], [2]]
    fuse(views, FusionParams(consistency_threshold=1), pairs=pairs)
    assert eligible[0] > 2 * chunk and eligible[3] == 0
    cams = [id(view[2]) for view in views]
    expected = [(cams[r], cams[s]) for r, srcs in enumerate(pairs) for s in srcs if eligible[r]]
    expected += [(b, a) for a, b in expected]
    assert sorted(transforms) == sorted(expected)
    assert len(warps) == 2 * sum(len(srcs) * -(-eligible[r] // chunk) for r, srcs in enumerate(pairs))


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


def test_views_without_an_image_give_their_points_zero_color():
    # Images for views 0 and 2 only: the same points as with no image, each
    # point coloured by its reference view's image, and black where that
    # view has none.  A constant image per view tells the references apart.
    spec, views = scene_views("plane", w=40, h=32, conf=1.0)
    imgs = [np.full((32, 40, 3), 40 * (v + 1), dtype=np.uint8) for v in range(5)]
    params = FusionParams(consistency_threshold=2)
    every = fuse([(*view, img) for view, img in zip(views, imgs)], params)
    some = fuse([(*view, imgs[v] if v in (0, 2) else None) for v, view in enumerate(views)], params)
    bare = fuse(views, params)
    assert bare.colors is None and np.array_equal(some.points, bare.points)
    assert np.array_equal(every.points, bare.points)
    reference = every.colors[:, 0] // 40 - 1
    assert {0, 2, 3} <= set(reference.tolist()) <= set(range(5))
    kept = np.isin(reference, (0, 2))
    assert np.array_equal(some.colors[kept], every.colors[kept])
    assert (some.colors[~kept] == 0).all()


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


@pytest.mark.parametrize("pairs, message", [
    ([[-2, -1], [0, 2], [0, 1]], "view 0 lists source -2"),
    ([[1, 2], [0, 3], [0, 1]], "view 1 lists source 3"),
    ([[1, 2], [0, 2], [1, 1]], "view 2 lists a source view twice"),
    ([[1.0, 2], [0, 2], [0, 1]], "view 0 lists a source that is not an integer view index"),
    ([[1, 2], ["0", 2], [0, 1]], "view 1 lists a source that is not an integer view index"),
], ids=["negative", "out-of-range", "duplicate", "float", "string"])
def test_pairs_reject_bad_source_indices(pairs, message):
    # A negative index would alias a view from the end, a duplicate would
    # count one view twice, an index past the last view would raise a bare
    # IndexError, and a float or a string a bare TypeError; each is a
    # ValueError naming the reference.
    spec, views = scene_views("plane", w=20, h=16, n=3, conf=1.0)
    with pytest.raises(ValueError, match=message):
        fuse(views, FusionParams(consistency_threshold=1), pairs=pairs)


def test_pairs_take_any_integer_source_indices():
    # numpy integers and integer arrays name the same views as Python
    # ints, and fuse leaves the caller's lists as they were.
    spec, views = scene_views("plane", w=20, h=16, n=3, conf=1.0)
    params = FusionParams(consistency_threshold=1)
    want = fuse(views, params, pairs=[[1, 2], [0, 2], [0, 1]])
    pairs = [[np.int64(1), np.int32(2)], np.array([0, 2]), (np.uint8(0), 1)]
    got = fuse(views, params, pairs=pairs)
    assert len(want) > 0 and got.points.tobytes() == want.points.tobytes()
    assert type(pairs[0][0]) is np.int64 and isinstance(pairs[1], np.ndarray) and isinstance(pairs[2], tuple)


def holey_views(seed, w=24, h=16, n=4):
    """A two-planes scene with invalid pixels and low-confidence pixels in every view, and colors."""
    rng = np.random.default_rng(seed)
    spec = synth.make_scene("two-planes", w, h, n, seed=1)
    views = []
    for v in range(n):
        d, _ = synth.render_depth(spec, v)
        depth = DepthMap(d.values, d.valid & (rng.random(d.shape) > 0.15))
        conf = rng.uniform(0.0, 1.0, d.shape)
        views.append((depth, conf, spec.cameras[v], rng.integers(0, 256, (h, w, 3), dtype=np.uint8)))
    return views


def test_each_pair_walks_the_pixels_eligible_when_its_reference_is_drawn(monkeypatch):
    # Reference r is drawn after the consume pass of reference r - 1:
    # every pair of r walks exactly the pixels that are then valid,
    # confident and not consumed, and a reference with none walks no pair.
    # So r >= 1 walks no pixel consumed before its turn.
    import mvsgeo.fusion

    views = holey_views(7, w=32, h=24, n=6)
    index = {id(view[0].valid): r for r, view in enumerate(views)}
    drawn, walked, after = {}, [], []
    eligible_pixels, chain, consume = mvsgeo.fusion._eligible_pixels, reproject._chain, mvsgeo.fusion._consume_pass

    def recording_draw(consumed, valid, conf, prob_threshold):
        pixels = eligible_pixels(consumed, valid, conf, prob_threshold)
        drawn[index[id(valid)]] = pixels
        return pixels

    def recording_chain(d_ref, ref, d_src, src, back_out, pixels=None):
        walked.append((index[id(d_ref.valid)], pixels.copy()))
        return chain(d_ref, ref, d_src, src, back_out, pixels)

    def recording_consume(*args):
        result = consume(*args)
        after.append(args[3].copy())  # the consumed marks after each pass, in reference order
        return result

    monkeypatch.setattr(mvsgeo.fusion, "_eligible_pixels", recording_draw)
    monkeypatch.setattr(reproject, "_chain", recording_chain)
    monkeypatch.setattr(mvsgeo.fusion, "_consume_pass", recording_consume)
    prob = 0.3
    fuse(views, FusionParams(prob_threshold=prob, consistency_threshold=2))
    n_src = len(views) - 1
    skipped = 0
    for r, (depth, conf, *_) in enumerate(views):
        before = after[r - 1][r] if r >= 1 else np.zeros(depth.shape, dtype=np.uint8)
        want = np.flatnonzero((before == 0) & depth.valid & (conf > prob))
        assert np.array_equal(drawn[r], want), r
        walks = [pixels for ref, pixels in walked if ref == r]
        assert len(walks) == (n_src if want.size else 0), r
        assert all(np.array_equal(pixels, want) for pixels in walks), r
        skipped += int(((before != 0) & depth.valid & (conf > prob)).sum())
    assert skipped > 0  # pixels that were valid and confident were skipped as consumed


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 3), mode=st.sampled_from(["fusibile", "dynamic"]),
       average=st.sampled_from(["mean", "median"]),
       band=st.sampled_from([1, 23, 25, reproject._BAND_PIXELS]))
def test_skipping_ineligible_pixels_changes_no_byte(seed, mode, average, band):
    # Checking every pixel of every reference and then taking the drawn
    # (eligible) pixels' columns, and checking only the drawn pixels, give
    # the same cloud, byte for byte, in both modes and averages, at any
    # chunk size (1, W - 1 and W + 1 pixels and the default; W = 24).
    import mvsgeo.fusion

    views = holey_views(seed)
    params = FusionParams(mode=mode, average=average, prob_threshold=0.3, consistency_threshold=2)
    pair_stacks = mvsgeo.fusion._pair_stacks

    def checking_every_pixel(d_ref, ref_cam, sources, table, pixels, stacks):
        every = np.arange(d_ref.valid.size)
        whole = pair_stacks(d_ref, ref_cam, sources, table, every, mvsgeo.fusion._new_stacks(len(sources), every.size))
        for stack, full in zip(stacks, whole):
            stack[...] = full[:, pixels]
        return stacks

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reproject, "_BAND_PIXELS", band)
        skipping = fuse(views, params)
        patch.setattr(mvsgeo.fusion, "_pair_stacks", checking_every_pixel)
        checking = fuse(views, params)
    assert len(skipping) > 0
    for name in ("points", "colors"):
        assert getattr(skipping, name).tobytes() == getattr(checking, name).tobytes(), name
