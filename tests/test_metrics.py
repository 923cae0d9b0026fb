import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mvsgeo.fusion import PointCloud
from mvsgeo.metrics import (
    accuracy,
    completeness,
    depth_metrics,
    evaluate_point_clouds,
    nearest_neighbor_distances,
    overall,
)
from mvsgeo.reproject import DepthMap

from oracles import quadratic_nn


def test_accuracy_subset_is_zero(rng):
    gt = rng.normal(size=(50, 3))
    pred = gt[::2]
    assert accuracy(pred, gt, max_dist=1.0) == 0.0


def test_accuracy_hand_case():
    pred = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    gt = np.array([[0.0, 0.0, 0.0]])
    assert accuracy(pred, gt, max_dist=2.0) == pytest.approx(0.5)


def test_accuracy_excludes_beyond_max_dist():
    pred = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    gt = np.array([[0.1, 0.0, 0.0]])
    # The far point is excluded from the mean, not clamped.
    assert accuracy(pred, gt, max_dist=1.0) == pytest.approx(0.1)


def test_accuracy_no_measurable_points():
    pred = np.array([[100.0, 0.0, 0.0]])
    gt = np.array([[0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="no measurable points"):
        accuracy(pred, gt, max_dist=1.0)


def test_empty_cloud_rejected():
    with pytest.raises(ValueError, match="empty"):
        accuracy(np.zeros((0, 3)), np.ones((3, 3)), 1.0)


def test_completeness_is_swapped_accuracy(rng):
    a = rng.normal(size=(40, 3))
    b = rng.normal(size=(60, 3))
    assert completeness(a, b, 5.0) == accuracy(b, a, 5.0)
    gt = rng.normal(size=(30, 3))
    pred = np.concatenate([gt, rng.normal(size=(10, 3))])
    assert completeness(pred, gt, 1.0) == 0.0  # gt subset of pred


def test_overall_arithmetic():
    assert overall(0.330, 0.260) == pytest.approx(0.295)
    assert overall(0.0, 0.0) == 0.0
    assert overall(1.0, 3.0) == 2.0


def test_nn_matches_quadratic_oracle(rng):
    pred = rng.uniform(-50, 50, size=(2000, 3))
    gt = rng.uniform(-50, 50, size=(1700, 3))
    fast = nearest_neighbor_distances(pred, gt)
    slow = quadratic_nn(pred, gt)
    assert np.abs(fast - slow).max() < 1e-9


def test_spatial_index_equals_quadratic_scan(rng):
    pts = rng.normal(scale=10.0, size=(800, 3))
    q = rng.normal(scale=10.0, size=(500, 3))
    kd = nearest_neighbor_distances(q, pts)
    assert np.array_equal(kd, quadratic_nn(q, pts))


def boundary_clouds(rng, max_dist):
    """Query and reference clouds whose nearest distances sit at and around max_dist.

    Queries lie on a 100-unit grid, one reference point next to each: on
    the z axis at max_dist and 1-3 ulps either side (exact distances),
    and in random directions at the same radii (rounded distances), plus
    some well inside it, so the mean moves when a boundary point does.
    """
    inside = [max_dist]
    outside = [max_dist]
    for _ in range(3):
        inside.append(np.nextafter(inside[-1], -np.inf))
        outside.append(np.nextafter(outside[-1], np.inf))
    radii = np.array([r for r in inside[1:] + [max_dist] + outside[1:] if r >= 0.0])
    axis = np.stack([np.zeros_like(radii), np.zeros_like(radii), radii], axis=1)
    radii = np.concatenate([np.repeat(radii, 20), rng.uniform(0.0, max_dist / 2, 40)])
    dirs = rng.normal(size=(radii.shape[0], 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    offsets = np.concatenate([axis, -axis, dirs * radii[:, None]])
    n = offsets.shape[0]
    side = int(np.ceil(np.sqrt(n)))
    grid = np.stack(np.meshgrid(np.arange(side), np.arange(side), [0.0]), axis=-1).reshape(-1, 3)
    queries = 100.0 * grid[:n]
    return queries, queries + offsets


@pytest.mark.parametrize("max_dist", [0.2, 1.0, 2.0, 5.0])
def test_bounded_search_matches_quadratic_oracle_bitwise(rng, max_dist):
    queries, refs = boundary_clouds(rng, max_dist)
    oracle = quadratic_nn(queries, refs)
    assert (oracle == max_dist).any() and (oracle < max_dist).any() and (oracle > max_dist).any()
    assert np.array_equal(nearest_neighbor_distances(queries, refs), oracle)
    got = nearest_neighbor_distances(queries, refs, upper_bound=np.nextafter(max_dist, np.inf))
    within = oracle <= max_dist
    assert got[within].tobytes() == oracle[within].tobytes()
    # Beyond the bound a distance is either exact or inf, never another value.
    assert np.all((got[~within] == oracle[~within]) | np.isinf(got[~within]))
    # Distances above the bound come back inf.
    at_bound = nearest_neighbor_distances(queries, refs, upper_bound=max_dist)
    assert np.isinf(at_bound[oracle > max_dist]).all()


@pytest.mark.parametrize("max_dist", [0.0, 1e-170, 0.2, 1.0, 2.0, 5.0])
def test_accuracy_and_completeness_match_quadratic_oracle_bitwise(rng, max_dist):
    # A point exactly at max_dist counts; one ulp beyond it does not.  The
    # squares of the two tiny thresholds fall below the normal range (1e-170
    # squares to 0, so its points measure 0, not 1e-170).
    queries, refs = boundary_clouds(rng, max_dist)
    for pred, gt in ((queries, refs), (refs, queries)):
        oracle = quadratic_nn(pred, gt)
        assert (oracle == max_dist).any() or (max_dist == 1e-170 and (oracle == 0.0).any())
        expected = oracle[oracle <= max_dist].mean()
        assert accuracy(pred, gt, max_dist) == expected
        assert completeness(gt, pred, max_dist) == expected


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_searches_in_parts_match_quadratic_oracle_bitwise(rng, monkeypatch, workers):
    # Parts of 7 points put part edges inside both clouds.  The three cloud
    # pairs build the predicted tree first (fewer points), the ground
    # truth's first, and either (equal sizes).  Every distance at or below
    # max_dist, and so each mean, is the oracle's, bit for bit, at any
    # worker count.
    from mvsgeo import metrics

    monkeypatch.setattr(metrics, "_PART", 7)
    cut = []
    cut_mean = metrics._cut_mean

    def recording(dists, max_dist):
        cut.append(dists.copy())
        return cut_mean(dists, max_dist)

    monkeypatch.setattr(metrics, "_cut_mean", recording)
    max_dist = 1.0
    queries, refs = boundary_clouds(rng, max_dist)
    for pred, gt in ((refs[:101], queries), (queries, refs[:101]), (queries, refs)):
        assert pred.shape[0] % 7 and gt.shape[0] % 7
        oracles = quadratic_nn(pred, gt), quadratic_nn(gt, pred)
        assert np.array_equal(nearest_neighbor_distances(pred, gt, workers), oracles[0])
        cut.clear()
        m = evaluate_point_clouds(pred, gt, max_dist, workers)
        for got, oracle in zip(cut, oracles, strict=True):
            within = oracle <= max_dist
            assert np.array_equal(got <= max_dist, within)
            assert got[within].tobytes() == oracle[within].tobytes()
        assert m.accuracy == oracles[0][oracles[0] <= max_dist].mean()
        assert m.completeness == oracles[1][oracles[1] <= max_dist].mean()
        assert m.overall == (m.accuracy + m.completeness) / 2.0


def test_searches_hold_under_frequent_thread_switches(rng, monkeypatch):
    # More workers than cores, hundreds of 7-point parts per direction and
    # a thread switch about every microsecond: each part still lands in
    # its own slice, and every distance is the oracle's.
    import sys
    import time

    from mvsgeo import metrics

    monkeypatch.setattr(metrics, "_PART", 7)
    pred = rng.uniform(-20, 20, size=(2000, 3))
    gt = rng.uniform(-20, 20, size=(2400, 3))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        to_gt, to_pred = metrics._searches([(pred, gt), (gt, pred)], 4, np.inf)
    finally:
        sys.setswitchinterval(interval)
    assert time.perf_counter() - start < 30
    assert np.array_equal(to_gt, quadratic_nn(pred, gt))
    assert np.array_equal(to_pred, quadratic_nn(gt, pred))


def test_rigid_motion_invariance(rng):
    pred = rng.normal(size=(300, 3))
    gt = rng.normal(size=(400, 3))
    base = evaluate_point_clouds(pred, gt, max_dist=10.0)
    theta = 0.83
    R = np.array(
        [[np.cos(theta), -np.sin(theta), 0.0], [np.sin(theta), np.cos(theta), 0.0], [0.0, 0.0, 1.0]]
    )
    t = np.array([5.0, -3.0, 11.0])
    moved = evaluate_point_clouds(pred @ R.T + t, gt @ R.T + t, max_dist=10.0)
    assert moved.accuracy == pytest.approx(base.accuracy, abs=1e-9)
    assert moved.completeness == pytest.approx(base.completeness, abs=1e-9)
    assert moved.overall == pytest.approx(base.overall, abs=1e-9)


def test_max_dist_monotone_measured_set(rng):
    pred = rng.normal(size=(200, 3))
    gt = rng.normal(size=(200, 3))
    d = nearest_neighbor_distances(pred, gt)
    assert (d <= 0.5).sum() <= (d <= 1.0).sum() <= (d <= 2.0).sum()


def test_accepts_point_cloud_objects(rng):
    pts = rng.normal(size=(100, 3))
    cloud = PointCloud(points=pts)
    assert accuracy(cloud, PointCloud(points=pts), 1.0) == 0.0


def test_depth_metrics_exact():
    gt = DepthMap.from_values(np.full((4, 4), 600.0))
    m = depth_metrics(gt, gt, gt.valid)
    assert (m.epe, m.e1, m.e3) == (0.0, 0.0, 0.0)


def test_depth_metrics_hand_case():
    pred = np.array([[100.5, 102.0, 104.0]])
    gt = np.array([[100.0, 100.0, 100.0]])
    valid = np.ones((1, 3), dtype=bool)
    m = depth_metrics(pred, gt, valid)
    assert m.epe == pytest.approx(6.5 / 3)
    assert m.e1 == pytest.approx(2.0 / 3)
    assert m.e3 == pytest.approx(1.0 / 3)
    assert m.e3 <= m.e1


def test_depth_metrics_matches_naive_loop(rng):
    h, w = 13, 17
    pred = rng.uniform(400, 900, (h, w))
    gt = rng.uniform(400, 900, (h, w))
    valid = rng.random((h, w)) > 0.25
    m = depth_metrics(pred, gt, valid)
    errs = []
    for i in range(h):
        for j in range(w):
            if valid[i, j]:
                errs.append(abs(pred[i, j] - gt[i, j]))
    errs = np.array(errs)
    assert abs(m.epe - errs.mean()) < 1e-12
    assert abs(m.e1 - (errs > 1).mean()) < 1e-12
    assert abs(m.e3 - (errs > 3).mean()) < 1e-12


def test_depth_metrics_empty_mask_errors():
    with pytest.raises(ValueError, match="valid"):
        depth_metrics(np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2), dtype=bool))


def test_only_the_nearest_neighbor_search_loads_scipy():
    # In a fresh interpreter (this one has scipy loaded by other tests),
    # importing the package and its CLI loads no scipy module; the k-d
    # search loads it when called.
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import mvsgeo, mvsgeo.cli\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded at import'\n"
        "d = mvsgeo.nearest_neighbor_distances(np.zeros((2, 3)), np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 1.0]]))\n"
        "assert d.tolist() == [1.0, 1.0], d\n"
        "assert 'scipy.spatial' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=src, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
