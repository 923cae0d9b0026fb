"""Point-cloud and depth-map quality metrics.

Accuracy is the mean nearest-neighbor distance from the predicted cloud
to the ground truth, completeness the same with the roles swapped, both
restricted to distances at or below the max threshold (points beyond it
are excluded from the mean, not clamped).  Overall is their average.
Depth metrics are the mean absolute error plus the fractions of pixels
whose error exceeds 1 and 3 scene units.

No distance beyond the threshold enters either mean, so the k-d tree
search stops just past it (see _search_bound) and stays exact: every
distance at or below the threshold has the same bits as an unbounded
search's.
"""

from dataclasses import dataclass

import numpy as np

from .reproject import DepthMap

__all__ = [
    "PointCloudMetrics",
    "DepthMetrics",
    "nearest_neighbor_distances",
    "accuracy",
    "completeness",
    "overall",
    "evaluate_point_clouds",
    "depth_metrics",
]


@dataclass(frozen=True)
class PointCloudMetrics:
    accuracy: float
    completeness: float
    overall: float
    max_dist: float


@dataclass(frozen=True)
class DepthMetrics:
    epe: float
    e1: float
    e3: float


def _points(cloud) -> np.ndarray:
    pts = getattr(cloud, "points", cloud)
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) point array, got shape {pts.shape}")
    if pts.shape[0] == 0:
        raise ValueError("point cloud is empty")
    return pts


def _search_bound(max_dist: float) -> float:
    """Upper bound of a search that must find every distance at or below max_dist.

    The k-d tree keeps a squared distance only when it is strictly below
    the square of its bound, and a point exactly at max_dist counts.  For
    the next double b above max_dist, sqrt(fl(b * b)) rounds back to b
    while b * b is a normal double, so every squared distance whose root
    rounds to max_dist or less is below fl(b * b).  Below b = 2**-511 the
    square leaves the normal range; there 2**-511 itself bounds every
    such distance.
    """
    return max(np.nextafter(max_dist, np.inf), 2.0 ** -511)


def nearest_neighbor_distances(queries, refs, workers: int = 1, upper_bound: float = np.inf) -> np.ndarray:
    """Distance from every query point to its nearest reference point.

    Exact k-d tree search (scipy cKDTree, built without median splits:
    faster, same distances) over the reference points; the queries are
    split over `workers` threads, which does not change the result.
    Distances above `upper_bound` come back inf, and so may one equal to
    it; the search prunes every branch farther than the bound.  scipy is
    imported here, not at module level, so only a caller of this search
    pays for loading it.
    """
    from scipy.spatial import cKDTree

    queries = _points(queries)
    refs = _points(refs)
    tree = cKDTree(refs, balanced_tree=False)
    dists, _ = tree.query(queries, k=1, workers=workers, distance_upper_bound=upper_bound)
    return np.asarray(dists, dtype=np.float64)


def accuracy(pred, gt, max_dist: float, workers: int = 1) -> float:
    """Mean nearest-neighbor distance predicted -> ground truth, cut at max_dist."""
    dists = nearest_neighbor_distances(pred, gt, workers, upper_bound=_search_bound(max_dist))
    measured = dists <= max_dist
    if not measured.any():
        raise ValueError("no measurable points")
    return float(dists[measured].mean())


def completeness(pred, gt, max_dist: float, workers: int = 1) -> float:
    """Mean nearest-neighbor distance ground truth -> predicted, cut at max_dist."""
    return accuracy(gt, pred, max_dist, workers)


def overall(acc: float, comp: float) -> float:
    return (acc + comp) / 2.0


def evaluate_point_clouds(pred, gt, max_dist: float, workers: int = 1) -> PointCloudMetrics:
    acc = accuracy(pred, gt, max_dist, workers=workers)
    comp = completeness(pred, gt, max_dist, workers=workers)
    return PointCloudMetrics(acc, comp, overall(acc, comp), max_dist)


def depth_metrics(pred, gt, valid) -> DepthMetrics:
    """EPE / e1 / e3 over the valid pixels of a depth map pair."""
    pred_v = pred.values if isinstance(pred, DepthMap) else np.asarray(pred, dtype=np.float64)
    gt_v = gt.values if isinstance(gt, DepthMap) else np.asarray(gt, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if pred_v.shape != gt_v.shape or valid.shape != gt_v.shape:
        raise ValueError("depth maps and mask must share a shape")
    if not valid.any():
        raise ValueError("no valid pixels to evaluate")
    # dtype=float64: two float32 maps (PFM depths) would subtract in float32.
    err = np.abs(np.subtract(pred_v[valid], gt_v[valid], dtype=np.float64))
    return DepthMetrics(
        epe=float(err.mean()),
        e1=float((err > 1.0).mean()),
        e3=float((err > 3.0).mean()),
    )
