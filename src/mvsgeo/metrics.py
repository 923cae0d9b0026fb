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

Every search runs one schedule, _searches: evaluate_point_clouds hands
it both directions at once, nearest_neighbor_distances one.  The calling
thread builds the k-d trees, the one over fewer points first, and as
soon as a tree is built its queries are searched on a pool of `workers`
threads, part by part.  So on an evaluation the ground-truth tree is
built while the completeness search runs.  The trees and the distance
arrays are allocated on the calling thread: glibc keeps a heap per
thread, and trees built on pool threads raised the benchmark's fuse-eval
peak RSS from 116 to 146 MB.  A tree indexes its caller's float64 points
without a copy, with 64 points a leaf (_LEAF), so an evaluation holds
each cloud's points, its tree and its distances: eval-pc's peak, about
47 B per point of both clouds on the benchmark's fuse-eval scene.  A
NaN or negative max_dist is rejected before any tree is built.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

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
    such distance.  A NaN or negative max_dist is rejected here, before
    any tree is built; inf bounds nothing.
    """
    if not max_dist >= 0:  # NaN too
        raise ValueError(f"max_dist must be a non-negative number, got {max_dist}")
    return max(np.nextafter(max_dist, np.inf), 2.0 ** -511)


# Query points per part of a search on the pool (np.array_split sizes
# the parts evenly), and reference points per leaf of a k-d tree.  The
# search is exact, so neither changes a distance bit.  A 655,360-point
# tree takes 8.9 MB at 64 points a leaf, 13.1 MB at 32; 128 saved 1.5 MB
# more but made eval-pc 12 % slower.
_PART = 1 << 16
_LEAF = 64


def _searches(jobs, workers: int, bound: float) -> list[np.ndarray]:
    """Distance from each query point to its nearest reference point, per (queries, refs) job.

    One float64 array per job, in job order, on the schedule the module
    docstring gives: each part of about _PART queries writes its own
    slice of its job's array, so neither the parts nor the worker count
    change a bit.  Distances above `bound` come back inf, and so may one
    equal to it.
    """
    from scipy.spatial import cKDTree

    dists = [np.empty(queries.shape[0]) for queries, _ in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        searched = []
        for (queries, refs), job_dists in sorted(zip(jobs, dists), key=lambda job: job[0][1].shape[0]):
            # Built without median splits: faster, same distances.
            tree = cKDTree(refs, leafsize=_LEAF, balanced_tree=False)
            parts = -(-queries.shape[0] // _PART)
            for part, out in zip(np.array_split(queries, parts), np.array_split(job_dists, parts)):
                searched.append(pool.submit(_search, tree, part, bound, out))
        for future in searched:
            future.result()
    return dists


def _search(tree, queries, bound, out):
    out[...] = tree.query(queries, k=1, workers=1, distance_upper_bound=bound)[0]


def nearest_neighbor_distances(queries, refs, workers: int = 1, upper_bound: float = np.inf) -> np.ndarray:
    """Distance from every query point to its nearest reference point.

    Exact k-d tree search (scipy cKDTree) over the reference points, the
    queries searched in parts on `workers` threads (_searches), which
    does not change the result.  Distances above `upper_bound` come back
    inf, and so may one equal to it; the search prunes every branch
    farther than the bound.  scipy is imported by the search, not at
    module level, so only a caller of it pays for loading it.
    """
    return _searches([(_points(queries), _points(refs))], workers, upper_bound)[0]


def _cut_mean(dists: np.ndarray, max_dist: float) -> float:
    """Mean of the distances at or below max_dist; raises when there is none."""
    measured = dists <= max_dist
    if not measured.any():
        raise ValueError("no measurable points")
    return float(dists[measured].mean())


def accuracy(pred, gt, max_dist: float, workers: int = 1) -> float:
    """Mean nearest-neighbor distance predicted -> ground truth, cut at max_dist."""
    return _cut_mean(nearest_neighbor_distances(pred, gt, workers, _search_bound(max_dist)), max_dist)


def completeness(pred, gt, max_dist: float, workers: int = 1) -> float:
    """Mean nearest-neighbor distance ground truth -> predicted, cut at max_dist."""
    return accuracy(gt, pred, max_dist, workers)


def overall(acc: float, comp: float) -> float:
    return (acc + comp) / 2.0


def evaluate_point_clouds(pred, gt, max_dist: float, workers: int = 1) -> PointCloudMetrics:
    """Accuracy, completeness and overall, both searches in one schedule (_searches)."""
    pred, gt = _points(pred), _points(gt)
    to_gt, to_pred = _searches([(pred, gt), (gt, pred)], workers, _search_bound(max_dist))
    acc, comp = _cut_mean(to_gt, max_dist), _cut_mean(to_pred, max_dist)
    return PointCloudMetrics(acc, comp, overall(acc, comp), max_dist)


def depth_metrics(pred, gt, valid) -> DepthMetrics:
    """EPE / e1 / e3 over the valid pixels of a depth map pair."""
    pred_v, gt_v = (np.asarray(getattr(x, "values", x)) for x in (pred, gt))
    valid = np.asarray(valid, dtype=bool)
    if pred_v.shape != gt_v.shape or valid.shape != gt_v.shape:
        raise ValueError("depth maps and mask must share a shape")
    if not valid.any():
        raise ValueError("no valid pixels to evaluate")
    # dtype=float64: float32 maps (PFM depths) would subtract in float32;
    # float32 widens exactly, so any mix of kinds gives the same bits.
    err = np.abs(np.subtract(pred_v[valid], gt_v[valid], dtype=np.float64))
    return DepthMetrics(
        epe=float(err.mean()),
        e1=float((err > 1.0).mean()),
        e3=float((err > 3.0).mean()),
    )
