"""Depth-map fusion into a single point cloud.

Every view takes a turn as the reference.  A reference pixel fuses when
its confidence clears the probability threshold and its depth passes the
cross-view reprojection check in enough source views; the fused 3D point
is the back-projection of the depth averaged over the reference and the
consistent sources.  Source pixels hit by an emitted point are marked
consumed so each surface point is emitted once.  Emission order is the
row-major reference-view scan, so output is deterministic and identical
for any thread count: the consume pass is one sequential, vectorized
numpy pass per reference view, in reference order.  A reference view's
per-pair check arrays are built just before its pass and dropped after
it; threads compute them at most `threads` reference views ahead, so at
most threads + 1 views' arrays are alive.  Each pair is checked in the
row bands of `reproject`, straight into the reference's (n_src, H, W)
stacks: displacement, relative depth difference and reprojected depth
(float64), and the landing pixel as one int32 flat index (-1 off the
source image).

Two checking modes: "fusibile" applies one displacement/relative-depth
threshold pair and a fixed required view count; "dynamic" derives the
threshold pair from the required count through a monotone table (looser
displacement when more views must agree), accepting a pixel when any
count from the required minimum upward is satisfied by its own row.  The
table is configuration, not canon; the default grows 0.25 px and 0.0025
relative depth per required view.
"""

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .camera import Camera, pixel_grid, warp_transform
from .reproject import DepthMap, _fbr_band, _fill_bands

__all__ = ["FusionParams", "PointCloud", "DEFAULT_DYNAMIC_TABLE", "dynamic_thresholds", "fuse"]

DEFAULT_DYNAMIC_TABLE = tuple((0.25 * k, 0.0025 * k) for k in range(1, 9))

_MODES = ("fusibile", "dynamic")
_AVERAGES = ("mean", "median")
_PAIR_DTYPES = (np.float64, np.float64, np.float64, np.int32)  # disp, rdd, dres, landing index


@dataclass(frozen=True)
class FusionParams:
    mode: str = "fusibile"
    disparity_threshold: float = 1.0
    depth_threshold: float = 0.01
    prob_threshold: float = 0.5
    consistency_threshold: int = 3
    average: str = "mean"
    dynamic_table: tuple = DEFAULT_DYNAMIC_TABLE

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if self.average not in _AVERAGES:
            raise ValueError(f"average must be one of {_AVERAGES}")
        if not 0.0 <= self.prob_threshold <= 1.0:
            raise ValueError("prob_threshold must lie in [0, 1]")
        if self.consistency_threshold < 1:
            raise ValueError("consistency_threshold must be >= 1")
        if self.disparity_threshold <= 0 or self.depth_threshold <= 0:
            raise ValueError("geometric thresholds must be positive")
        table = tuple((float(a), float(b)) for a, b in self.dynamic_table)
        if not table:
            raise ValueError("dynamic table must not be empty")
        object.__setattr__(self, "dynamic_table", table)


@dataclass
class PointCloud:
    """Fused 3D points with optional per-point color and confidence."""

    points: np.ndarray
    colors: np.ndarray | None = None
    confidence: np.ndarray | None = None

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.isfinite(points).all():
            raise ValueError("point coordinates must be finite")
        self.points = points
        if self.colors is not None:
            colors = np.asarray(self.colors, dtype=np.uint8).reshape(-1, 3)
            if colors.shape[0] != points.shape[0]:
                raise ValueError("colors length mismatch")
            self.colors = colors
        if self.confidence is not None:
            conf = np.asarray(self.confidence, dtype=np.float64).reshape(-1)
            if conf.shape[0] != points.shape[0]:
                raise ValueError("confidence length mismatch")
            self.confidence = conf

    def __len__(self) -> int:
        return self.points.shape[0]


def dynamic_thresholds(num_required: int, table=DEFAULT_DYNAMIC_TABLE) -> tuple[float, float]:
    """(displacement px, relative depth) pair used when num_required views must agree.

    Entries beyond the table clamp to its last row.
    """
    if num_required < 1:
        raise ValueError("num_required must be >= 1")
    return tuple(table[min(num_required, len(table)) - 1])


def _unpack_view(view):
    if len(view) == 3:
        depth, conf, cam = view
        image = None
    elif len(view) == 4:
        depth, conf, cam, image = view
    else:
        raise ValueError("each view is (depth, confidence, camera[, image])")
    conf = np.asarray(conf, dtype=np.float64)
    if conf.shape != depth.shape:
        raise ValueError("confidence map shape does not match depth map")
    return depth, conf, cam, image


def _pair_band(forward, back, d_ref: DepthMap, d_src: DepthMap, rows: slice):
    """Pair-check rows of one (reference, source) pair.

    Forward warp, source sample and back warp of the reference rows
    `rows`, then the reprojection displacement (px) and relative depth
    difference (np.inf where the reprojection failed), the reprojected
    depth and the flat index of the rounded landing pixel in the source
    image (-1 when it is off the image).
    """
    (x, y, landed), (x_back, y_back, d_back, ok) = _fbr_band(forward, back, d_ref, d_src, rows)
    xs = np.arange(d_ref.width, dtype=np.float64)
    ys = np.arange(rows.start, rows.stop, dtype=np.float64)[:, None]
    disp = np.where(ok, np.hypot(x_back - xs, y_back - ys), np.inf)
    depth = d_ref.values[rows]
    denom = np.where(d_ref.valid[rows], depth, 1.0)
    rdd = np.where(ok, np.abs(d_back - depth) / denom, np.inf)
    # Bounds test in float: a landing pixel far outside the image may lie
    # beyond any integer range, so only on-image indices are cast.
    hs, ws = d_src.shape
    cx, cy = np.rint(x), np.rint(y)
    on_image = landed & (cx >= 0) & (cx <= ws - 1) & (cy >= 0) & (cy <= hs - 1)
    flat = np.where(on_image, cy * ws + cx, -1.0).astype(np.int32)
    return disp, rdd, d_back, flat


def _pair_stacks(d_ref: DepthMap, ref_cam: Camera, sources):
    """(n_src, H, W) disp, rdd, reprojected-depth and landing-index stacks of one reference view.

    sources: (DepthMap, Camera) per source view.  Each pair is computed
    band by band straight into its row of the stacks.
    """
    stacks = tuple(np.empty((len(sources),) + d_ref.shape, dtype=dtype) for dtype in _PAIR_DTYPES)
    for i, (d_src, src_cam) in enumerate(sources):
        forward, back = warp_transform(ref_cam, src_cam), warp_transform(src_cam, ref_cam)
        _fill_bands(tuple(stack[i] for stack in stacks),
                    lambda rows: _pair_band(forward, back, d_ref, d_src, rows))
    return stacks


# One reference view's fuse/consume decision.  disp and rdd hold the
# reprojection displacement (px) and relative depth difference per source
# view, np.inf where the check is impossible (invalid reprojection).  A
# pixel fuses when some k >= min_consistent has count(table row k) >= k;
# the largest qualifying k selects the consistent set.  table rows beyond
# the end clamp to the last entry, so a one-row table (fusibile) is a
# single threshold pair with a fixed required count.
#
# Fused depth = mean (avg_mode 0) or median (avg_mode 1) over the
# reference depth plus the passing sources' reprojected depths.  Consumed
# marking writes into the global (V, H, W) array through src_idx/ref_idx,
# at the flat landing index `flat` (-1: off the source image).


def _consume_pass(ref_depth, ref_valid, conf, disp, rdd, dres, flat,
                  consumed, ref_idx, src_idx, prob_threshold,
                  min_consistent, table, avg_mode):
    """Fused depth and boolean fused mask of one reference view; updates consumed."""
    n_src = disp.shape[0]
    n_table = table.shape[0]
    eligible = (consumed[ref_idx] == 0) & ref_valid & (conf > prob_threshold)
    kmax = max(n_table, min_consistent)
    for k in range(kmax, min_consistent - 1, -1):
        row = min(k, n_table) - 1
        pass_k = (disp < table[row, 0]) & (rdd < table[row, 1])
        ok_k = pass_k.sum(axis=0) >= k
        if k == kmax:
            passing = pass_k & ok_k
            ok = ok_k
        else:
            take = ok_k & ~ok
            passing[:, take] = pass_k[:, take]
            ok |= ok_k
    fuse = eligible & ok
    passing = passing & fuse[None, :, :]
    n = passing.sum(axis=0)
    if avg_mode == 0:
        acc = np.sum(np.where(passing, dres, 0.0), axis=0)
        fused = np.where(fuse, (ref_depth + acc) / np.maximum(n + 1, 1), 0.0)
    else:
        stack = np.concatenate([np.where(passing, dres, np.nan), ref_depth[None, :, :]], axis=0)
        with np.errstate(all="ignore"):
            med = np.nanmedian(stack, axis=0)
        fused = np.where(fuse, med, 0.0)
    consumed[ref_idx][fuse] = 1
    for s in range(n_src):
        hit = passing[s] & (flat[s] >= 0)
        consumed[src_idx[s]].reshape(-1)[flat[s][hit]] = 1
    return fused, fuse


def _back_project_grid(depth_values, mask, cam: Camera):
    """World points for the masked pixels of a depth grid, row-major order."""
    h, w = depth_values.shape
    xs, ys = pixel_grid(h, w)
    d = depth_values[mask]
    x = xs[mask]
    y = ys[mask]
    rays = np.linalg.inv(cam.K) @ np.stack([x * d, y * d, d])
    world = cam.E[:3, :3].T @ (rays - cam.E[:3, 3:4])
    return world.T


def fuse(views, params: FusionParams = FusionParams(), pairs=None, threads: int = 1) -> PointCloud:
    """Fuse per-view depth and confidence maps into one point cloud.

    views: list of (DepthMap, confidence, Camera[, image]) tuples; image
    is an optional (H, W, 3) uint8 array supplying point colors.
    pairs: per reference view, the list of source view indices checked
    against it (defaults to all other views).
    """
    if len(views) < 2:
        raise ValueError("fusion needs at least two views")
    unpacked = [_unpack_view(v) for v in views]
    shape = unpacked[0][0].shape
    for depth, conf, cam, image in unpacked:
        if depth.shape != shape:
            raise ValueError("all views must share the image dimensions")
    n_views = len(unpacked)
    if pairs is None:
        pairs = [[s for s in range(n_views) if s != r] for r in range(n_views)]
    if len(pairs) != n_views:
        raise ValueError("pairs must list sources for every view")
    for r, srcs in enumerate(pairs):
        if r in srcs:
            raise ValueError("a view cannot be its own source")
        if not srcs:
            raise ValueError(f"view {r} has no source views")

    if params.mode == "fusibile":
        table = np.array([[params.disparity_threshold, params.depth_threshold]])
    else:
        table = np.array(params.dynamic_table, dtype=np.float64)

    h, w = shape
    consumed = np.zeros((n_views, h, w), dtype=np.uint8)
    all_points, all_colors, all_conf = [], [], []
    any_image = any(img is not None for *_, img in unpacked)
    avg_flag = 0 if params.average == "mean" else 1

    def build(r):
        depth_r, _, cam_r, _ = unpacked[r]
        return _pair_stacks(depth_r, cam_r, [(unpacked[s][0], unpacked[s][2]) for s in pairs[r]])

    def emit(r, stacks):
        depth_r, conf_r, cam_r, image_r = unpacked[r]
        fused_depth, mask = _consume_pass(
            depth_r.values,
            depth_r.valid,
            conf_r,
            *stacks,
            consumed,
            r,
            np.asarray(pairs[r], dtype=np.int64),
            float(params.prob_threshold),
            int(params.consistency_threshold),
            table,
            avg_flag,
        )
        if not mask.any():
            return
        all_points.append(_back_project_grid(fused_depth, mask, cam_r))
        all_conf.append(conf_r[mask])
        if any_image:
            if image_r is not None:
                all_colors.append(np.asarray(image_r, dtype=np.uint8)[mask])
            else:
                all_colors.append(np.zeros((int(mask.sum()), 3), dtype=np.uint8))

    # Consume passes run in reference order; reference r's stacks are built
    # just before its pass, by the pool at most `threads` references ahead.
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            ahead = deque(pool.submit(build, r) for r in range(min(threads, n_views)))
            for r in range(n_views):
                stacks = ahead.popleft().result()
                if r + threads < n_views:
                    ahead.append(pool.submit(build, r + threads))
                emit(r, stacks)
    else:
        for r in range(n_views):
            emit(r, build(r))

    if not all_points:
        return PointCloud(points=np.zeros((0, 3)))
    points = np.concatenate(all_points)
    colors = np.concatenate(all_colors) if any_image else None
    confidence = np.concatenate(all_conf)
    return PointCloud(points=points, colors=colors, confidence=confidence)
