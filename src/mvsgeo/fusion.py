"""Depth-map fusion into a single point cloud.

Every view takes a turn as the reference.  A reference pixel fuses when
its confidence clears the probability threshold and its depth passes the
cross-view reprojection check in enough source views; the fused 3D point
is the back-projection of the depth averaged over the reference and the
consistent sources.  Source pixels hit by an emitted point are marked
consumed so each surface point is emitted once.  Emission order is the
row-major reference-view scan, so output is deterministic and identical
for any thread count: the consume pass is one sequential, vectorized
numpy pass per reference view, in reference order, in
reproject._in_order.  A view's per-pair check arrays are allocated by
the thread that runs the passes, filled by pool threads (which allocate
only band-sized scratch) and dropped after the view's pass.  Each pair
is checked band by band, in one call per pair, by walking
reproject._checks, the pair check the penalty's votes also walk: the
reprojection fbr computes, then reproject._pair_errors (the penalty's
sqrt formula) on band scratch.  Checks pass below (<).

A reference's stacks hold, per source and pixel, one pass bit per
threshold-table row, the reprojected depth (float64) and the landing
pixel as one int32 flat index (-1 off the source image): 13 bytes for up
to 8 rows.  Bit r of a pixel is (PDE < table[r, 0]) & (RDD < table[r, 1]),
evaluated band by band on the float64 displacement and relative depth
difference and packed into ceil(rows / 8) uint8 planes, plane r // 8,
bit r % 8.  Those are the only comparisons the consume pass makes on
PDE and RDD, on the same values, so storing their outcomes instead of
the float64 errors changes no decision.  A pixel has at most n_src
passing sources, so no count above n_src can be met and only the first
min(len(table), n_src) rows are kept.  The median average builds one
(n_src + 1, H, W) float64 stack per pass and sorts it in place.

Two checking modes: "fusibile" applies one displacement/relative-depth
threshold pair and a fixed required view count; "dynamic" derives the
threshold pair from the required count through a monotone table (looser
displacement when more views must agree), accepting a pixel when any
count from the required minimum upward is satisfied by its own row.  The
table, DEFAULT_DYNAMIC_TABLE, is a convention, not canon: it grows
0.25 px and 0.0025 relative depth per required view.
"""

from dataclasses import dataclass

import numpy as np

from .camera import Camera
from .reproject import DepthMap, _checks, _depth_array, _in_order

__all__ = ["FusionParams", "PointCloud", "DEFAULT_DYNAMIC_TABLE", "dynamic_thresholds", "fuse"]

DEFAULT_DYNAMIC_TABLE = tuple((0.25 * k, 0.0025 * k) for k in range(1, 9))

_MODES = ("fusibile", "dynamic")
_AVERAGES = ("mean", "median")


@dataclass(frozen=True)
class FusionParams:
    mode: str = "fusibile"
    disparity_threshold: float = 1.0
    depth_threshold: float = 0.01
    prob_threshold: float = 0.5
    consistency_threshold: int = 3
    average: str = "mean"

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


def dynamic_thresholds(num_required: int) -> tuple[float, float]:
    """(displacement px, relative depth) pair used when num_required views must agree.

    Counts beyond DEFAULT_DYNAMIC_TABLE clamp to its last row.
    """
    if num_required < 1:
        raise ValueError("num_required must be >= 1")
    return DEFAULT_DYNAMIC_TABLE[min(num_required, len(DEFAULT_DYNAMIC_TABLE)) - 1]


def _unpack_view(view):
    if len(view) == 3:
        depth, conf, cam = view
        image = None
    elif len(view) == 4:
        depth, conf, cam, image = view
    else:
        raise ValueError("each view is (depth, confidence, camera[, image])")
    conf = _depth_array(conf)
    if conf.shape != depth.shape:
        raise ValueError("confidence map shape does not match depth map")
    return depth, conf, cam, image


def _new_stacks(n_src, n_table, shape):
    """Unfilled pass-bit, reprojected-depth and landing-index stacks of one reference view.

    The bits are (n_src, ceil(rows / 8), H, W) uint8 for the first
    rows = min(n_table, n_src) table rows, the others (n_src, H, W).
    """
    planes = -(-min(n_table, n_src) // 8)
    return (np.empty((n_src, planes) + shape, dtype=np.uint8),
            np.empty((n_src,) + shape),
            np.empty((n_src,) + shape, dtype=np.int32))


def _pair_stacks(d_ref: DepthMap, ref_cam: Camera, sources, table, stacks):
    """Fill and return one reference view's stacks (from _new_stacks).

    sources: (DepthMap, Camera) per source view; table: the (rows, 2)
    threshold table, of which the first len(sources) rows are kept.  Each
    pair is computed band by band straight into its row of the stacks.
    """
    for i, (d_src, src_cam) in enumerate(sources):
        _fill_pair(d_ref, ref_cam, d_src, src_cam, table[:len(sources)], *(stack[i] for stack in stacks))
    return stacks


def _fill_pair(d_ref: DepthMap, ref_cam: Camera, d_src: DepthMap, src_cam: Camera, table, bits, dres, flat):
    """One pair's pass bits for each row of `table`, reprojected depth and landing index.

    A call per pair: the band views of reproject._checks die on return,
    before the next pair allocates its band buffers.
    """
    hs, ws = d_src.shape
    for rows, (x, y, landed), pde, rdd, failed, spare in _checks(d_ref, ref_cam, d_src, src_cam, dres):
        # failed and spare serve as the bits' scratch.
        _set_pass_bits(pde, rdd, table, bits[:, rows], failed, spare)
        # Bounds test in float: a landing pixel far outside the image may
        # lie beyond any integer range, so only on-image indices are cast.
        # x and y are band scratch, rounded and combined in place.
        cx, cy = np.rint(x, out=x), np.rint(y, out=y)
        on_image = landed & (cx >= 0) & (cx <= ws - 1) & (cy >= 0) & (cy <= hs - 1)
        cy *= ws
        cy += cx
        np.copyto(cy, -1.0, where=~on_image)
        flat[rows] = cy


def _set_pass_bits(pde, rdd, table, bits, hit, tmp):
    """Set bit r % 8 of bits[r // 8] to (pde < table[r, 0]) & (rdd < table[r, 1]), the others to 0.

    bits: (ceil(len(table) / 8), *pde.shape) uint8; hit and tmp are bool
    scratch of pde's shape.
    """
    bits[...] = 0
    for r, (t_pde, t_rdd) in enumerate(table):
        np.less(pde, t_pde, out=hit)
        hit &= np.less(rdd, t_rdd, out=tmp)
        plane = bits[r // 8]
        np.bitwise_or(plane, np.uint8(1 << r % 8), out=plane, where=hit)


def _row_bits(bits, row, out):
    """Table row `row`'s pass bits from (..., planes, H, W) bits, as a bool view of the uint8 buffer out."""
    np.right_shift(bits[..., row // 8, :, :], row % 8, out=out)
    out &= 1
    return out.view(bool)


# One reference view's fuse/consume decision.  bits holds, per source
# view, the pass bits of the table rows (see _set_pass_bits); a check that
# is impossible (invalid reprojection) passes no row.  A pixel fuses when
# some k >= min_consistent has count(table row k) >= k; the largest
# qualifying k selects the consistent set.  table rows beyond the end
# clamp to the last entry, so a one-row table (fusibile) is a single
# threshold pair with a fixed required count.  No count exceeds n_src, so
# k stops there and row min(k, n_table) - 1 is always a kept row.
#
# Fused depth = mean (avg_mode 0) or median (avg_mode 1) over the
# reference depth plus the passing sources' reprojected depths.  Consumed
# marking writes into the global (V, H, W) array through src_idx/ref_idx,
# at the flat landing index `flat` (-1: off the source image).


def _consume_pass(ref_depth, ref_valid, conf, bits, dres, flat,
                  consumed, ref_idx, src_idx, prob_threshold,
                  min_consistent, n_table, avg_mode):
    """Fused depth and boolean fused mask of one reference view; updates consumed."""
    n_src = dres.shape[0]
    eligible = (consumed[ref_idx] == 0) & ref_valid & (conf > prob_threshold)
    # Ascending k: the largest qualifying k writes its passing set last.
    passing = np.zeros(dres.shape, dtype=bool)
    row_bits = np.empty(dres.shape, dtype=np.uint8)
    for k in range(min_consistent, min(max(n_table, min_consistent), n_src) + 1):
        pass_k = _row_bits(bits, min(k, n_table) - 1, row_bits)
        np.copyto(passing, pass_k, where=pass_k.sum(axis=0) >= k)
    fuse = eligible & passing.any(axis=0)
    passing &= fuse[None, :, :]
    n = passing.sum(axis=0)
    if avg_mode == 0:
        # Source by source into one (H, W) sum: the bits of an axis-0 sum,
        # without a stack-sized temporary.
        acc = np.zeros(ref_depth.shape)
        for s in range(n_src):
            np.add(acc, dres[s], out=acc, where=passing[s])
        fused = np.where(fuse, (ref_depth + acc) / np.maximum(n + 1, 1), 0.0)
    else:
        # The passing sources' depths, NaN elsewhere, and the reference
        # depth in one private stack, sorted in place (NaN last).  The
        # median of a pixel's n + 1 values is the mean of sorted entries
        # n // 2 and (n + 1) // 2, summed low + high and halved: the bits
        # of np.nanmedian, without its masked copy, argsort and gather.
        stack = np.full((n_src + 1,) + ref_depth.shape, np.nan)
        for s in range(n_src):
            np.copyto(stack[s], dres[s], where=passing[s])
        stack[n_src] = ref_depth
        stack.sort(axis=0)
        med = np.take_along_axis(stack, (n // 2)[None], axis=0)[0]
        with np.errstate(all="ignore"):
            med += np.take_along_axis(stack, ((n + 1) // 2)[None], axis=0)[0]
            med /= 2.0
        fused = np.where(fuse, med, 0.0)
    consumed[ref_idx][fuse] = 1
    for s in range(n_src):
        hit = passing[s] & (flat[s] >= 0)
        consumed[src_idx[s]].reshape(-1)[flat[s][hit]] = 1
    return fused, fuse


def _back_project_grid(depth_values, mask, cam: Camera):
    """World points for the masked pixels of a depth grid, row-major order."""
    y, x = np.nonzero(mask)
    d = depth_values[mask]
    rays = np.linalg.inv(cam.K) @ np.stack([x * d, y * d, d])
    world = cam.E[:3, :3].T @ (rays - cam.E[:3, 3:4])
    return world.T


def fuse(views, params: FusionParams = FusionParams(), pairs=None, threads: int = 1) -> PointCloud:
    """Fuse per-view depth and confidence maps into one point cloud.

    views: list of (DepthMap, confidence, Camera[, image]) tuples; image
    is an optional (H, W, 3) uint8 array supplying point colors.  A
    float32 confidence map stays float32, as a DepthMap's depths do, until
    its reference's consume pass widens it; conf > prob_threshold then
    compares in float64 (a float32 array against a Python float would
    compare in float32), so a map and its float64 widening fuse alike.
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
        table = np.array(DEFAULT_DYNAMIC_TABLE, dtype=np.float64)

    h, w = shape
    consumed = np.zeros((n_views, h, w), dtype=np.uint8)
    all_points, all_colors, all_conf = [], [], []
    any_image = any(img is not None for *_, img in unpacked)
    avg_flag = 0 if params.average == "mean" else 1

    def build(r, stacks):
        depth_r, _, cam_r, _ = unpacked[r]
        return r, _pair_stacks(depth_r, cam_r, [(unpacked[s][0], unpacked[s][2]) for s in pairs[r]], table, stacks)

    def emit(built):
        r, stacks = built
        depth_r, conf_r, cam_r, image_r = unpacked[r]
        conf_r = conf_r.astype(np.float64, copy=False)
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
            len(table),
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

    # Stacks allocated by pool threads stayed in their heaps once freed: 15
    # calls of `fuse --threads 2` then `eval-pc` on 320 x 256 x 8 views
    # peaked at 179 MB in 6 of 8 processes, against 145-146 MB as items.
    _in_order(build, emit, ((r, _new_stacks(len(pairs[r]), len(table), shape)) for r in range(n_views)), threads)

    if not all_points:
        return PointCloud(points=np.zeros((0, 3)))
    points = np.concatenate(all_points)
    colors = np.concatenate(all_colors) if any_image else None
    confidence = np.concatenate(all_conf)
    return PointCloud(points=points, colors=colors, confidence=confidence)
