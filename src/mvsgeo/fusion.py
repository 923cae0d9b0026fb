"""Depth-map fusion into a single point cloud.

Every view takes a turn as the reference.  A reference pixel fuses when
it is still eligible (valid, its confidence above the probability
threshold, not consumed) and its depth passes the cross-view
reprojection check in enough source views; the fused 3D point is the
back-projection of the depth averaged over the reference and the
consistent sources.  Source pixels hit by an emitted point are marked
consumed so each surface point is emitted once.  The references run in
order on the calling thread, each one's consume pass a sequential,
vectorized numpy pass; emission order is the row-major reference-view
scan, so output is deterministic.

Only eligible pixels are checked.  A reference is drawn after the
previous reference's consume pass: its eligible pixels are then packed
as ascending flat indices, and its per-pair check arrays are allocated
for those pixels alone, filled, and dropped after the view's pass.  The
draw is the one eligibility test: the references run in order, so
nothing is consumed between a reference's draw and its pass, and the
pass takes every packed pixel as eligible.  Each pair is checked chunk
by chunk of the packed pixels, in one call per pair, by walking
reproject._checks, the pair check the penalty's votes also walk: the
reprojection fbr computes, then reproject._pair_errors (the penalty's
sqrt formula) on band scratch.  Checks pass below (<).

A reference's stacks hold, per source and packed pixel, one pass-bit
byte, the reprojected depth (float64) and the landing pixel as one int32
flat index (-1 off the source image): 13 bytes.  Bit r of the byte is
(PDE < table[r, 0]) & (RDD < table[r, 1]), evaluated chunk by chunk on
the float64 displacement and relative depth difference; a table has at
most 8 rows (one for fusibile, DEFAULT_DYNAMIC_TABLE's 8 for dynamic).
Those are the only comparisons the consume pass makes on PDE and RDD,
on the same values, so storing their outcomes instead of the float64
errors changes no decision.  A pixel has at most n_src passing sources,
so no count above n_src can be met and only the first
min(len(table), n_src) rows are kept.  The median average builds one
(n_src + 1, n) float64 stack over the n packed pixels per pass and sorts
it in place.

Two checking modes: "fusibile" applies one displacement/relative-depth
threshold pair and a fixed required view count; "dynamic" derives the
threshold pair from the required count through a monotone table (looser
displacement when more views must agree), accepting a pixel when any
count from the required minimum upward is satisfied by its own row.  The
table, DEFAULT_DYNAMIC_TABLE, is a convention, not canon: it grows
0.25 px and 0.0025 relative depth per required view.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .camera import Camera
from .reproject import DepthMap, _checks, _depth_array

__all__ = ["FusionParams", "PointCloud", "DEFAULT_DYNAMIC_TABLE", "fuse"]

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
        try:
            operator.index(self.consistency_threshold)
        except TypeError:
            raise ValueError("consistency_threshold must be an integer view count") from None
        if self.consistency_threshold < 1:
            raise ValueError("consistency_threshold must be >= 1")
        # Dynamic mode takes its thresholds from DEFAULT_DYNAMIC_TABLE and reads neither of these.
        fixed = (self.disparity_threshold, self.depth_threshold)
        if self.mode == "fusibile" and not all(0 < t < np.inf for t in fixed):
            raise ValueError("geometric thresholds must be finite and positive")


@dataclass
class PointCloud:
    """Fused 3D points with optional per-point color."""

    points: np.ndarray
    colors: np.ndarray | None = None

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

    def __len__(self) -> int:
        return self.points.shape[0]


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


def _eligible_pixels(consumed, valid, conf, prob_threshold):
    """Ascending flat indices of a reference's pixels that can still fuse.

    A pixel can fuse when it is not consumed, valid and its confidence is
    above prob_threshold; the arrays are the reference's consumed marks,
    validity and confidence frames.  The confidence compares in float64
    (against a float64 scalar, so a float32 map needs no widened copy), as
    its float64 widening would.
    """
    ok = consumed == 0
    ok &= valid
    ok &= np.greater(conf, np.float64(prob_threshold))
    return np.flatnonzero(ok)


def _new_stacks(n_src, n):
    """Unfilled (n_src, n) pass-bit (uint8), reprojected-depth and landing-index (int32) stacks of n pixels."""
    return (np.empty((n_src, n), dtype=np.uint8),
            np.empty((n_src, n)),
            np.empty((n_src, n), dtype=np.int32))


def _pair_stacks(d_ref: DepthMap, ref_cam: Camera, sources, table, pixels, stacks):
    """Fill and return the stacks (from _new_stacks) of one reference view's pixels `pixels`.

    sources: (DepthMap, Camera) per source view; table: the (rows, 2)
    threshold table, of which the first len(sources) rows are kept;
    pixels: ascending flat indices of the reference pixels to check.  Each
    pair is computed chunk by chunk straight into its row of the stacks.
    """
    for i, (d_src, src_cam) in enumerate(sources):
        _fill_pair(d_ref, ref_cam, d_src, src_cam, table[:len(sources)], pixels, *(stack[i] for stack in stacks))
    return stacks


def _fill_pair(d_ref: DepthMap, ref_cam: Camera, d_src: DepthMap, src_cam: Camera, table, pixels, bits, dres, flat):
    """One pair's pass bits for each row of `table`, reprojected depth and landing index at `pixels`.

    A call per pair: the band views of reproject._checks die on return,
    before the next pair allocates its band buffers.
    """
    hs, ws = d_src.shape
    back_out = (None, None, dres, None)  # of the back warp, only the depth is kept
    for sel, (x, y, landed), pde, rdd, failed, spare in _checks(d_ref, ref_cam, d_src, src_cam, back_out, pixels):
        # failed and spare serve as the bits' scratch.
        _set_pass_bits(pde, rdd, table, bits[sel], failed, spare)
        # Bounds test in float: a landing pixel far outside the image may
        # lie beyond any integer range, so only on-image indices are cast.
        # x and y are band scratch, rounded and combined in place.
        cx, cy = np.rint(x, out=x), np.rint(y, out=y)
        on_image = landed & (cx >= 0) & (cx <= ws - 1) & (cy >= 0) & (cy <= hs - 1)
        cy *= ws
        cy += cx
        np.copyto(cy, -1.0, where=~on_image)
        flat[sel] = cy


def _set_pass_bits(pde, rdd, table, bits, hit, tmp):
    """Set bit r of bits to (pde < table[r, 0]) & (rdd < table[r, 1]), the others to 0.

    bits: uint8 of pde's shape, for a table of at most 8 rows; hit and
    tmp are bool scratch of pde's shape.
    """
    bits[...] = 0
    for r, (t_pde, t_rdd) in enumerate(table):
        np.less(pde, t_pde, out=hit)
        hit &= np.less(rdd, t_rdd, out=tmp)
        np.bitwise_or(bits, np.uint8(1 << r), out=bits, where=hit)


def _row_bits(bits, row, out):
    """Table row `row`'s pass bits from uint8 bits, as a bool view of the uint8 buffer out."""
    np.right_shift(bits, row, out=out)
    out &= 1
    return out.view(bool)


# One reference view's fuse/consume decision, over the pixels its stacks
# hold, all of them eligible (_eligible_pixels).  bits holds, per source
# view, the pass-bit byte of the table rows (see _set_pass_bits); a check
# that is impossible (invalid reprojection) passes no row.  A pixel fuses
# when some k >= min_consistent has count(table row k) >= k; the largest
# qualifying k selects the consistent set.  table rows beyond the end
# clamp to the last entry, so a one-row table (fusibile) is a single
# threshold pair with a fixed required count.  No count exceeds n_src, so
# k stops there and row min(k, n_table) - 1 is always a kept row.
#
# Fused depth = the params.average ("mean" or "median") of the reference
# depth and the passing sources' reprojected depths.  Consumed marking
# writes into the global (V, H, W) array one view at a time, through
# ref_idx and each int source index (an index array would select a copy
# and the marks would be lost), at the flat landing index `flat` (-1: off
# the source image).


def _consume_pass(d_ref: DepthMap, pixels, stacks, consumed, ref_idx, sources, params, n_table):
    """Fused depth and boolean fused mask of one reference view's pixels `pixels`; updates consumed.

    pixels: ascending flat indices of the eligible reference pixels (the
    draw, _eligible_pixels) the stacks (from _pair_stacks) hold, n of
    them; d_ref is a frame; sources: the source view indices, ints, in the
    stacks' order; n_table: the table's length.  The fused depth and mask
    come back packed likewise, (n,).
    """
    bits, dres, flat = stacks
    n_src = len(sources)
    min_consistent = params.consistency_threshold
    ref_consumed = consumed[ref_idx].reshape(-1)
    # Ascending k: the largest qualifying k writes its passing set last.
    passing = np.zeros(dres.shape, dtype=bool)
    row_bits = np.empty(dres.shape, dtype=np.uint8)
    for k in range(min_consistent, min(max(n_table, min_consistent), n_src) + 1):
        pass_k = _row_bits(bits, min(k, n_table) - 1, row_bits)
        np.copyto(passing, pass_k, where=pass_k.sum(axis=0) >= k)
    fuse = passing.any(axis=0)
    passing &= fuse
    n = passing.sum(axis=0)
    depth = d_ref.values.reshape(-1)[pixels]
    if params.average == "mean":
        # Source by source into one sum (the bits of an axis-0 sum, without
        # a stack-sized temporary), then the reference depth, the count and
        # the mask in place: the bits of np.where(fuse, (depth + sum) /
        # (n + 1), 0.0), as addition commutes exactly, without its
        # temporaries.
        fused = np.zeros(depth.shape)
        for s in range(n_src):
            np.add(fused, dres[s], out=fused, where=passing[s])
        fused += depth
        fused /= n + 1
    else:
        # The passing sources' depths, NaN elsewhere, and the reference
        # depth in one private stack, sorted in place (NaN last).  The
        # median of a pixel's n + 1 values is the mean of sorted entries
        # n // 2 and (n + 1) // 2, summed low + high and halved: the bits
        # of np.nanmedian, without its masked copy, argsort and gather.
        stack = np.full((n_src + 1,) + depth.shape, np.nan)
        for s in range(n_src):
            np.copyto(stack[s], dres[s], where=passing[s])
        stack[n_src] = depth
        stack.sort(axis=0)
        fused = np.take_along_axis(stack, (n // 2)[None], axis=0)[0]
        with np.errstate(all="ignore"):
            fused += np.take_along_axis(stack, ((n + 1) // 2)[None], axis=0)[0]
            fused /= 2.0
    np.copyto(fused, 0.0, where=~fuse)
    ref_consumed[pixels[fuse]] = 1
    for s, src in enumerate(sources):
        hit = passing[s] & (flat[s] >= 0)
        consumed[src].reshape(-1)[flat[s][hit]] = 1
    return fused, fuse


def _back_project_grid(depth, pixels, width, cam: Camera):
    """World points of the pixels at flat indices `pixels` of a width-wide grid, with depths `depth`, in order.

    The (3, N) homogeneous pixels are written row by row into one array
    and each product is taken in place where it can be, so at most two
    (3, N) float64 arrays are alive at once.
    """
    y, x = np.divmod(pixels, width)
    homogeneous = np.empty((3, depth.size))
    np.multiply(x, depth, out=homogeneous[0])
    np.multiply(y, depth, out=homogeneous[1])
    homogeneous[2] = depth
    del x, y
    rays = np.linalg.inv(cam.K) @ homogeneous
    del homogeneous
    rays -= cam.E[:3, 3:4]
    return (cam.E[:3, :3].T @ rays).T


def fuse(views, params: FusionParams = FusionParams(), pairs=None) -> PointCloud:
    """Fuse per-view depth and confidence maps into one point cloud.

    views: list of (DepthMap, confidence, Camera[, image]) tuples; image
    is an optional (H, W, 3) uint8 array supplying point colors.  A
    confidence map only gates which pixels can fuse, and a float32 one
    stays float32, as a DepthMap's depths do: conf > prob_threshold
    compares in float64 (_eligible_pixels; a float32 array against a
    Python float would compare in float32), so a map and its float64
    widening fuse alike.  pairs: per reference view, the list of
    distinct integer source view indices (0 <= index < len(views)) checked
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
    pairs = list(pairs)
    if len(pairs) != n_views:
        raise ValueError("pairs must list sources for every view")
    for r, srcs in enumerate(pairs):
        try:
            srcs = pairs[r] = [operator.index(s) for s in srcs]
        except TypeError:
            raise ValueError(f"view {r} lists a source that is not an integer view index") from None
        if not srcs:
            raise ValueError(f"view {r} has no source views")
        for s in srcs:
            if not 0 <= s < n_views:
                raise ValueError(f"view {r} lists source {s}, not a view index in [0, {n_views})")
        if r in srcs:
            raise ValueError(f"view {r} cannot be its own source")
        if len(set(srcs)) != len(srcs):
            raise ValueError(f"view {r} lists a source view twice")

    if params.mode == "fusibile":
        table = np.array([[params.disparity_threshold, params.depth_threshold]])
    else:
        table = np.array(DEFAULT_DYNAMIC_TABLE, dtype=np.float64)

    h, w = shape
    consumed = np.zeros((n_views, h, w), dtype=np.uint8)
    all_points, all_colors = [], []
    any_image = any(img is not None for *_, img in unpacked)

    for r, (depth_r, conf_r, cam_r, image_r) in enumerate(unpacked):
        pixels = _eligible_pixels(consumed[r], depth_r.valid, conf_r, params.prob_threshold)
        stacks = _new_stacks(len(pairs[r]), pixels.size)
        if pixels.size:  # a reference with no pixel left to fuse checks no pair
            _pair_stacks(depth_r, cam_r, [(unpacked[s][0], unpacked[s][2]) for s in pairs[r]], table, pixels, stacks)
        fused_depth, mask = _consume_pass(depth_r, pixels, stacks, consumed, r, pairs[r], params, len(table))
        del stacks  # dropped before the next reference is drawn
        fused = pixels[mask]
        if not fused.size:
            continue
        all_points.append(_back_project_grid(fused_depth[mask], fused, w, cam_r))
        if any_image:
            if image_r is not None:
                all_colors.append(np.asarray(image_r, dtype=np.uint8).reshape(-1, 3)[fused])
            else:
                all_colors.append(np.zeros((fused.size, 3), dtype=np.uint8))

    if not all_points:
        return PointCloud(points=np.zeros((0, 3)))
    points = np.concatenate(all_points)
    colors = np.concatenate(all_colors) if any_image else None
    return PointCloud(points=points, colors=colors)
