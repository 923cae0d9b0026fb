"""Multi-view geometric consistency penalty.

For every source view the reference depth map is reprojected forward and
back; a pixel is inconsistent in that view when its reprojection
displacement exceeds the pixel threshold or its relative depth difference
exceeds the depth threshold (strict comparisons), or when the
reprojection is impossible (occluded, out of view, behind a camera).
Inconsistency votes are summed over the M source views and mapped to the
per-pixel penalty: 1 + mask_sum/M in the [1,2] range mode, or
1 + 2*mask_sum/M in the [1,3] mode.  The displacement, sqrt(dx**2 +
dy**2), and the depth difference come from reproject._pair_errors; a
failed reprojection (fbr's result invalid) votes under any thresholds.
Each source is reprojected by one fbr call, then its votes are added
over the row bands of reproject._bands, so no full-frame error array is
made and a source's fbr result is freed before the next source's.
"""

from dataclasses import dataclass

import numpy as np

from .camera import Camera
from .reproject import CoordinateGrid, DepthMap, _bands, _pair_errors, fbr

__all__ = [
    "GcThresholds",
    "PenaltyMap",
    "STAGE_PIXEL_THRESHOLDS",
    "STAGE_DEPTH_THRESHOLDS",
    "inconsistency_mask",
    "per_pixel_penalty",
    "stage_penalties",
    "apply_reference_mask",
    "penalty_histogram",
]

# Stage-wise defaults, coarse to refine.
STAGE_PIXEL_THRESHOLDS = (1.0, 0.5, 0.25)
STAGE_DEPTH_THRESHOLDS = (0.01, 0.005, 0.0025)

_RANGE_MODES = ("one-two", "one-three")


@dataclass(frozen=True)
class GcThresholds:
    """Per-stage thresholds: d_pixel in pixels, d_depth dimensionless."""

    d_pixel: float
    d_depth: float

    def __post_init__(self):
        if not (self.d_pixel > 0 and self.d_depth > 0):
            raise ValueError("thresholds must be strictly positive")


@dataclass
class PenaltyMap:
    """Per-pixel inconsistency penalty with its range mode and view count."""

    values: np.ndarray
    range_mode: str
    m: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.range_mode not in _RANGE_MODES:
            raise ValueError(f"range_mode must be one of {_RANGE_MODES}")


def _votes(tested, failed, pde, rdd, thresholds: GcThresholds) -> np.ndarray:
    """One stage's vote: tested pixels whose reprojection failed or exceeds a threshold."""
    return tested & (failed | (pde > thresholds.d_pixel) | (rdd > thresholds.d_depth))


def inconsistency_mask(
    d_ref: DepthMap,
    d_reproj: DepthMap,
    p_reproj: CoordinateGrid,
    thresholds: GcThresholds,
) -> np.ndarray:
    """Single-view inconsistency vote for every valid reference pixel.

    Reprojection-invalid pixels vote inconsistent; reference-invalid
    pixels never vote.
    """
    if d_reproj.shape != d_ref.shape or p_reproj.shape != d_ref.shape:
        raise ValueError("reprojection outputs must match the reference shape")
    tested = d_ref.valid
    if np.any(d_ref.values[tested] == 0):
        raise ValueError("zero reference depth")
    failed = ~(d_reproj.valid & p_reproj.valid)
    pde, rdd = _pair_errors(d_ref, slice(0, d_ref.height), p_reproj.x, p_reproj.y, d_reproj.values, failed,
                            np.empty((2,) + d_ref.shape))
    return _votes(tested, failed, pde, rdd, thresholds)


def per_pixel_penalty(
    d_ref: DepthMap,
    ref: Camera,
    sources: list[tuple[DepthMap, Camera]],
    thresholds: GcThresholds,
    range_mode: str = "one-two",
) -> PenaltyMap:
    """Accumulate inconsistency votes over all source views into the penalty map."""
    return stage_penalties(d_ref, ref, sources, [thresholds], range_mode)[0]


def _add_votes(d_ref: DepthMap, d_back: DepthMap, p_back: CoordinateGrid, stages, mask_sums) -> None:
    """Add one source's votes of every stage to its int64 sum, band by band.

    fbr's result and the band buffers are released on return, before the
    next source is reprojected.
    """
    for rows, errors, (failed,) in _bands(d_ref.shape, 2, 1):
        np.logical_not(d_back.valid[rows], out=failed)  # fbr's depth and coordinates share one mask
        pde, rdd = _pair_errors(d_ref, rows, p_back.x[rows], p_back.y[rows], d_back.values[rows], failed, errors)
        tested = d_ref.valid[rows]
        for mask_sum, thresholds in zip(mask_sums, stages):
            band_sum = mask_sum[rows]
            band_sum += _votes(tested, failed, pde, rdd, thresholds)


def stage_penalties(
    d_ref: DepthMap,
    ref: Camera,
    sources: list[tuple[DepthMap, Camera]],
    stages: list[GcThresholds],
    range_mode: str = "one-two",
) -> list[PenaltyMap]:
    """Penalty maps of one reference view for several threshold stages.

    The stages differ only in the thresholds applied to the same
    reprojection, so each source is reprojected once (one fbr call).
    Then, band by band of rows, its displacement and relative depth
    difference are computed once and every stage's votes are added to
    that stage's int64 sums, so no full-frame error array is made.
    Returns one PenaltyMap per stage, in the order of `stages`; each
    equals per_pixel_penalty with that stage's thresholds.
    """
    if not sources:
        raise ValueError("at least one source view is required")
    if not stages:
        raise ValueError("at least one threshold stage is required")
    if range_mode not in _RANGE_MODES:
        raise ValueError(f"range_mode must be one of {_RANGE_MODES}")
    mask_sums = [np.zeros(d_ref.shape, dtype=np.int64) for _ in stages]
    for d_src, src_cam in sources:
        if d_src.shape != d_ref.shape:
            raise ValueError(
                f"source depth shape {d_src.shape} does not match reference {d_ref.shape}"
            )
        _add_votes(d_ref, *fbr(d_ref, ref, d_src, src_cam), stages, mask_sums)
    m = len(sources)
    penalties = []
    while mask_sums:
        mask_sum = mask_sums.pop(0)  # each sum is freed once its map is made
        if range_mode == "one-two":
            values = 1.0 + mask_sum / m
        else:
            values = 1.0 + 2.0 * mask_sum / m
        penalties.append(PenaltyMap(values, range_mode, m))
    return penalties


def apply_reference_mask(penalty: PenaltyMap, ref_mask: np.ndarray) -> PenaltyMap:
    """Zero the penalty outside the reference view mask, keep it unchanged inside."""
    ref_mask = np.asarray(ref_mask)
    if ref_mask.shape != penalty.values.shape:
        raise ValueError("reference mask shape mismatch")
    values = penalty.values * (ref_mask != 0)
    return PenaltyMap(values, penalty.range_mode, penalty.m)


def penalty_histogram(penalty: PenaltyMap) -> dict:
    """Per-level pixel counts and the mean penalty over masked-in pixels."""
    inside = penalty.values > 0
    levels, counts = np.unique(penalty.values[inside], return_counts=True)
    hist = [{"level": float(lv), "count": int(ct)} for lv, ct in zip(levels, counts)]
    mean = float(penalty.values[inside].mean()) if inside.any() else 0.0
    return {
        "range_mode": penalty.range_mode,
        "num_sources": penalty.m,
        "pixels_in_mask": int(inside.sum()),
        "mean_penalty": mean,
        "histogram": hist,
    }
