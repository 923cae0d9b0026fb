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
failed reprojection (depth or coordinates invalid) votes under any
thresholds.

_add_votes is the one vote loop, over the row bands of reproject._bands
with no full-frame error array.  inconsistency_mask runs it once into a
bool map; stage_penalties once per source (one fbr call, freed before
the next) into counts of the narrowest unsigned integer that holds M,
then reads each map off one table of the M + 1 levels, bit for bit the
per-pixel formula.
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
    if np.any(d_ref.values == 0, where=d_ref.valid):
        raise ValueError("zero reference depth")
    mask = np.zeros(d_ref.shape, dtype=bool)
    _add_votes(d_ref, d_reproj, p_reproj, [thresholds], [mask])
    return mask


def per_pixel_penalty(
    d_ref: DepthMap,
    ref: Camera,
    sources: list[tuple[DepthMap, Camera]],
    thresholds: GcThresholds,
    range_mode: str = "one-two",
) -> PenaltyMap:
    """Accumulate inconsistency votes over all source views into the penalty map."""
    return stage_penalties(d_ref, ref, sources, [thresholds], range_mode)[0]


def _add_votes(d_ref: DepthMap, d_back: DepthMap, p_back: CoordinateGrid, stages, counts) -> None:
    """Add one reprojection's votes of every stage to that stage's counts, band by band.

    A tested (reference-valid) pixel votes where its reprojection failed
    or exceeds a threshold.  The band buffers are released on return.
    """
    for rows, errors, (failed,) in _bands(d_ref.shape, 2, 1):
        np.logical_and(d_back.valid[rows], p_back.valid[rows], out=failed)
        np.logical_not(failed, out=failed)
        pde, rdd = _pair_errors(d_ref, rows, p_back.x[rows], p_back.y[rows], d_back.values[rows], failed, errors)
        tested = d_ref.valid[rows]
        for count, thresholds in zip(counts, stages):
            band = count[rows]
            band += tested & (failed | (pde > thresholds.d_pixel) | (rdd > thresholds.d_depth))


def stage_penalties(
    d_ref: DepthMap,
    ref: Camera,
    sources: list[tuple[DepthMap, Camera]],
    stages: list[GcThresholds],
    range_mode: str = "one-two",
) -> list[PenaltyMap]:
    """Penalty maps of one reference view for several threshold stages.

    The stages differ only in the thresholds applied to the same
    reprojection, so each source is reprojected once (one fbr call) and
    _add_votes adds every stage's votes from it.  Returns one PenaltyMap
    per stage, in the order of `stages`; each equals per_pixel_penalty
    with that stage's thresholds.
    """
    if not sources:
        raise ValueError("at least one source view is required")
    if not stages:
        raise ValueError("at least one threshold stage is required")
    if range_mode not in _RANGE_MODES:
        raise ValueError(f"range_mode must be one of {_RANGE_MODES}")
    m = len(sources)
    counts = [np.zeros(d_ref.shape, dtype=np.min_scalar_type(m)) for _ in stages]
    for d_src, src_cam in sources:
        if d_src.shape != d_ref.shape:
            raise ValueError(
                f"source depth shape {d_src.shape} does not match reference {d_ref.shape}"
            )
        _add_votes(d_ref, *fbr(d_ref, ref, d_src, src_cam), stages, counts)
    scale = 1.0 if range_mode == "one-two" else 2.0
    levels = 1.0 + scale * np.arange(m + 1) / m
    return [PenaltyMap(levels[count], range_mode, m) for count in counts]


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
