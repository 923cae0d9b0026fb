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

_add_votes is the one vote rule, applied band by band with no
full-frame error array.  stage_penalties and gc-penalty take their votes
straight off reproject._checks, the one pair-check walk, one call per
source (_stage_counts), into one count array per stage of the narrowest
unsigned integer that holds M.  _levels maps counts to the levels
1 + k/M (or 1 + 2k/M), bit for bit the table of the M + 1 levels, and
gc-penalty derives each stage's masked map and histogram from the counts
alone (_stage_map, _stage_histogram).  per_pixel_penalty is the paper's
composition of the public steps: the sum over sources of
inconsistency_mask(d_ref, *fbr(...)), inconsistency_mask voting band by
band over fbr's full-frame result.
"""

from dataclasses import dataclass

import numpy as np

from .camera import Camera
from .reproject import CoordinateGrid, DepthMap, _bands, _checks, _pair_errors, fbr

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
    for rows, errors, (failed, spare) in _bands(d_ref.shape, 2, 2):
        np.logical_and(d_reproj.valid[rows], p_reproj.valid[rows], out=failed)
        np.logical_not(failed, out=failed)
        pde, rdd = _pair_errors(d_ref, rows, p_reproj.x[rows], p_reproj.y[rows], d_reproj.values[rows], failed,
                                errors)
        _add_votes(d_ref.valid[rows], pde, rdd, failed, spare, [thresholds], [mask[rows]])
    return mask


def per_pixel_penalty(
    d_ref: DepthMap,
    ref: Camera,
    sources: list[tuple[DepthMap, Camera]],
    thresholds: GcThresholds,
    range_mode: str = "one-two",
) -> PenaltyMap:
    """Accumulate inconsistency votes over all source views into the penalty map.

    The paper's sum over sources of inconsistency_mask(d_ref, *fbr(...)),
    mapped to the levels: bit for bit stage_penalties at one stage.
    """
    _check_sources(d_ref, sources, range_mode)
    count = np.zeros(d_ref.shape, dtype=np.min_scalar_type(len(sources)))
    for d_src, src_cam in sources:
        count += inconsistency_mask(d_ref, *fbr(d_ref, ref, d_src, src_cam), thresholds)
    return PenaltyMap(_levels(count, len(sources), range_mode), range_mode, len(sources))


def _check_sources(d_ref: DepthMap, sources, range_mode: str) -> None:
    """Reject no sources, an unknown range mode or a source shaped unlike the reference."""
    if not sources:
        raise ValueError("at least one source view is required")
    if range_mode not in _RANGE_MODES:
        raise ValueError(f"range_mode must be one of {_RANGE_MODES}")
    for d_src, _ in sources:
        if d_src.shape != d_ref.shape:
            raise ValueError(
                f"source depth shape {d_src.shape} does not match reference {d_ref.shape}"
            )


def _levels(counts, m: int, range_mode: str) -> np.ndarray:
    """The penalty levels 1 + k/M (or 1 + 2k/M) of vote counts k, as a new float64 array.

    Elementwise, in the formula's order: each level has the bits of the
    table 1.0 + scale * np.arange(M + 1) / M at its count, with no gather
    from that table (which would first widen a narrow count array to
    intp, 8 bytes per pixel).
    """
    levels = np.array(counts, dtype=np.float64)
    levels *= 1.0 if range_mode == "one-two" else 2.0
    levels /= m
    levels += 1.0
    return levels


def _add_votes(tested, pde, rdd, failed, spare, stages, counts) -> None:
    """Add one band's votes of every stage to that stage's count band.

    A tested (reference-valid) pixel votes where its reprojection failed
    or exceeds a threshold (strict).  spare is a bool band buffer.
    """
    for count, thresholds in zip(counts, stages):
        np.greater(pde, thresholds.d_pixel, out=spare)
        spare |= failed
        spare |= rdd > thresholds.d_depth
        spare &= tested
        count += spare


def _add_pair_votes(d_ref: DepthMap, ref: Camera, d_src: DepthMap, src: Camera, stages, counts) -> None:
    """Add one pair's votes of every stage to that stage's counts.

    A call per pair: the band views of reproject._checks die on return,
    before the next pair allocates its band buffers.
    """
    for rows, _, pde, rdd, failed, spare in _checks(d_ref, ref, d_src, src):
        _add_votes(d_ref.valid[rows], pde, rdd, failed, spare, stages, [count[rows] for count in counts])


def _stage_counts(d_ref: DepthMap, ref: Camera, sources, stages) -> list[np.ndarray]:
    """Per stage, each reference pixel's inconsistency votes over the M sources.

    One count array per stage, of the narrowest unsigned integer that
    holds M, filled band by band off the pair-check walk.  The sources are
    not checked here (see _check_sources).
    """
    counts = [np.zeros(d_ref.shape, dtype=np.min_scalar_type(len(sources))) for _ in stages]
    for d_src, src_cam in sources:
        _add_pair_votes(d_ref, ref, d_src, src_cam, stages, counts)
    return counts


def stage_penalties(
    d_ref: DepthMap,
    ref: Camera,
    sources: list[tuple[DepthMap, Camera]],
    stages: list[GcThresholds],
    range_mode: str = "one-two",
) -> list[PenaltyMap]:
    """Penalty maps of one reference view for several threshold stages.

    The stages differ only in the thresholds applied to the same
    reprojection, so each source's pair check is walked once and every
    stage's votes are added from it.  Returns one PenaltyMap per stage,
    in the order of `stages`; each equals per_pixel_penalty with that
    stage's thresholds.
    """
    _check_sources(d_ref, sources, range_mode)
    if not stages:
        raise ValueError("at least one threshold stage is required")
    return [PenaltyMap(_levels(count, len(sources), range_mode), range_mode, len(sources))
            for count in _stage_counts(d_ref, ref, sources, stages)]


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


def _stage_histogram(count: np.ndarray, valid: np.ndarray, range_mode: str, m: int) -> dict:
    """penalty_histogram of a stage's masked map, from its vote counts alone.

    Bit for bit penalty_histogram(apply_reference_mask(PenaltyMap(
    _levels(count, ...), ...), valid)): every level is >= 1, so the
    pixels above 0 are exactly the valid ones, and the mean reads the
    same levels in the same order.
    """
    inside = count[valid]
    per_count = np.bincount(inside)
    seen = np.flatnonzero(per_count)
    return {
        "range_mode": range_mode,
        "num_sources": m,
        "pixels_in_mask": int(inside.size),
        "mean_penalty": float(_levels(inside, m, range_mode).mean()) if inside.size else 0.0,
        "histogram": [{"level": float(lv), "count": int(n)}
                      for lv, n in zip(_levels(seen, m, range_mode), per_count[seen])],
    }


def _stage_map(count: np.ndarray, valid: np.ndarray, range_mode: str, m: int) -> np.ndarray:
    """A stage's masked penalty map as float32, from its vote counts alone.

    Bit for bit apply_reference_mask(PenaltyMap(_levels(count, ...), ...),
    valid).values.astype(np.float32): every level is >= 1, so zeroing it
    where invalid is the mask's product.
    """
    values = _levels(count, m, range_mode).astype(np.float32)
    values *= valid
    return values
