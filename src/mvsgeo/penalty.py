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
full-frame error array.  stage_penalties takes its votes straight off
reproject._checks, the one pair-check walk, one call per source, into
one count array per stage of the narrowest unsigned integer that holds
M.  A PenaltyMap holds those vote counts, and _levels is the one
mapping from a count k to its level 1 + k/M (or 1 + 2k/M), bit for bit
the table of the M + 1 levels: PenaltyMap.values, PenaltyMap._band (a
row band of them, as the loss reads a penalty), apply_reference_mask
(the masked map gc-penalty writes) and penalty_histogram (a bincount of
the counts) all read the counts through it.  per_pixel_penalty is the
paper's composition of the public steps: the sum over sources of
inconsistency_mask(d_ref, *fbr(...)), inconsistency_mask voting band by
band over fbr's full-frame result.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .camera import Camera
from .reproject import CoordinateGrid, DepthMap, _checks, _depth_bands, _pair_errors, fbr

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
        if not (0 < self.d_pixel < np.inf and 0 < self.d_depth < np.inf):
            raise ValueError("thresholds must be finite and strictly positive")


@dataclass(eq=False)
class PenaltyMap:
    """Per-pixel inconsistency votes over M source views, with the range mode that maps them to levels.

    counts holds each pixel's vote count k, an integer 0 <= k <= m, as a
    read-only view of the array given, so no write through the map skips
    that check.  values is its penalty 1 + k/M ("one-two") or 1 + 2k/M
    ("one-three"), a new float64 array on each read.  Maps compare by
    identity: elementwise == of two count arrays has no single truth value.
    """

    counts: np.ndarray
    range_mode: str
    m: int

    def __post_init__(self):
        self.counts = np.asarray(self.counts).view()
        self.counts.flags.writeable = False
        _check_sources(self.m, self.range_mode)
        if not np.issubdtype(self.counts.dtype, np.integer):
            raise ValueError(f"vote counts must be integers, got {self.counts.dtype}")
        if self.counts.size and not 0 <= int(self.counts.min()) <= int(self.counts.max()) <= self.m:
            raise ValueError(f"vote counts must lie in [0, {self.m}]")

    @property
    def values(self) -> np.ndarray:
        return _levels(self.counts, self.m, self.range_mode)

    @property
    def shape(self) -> tuple:
        return self.counts.shape

    def _band(self, rows: slice) -> np.ndarray:
        """values' rows band, without the frame (the loss reads a penalty band by band)."""
        return _levels(self.counts[rows], self.m, self.range_mode)


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
    for rows, band, (pde, rdd), (failed, spare) in _depth_bands(d_ref, 2, 2):
        np.logical_and(d_reproj.valid[rows], p_reproj.valid[rows], out=failed)
        np.logical_not(failed, out=failed)
        _pair_errors(*band[:3], p_reproj.x[rows], p_reproj.y[rows], d_reproj.values[rows], failed, (pde, rdd))
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
    _check_sources(len(sources), range_mode)
    count = np.zeros(d_ref.shape, dtype=np.min_scalar_type(len(sources)))
    for d_src, src_cam in sources:
        _check_source(d_ref, d_src)
        count += inconsistency_mask(d_ref, *fbr(d_ref, ref, d_src, src_cam), thresholds)
    return PenaltyMap(count, range_mode, len(sources))


def _check_sources(m: int, range_mode: str) -> None:
    """Reject a source count m below 1 or an unknown range mode (each source's shape is checked as it is reached)."""
    if m < 1:
        raise ValueError("at least one source view is required")
    if range_mode not in _RANGE_MODES:
        raise ValueError(f"range_mode must be one of {_RANGE_MODES}")


def _check_source(d_ref: DepthMap, d_src: DepthMap) -> None:
    """Reject a source shaped unlike the reference."""
    if d_src.shape != d_ref.shape:
        raise ValueError(f"source depth shape {d_src.shape} does not match reference {d_ref.shape}")


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


def stage_penalties(
    d_ref: DepthMap,
    ref: Camera,
    sources: Sequence[tuple[DepthMap, Camera]],
    stages: list[GcThresholds],
    range_mode: str = "one-two",
) -> list[PenaltyMap]:
    """Penalty maps of one reference view for several threshold stages.

    The stages differ only in the thresholds applied to the same
    reprojection, so each source's pair check is walked once and every
    stage's votes are added from it, band by band, into one count array
    per stage of the narrowest unsigned integer that holds M.  Returns
    one PenaltyMap per stage, in the order of `stages`; each equals
    per_pixel_penalty with that stage's thresholds.

    sources is read once, item by item and in order, each item as its
    pair is checked, and len(sources) is M.  So an item may be made as
    it is read, and its map may be overwritten by the next (gc-penalty
    reads each source's depth file into one reused frame so).  Each
    source's shape is checked when it is reached.
    """
    _check_sources(len(sources), range_mode)
    if not stages:
        raise ValueError("at least one threshold stage is required")
    counts = [np.zeros(d_ref.shape, dtype=np.min_scalar_type(len(sources))) for _ in stages]
    for d_src, src_cam in sources:
        _check_source(d_ref, d_src)
        _add_pair_votes(d_ref, ref, d_src, src_cam, stages, counts)
    return [PenaltyMap(count, range_mode, len(sources)) for count in counts]


def apply_reference_mask(penalty: PenaltyMap, ref_mask: np.ndarray) -> np.ndarray:
    """The penalty levels inside the reference view mask and 0 outside, as a new float64 array.

    A pixel is inside where ref_mask is nonzero.
    """
    inside = _inside(penalty, ref_mask)
    values = penalty.values
    np.copyto(values, 0.0, where=~inside)
    return values


def penalty_histogram(penalty: PenaltyMap, ref_mask: np.ndarray) -> dict:
    """Per-level pixel counts and the mean penalty over the pixels inside the reference view mask.

    The histogram is a bincount of the vote counts (widened to intp, as
    bincount itself would, except that it refuses uint64); its levels and
    the mean read the same levels as apply_reference_mask, in pixel order.
    """
    inside = penalty.counts[_inside(penalty, ref_mask)]
    per_count = np.bincount(inside.astype(np.intp, copy=False))
    seen = np.flatnonzero(per_count)
    m, mode = penalty.m, penalty.range_mode
    return {
        "range_mode": mode,
        "num_sources": m,
        "pixels_in_mask": int(inside.size),
        "mean_penalty": float(_levels(inside, m, mode).mean()) if inside.size else 0.0,
        "histogram": [{"level": float(lv), "count": int(n)}
                      for lv, n in zip(_levels(seen, m, mode), per_count[seen])],
    }


def _inside(penalty: PenaltyMap, ref_mask) -> np.ndarray:
    """ref_mask as a bool array, checked against the penalty's shape."""
    inside = np.asarray(ref_mask, dtype=bool)
    if inside.shape != penalty.counts.shape:
        raise ValueError("reference mask shape mismatch")
    return inside
