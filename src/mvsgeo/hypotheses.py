"""Plane-sweep depth hypothesis generation for the three-stage cascade.

The coarse stage samples the full depth range uniformly; later stages
place a symmetric band of hypotheses around the previous estimate with a
pixel-level spacing of stage ratio times the base depth interval.  Bands
that would leave the global range are shifted back inside it so the
hypothesis list stays strictly increasing.
"""

from dataclasses import dataclass

import numpy as np

from .reproject import DepthMap

__all__ = [
    "StageConfig",
    "DIR_TRAIN",
    "DIR_TEST",
    "pixel_interval",
    "coarse_hypotheses",
    "refine_hypotheses",
    "band_width",
]

# Stage-wise depth interval ratios, coarse to refine.
DIR_TRAIN = (2.0, 0.8, 0.4)
DIR_TEST = (1.6, 0.7, 0.3)


@dataclass(frozen=True)
class StageConfig:
    num_hypotheses: tuple[int, int, int] = (48, 32, 8)
    dir: tuple[float, float, float] = DIR_TRAIN
    depth_min: float = 425.0
    depth_max: float = 935.0

    def __post_init__(self):
        if len(self.num_hypotheses) != 3 or len(self.dir) != 3:
            raise ValueError("expected three stages")
        if any(n < 2 for n in self.num_hypotheses):
            raise ValueError("each stage needs at least 2 hypotheses")
        if any(r <= 0 for r in self.dir):
            raise ValueError("depth interval ratios must be positive")
        if not (0 < self.depth_min < self.depth_max):
            raise ValueError("require 0 < depth_min < depth_max")
        object.__setattr__(self, "num_hypotheses", tuple(int(n) for n in self.num_hypotheses))
        object.__setattr__(self, "dir", tuple(float(r) for r in self.dir))


def pixel_interval(dir_stage: float, di: float) -> float:
    """Pixel-level hypothesis spacing: stage ratio times base depth interval."""
    if not (dir_stage > 0 and di > 0):
        raise ValueError("ratio and depth interval must be positive")
    return dir_stage * di


def coarse_hypotheses(cfg: StageConfig) -> np.ndarray:
    """Uniform first-stage sweep spanning [depth_min, depth_max] inclusive."""
    return np.linspace(cfg.depth_min, cfg.depth_max, cfg.num_hypotheses[0])


def refine_hypotheses(prev_depth: DepthMap, stage: int, cfg: StageConfig, di: float) -> np.ndarray:
    """Per-pixel hypothesis bands (D, H, W) centered on the previous estimate.

    stage must be 1 or 2 (stage 0 uses coarse_hypotheses).  Bands are
    shifted, not clipped, when the center sits near a range boundary, so
    values stay inside [depth_min, depth_max] and strictly increasing.
    """
    if stage not in (1, 2):
        raise ValueError("refinement stages are 1 and 2; use coarse_hypotheses for stage 0")
    n = cfg.num_hypotheses[stage]
    spacing = pixel_interval(cfg.dir[stage], di)
    span = (n - 1) * spacing
    if span >= cfg.depth_max - cfg.depth_min:
        # Band wider than the whole range: degrade to the uniform sweep.
        flat = np.linspace(cfg.depth_min, cfg.depth_max, n)
        return np.broadcast_to(flat[:, None, None], (n,) + prev_depth.shape).copy()
    # dtype=float64: a float32 map clipped to Python floats would stay float32.
    centers = np.clip(prev_depth.values, cfg.depth_min, cfg.depth_max, dtype=np.float64)
    offsets = (np.arange(n, dtype=np.float64) - (n - 1) / 2.0) * spacing
    lo = centers + offsets[0]
    hi = centers + offsets[-1]
    shift = np.where(lo < cfg.depth_min, cfg.depth_min - lo, 0.0)
    shift = shift - np.where(hi > cfg.depth_max, hi - cfg.depth_max, 0.0)
    return (centers + shift)[None, :, :] + offsets[:, None, None]


def band_width(cfg: StageConfig, stage: int, di: float) -> float:
    """Total depth range a stage sweeps: hypothesis count times pixel interval."""
    return cfg.num_hypotheses[stage] * pixel_interval(cfg.dir[stage], di)
