"""Multi-view stereo geometric consistency toolkit.

Core pieces: the pinhole camera and its warp matrix, forward-backward
reprojection of depth maps, multi-view inconsistency penalties,
penalty-weighted classification loss, plane-sweep hypothesis generation,
depth-map fusion into point clouds, point-cloud and depth metrics,
analytic synthetic scenes, the scene directory reader (Scene), and
readers/writers for the ecosystem file formats.
"""

from .camera import Camera, pixel_grid, warp_transform
from .fusion import DEFAULT_DYNAMIC_TABLE, FusionParams, PointCloud, fuse
from .hypotheses import (
    DIR_TEST,
    DIR_TRAIN,
    StageConfig,
    band_width,
    coarse_hypotheses,
    pixel_interval,
    refine_hypotheses,
)
from .loss import ProbabilityVolume, StageWeights, cross_entropy_error, stage_loss, total_loss
from .metrics import (
    DepthMetrics,
    PointCloudMetrics,
    accuracy,
    completeness,
    depth_metrics,
    evaluate_point_clouds,
    nearest_neighbor_distances,
    overall,
)
from .penalty import (
    GcThresholds,
    PenaltyMap,
    STAGE_DEPTH_THRESHOLDS,
    STAGE_PIXEL_THRESHOLDS,
    apply_reference_mask,
    inconsistency_mask,
    penalty_histogram,
    per_pixel_penalty,
    stage_penalties,
)
from .reproject import CoordinateGrid, DepthMap, fbr, forward_project, remap
from .views import Scene, ViewPairing, load_pairing, rank_sources, save_pairing, view_score

__version__ = "0.1.0"
