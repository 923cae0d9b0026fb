import numpy as np
import pytest

from mvsgeo.hypotheses import (
    DIR_TEST,
    DIR_TRAIN,
    StageConfig,
    band_width,
    coarse_hypotheses,
    pixel_interval,
    refine_hypotheses,
)
from mvsgeo.reproject import DepthMap


def test_pixel_interval_products():
    assert pixel_interval(2.0, 2.5) == 5.0
    assert pixel_interval(0.4, 1.06) == pytest.approx(0.424, abs=1e-12)
    assert pixel_interval(1.0, 3.7) == 3.7
    with pytest.raises(ValueError):
        pixel_interval(0.0, 1.0)
    with pytest.raises(ValueError):
        pixel_interval(1.0, -2.0)


def test_coarse_endpoints():
    cfg = StageConfig(num_hypotheses=(2, 2, 2), depth_min=425.0, depth_max=935.0)
    assert coarse_hypotheses(cfg).tolist() == [425.0, 935.0]
    cfg3 = StageConfig(num_hypotheses=(3, 2, 2), depth_min=1.0, depth_max=11.0)
    assert coarse_hypotheses(cfg3).tolist() == [1.0, 6.0, 11.0]


def test_coarse_48_uniform_spacing():
    cfg = StageConfig()
    hyp = coarse_hypotheses(cfg)
    assert hyp.shape == (48,)
    assert hyp[0] == 425.0 and hyp[-1] == 935.0
    steps = np.diff(hyp)
    assert steps.max() - steps.min() < 1e-10
    assert steps[0] == pytest.approx((935.0 - 425.0) / 47, abs=1e-9)
    assert (steps > 0).all()


def test_refine_centered_band_frozen():
    # 8 hypotheses around 600 at spacing 0.4 * 1.06: a closed-form
    # centered arithmetic sequence.
    cfg = StageConfig()
    prev = DepthMap.from_values(np.full((2, 2), 600.0))
    spacing = 0.4 * 1.06
    out = refine_hypotheses(prev, 2, cfg, di=1.06)
    assert out.shape == (8, 2, 2)
    expected = 600.0 + (np.arange(8) - 3.5) * spacing
    assert np.abs(out[:, 0, 0] - expected).max() < 1e-12
    assert out[0, 0, 0] == pytest.approx(598.516, abs=1e-9)
    assert out[-1, 0, 0] == pytest.approx(601.484, abs=1e-9)
    assert (np.diff(out, axis=0) > 0).all()


def test_refine_at_range_boundary_shifts():
    cfg = StageConfig()
    prev = DepthMap.from_values(np.full((1, 1), 425.0))
    out = refine_hypotheses(prev, 1, cfg, di=2.5)
    assert (out >= 425.0).all()
    assert (out <= 935.0).all()
    assert (np.diff(out, axis=0) > 0).all()
    assert out[0, 0, 0] == pytest.approx(425.0, abs=1e-9)


def test_refine_interior_band_is_centered():
    cfg = StageConfig()
    prev = DepthMap.from_values(np.full((1, 1), 680.0))
    out = refine_hypotheses(prev, 1, cfg, di=2.5)
    mid = (out[0, 0, 0] + out[-1, 0, 0]) / 2
    assert mid == pytest.approx(680.0, abs=1e-9)


def test_refine_rejects_stage_zero_and_bad_spacing():
    cfg = StageConfig()
    prev = DepthMap.from_values(np.full((1, 1), 600.0))
    with pytest.raises(ValueError, match="stage"):
        refine_hypotheses(prev, 0, cfg, di=2.5)
    with pytest.raises(ValueError):
        refine_hypotheses(prev, 1, cfg, di=0.0)


def test_band_widths_strictly_decrease_for_both_dir_sets():
    for ratios in (DIR_TRAIN, DIR_TEST):
        cfg = StageConfig(dir=ratios)
        widths = [band_width(cfg, s, di=2.5) for s in range(3)]
        assert widths[0] > widths[1] > widths[2]


def test_band_wider_than_range_degrades_to_uniform():
    cfg = StageConfig(num_hypotheses=(4, 4, 4), dir=(1.0, 200.0, 1.0), depth_min=425.0, depth_max=935.0)
    prev = DepthMap.from_values(np.full((1, 1), 600.0))
    out = refine_hypotheses(prev, 1, cfg, di=2.5)
    assert out[0, 0, 0] == 425.0 and out[-1, 0, 0] == 935.0
    assert (np.diff(out, axis=0) > 0).all()


def test_stage_config_validation():
    with pytest.raises(ValueError):
        StageConfig(num_hypotheses=(1, 8, 8))
    with pytest.raises(ValueError):
        StageConfig(dir=(0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        StageConfig(depth_min=10.0, depth_max=5.0)
