"""mvsgeo.Scene, the one reader of a scene directory, as a library caller uses it.

The CLI's scene tests (tests/test_cli.py) hook the same class; here a
caller opens a scene with it and gets the CLI's bytes from the public
penalty and fusion functions.
"""

import json
import re

import numpy as np
import pytest

from mvsgeo import (
    STAGE_DEPTH_THRESHOLDS,
    STAGE_PIXEL_THRESHOLDS,
    FusionParams,
    GcThresholds,
    Scene,
    apply_reference_mask,
    formats,
    fuse,
    penalty_histogram,
    stage_penalties,
)
from mvsgeo.cli import main


@pytest.fixture
def scene(tmp_path, capsys):
    root = tmp_path / "scene"
    assert main(["synth", "--out", str(root), "--kind", "two-planes", "--width", "64", "--height", "48",
                 "--views", "5", "--seed", "2"]) == 0
    capsys.readouterr()
    return root


@pytest.mark.parametrize("range_mode", ["one-two", "one-three"])
def test_a_library_caller_gets_the_clis_bytes_through_scene(scene, tmp_path, capsys, range_mode):
    # Every reference's stage PFMs and summary.json entry, and the fused
    # cloud, rebuilt from Scene with stage_penalties, apply_reference_mask,
    # penalty_histogram and fuse, are gc-penalty's and fuse's bytes.
    pen_dir, ply = tmp_path / "pen", tmp_path / "cloud.ply"
    assert main(["gc-penalty", "--scene", str(scene), "--out", str(pen_dir), "--range", range_mode]) == 0
    assert main(["fuse", "--scene", str(scene), "--out", str(ply), "--num-consistent", "2"]) == 0
    capsys.readouterr()
    summary = json.loads((pen_dir / "summary.json").read_text())

    opened = Scene(scene)
    stages = [GcThresholds(dp, dd) for dp, dd in zip(STAGE_PIXEL_THRESHOLDS, STAGE_DEPTH_THRESHOLDS)]
    assert sorted(map(int, summary["views"])) == sorted(opened.pairings)
    for ref in sorted(opened.pairings):
        d_ref, sources = opened.reference(ref), opened.source_views(ref)
        entry = summary["views"][str(ref)]
        assert sources.ids == entry["sources"] == [s for s, _ in opened.pairings[ref].ranked_sources]
        penalties = stage_penalties(d_ref, opened.cams[ref], sources, stages, range_mode)
        for k, (penalty, doc) in enumerate(zip(penalties, entry["stages"], strict=True)):
            name = f"penalty_{ref:08d}_stage{k}.pfm"
            data = formats.write_pfm(formats.PfmImage(apply_reference_mask(penalty, d_ref.valid)))
            assert data == (pen_dir / name).read_bytes()
            assert {**penalty_histogram(penalty, d_ref.valid), "pfm": name} == doc

    order = sorted(opened.pairings)
    depths = [opened.depth(v) for v in order]
    views = [(d, opened.confidence(v, d), opened.cams[v]) for v, d in zip(order, depths)]
    pairs = [[order.index(s) for s in opened.source_views(v).ids] for v in order]
    cloud = fuse(views, FusionParams(consistency_threshold=2), pairs=pairs)
    assert formats.write_ply(cloud) == ply.read_bytes()


def test_scene_holds_two_depth_frames(scene):
    # reference() reads into one frame and each source_views item into the
    # other, which the next item overwrites; depth() reads fresh arrays.
    # Each map read so has the bits of a fresh read.
    opened = Scene(scene)
    d_ref = opened.reference(0)
    sources = opened.source_views(0, 3)
    assert len(sources) == len(sources.ids) == 3
    maps = []
    for d_src, cam in sources:
        view = sources.ids[len(maps)]
        fresh = opened.depth(view)
        assert cam is opened.cams[view]
        assert d_src.values.tobytes() == fresh.values.tobytes() and np.array_equal(d_src.valid, fresh.valid)
        maps.append(d_src)
    assert all(m.values is maps[0].values and m.valid is maps[0].valid for m in maps)
    assert opened.reference(2).values is d_ref.values is not maps[0].values
    assert opened.depth(2).values is not d_ref.values


def test_a_view_the_scene_does_not_name_is_a_missing_input(scene):
    # A scene opens every view pair.txt names; asking for another is a
    # missing input, named by view (a reference by pair.txt), not a bare
    # KeyError.
    opened = Scene(scene)
    assert sorted(opened.cams) == [0, 1, 2, 3, 4] and opened.shape == (48, 64)
    d0 = opened.depth(0)
    for read in (opened.depth, opened.reference, lambda view: opened.confidence(view, d0)):
        with pytest.raises(FileNotFoundError, match=f"^view 7 not present in scene {re.escape(str(scene))}$"):
            read(7)
    with pytest.raises(FileNotFoundError, match="^view 7 not present in .*pair.txt$"):
        opened.source_views(7)
