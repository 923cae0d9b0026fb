"""mvsgeo.Scene, the one reader of a scene directory, as a library caller uses it.

The CLI's scene tests (tests/test_cli.py) hook the same class; here a
caller opens a scene with it and gets the CLI's bytes from the public
penalty and fusion functions.
"""

import json
import os
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
    frames = [(np.empty(opened.shape, np.float32), np.empty(opened.shape, bool)) for _ in range(2)]
    stages = [GcThresholds(dp, dd) for dp, dd in zip(STAGE_PIXEL_THRESHOLDS, STAGE_DEPTH_THRESHOLDS)]
    assert sorted(map(int, summary["views"])) == sorted(opened.pairings)
    for ref in sorted(opened.pairings):
        d_ref, sources = opened.depth(ref, frames[0]), opened.source_views(ref, 0, frames[1])
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


def test_a_read_fills_the_frame_it_is_given(scene):
    # depth(view, frame) and each item of source_views(ref, m, frame) read
    # into the caller's arrays, which the next read overwrites, with the
    # bits of a fresh read; with no frame, every read is fresh.  The scene
    # itself holds no depth.
    opened = Scene(scene)
    ref_frame, src_frame = [(np.empty(opened.shape, np.float32), np.empty(opened.shape, bool)) for _ in range(2)]
    d_ref = opened.depth(0, ref_frame)
    assert d_ref.values is ref_frame[0] and d_ref.valid is ref_frame[1]
    sources = opened.source_views(0, 3, src_frame)
    assert len(sources) == len(sources.ids) == 3
    for view, (d_src, cam) in zip(sources.ids, sources):
        fresh = opened.depth(view)
        assert cam is opened.cams[view]
        assert d_src.values is src_frame[0] and d_src.valid is src_frame[1]
        assert d_src.values.tobytes() == fresh.values.tobytes() and np.array_equal(d_src.valid, fresh.valid)
        assert fresh.values is not src_frame[0] and fresh.valid is not src_frame[1]
    assert opened.depth(2, ref_frame).values is d_ref.values
    unframed = [d for d, _ in opened.source_views(0, 2)] + [opened.depth(0), opened.depth(0)]
    arrays = [a for d in unframed for a in (d.values, d.valid)] + [*ref_frame, *src_frame]
    assert len(set(map(id, arrays))) == len(arrays)
    assert vars(opened).keys() == {"root", "pairings", "cams", "shape"}


def test_a_view_the_scene_does_not_name_is_a_missing_input(scene):
    # A scene opens every view pair.txt names; asking for another is a
    # missing input, named by view (a reference by pair.txt), not a bare
    # KeyError.
    opened = Scene(scene)
    assert sorted(opened.cams) == [0, 1, 2, 3, 4] and opened.shape == (48, 64)
    d0 = opened.depth(0)
    frame = (np.empty(opened.shape, np.float32), np.empty(opened.shape, bool))
    for read in (opened.depth, lambda view: opened.depth(view, frame), lambda view: opened.confidence(view, d0)):
        with pytest.raises(FileNotFoundError, match=f"^view 7 not present in scene {re.escape(str(scene))}$"):
            read(7)
    with pytest.raises(FileNotFoundError, match="^view 7 not present in .*pair.txt$"):
        opened.source_views(7)


_BAD_FRAMES = {
    "shorter": lambda shape: (np.zeros((6, shape[1]), np.float32), np.zeros((6, shape[1]), bool)),
    "taller": lambda shape: (np.zeros((24, shape[1]), np.float32), np.zeros((24, shape[1]), bool)),
    "narrower": lambda shape: (np.zeros((shape[0], 8), np.float32), np.zeros((shape[0], 8), bool)),
    "float64 values": lambda shape: (np.zeros(shape), np.zeros(shape, bool)),
    "uint8 validity": lambda shape: (np.zeros(shape, np.float32), np.zeros(shape, np.uint8)),
    "read-only values": lambda shape: (np.zeros(shape, np.float32), np.zeros(shape, bool)),
}


@pytest.mark.parametrize("kind", _BAD_FRAMES)
def test_a_frame_of_another_kind_is_rejected_before_a_byte_is_read(tmp_path, capsys, monkeypatch, kind):
    # Every frame that is not a writable float32 and bool pair of the
    # depth's shape is a ValueError, from Scene.depth (the file named) and
    # open_pfm(...).depth alike, with the frame unwritten and no payload
    # read: a shorter frame would take the file's top rows, and a taller
    # one a negative read offset.
    root = tmp_path / "scene"
    assert main(["synth", "--out", str(root), "--width", "16", "--height", "12", "--views", "3"]) == 0
    capsys.readouterr()
    opened = Scene(root)
    frame = _BAD_FRAMES[kind](opened.shape)
    if kind == "read-only values":
        frame[0].flags.writeable = False
    preadv = []
    monkeypatch.setattr(os, "preadv", lambda *args: preadv.append(args))
    message = re.escape(f"a depth frame is a writable float32 and bool array pair of shape {opened.shape}")
    path = root / "depths" / "00000001.pfm"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
        opened.depth(1, frame)
    with formats.open_pfm(path) as pfm, pytest.raises(ValueError, match=f"^{message}$"):
        pfm.depth(frame)
    assert preadv == [] and not any(a.any() for a in frame)
