import json
import os
import re
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvsgeo import formats, reproject, synth, views
from mvsgeo.cli import main
from mvsgeo.loss import ProbabilityVolume, StageWeights, total_loss
from mvsgeo.views import parse_pair_text

from truth import covisibility_mask


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_json(stdout):
    return json.loads(stdout)


def held_path_parts(*roots):
    """Every path part under roots, interned and held for a tracemalloc window.

    pathlib (Python 3.11) interns each part of every path it parses, and
    an interned string that dies leaves its table; so each run interns
    its paths anew, and the interpreter's table of interned strings grows
    by a 1.9 MB block whenever it fills, at a point set by everything the
    process has interned before.  With every part held, a run's parts
    are found in the table and add nothing to it.
    """
    return [sys.intern(part) for root in roots for path in (root, *root.rglob("*")) for part in path.parts]


@pytest.fixture
def plane_scene(tmp_path, capsys):
    scene = tmp_path / "scene"
    code, out, _ = run_cli(capsys, "synth", "--out", str(scene), "--kind", "plane",
                           "--width", "48", "--height", "40", "--views", "4", "--seed", "3")
    assert code == 0
    return scene


def test_synth_creates_scene_layout(plane_scene):
    assert (plane_scene / "pair.txt").exists()
    assert (plane_scene / "spec.json").exists()
    assert (plane_scene / "gt_cloud.ply").exists()
    for v in range(4):
        assert (plane_scene / "cams" / f"{v:08d}_cam.txt").exists()
        assert (plane_scene / "depths" / f"{v:08d}.pfm").exists()
        assert (plane_scene / "confidence" / f"{v:08d}.pfm").exists()
    cloud = formats.read_ply((plane_scene / "gt_cloud.ply").read_bytes())
    assert len(cloud) == 4 * 48 * 40  # plane fills every view


def test_synth_reports_json(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "synth", "--out", str(tmp_path / "s"), "--kind", "sphere",
                           "--width", "32", "--height", "24", "--views", "3")
    assert code == 0
    doc = read_json(out)
    assert doc["kind"] == "sphere" and doc["views"] == 3


def test_gc_penalty_exact_scene(plane_scene, tmp_path, capsys):
    out_dir = tmp_path / "pen"
    code, out, _ = run_cli(capsys, "gc-penalty", "--scene", str(plane_scene), "--out", str(out_dir),
                           "--d-pixel", "1.0", "--d-depth", "0.01")
    assert code == 0
    doc = read_json(out)
    assert doc["range_mode"] == "one-two"
    assert (out_dir / "summary.json").exists()
    for v, view_doc in doc["views"].items():
        stage = view_doc["stages"][0]
        assert (out_dir / stage["pfm"]).exists()
        hist = {h["level"]: h["count"] for h in stage["histogram"]}
        # exact scene: the dominant level is 1.0 (border pixels leaving
        # some source frustums legitimately carry votes)
        assert hist.get(1.0, 0) > 0.6 * stage["pixels_in_mask"]
    # penalty PFM values stay in [1, 2] inside the mask
    img = formats.read_pfm((out_dir / doc["views"]["0"]["stages"][0]["pfm"]).read_bytes())
    inside = img.data > 0
    assert img.data[inside].min() >= 1.0 and img.data[inside].max() <= 2.0


def test_gc_penalty_range_flag(plane_scene, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gc-penalty", "--scene", str(plane_scene),
                           "--out", str(tmp_path / "p3"), "--range", "one-three",
                           "--d-pixel", "1.0", "--d-depth", "0.01", "--ref", "0")
    assert code == 0
    doc = read_json(out)
    assert doc["range_mode"] == "one-three"
    levels = [h["level"] for h in doc["views"]["0"]["stages"][0]["histogram"]]
    assert max(levels) <= 3.0


def test_gc_penalty_multi_stage_and_threads(plane_scene, tmp_path, capsys):
    args = ("gc-penalty", "--scene", str(plane_scene), "--out", str(tmp_path / "a"),
            "--d-pixel", "1.0", "0.5", "0.25", "--d-depth", "0.01", "0.005", "0.0025")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    assert len(read_json(out1)["views"]["0"]["stages"]) == 3
    code, out2, _ = run_cli(capsys, "gc-penalty", "--scene", str(plane_scene),
                            "--out", str(tmp_path / "b"), "--d-pixel", "1.0", "0.5", "0.25",
                            "--d-depth", "0.01", "0.005", "0.0025", "--threads", "4")
    assert code == 0
    for s in range(3):
        a = (tmp_path / "a" / f"penalty_00000000_stage{s}.pfm").read_bytes()
        b = (tmp_path / "b" / f"penalty_00000000_stage{s}.pfm").read_bytes()
        assert a == b


def test_gc_penalty_reprojects_each_pair_once(plane_scene, tmp_path, capsys, monkeypatch):
    # Three stages share one forward-backward reprojection and one
    # displacement/depth-difference pass per (reference, source) pair: one
    # walk of the pair check per pair, whose bands every stage
    # votes from; only the threshold comparisons repeat per stage, and the
    # public one-stage inconsistency_mask is not called at all.
    import mvsgeo.penalty

    # penalty imports _checks by name, so the hook goes on its binding.
    counts = {"_checks": 0, "inconsistency_mask": 0}
    for module, name in ((mvsgeo.penalty, "_checks"), (mvsgeo.penalty, "inconsistency_mask")):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    code, out, _ = run_cli(capsys, "gc-penalty", "--scene", str(plane_scene), "--out", str(tmp_path / "p"),
                           "--d-pixel", "1.0", "0.5", "0.25", "--d-depth", "0.01", "0.005", "0.0025",
                           "--threads", "1")
    assert code == 0
    doc = read_json(out)
    refs = len(doc["views"])
    pairs = sum(len(view["sources"]) for view in doc["views"].values())
    assert refs == 4 and pairs == refs * 3
    assert counts == {"_checks": pairs, "inconsistency_mask": 0}


def test_gc_penalty_stage_count_mismatch(plane_scene, tmp_path, capsys):
    code, _, err = run_cli(capsys, "gc-penalty", "--scene", str(plane_scene),
                           "--out", str(tmp_path / "x"), "--d-pixel", "1.0", "0.5",
                           "--d-depth", "0.01")
    assert code == 3
    assert "same number of stages" in err


def test_gc_penalty_rejects_a_repeated_ref_before_the_scene_is_opened(plane_scene, tmp_path, capsys, monkeypatch):
    # Each reference is checked and written once: a repeated --ref, which
    # read view 1 and its sources twice and wrote its PFMs twice, is exit 3
    # before pair.txt is read or --out made.
    opened = []
    monkeypatch.setattr(views, "load_pairing", opened.append)
    out = tmp_path / "x"
    for refs in (["1", "1"], ["0", "2", "0"]):
        code, stdout, err = run_cli(capsys, "gc-penalty", "--scene", str(plane_scene), "--out", str(out), "--ref", *refs)
        assert (code, stdout) == (3, "")
        assert err == f"mvsgeo: error: --ref names view {refs[0]} more than once\n"
    assert opened == [] and not out.exists()


def test_gc_penalty_one_corrupted_view_of_eight(tmp_path, capsys):
    # One corrupted source among M = 8 adds at most one vote per pixel:
    # the mean penalty lands in (1, 1 + 1/8].
    from mvsgeo import synth

    scene = tmp_path / "scene9"
    code, _, _ = run_cli(capsys, "synth", "--out", str(scene), "--kind", "plane",
                         "--width", "40", "--height", "32", "--views", "9", "--seed", "6")
    assert code == 0
    # Trim the reference depth to the all-view co-visible region so border
    # pixels leaving some frustum do not add votes of their own.
    spec = synth.make_scene("plane", 40, 32, 9, seed=6)
    covis = np.logical_and.reduce([covisibility_mask(spec, 0, s) for s in range(1, 9)])
    ref_path = scene / "depths" / "00000000.pfm"
    ref = formats.read_pfm(ref_path.read_bytes())
    ref_path.write_bytes(formats.write_pfm(formats.PfmImage(np.where(covis, ref.data, 0.0).astype(np.float32))))
    # Corrupt one source view's depths outright.
    bad_path = scene / "depths" / "00000005.pfm"
    bad = formats.read_pfm(bad_path.read_bytes())
    bad_path.write_bytes(formats.write_pfm(formats.PfmImage(bad.data * 1.5)))
    code, out, _ = run_cli(capsys, "gc-penalty", "--scene", str(scene), "--out", str(tmp_path / "p"),
                           "--ref", "0", "--num-sources", "8",
                           "--d-pixel", "1.0", "--d-depth", "0.01")
    assert code == 0
    mean = read_json(out)["views"]["0"]["stages"][0]["mean_penalty"]
    assert 1.0 < mean <= 1.0 + 1.0 / 8.0


@pytest.fixture
def six_view_scene(tmp_path, capsys):
    scene = tmp_path / "scene6"
    code, _, _ = run_cli(capsys, "synth", "--out", str(scene), "--kind", "two-planes",
                         "--width", "80", "--height", "64", "--views", "6", "--seed", "4")
    assert code == 0
    return scene


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_gc_penalty_writes_each_reference_before_the_next(six_view_scene, tmp_path, capsys, monkeypatch, threads):
    # At any --threads one reference is in flight: each is written before
    # the next is checked, and its penalty maps are gone by then.  With
    # one stage, a reference's histogram is derived from its vote counts
    # right after its PFM is written.
    import weakref

    from mvsgeo import cli

    state = {"open": 0, "max": 0}
    maps = []
    compute, histogram = cli.stage_penalties, cli.penalty_histogram

    def counting_compute(*args):
        assert all(ref() is None for ref in maps)  # the previous reference's maps are dropped
        state["open"] += 1
        state["max"] = max(state["max"], state["open"])
        penalties = compute(*args)
        maps.extend(weakref.ref(p) for p in penalties)
        return penalties

    def counting_histogram(*args):
        state["open"] -= 1
        return histogram(*args)

    monkeypatch.setattr(cli, "stage_penalties", counting_compute)
    monkeypatch.setattr(cli, "penalty_histogram", counting_histogram)
    code, out, _ = run_cli(capsys, "gc-penalty", "--scene", str(six_view_scene), "--out", str(tmp_path / "p"),
                           "--d-pixel", "1.0", "--d-depth", "0.01", "--threads", str(threads))
    assert code == 0
    assert state == {"open": 0, "max": 1}
    assert len(read_json(out)["views"]) > threads + 1  # more references than any window
    assert all(ref() is None for ref in maps)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_gc_penalty_checks_references_in_order_on_the_calling_thread(six_view_scene, tmp_path, capsys,
                                                                     monkeypatch, threads):
    # At any --threads each reference is checked on the calling thread, no
    # other thread is started, and the references are checked in the order
    # --ref gives them, each after the PFMs of every earlier one are written.
    import threading

    from mvsgeo import cli, views

    # A reference is known by the view its map was read for.
    caller, before = threading.current_thread(), threading.active_count()
    order = [3, 0, 5, 1]
    out = tmp_path / "p"
    read, compute = views.Scene.depth, cli.stage_penalties
    maps, checked = [], []

    def reading(scene, view, *args):
        depth = read(scene, view, *args)
        maps.append((view, depth))
        return depth

    def recording_compute(d_ref, *args):
        ref_id = next(v for v, d in reversed(maps) if d is d_ref)
        written = sorted(p.name for p in out.glob("penalty_*.pfm"))
        checked.append((ref_id, threading.current_thread(), threading.active_count(), written))
        return compute(d_ref, *args)

    monkeypatch.setattr(views.Scene, "depth", reading)
    monkeypatch.setattr(cli, "stage_penalties", recording_compute)
    code, stdout, _ = run_cli(capsys, "gc-penalty", "--scene", str(six_view_scene), "--out", str(out),
                              "--ref", *map(str, order), "--d-pixel", "1.0", "--d-depth", "0.01",
                              "--threads", str(threads))
    assert code == 0
    assert sorted(map(int, read_json(stdout)["views"])) == sorted(order)
    assert checked == [(r, caller, before, sorted(f"penalty_{e:08d}_stage0.pfm" for e in order[:k]))
                       for k, r in enumerate(order)]


@pytest.mark.parametrize("threads", [1, 3])
def test_gc_penalty_holds_one_reference(six_view_scene, tmp_path, capsys, monkeypatch, threads):
    # After the scene is checked (pair.txt, the cameras and the depth
    # headers), a run holds one reference in flight at any --threads: two
    # depth maps, the reference's and the checked source's, each in a
    # frame its next read overwrites, and one depth read's band buffers;
    # its penalty maps' narrow vote counts, one pair's band scratch and
    # corner map while it is checked, then one stage's float64 masked
    # levels and their float32 copy, or the float64 levels its mean reads,
    # while it is written.  Holding the maps of every reference until the
    # end, as a compute-all-then-write loop does, a float64 map per stage,
    # a pair's full-frame reprojection (25 B/px) or a third depth map
    # exceeds this.  Row bands of 8 rows keep the band scratch small.  The
    # window ends when the summary is emitted: encoding it makes about
    # 100 KB of Python string chunks here, set by the number of references
    # and stages, not by the frame.
    import tracemalloc

    from mvsgeo import cli, views

    w, h, n_stages = 80, 64, 3
    monkeypatch.setattr(reproject, "_BAND_PIXELS", 8 * w)
    load, loaded = views.Scene.__init__, []
    emit, written = cli._emit_json, []

    def loading(*args, **kwargs):
        load(*args, **kwargs)
        loaded.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()

    def emitting(*args):
        written.append(tracemalloc.get_traced_memory()[1])
        return emit(*args)

    monkeypatch.setattr(views.Scene, "__init__", loading)
    monkeypatch.setattr(cli, "_emit_json", emitting)
    argv = ["gc-penalty", "--scene", str(six_view_scene), "--out", str(tmp_path / "p"), "--threads", str(threads)]
    assert run_cli(capsys, *argv)[0] == 0  # first-call allocations out of the measurement
    held = held_path_parts(six_view_scene, tmp_path)  # held through the window
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, *argv)
    finally:
        tracemalloc.stop()
    assert code == 0 and len(read_json(out)["views"]) >= 4
    counts = n_stages * h * w
    stage_map = h * w * 4
    mean_gather = h * w * 8
    scratch = 8 * w * (10 * 8 + 4)
    corner_map = 3 * h * w
    frames = 2 * 5 * h * w
    read_bands = 8 * w * (4 + 1)
    peak = written[-1] - loaded[-1]
    assert peak < counts + stage_map + mean_gather + scratch + corner_map + frames + read_bands, (peak, counts)


def test_gc_penalty_peak_does_not_grow_with_the_view_count(tmp_path, capsys):
    # gc-penalty reads only depth headers before its first reference, then
    # holds two depth maps: the reference's and the checked source's.  So
    # the same four references, each checked against its top four sources,
    # peak alike in a scene of 24 views and in one of 48: within one
    # view's depth and mask (5 B/px) of tracemalloc's peak above the
    # pre-run baseline.  Loading every view before the first reference
    # grows that peak by 24 views' maps.  What still grows with the views
    # is what the check parses, the cameras and pair.txt (where synth
    # lists every other view): about 94 KB from 24 to 48 views here.
    import tracemalloc

    w, h = 256, 192
    peaks = []
    for views in (24, 48):
        scene = tmp_path / f"scene{views}"
        assert run_cli(capsys, "synth", "--out", str(scene), "--kind", "two-planes", "--width", str(w),
                       "--height", str(h), "--views", str(views))[0] == 0
        argv = ["gc-penalty", "--scene", str(scene), "--out", str(tmp_path / f"p{views}"), "--ref", "0", "1", "2", "3",
                "--num-sources", "4"]
        assert run_cli(capsys, *argv)[0] == 0  # first-call allocations out of the measurement
        held = held_path_parts(scene, tmp_path / f"p{views}")  # held through the window
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code = run_cli(capsys, *argv)[0]
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert code == 0
    assert abs(peaks[1] - peaks[0]) < 5 * w * h, peaks


@pytest.mark.parametrize("change", ["reshaped", "3-channel", "truncated"])
def test_gc_penalty_rejects_a_depth_file_changed_after_the_check(six_view_scene, tmp_path, capsys, monkeypatch,
                                                                 change):
    # A source's depth file changes after the up-front check passed it and
    # before its pair reads it: here, as reference 2 is read.  The run
    # exits 3 naming that file, a changed shape found from the header
    # before any byte is read into the reused frame.  References 0 and 1,
    # written before, keep the bytes of an undisturbed run; no NaN is in
    # any output and no summary is written.
    from mvsgeo import views

    argv = ["gc-penalty", "--scene", str(six_view_scene), "--ref", "0", "1", "2", "3", "--num-sources", "2"]
    clean, out = tmp_path / "clean", tmp_path / "out"
    code, stdout, _ = run_cli(capsys, *argv, "--out", str(clean))
    assert code == 0
    victim = six_view_scene / "depths" / f"{read_json(stdout)['views']['2']['sources'][0]:08d}.pfm"
    data = victim.read_bytes()
    changed = {
        "reshaped": formats.write_pfm(formats.PfmImage(np.full((20, 24), 600.0, dtype=np.float32))),
        "3-channel": formats.write_pfm(formats.PfmImage(np.full((64, 80, 3), 600.0, dtype=np.float32))),
        "truncated": data[:len(data) // 2],
    }[change]
    if change == "truncated":
        with pytest.raises(formats.ParseError) as rejected:
            formats.read_pfm(changed)
        message = str(rejected.value)
    else:
        message = f"depth shape {formats.read_pfm(changed).data.shape} is not the (64, 80) it had when the scene was checked"
    read = views.Scene.depth

    def changing(scene, view, *args):
        if view == 2:
            victim.write_bytes(changed)
        return read(scene, view, *args)

    monkeypatch.setattr(views.Scene, "depth", changing)
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (3, "")
    assert err == f"mvsgeo: error: {victim}: {message}\n"
    written = sorted(p.name for p in out.iterdir())
    assert written == [f"penalty_{r:08d}_stage{k}.pfm" for r in (0, 1) for k in range(3)]
    for name in written:
        assert (out / name).read_bytes() == (clean / name).read_bytes()
        assert not np.isnan(formats.read_pfm((out / name).read_bytes()).data).any()


def _two_view_pairs(scene, last_line):
    """pair.txt with references 0, 1 and 2: 0 and 1 check each other, 2 lists `last_line`."""
    (scene / "pair.txt").write_text(f"3\n0\n1 1 1.0\n1\n1 0 1.0\n2\n{last_line}\n")


@pytest.mark.parametrize("case", ["no sources", "mis-shaped source"])
def test_gc_penalty_rejects_the_scene_before_writing(plane_scene, tmp_path, capsys, case):
    # The rejected reference comes last, after two that would compute.
    if case == "no sources":
        _two_view_pairs(plane_scene, "0")
        message = "view 2 has no source views"
    else:
        _two_view_pairs(plane_scene, "1 3 1.0")
        small = np.full((20, 24), 600.0, dtype=np.float32)
        path = plane_scene / "depths" / "00000003.pfm"
        path.write_bytes(formats.write_pfm(formats.PfmImage(small)))
        message = f"{path}: view 3 depth shape (20, 24) does not match view 0 (40, 48)\n"
    out_dir = tmp_path / "pen"
    for threads in ("1", "3"):
        code, out, err = run_cli(capsys, "gc-penalty", "--scene", str(plane_scene), "--out", str(out_dir),
                                 "--threads", threads)
        assert code == 3
        assert out == "" and message in err
        assert list(out_dir.glob("*.pfm")) == [] and not (out_dir / "summary.json").exists()


def test_gc_penalty_checks_the_shape_of_a_source_it_does_not_use(plane_scene, tmp_path, capsys):
    # Reference 0's second source, view 3, has a depth file of another
    # shape.  With --num-sources 1 view 3 is named in pair.txt but not
    # used; the scene has one depth shape all the same, so the run exits 3
    # at open, naming view 3's file, as with every source.  A reference
    # with no source exits 3 naming it.  No file is written.
    (plane_scene / "pair.txt").write_text("1\n0\n2 1 1.0 3 0.5\n")
    small = np.full((20, 24), 600.0, dtype=np.float32)
    path = plane_scene / "depths" / "00000003.pfm"
    path.write_bytes(formats.write_pfm(formats.PfmImage(small)))
    argv = ["gc-penalty", "--scene", str(plane_scene), "--d-pixel", "1.0", "--d-depth", "0.01"]
    for out, m in (("m1", ["--num-sources", "1"]), ("all", [])):
        code, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path / out), *m)
        assert (code, stdout) == (3, "")
        assert err == f"mvsgeo: error: {path}: view 3 depth shape (20, 24) does not match view 0 (40, 48)\n"
    (plane_scene / "pair.txt").write_text("2\n0\n1 1 1.0\n1\n0\n")
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "none"), "--num-sources", "1")
    assert (code, out, err) == (3, "", "mvsgeo: error: view 1 has no source views in pair.txt\n")
    assert not any((tmp_path / out).exists() for out in ("m1", "all", "none"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("command, flags", [
    ("gc-penalty", ("--d-pixel={}", "--d-depth=0.01")),
    ("gc-penalty", ("--d-pixel=1", "--d-depth={}")),
    ("fuse", ("--disp-thresh={}",)),
    ("fuse", ("--depth-thresh={}",)),
])
def test_thresholds_must_be_finite_and_positive_before_writing(plane_scene, tmp_path, capsys, command, flags, value):
    # A NaN threshold passes no check (fuse returned an empty cloud), an
    # infinite one reached summary.json after every PFM was written.
    out = tmp_path / "out"
    target = str(out) if command == "gc-penalty" else str(out / "cloud.ply")
    code, stdout, err = run_cli(capsys, command, "--scene", str(plane_scene), "--out", target,
                                *(flag.format(value) for flag in flags))
    assert code == 3
    assert stdout == "" and "finite and" in err
    assert not out.exists()


def test_synth_casts_each_views_rays_once(tmp_path, capsys, monkeypatch):
    from mvsgeo import synth

    calls = []
    first_hit = synth._first_hit

    def counting(*args):
        calls.append(1)
        return first_hit(*args)

    monkeypatch.setattr(synth, "_first_hit", counting)
    code, _, _ = run_cli(capsys, "synth", "--out", str(tmp_path / "s"), "--kind", "two-planes",
                         "--width", "24", "--height", "16", "--views", "3")
    assert code == 0
    assert len(calls) == 3


def test_missing_scene_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gc-penalty", "--scene", str(tmp_path / "nope"),
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert "pair.txt" in err


def test_fuse_and_eval_pipeline(plane_scene, tmp_path, capsys):
    cloud_path = tmp_path / "cloud.ply"
    code, out, _ = run_cli(capsys, "fuse", "--scene", str(plane_scene), "--out", str(cloud_path),
                           "--prob-thresh", "0.5", "--num-consistent", "2")
    assert code == 0
    n_points = read_json(out)["points"]
    assert n_points > 1000
    code, out, _ = run_cli(capsys, "eval-pc", "--pred", str(cloud_path),
                           "--gt", str(plane_scene / "gt_cloud.ply"), "--max-dist", "1e-5")
    assert code == 0
    doc = read_json(out)
    assert doc["accuracy"] < 1e-5
    assert doc["completeness"] < 1e-5
    assert doc["overall"] == pytest.approx((doc["accuracy"] + doc["completeness"]) / 2)


def test_eval_pc_threads_identical_json(plane_scene, tmp_path, capsys):
    cloud_path = tmp_path / "cloud.ply"
    assert run_cli(capsys, "fuse", "--scene", str(plane_scene), "--out", str(cloud_path),
                   "--num-consistent", "2")[0] == 0
    docs = []
    for t in ("1", "2"):
        json_path = tmp_path / f"eval_{t}.json"
        code, out, _ = run_cli(capsys, "eval-pc", "--pred", str(cloud_path),
                               "--gt", str(plane_scene / "gt_cloud.ply"), "--max-dist", "1.0",
                               "--threads", t, "--out", str(json_path))
        assert code == 0
        docs.append(json_path.read_bytes())
    assert docs[0] == docs[1]


def test_fuse_threads_bit_identical(plane_scene, tmp_path, capsys):
    paths = []
    for t in ("1", "3"):
        p = tmp_path / f"cloud_{t}.ply"
        code, _, _ = run_cli(capsys, "fuse", "--scene", str(plane_scene), "--out", str(p),
                             "--num-consistent", "2", "--threads", t)
        assert code == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_fuse_checks_the_threshold_pair_only_in_the_mode_that_reads_it(plane_scene, tmp_path, capsys):
    # Dynamic mode takes its thresholds from its table: a pair it would
    # reject in fusibile mode leaves its PLY byte for byte the default one.
    def fuse(name, mode, *extra):
        return run_cli(capsys, "fuse", "--scene", str(plane_scene), "--out", str(tmp_path / name),
                       "--mode", mode, "--num-consistent", "2", *extra)[0]

    bad = ("--disp-thresh", "-1", "--depth-thresh", "0")
    assert fuse("default.ply", "dynamic") == 0
    assert fuse("bad.ply", "dynamic", *bad) == 0
    assert (tmp_path / "bad.ply").read_bytes() == (tmp_path / "default.ply").read_bytes()
    assert fuse("fusibile.ply", "fusibile", *bad) == 3
    assert not (tmp_path / "fusibile.ply").exists()


def test_fuse_ascii_output(plane_scene, tmp_path, capsys):
    p = tmp_path / "cloud_ascii.ply"
    code, _, _ = run_cli(capsys, "fuse", "--scene", str(plane_scene), "--out", str(p),
                         "--num-consistent", "2", "--ascii")
    assert code == 0
    assert p.read_bytes().startswith(b"ply\nformat ascii 1.0\n")


def test_fuse_compares_float32_confidence_in_float64(plane_scene, tmp_path, capsys):
    # float32(0.1) is 0.10000000149: above --prob-thresh 0.1 in float64,
    # equal to it in float32.  Those pixels fuse as confidence 1 does, and
    # the 0.05 ones as 0 does, in both modes, both averages and at
    # --threads 1 and 3.
    rng = np.random.default_rng(7)
    ones = tmp_path / "ones"
    shutil.copytree(plane_scene, ones)
    for v in range(4):
        high = rng.random((40, 48)) < 0.7
        for scene, levels in ((plane_scene, (0.05, 0.1)), (ones, (0.0, 1.0))):
            conf = np.where(high, np.float32(levels[1]), np.float32(levels[0])).astype(np.float32)
            (scene / "confidence" / f"{v:08d}.pfm").write_bytes(formats.write_pfm(formats.PfmImage(conf)))
    for mode in ("fusibile", "dynamic"):
        for average in ("mean", "median"):
            for threads in ("1", "3"):
                clouds = []
                for scene in (plane_scene, ones):
                    path = tmp_path / f"{scene.name}_{mode}_{average}_{threads}.ply"
                    assert run_cli(capsys, "fuse", "--scene", str(scene), "--out", str(path), "--mode", mode,
                                   "--average", average, "--prob-thresh", "0.1", "--num-consistent", "2",
                                   "--threads", threads)[0] == 0
                    clouds.append(path.read_bytes())
                assert clouds[0] == clouds[1], (mode, average, threads)
                assert formats.read_ply(clouds[0]).points.shape[0] > 500


def test_only_fuse_reads_confidence_maps(plane_scene, tmp_path, capsys):
    # synth writes depth validity as confidence, so fuse without the
    # confidence files (their fallback) gives the same cloud.  Unreadable
    # confidence files stop fuse but not gc-penalty or warp, which never
    # read them.
    def cloud(name):
        return "fuse", "--scene", str(plane_scene), "--out", str(tmp_path / name), "--num-consistent", "2"

    assert run_cli(capsys, *cloud("with.ply"))[0] == 0
    shutil.rmtree(plane_scene / "confidence")
    assert run_cli(capsys, *cloud("without.ply"))[0] == 0
    assert (tmp_path / "with.ply").read_bytes() == (tmp_path / "without.ply").read_bytes()
    (plane_scene / "confidence").mkdir()
    for v in range(4):
        (plane_scene / "confidence" / f"{v:08d}.pfm").write_bytes(b"not a pfm")
    assert run_cli(capsys, *cloud("broken.ply"))[0] == 3
    assert run_cli(capsys, "gc-penalty", "--scene", str(plane_scene), "--out", str(tmp_path / "pen"))[0] == 0
    assert run_cli(capsys, "warp", "--scene", str(plane_scene), "--ref", "0", "--src", "1",
                   "--out", str(tmp_path / "warp"))[0] == 0


@pytest.mark.parametrize("command", ["gc-penalty", "fuse", "warp"])
def test_a_garbage_depth_of_a_third_view_stops_every_scene_command(plane_scene, tmp_path, capsys, command):
    # gc-penalty, fuse and warp open the whole scene: a garbage depth PFM
    # of view 2 stops warp --ref 0 --src 1 too, named as the other two
    # name it, before any output is made.
    path = plane_scene / "depths" / "00000002.pfm"
    path.write_bytes(b"not a pfm")
    with pytest.raises(ValueError) as rejected:
        _depth_of(path.read_bytes())
    argv = {"gc-penalty": [], "fuse": ["--num-consistent", "2"], "warp": ["--ref", "0", "--src", "1"]}[command]
    out = tmp_path / "out"
    target = out / "cloud.ply" if command == "fuse" else out
    code, stdout, err = run_cli(capsys, command, "--scene", str(plane_scene), "--out", str(target), *argv)
    assert (code, stdout) == (3, "")
    assert err == f"mvsgeo: error: {path}: {rejected.value}\n"
    assert not out.exists()


def test_warp_view_missing_from_the_scene_exits_2(plane_scene, tmp_path, capsys):
    code, out, err = run_cli(capsys, "warp", "--scene", str(plane_scene), "--ref", "0", "--src", "9",
                             "--out", str(tmp_path / "warp"))
    assert code == 2
    assert out == ""
    assert "view 9 not present" in err
    assert not (tmp_path / "warp").exists()


def test_eval_depth_cli(plane_scene, tmp_path, capsys):
    d0 = plane_scene / "depths" / "00000000.pfm"
    code, out, _ = run_cli(capsys, "eval-depth", "--pred", str(d0), "--gt", str(d0))
    assert code == 0
    doc = read_json(out)
    assert doc["epe"] == 0.0 and doc["e1"] == 0.0 and doc["e3"] == 0.0
    # perturbed copy: known error statistics
    img = formats.read_pfm(d0.read_bytes())
    data = img.data.copy()
    data[0, 0] += 2.0
    data[0, 1] += 4.0
    pred_path = tmp_path / "pred.pfm"
    pred_path.write_bytes(formats.write_pfm(formats.PfmImage(data)))
    code, out, _ = run_cli(capsys, "eval-depth", "--pred", str(pred_path), "--gt", str(d0))
    doc = read_json(out)
    n = doc["n_valid"]
    assert doc["e1"] == pytest.approx(2 / n)
    assert doc["e3"] == pytest.approx(1 / n)


@pytest.mark.parametrize("role, flag, data", [
    ("ground truth", "--gt", np.ones((4, 4))),
    ("mask", "--mask", np.ones((4, 4))),
    ("mask", "--mask", np.ones((40, 48, 3))),
], ids=["gt-size", "mask-size", "mask-channels"])
def test_eval_depth_rejects_a_mismatched_input_by_name(plane_scene, tmp_path, capsys, role, flag, data):
    # Each input is checked against the prediction's 40 x 48 frame before
    # any arithmetic: exit 3 naming both files and both shapes, nothing on
    # stdout, rather than numpy's broadcast error.
    d0 = str(plane_scene / "depths" / "00000000.pfm")
    bad = tmp_path / "bad.pfm"
    bad.write_bytes(formats.write_pfm(formats.PfmImage(data.astype(np.float32))))
    argv = ["eval-depth", "--pred", d0, "--gt", d0, flag, str(bad)]
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out.json"))
    assert code == 3
    assert out == "" and not (tmp_path / "out.json").exists()
    assert f"{role} {bad} has shape {data.shape}, the prediction {d0} needs (40, 48)" in err
    assert "broadcast" not in err


def test_warp_rejects_a_view_as_its_own_source_before_the_scene_is_opened(plane_scene, tmp_path, capsys,
                                                                         monkeypatch):
    # pair.txt lists no reference among its own sources, so no other
    # command checks a view against itself: `warp --src` equal to --ref is
    # exit 3 before pair.txt is read or --out made, as a repeated
    # gc-penalty --ref is.
    opened = []
    monkeypatch.setattr(views, "load_pairing", opened.append)
    out = tmp_path / "warp"
    code, stdout, err = run_cli(capsys, "warp", "--scene", str(plane_scene), "--ref", "2", "--src", "2",
                                "--out", str(out))
    assert (code, stdout) == (3, "")
    assert err == "mvsgeo: error: --src names the reference view 2: a view is not its own source\n"
    assert opened == [] and not out.exists()


def test_warp_cli(plane_scene, tmp_path, capsys):
    out_dir = tmp_path / "warp"
    code, out, _ = run_cli(capsys, "warp", "--scene", str(plane_scene), "--ref", "0",
                           "--src", "1", "--out", str(out_dir))
    assert code == 0
    doc = read_json(out)
    assert doc["valid_pixels"] > 500
    assert doc["max_pde"] < 1e-4
    assert doc["max_rdd"] < 1e-6
    for stem in ("reproj_depth", "reproj_x", "reproj_y", "reproj_valid"):
        assert (out_dir / f"{stem}_00000000_00000001.pfm").exists()


def test_warp_statistics_are_the_pair_check_formula_bitwise(tmp_path, capsys):
    # mean/max PDE and RDD in warp's JSON are sqrt(dx**2 + dy**2) and
    # |d'' - d| / d over fbr's valid pixels, to the last bit; the occluder
    # scene makes them far from zero, and its max_pde is one where
    # np.hypot would differ in the last bit.
    from mvsgeo.camera import pixel_grid
    from mvsgeo.reproject import fbr

    scene = tmp_path / "scene"
    code, _, _ = run_cli(capsys, "synth", "--out", str(scene), "--kind", "two-planes",
                         "--width", "48", "--height", "40", "--views", "3", "--seed", "0")
    assert code == 0
    code, out, _ = run_cli(capsys, "warp", "--scene", str(scene), "--ref", "0", "--src", "1",
                           "--out", str(tmp_path / "warp"))
    assert code == 0
    doc = read_json(out)
    cams, depths = [], []
    for v in (0, 1):
        cams.append(formats.read_cam((scene / "cams" / f"{v:08d}_cam.txt").read_text()))
        depths.append(formats.depth_from_pfm(formats.read_pfm((scene / "depths" / f"{v:08d}.pfm").read_bytes())))
    d_back, p_back = fbr(depths[0], cams[0], depths[1], cams[1])
    ok = d_back.valid
    xs, ys = pixel_grid(40, 48)
    pde = np.sqrt((p_back.x - xs) ** 2 + (p_back.y - ys) ** 2)[ok]
    rdd = np.abs(d_back.values - depths[0].values)[ok] / depths[0].values[ok]
    assert doc["valid_pixels"] == int(ok.sum()) > 0
    assert (doc["mean_pde"], doc["max_pde"]) == (float(pde.mean()), float(pde.max()))
    assert (doc["mean_rdd"], doc["max_rdd"]) == (float(rdd.mean()), float(rdd.max()))
    assert doc["max_pde"] > 1.0 and doc["max_rdd"] > 0.01


def _outputs(root):
    """Every file under root, by its path relative to root, as bytes."""
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(synth.PRESET_SCENES), w=st.integers(2, 14), h=st.integers(1, 9),
       seed=st.integers(0, 2**16), first_threads=st.sampled_from([1, 2]))
def test_gc_penalty_and_warp_outputs_do_not_depend_on_the_band_size(tmp_path_factory, capsys, kind, w, h, seed,
                                                                     first_threads):
    # Bands of one pixel (one row), W - 1, W + 1 and the default, with
    # gc-penalty's reference loop alternating between the serial and the
    # pool path: every gc-penalty and warp output byte, and warp's JSON
    # but for its out path, is the same.
    scene = tmp_path_factory.mktemp("scene")
    assert main(["synth", "--out", str(scene), "--kind", kind, "--width", str(w), "--height", str(h),
                 "--views", "3", "--seed", str(seed)]) == 0
    capsys.readouterr()
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        for i, band in enumerate((1, w - 1, w + 1, reproject._BAND_PIXELS)):
            mp.setattr(reproject, "_BAND_PIXELS", band)
            out = tmp_path_factory.mktemp("out")
            threads = str(first_threads if i % 2 == 0 else 3 - first_threads)
            assert main(["gc-penalty", "--scene", str(scene), "--out", str(out / "pen"), "--threads", threads]) == 0
            capsys.readouterr()
            assert main(["warp", "--scene", str(scene), "--ref", "1", "--src", "2", "--out", str(out / "warp")]) == 0
            warp_doc = read_json(capsys.readouterr().out)
            del warp_doc["out"]
            runs.append((_outputs(out), warp_doc))
    assert all(run == runs[0] for run in runs[1:])


def _finite_json(text):
    def reject(constant):
        raise AssertionError(f"non-finite JSON value {constant}")

    return json.loads(text, parse_constant=reject)


def test_non_finite_input_depths_are_invalid(plane_scene, tmp_path, capsys):
    # +inf, -inf and NaN pixels in one view's depth PFM are invalid depths:
    # no command may warn on them or carry them into an output file.
    bad = [(5, 5, np.inf), (10, 20, -np.inf), (20, 30, np.nan)]
    path = plane_scene / "depths" / "00000001.pfm"
    data = formats.read_pfm(path.read_bytes()).data.copy()
    for i, j, value in bad:
        data[i, j] = value
    path.write_bytes(formats.write_pfm(formats.PfmImage(data)))
    depth = formats.depth_from_pfm(formats.read_pfm(path.read_bytes()))
    assert not any(depth.valid[i, j] for i, j, _ in bad)
    assert np.isfinite(depth.values).all()

    pen_dir, cloud, warp_dir = tmp_path / "pen", tmp_path / "cloud.ply", tmp_path / "warp"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        runs = [
            ("gc-penalty", "--scene", str(plane_scene), "--out", str(pen_dir)),
            ("fuse", "--scene", str(plane_scene), "--out", str(cloud), "--num-consistent", "2"),
            ("warp", "--scene", str(plane_scene), "--ref", "1", "--src", "0", "--out", str(warp_dir)),
        ]
        for argv in runs:
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
            _finite_json(out)

    _finite_json((pen_dir / "summary.json").read_text())
    for pfm in sorted(pen_dir.glob("*.pfm")) + sorted(warp_dir.glob("*.pfm")):
        assert np.isfinite(formats.read_pfm(pfm.read_bytes()).data).all(), pfm.name
    assert np.isfinite(formats.read_ply(cloud.read_bytes()).points).all()
    for pfm in (pen_dir / "penalty_00000001_stage0.pfm", warp_dir / "reproj_valid_00000001_00000000.pfm"):
        grid = formats.read_pfm(pfm.read_bytes()).data
        assert all(grid[i, j] == 0 for i, j, _ in bad), pfm.name


def test_loss_cli_hand_values(tmp_path, capsys):
    h, w, d = 2, 2, 4
    probs = np.zeros((d, h, w))
    probs[1] = 1.0  # all mass on bin 1 (depth 550)
    hyp = np.array([425.0, 550.0, 700.0, 935.0])
    vol_path = tmp_path / "vol.bin"
    vol_path.write_bytes(formats.write_probability_volume(ProbabilityVolume(probs, hyp)))
    gt = np.full((h, w), 550.0, dtype=np.float32)
    gt_path = tmp_path / "gt.pfm"
    gt_path.write_bytes(formats.write_pfm(formats.PfmImage(gt)))
    pen = np.full((h, w), 1.5, dtype=np.float32)
    pen_path = tmp_path / "pen.pfm"
    pen_path.write_bytes(formats.write_pfm(formats.PfmImage(pen)))
    code, out, _ = run_cli(capsys, "loss", "--probvol", str(vol_path), "--gt", str(gt_path),
                           "--penalty", str(pen_path))
    assert code == 0
    doc = read_json(out)
    assert doc["stage_losses"][0] == 0.0  # -log(1) weighted by anything
    assert doc["total_loss"] == 0.0
    # ground truth on a different bin with p = 0: floored log, weighted by 1.5
    gt2 = np.full((h, w), 935.0, dtype=np.float32)
    gt2_path = tmp_path / "gt2.pfm"
    gt2_path.write_bytes(formats.write_pfm(formats.PfmImage(gt2)))
    code, out, _ = run_cli(capsys, "loss", "--probvol", str(vol_path), "--gt", str(gt2_path),
                           "--penalty", str(pen_path), "--alpha", "2.0")
    doc = read_json(out)
    expected_stage = 1.5 * -np.log(1e-12)
    assert doc["stage_losses"][0] == pytest.approx(expected_stage, rel=1e-6)
    assert doc["total_loss"] == pytest.approx(2.0 * expected_stage, rel=1e-6)


def test_loss_cli_three_stages_total(tmp_path, capsys):
    h, w, d = 1, 2, 2
    files = []
    for k in range(3):
        probs = np.full((d, h, w), 0.5)
        hyp = np.array([100.0, 200.0])
        vol_path = tmp_path / f"vol{k}.bin"
        vol_path.write_bytes(formats.write_probability_volume(ProbabilityVolume(probs, hyp)))
        gt_path = tmp_path / f"gt{k}.pfm"
        gt_path.write_bytes(formats.write_pfm(formats.PfmImage(np.full((h, w), 150.0, dtype=np.float32))))
        pen_path = tmp_path / f"pen{k}.pfm"
        pen_path.write_bytes(formats.write_pfm(formats.PfmImage(np.ones((h, w), dtype=np.float32))))
        files.append((vol_path, gt_path, pen_path))
    code, out, _ = run_cli(capsys, "loss",
                           "--probvol", *[str(f[0]) for f in files],
                           "--gt", *[str(f[1]) for f in files],
                           "--penalty", *[str(f[2]) for f in files])
    assert code == 0
    doc = read_json(out)
    per_stage = float(-np.log(np.float32(0.5)).astype(np.float64))
    assert doc["stage_losses"] == pytest.approx([per_stage] * 3, rel=1e-6)
    assert doc["total_loss"] == pytest.approx(4 * per_stage, rel=1e-6)
    assert doc["total_loss"] == total_loss(doc["stage_losses"], StageWeights())
    # A non-finite stage loss exits 3 at total_loss, before any output.
    pen = np.ones((h, w), dtype=np.float32)
    pen[0, 0] = np.inf
    files[2][2].write_bytes(formats.write_pfm(formats.PfmImage(pen)))
    code, out, err = run_cli(capsys, "loss",
                             "--probvol", *[str(f[0]) for f in files],
                             "--gt", *[str(f[1]) for f in files],
                             "--penalty", *[str(f[2]) for f in files])
    assert code == 3
    assert out == "" and "stage losses must be finite" in err


@pytest.mark.parametrize("field, index, value", [
    ("probs", (1, 0, 1), np.nan),
    ("hypotheses", (3,), np.inf),
    ("hypotheses", (1,), np.nan),
])
def test_loss_cli_rejects_non_finite_volumes(tmp_path, capsys, field, index, value):
    d, h, w = 4, 2, 2
    arrays = {"probs": np.full((d, h, w), 0.25, dtype=np.float32),
              "hypotheses": np.array([100.0, 200.0, 300.0, 400.0], dtype=np.float32)}
    arrays[field][index] = value
    header = f"PROBVOL\n{d} {h} {w}\nshared\n".encode()
    vol_path = tmp_path / "vol.bin"
    vol_path.write_bytes(header + arrays["hypotheses"].tobytes() + arrays["probs"].tobytes())
    gt_path = tmp_path / "gt.pfm"
    gt_path.write_bytes(formats.write_pfm(formats.PfmImage(np.full((h, w), 250.0, dtype=np.float32))))
    pen_path = tmp_path / "pen.pfm"
    pen_path.write_bytes(formats.write_pfm(formats.PfmImage(np.ones((h, w), dtype=np.float32))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "loss", "--probvol", str(vol_path), "--gt", str(gt_path),
                                 "--penalty", str(pen_path))
    assert code == 3
    assert out == ""
    assert "must be finite" in err and f"byte offset {len(header)}" in err


def test_loss_cli_empty_volume_file_is_a_parse_error(plane_scene, tmp_path, capsys):
    # The header reader finds no first line and says so.
    argv = _plane_loss_argv(plane_scene, tmp_path)
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    argv[argv.index("--probvol") + 1] = str(empty)
    code, out, err = run_cli(capsys, "loss", *argv)
    assert code == 3
    assert out == ""
    assert "truncated probability volume header (byte offset 0)" in err


def _plane_loss_argv(plane_scene, tmp_path, penalty=1.0):
    """`loss` arguments for view 0 of plane_scene: a uniform 2-bin volume and a constant penalty."""
    vol = tmp_path / "vol.bin"
    vol.write_bytes(formats.write_probability_volume(
        ProbabilityVolume(np.full((2, 40, 48), 0.5), np.array([1.0, 1e6]))))
    ones = tmp_path / "ones.pfm"
    ones.write_bytes(formats.write_pfm(formats.PfmImage(np.full((40, 48), penalty, dtype=np.float32))))
    return ["--probvol", str(vol), "--gt", str(plane_scene / "depths" / "00000000.pfm"),
            "--penalty", str(ones)]


def test_json_out_creates_parent_directories(plane_scene, tmp_path, capsys):
    d0 = str(plane_scene / "depths" / "00000000.pfm")
    cloud = tmp_path / "cloud.ply"
    assert run_cli(capsys, "fuse", "--scene", str(plane_scene), "--out", str(cloud),
                   "--num-consistent", "2")[0] == 0
    commands = {
        "loss": _plane_loss_argv(plane_scene, tmp_path),
        "eval-pc": ["--pred", str(cloud), "--gt", str(plane_scene / "gt_cloud.ply"), "--max-dist", "1.0"],
        "eval-depth": ["--pred", d0, "--gt", d0],
    }
    for name, argv in commands.items():
        json_path = tmp_path / "new" / name / "out.json"
        code, out, err = run_cli(capsys, name, *argv, "--out", str(json_path))
        assert code == 0, err
        assert json_path.read_text() == out
        read_json(out)


@pytest.mark.parametrize("command", ["eval-pc", "loss"])
def test_non_finite_json_value_exits_3(plane_scene, tmp_path, capsys, command):
    if command == "eval-pc":
        # An infinite --max-dist would be written to the JSON: it is
        # rejected before either cloud is read.
        gt_cloud = str(plane_scene / "gt_cloud.ply")
        argv = ["eval-pc", "--pred", gt_cloud, "--gt", gt_cloud, "--max-dist", "inf"]
    else:
        # Finite weights only (an infinite one is rejected before any
        # read): 1e308 times the stage loss, 4 log 2, overflows the total.
        argv = ["loss", *_plane_loss_argv(plane_scene, tmp_path, penalty=4.0), "--alpha", "1e308"]
    json_path = tmp_path / "out.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(json_path))
    assert code == 3
    assert out == "" and not json_path.exists()
    assert ("--max-dist must be finite" if command == "eval-pc" else "total loss overflows") in err


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", "/tmp/x", "--bogus-flag"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage" in err


@pytest.mark.parametrize("argv", [
    ["synth"],
    ["warp", "--scene", "s", "--ref", "0", "--src", "1"],
    ["eval-depth", "--pred", "a.pfm", "--gt", "b.pfm"],
])
def test_threads_is_a_usage_error_where_it_was_never_used(argv, tmp_path, capsys):
    # Only gc-penalty, loss, fuse and eval-pc take --threads.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out), "--threads", "1"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gc-penalty", "--scene", "s", "--out", "o", "--threads", "0"],
    ["eval-pc", "--pred", "a.ply", "--gt", "b.ply", "--max-dist", "1", "--threads", "-1"],
    ["gc-penalty", "--scene", "s", "--out", "o", "--num-sources", "-1"],
    ["synth", "--views", "1"],
    ["synth", "--views", "0"],
    ["synth", "--views", "-2"],
    ["synth", "--width", "0"],
    ["synth", "--height", "-1"],
    ["fuse", "--scene", "s", "--num-consistent", "0"],
])
def test_bad_counts_exit_1(argv, tmp_path, capsys):
    # A count is checked as the command line is parsed, before anything is
    # read or written: synth makes no --out.
    out = tmp_path / "out"
    if argv[0] in ("synth", "fuse"):
        argv = [*argv, "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "must be >=" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_command_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_idempotent_reruns(plane_scene, tmp_path, capsys):
    out_dir = tmp_path / "pen"
    args = ("gc-penalty", "--scene", str(plane_scene), "--out", str(out_dir),
            "--d-pixel", "1.0", "--d-depth", "0.01", "--ref", "0")
    assert run_cli(capsys, *args)[0] == 0
    first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert run_cli(capsys, *args)[0] == 0
    second = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert first == second


def test_threads_default_to_1_and_no_environment_variable_sets_them(plane_scene, tmp_path, monkeypatch, capsys):
    # --threads alone sets the worker count, 1 unless given: an
    # environment variable such as MVSGEO_THREADS changes no worker count
    # and no output byte.
    from mvsgeo import cli

    seen = []
    real = cli.evaluate_point_clouds

    def recording(pred, gt, max_dist, workers=1):
        seen.append(workers)
        return real(pred, gt, max_dist, workers=workers)

    monkeypatch.setattr(cli, "evaluate_point_clouds", recording)
    cloud = str(plane_scene / "gt_cloud.ply")
    argv = ["eval-pc", "--pred", cloud, "--gt", cloud, "--max-dist", "1"]
    pen = ["gc-penalty", "--scene", str(plane_scene)]
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, *argv, "--threads", "4")[0] == 0
    assert run_cli(capsys, *pen, "--out", str(tmp_path / "pen"))[0] == 0
    monkeypatch.setenv("MVSGEO_THREADS", "3")
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, *pen, "--out", str(tmp_path / "pen_env"))[0] == 0
    assert seen == [1, 4, 1]
    files = sorted(p.name for p in (tmp_path / "pen").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "pen_env").iterdir()) and "summary.json" in files
    for name in files:
        assert (tmp_path / "pen" / name).read_bytes() == (tmp_path / "pen_env" / name).read_bytes(), name


def test_bad_thread_count_text_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gc-penalty", "--scene", "s", "--out", "o", "--threads", "x"])
    assert exc.value.code == 1
    assert "invalid int value: 'x'" in capsys.readouterr().err


def test_gc_penalty_reference_missing_from_pair_file_exits_2(plane_scene, tmp_path, capsys):
    out_dir = tmp_path / "pen"
    code, out, err = run_cli(capsys, "gc-penalty", "--scene", str(plane_scene), "--out", str(out_dir), "--ref", "9")
    assert (code, out) == (2, "")
    assert err == f"mvsgeo: missing input: view 9 not present in {plane_scene / 'pair.txt'}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command, out", [("fuse", "cloud.ply"), ("gc-penalty", "pen"), ("warp", "warp")])
def test_a_reference_listed_twice_in_pair_file_exits_3(plane_scene, tmp_path, capsys, command, out):
    # Listed twice, reference 0 was fused twice, as two views (6261 points
    # on a 64x48 plane scene against 3242), and gc-penalty used the later
    # listing.
    pair = plane_scene / "pair.txt"
    count, *lines = pair.read_text().split("\n")
    pair.write_text("\n".join([str(int(count) + 1), *lines[:-1], *lines[:2]]) + "\n")
    argv = {"fuse": ["--num-consistent", "2"], "gc-penalty": [], "warp": ["--ref", "0", "--src", "1"]}[command]
    code, stdout, err = run_cli(capsys, command, "--scene", str(plane_scene), "--out", str(tmp_path / out), *argv)
    assert (code, stdout) == (3, "")
    assert err == f"mvsgeo: error: {pair}: reference view 0 listed twice (line {2 * int(count) + 2})\n"
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("command, argv", [("fuse", ["--num-consistent", "2"]), ("warp", ["--ref", "3", "--src", "0"])])
def test_fuse_and_warp_check_the_scene_before_reading_a_depth(plane_scene, tmp_path, capsys, monkeypatch, command,
                                                              argv):
    # fuse and warp check their views up front, as gc-penalty does: the
    # last view's 3-channel depth file is rejected by name before any
    # depth map is read (both would read view 0's first) and before any
    # output is made.
    victim = plane_scene / "depths" / "00000003.pfm"
    victim.write_bytes(CORRUPTIONS["3-channel"](victim.read_bytes()))
    with pytest.raises(ValueError) as rejected:
        _depth_of(victim.read_bytes())
    depth, reads = formats._PfmFile.depth, []

    def reading(pfm, *args):
        reads.append(pfm)
        return depth(pfm, *args)

    monkeypatch.setattr(formats._PfmFile, "depth", reading)
    out = tmp_path / "out"
    target = out / "cloud.ply" if command == "fuse" else out
    code, stdout, err = run_cli(capsys, command, "--scene", str(plane_scene), "--out", str(target), *argv)
    assert (code, stdout, reads) == (3, "", [])
    assert err == f"mvsgeo: error: {victim}: {rejected.value}\n"
    assert not out.exists()


def _pfm_of_shape(path, shape):
    path.write_bytes(formats.write_pfm(formats.PfmImage(np.ones(shape, dtype=np.float32))))


@pytest.mark.parametrize("case", ["reference with no reference source", "mis-shaped reference",
                                  "mis-shaped source-only view"])
def test_fuse_checks_the_sources_as_gc_penalty_does(plane_scene, tmp_path, capsys, monkeypatch, case):
    # fuse checks each reference for sources by gc-penalty's check
    # (Scene.source_views), before any depth is read, and names the faulty
    # view by its id.  Reference 3's one source, view 1, is no reference,
    # so fuse would check 3 against nothing; fusion.fuse named it "view 2",
    # its list index.  A view of another shape, a source-only one too, is
    # rejected as the scene is opened, by its file; it was found only as
    # fusion.fuse compared the loaded maps, naming no file or view.
    pair, depths = plane_scene / "pair.txt", plane_scene / "depths"
    if case == "reference with no reference source":
        pair.write_text("3\n0\n2 1 1.0 2 1.0\n2\n2 0 1.0 1 1.0\n3\n1 1 1.0\n")
        message = "view 3 has no source views among the references in pair.txt"
    elif case == "mis-shaped reference":
        _pfm_of_shape(depths / "00000002.pfm", (20, 24))
        message = f"{depths / '00000002.pfm'}: view 2 depth shape (20, 24) does not match view 0 (40, 48)"
    else:
        pair.write_text("3\n0\n2 1 1.0 2 1.0\n2\n2 0 1.0 1 1.0\n3\n2 0 1.0 1 1.0\n")
        _pfm_of_shape(depths / "00000001.pfm", (20, 24))
        message = f"{depths / '00000001.pfm'}: view 1 depth shape (20, 24) does not match view 0 (40, 48)"
    depth, reads = formats._PfmFile.depth, []

    def reading(pfm, *args):
        reads.append(pfm)
        return depth(pfm, *args)

    monkeypatch.setattr(formats._PfmFile, "depth", reading)
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "fuse", "--scene", str(plane_scene), "--out", str(out / "cloud.ply"),
                                "--num-consistent", "1")
    assert (code, stdout, err, reads) == (3, "", f"mvsgeo: error: {message}\n", [])
    assert not out.exists()


_SCENE_ARGV = {"gc-penalty": [], "fuse": ["--num-consistent", "1"], "warp": ["--ref", "0", "--src", "1"]}


def _scene_verdict(capsys, command, scene, out):
    """A scene command's (exit code, stdout, stderr) on scene, its output under the directory out."""
    target = out / "cloud.ply" if command == "fuse" else out
    return run_cli(capsys, command, "--scene", str(scene), "--out", str(target), *_SCENE_ARGV[command])


def test_a_scene_of_two_depth_shapes_stops_every_scene_command_at_open(tmp_path, capsys, monkeypatch):
    # Views 0 and 1 check each other at 48 x 64, views 2 and 3 at 24 x 32,
    # with no confidence maps, so no pair compares two shapes.  The scene
    # still has two: each command stops as the scene is opened, with one
    # message naming the first depth file of another shape, before any
    # depth payload is read or output made.
    scene = tmp_path / "scene"
    assert main(["synth", "--out", str(scene), "--kind", "two-planes", "--width", "64", "--height", "48",
                 "--views", "4"]) == 0
    capsys.readouterr()
    (scene / "pair.txt").write_text("4\n0\n1 1 1.0\n1\n1 0 1.0\n2\n1 3 1.0\n3\n1 2 1.0\n")
    for view in (2, 3):
        path = scene / "depths" / f"{view:08d}.pfm"
        path.write_bytes(formats.write_pfm(formats.PfmImage(formats.read_pfm(path.read_bytes()).data[::2, ::2])))
    shutil.rmtree(scene / "confidence")
    depth, reads = formats._PfmFile.depth, []

    def reading(pfm, *args):
        reads.append(pfm)
        return depth(pfm, *args)

    monkeypatch.setattr(formats._PfmFile, "depth", reading)
    message = (f"mvsgeo: error: {scene / 'depths' / '00000002.pfm'}: "
               "view 2 depth shape (24, 32) does not match view 0 (48, 64)\n")
    for command in _SCENE_ARGV:
        assert _scene_verdict(capsys, command, scene, tmp_path / command) == (3, "", message)
        assert not (tmp_path / command).exists()
    assert reads == []


def test_a_scene_with_no_pairing_stops_every_scene_command_at_open(tmp_path, capsys, monkeypatch):
    # A pair.txt of count 0 pairs no reference, so the scene has no depth
    # shape to make frames of.  Scene(root) rejects it, naming pair.txt,
    # before any cam.txt is read; gc-penalty (which wrote an empty
    # summary.json), fuse and warp all exit 3 with its message.
    scene = tmp_path / "scene"
    assert main(["synth", "--out", str(scene), "--width", "16", "--height", "12", "--views", "3"]) == 0
    capsys.readouterr()
    (scene / "pair.txt").write_text("0\n")
    cams = []
    monkeypatch.setattr(views, "read_cam", cams.append)
    error = f"{scene / 'pair.txt'}: no pairing: a scene needs a reference view"
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        views.Scene(scene)
    for command in _SCENE_ARGV:
        assert _scene_verdict(capsys, command, scene, tmp_path / command) == (3, "", f"mvsgeo: error: {error}\n")
        assert not (tmp_path / command).exists()
    assert cams == []


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(view=st.integers(0, 3),
       shape=st.tuples(st.integers(1, 14), st.integers(1, 18)).filter(lambda shape: shape != (12, 16)))
def test_one_scene_one_verdict(tmp_path_factory, capsys, view, shape):
    # Any view of a 4-view 16 x 12 scene rewritten at any other depth
    # shape: gc-penalty, fuse and warp give one exit code and one message,
    # naming the first view whose shape is not view 0's (view 1 when view
    # 0 is the one rewritten), and make no output.
    scene = tmp_path_factory.mktemp("scene")
    assert main(["synth", "--out", str(scene), "--width", "16", "--height", "12", "--views", "4"]) == 0
    capsys.readouterr()
    _pfm_of_shape(scene / "depths" / f"{view:08d}.pfm", shape)
    out = tmp_path_factory.mktemp("out")
    verdicts = {_scene_verdict(capsys, command, scene, out / command) for command in _SCENE_ARGV}
    first, shapes = (1, ((12, 16), shape)) if view == 0 else (view, (shape, (12, 16)))
    message = f"view {first} depth shape {shapes[0]} does not match view 0 {shapes[1]}"
    assert verdicts == {(3, "", f"mvsgeo: error: {scene / 'depths' / f'{first:08d}.pfm'}: {message}\n")}
    assert list(out.iterdir()) == []


def test_fuse_checks_a_confidence_map_against_its_views_depth(plane_scene, tmp_path, capsys):
    # A 4 x 4 confidence map of a 40 x 48 view is exit 3 naming the file
    # and the view; fusion.fuse's in-memory check named neither.
    path = plane_scene / "confidence" / "00000002.pfm"
    _pfm_of_shape(path, (4, 4))
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "fuse", "--scene", str(plane_scene), "--out", str(out / "cloud.ply"),
                                "--num-consistent", "1")
    assert (code, stdout) == (3, "")
    assert err == f"mvsgeo: error: {path}: view 2 confidence shape (4, 4) does not match its depth shape (40, 48)\n"
    assert not out.exists()


@pytest.mark.parametrize("command, out, argv", [
    ("gc-penalty", "pen", []), ("fuse", "cloud.ply", ["--num-consistent", "2"]),
    ("warp", "warp", ["--ref", "0", "--src", "1"]),
])
@pytest.mark.parametrize("case", ["lone CR in pair.txt", "lone CR in a cam", "line after the last pairing"])
def test_scene_text_is_read_as_its_parser_reads_it(plane_scene, tmp_path, capsys, command, out, argv, case):
    # No newline translation: a lone "\r" ends no line, so the file is
    # rejected at its line, as parse_pair_text and read_cam reject its
    # text (read_text() turned "\r" into "\n" and the scene read).  A
    # pair.txt line after the last pairing is an error, not dropped.
    path = plane_scene / ("cams/00000000_cam.txt" if case == "lone CR in a cam" else "pair.txt")
    text = path.read_text()
    text = text + "1\n" if case == "line after the last pairing" else text.replace("\n", "\r")
    path.write_bytes(text.encode())
    with pytest.raises(formats.ParseError) as rejected:
        (formats.read_cam if "cam" in case else parse_pair_text)(text)
    code, stdout, err = run_cli(capsys, command, "--scene", str(plane_scene), "--out", str(tmp_path / out), *argv)
    assert (code, stdout) == (3, "")
    assert err == f"mvsgeo: error: {path}: {rejected.value}\n"
    assert not (tmp_path / out).exists()


def test_a_scene_with_crlf_line_ends_reads_as_with_lf(plane_scene, tmp_path, capsys):
    argv = ["--ref", "0", "2", "--num-sources", "2"]
    assert run_cli(capsys, "gc-penalty", "--scene", str(plane_scene), "--out", str(tmp_path / "lf"), *argv)[0] == 0
    for path in [plane_scene / "pair.txt", *(plane_scene / "cams").iterdir()]:
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert run_cli(capsys, "gc-penalty", "--scene", str(plane_scene), "--out", str(tmp_path / "crlf"), *argv)[0] == 0
    for name in sorted(p.name for p in (tmp_path / "lf").iterdir()):
        assert (tmp_path / "lf" / name).read_bytes() == (tmp_path / "crlf" / name).read_bytes(), name


@pytest.mark.parametrize("gts, stages, message", [
    (1, 2, "need one file per stage"),
    (4, 4, "at most three stages"),
])
def test_loss_stage_counts_exit_3(plane_scene, tmp_path, capsys, gts, stages, message):
    vol, gt, pen = _plane_loss_argv(plane_scene, tmp_path)[1::2]
    code, out, err = run_cli(capsys, "loss", "--probvol", *[vol] * stages, "--gt", *[gt] * gts,
                             "--penalty", *[pen] * stages)
    assert (code, out) == (3, "")
    assert message in err


def test_synth_noise_lands_on_valid_pixels_only(tmp_path, capsys, monkeypatch):
    # --noise-std adds Gaussian noise drawn from --seed to the valid depths
    # alone, clamped to 1e-6 (float32(1e-6) in the file); invalid pixels
    # stay 0 and the confidence map is the validity.  A rerun writes the
    # same bytes; another seed, which moves no camera, draws other noise.
    render = synth.render_depth

    def holed(spec, view):  # every preset fills the frame: cut a hole in it
        depth, hit = render(spec, view)
        hit = hit.copy()
        hit[:, :8] = False
        return reproject.DepthMap(depth.values, hit), hit

    monkeypatch.setattr(synth, "render_depth", holed)
    for name, seed, std in (("clean", "0", "0"), ("a", "0", "300"), ("b", "0", "300"), ("c", "1", "300")):
        assert run_cli(capsys, "synth", "--out", str(tmp_path / name), "--kind", "two-planes", "--width", "32",
                       "--height", "24", "--views", "3", "--seed", seed, "--noise-std", std)[0] == 0

    def pfm(name, kind, view):
        return formats.read_pfm((tmp_path / name / kind / f"{view:08d}.pfm").read_bytes()).data

    clamped = 0
    for v in range(3):
        clean, noisy = pfm("clean", "depths", v), pfm("a", "depths", v)
        valid = clean > 0
        assert 0 < valid.sum() < valid.size
        assert (noisy[~valid] == 0).all()
        assert (noisy[valid] >= np.float32(1e-6)).all()
        assert (noisy[valid] != clean[valid]).mean() > 0.9
        clamped += int((noisy == np.float32(1e-6)).sum())
        assert np.array_equal(pfm("a", "confidence", v), valid.astype(np.float32))
        other = pfm("c", "depths", v)
        assert (other[valid] != noisy[valid]).mean() > 0.9 and (other[~valid] == 0).all()
    assert clamped > 0  # a draw below -depth was clamped
    assert _outputs(tmp_path / "a") == _outputs(tmp_path / "b")


def test_eval_depth_mask_excludes_pixels(plane_scene, tmp_path, capsys):
    # A mask pixel counts when it is above 0: 0, negative and NaN ones drop
    # their pixel.  n_valid and epe are numpy's over the kept pixels.
    pred_path, gt_path = (plane_scene / "depths" / f"{v:08d}.pfm" for v in (1, 0))
    mask = np.ones((40, 48), dtype=np.float32)
    mask[:, :20] = 0.0
    mask[5] = -1.0
    mask[6, 30:] = np.nan
    mask[7] = 0.5
    mask_path = tmp_path / "mask.pfm"
    mask_path.write_bytes(formats.write_pfm(formats.PfmImage(mask)))
    code, out, _ = run_cli(capsys, "eval-depth", "--pred", str(pred_path), "--gt", str(gt_path),
                           "--mask", str(mask_path))
    assert code == 0
    doc = read_json(out)
    pred, gt = (formats.read_pfm(p.read_bytes()).data.astype(np.float64) for p in (pred_path, gt_path))
    keep = (pred > 0) & (gt > 0) & (mask > 0)
    assert 0 < doc["n_valid"] == int(keep.sum()) < int(((pred > 0) & (gt > 0)).sum())
    epe = float(np.abs(pred[keep] - gt[keep]).mean())
    assert epe > 0 and doc["epe"] == epe


def _reader_inputs(scene, tmp_path):
    """Each command's arguments on plane_scene, and every file they read by name."""
    d0, d1 = (scene / "depths" / f"{v:08d}.pfm" for v in (0, 1))
    files = {
        "pair.txt": scene / "pair.txt", "cam 2": scene / "cams" / "00000002_cam.txt", "depth 1": d1,
        "depth 2": scene / "depths" / "00000002.pfm",
        "confidence 3": scene / "confidence" / "00000003.pfm",
        "pred.pfm": tmp_path / "pred.pfm", "gt.pfm": tmp_path / "gt.pfm", "mask.pfm": tmp_path / "mask.pfm",
        "pred.ply": tmp_path / "pred.ply", "gt.ply": tmp_path / "gt.ply",
    }
    for name in ("pred.pfm", "gt.pfm"):
        files[name].write_bytes(d1.read_bytes())
    files["mask.pfm"].write_bytes(formats.write_pfm(formats.PfmImage(np.ones((40, 48), dtype=np.float32))))
    for name in ("pred.ply", "gt.ply"):
        files[name].write_bytes((scene / "gt_cloud.ply").read_bytes())
    loss = _plane_loss_argv(scene, tmp_path)
    gt_copy = tmp_path / "loss_gt.pfm"
    gt_copy.write_bytes(d0.read_bytes())
    loss[3] = str(gt_copy)
    files.update({"volume": Path(loss[1]), "loss gt": gt_copy, "penalty": Path(loss[5])})
    out = str(tmp_path / "out")
    argv = {
        "gc-penalty": ["--scene", str(scene), "--out", out],
        "fuse": ["--scene", str(scene), "--out", out + "/cloud.ply", "--num-consistent", "2"],
        "warp": ["--scene", str(scene), "--ref", "0", "--src", "1", "--out", out],
        "loss": loss,
        "eval-pc": ["--pred", str(files["pred.ply"]), "--gt", str(files["gt.ply"]), "--max-dist", "1"],
        "eval-depth": ["--pred", str(files["pred.pfm"]), "--gt", str(files["gt.pfm"]),
                       "--mask", str(files["mask.pfm"])],
    }
    return argv, files


def _of_shape(shape):
    return lambda data: formats.write_pfm(formats.PfmImage(np.ones(shape, dtype=np.float32)))


# An eval input rejected from its header: command, file, how it is broken
# (None: removed), exit code and the stderr line.
EVAL_HEADER_FAULTS = {
    "depth gt (6, 8)": ("eval-depth", "gt.pfm", _of_shape((6, 8)), 3,
                        "error: ground truth {path} has shape (6, 8), the prediction {pred} needs (40, 48)"),
    "depth gt 3-channel": ("eval-depth", "gt.pfm", _of_shape((40, 48, 3)), 3, "error: {path}: depth maps are single-channel PFMs"),
    "depth gt truncated": ("eval-depth", "gt.pfm", lambda data: data[:-4], 3, "error: {path}: truncated PFM payload"),
    "depth mask (40, 48, 3)": ("eval-depth", "mask.pfm", _of_shape((40, 48, 3)), 3,
                               "error: mask {path} has shape (40, 48, 3), the prediction {pred} needs (40, 48)"),
    "depth mask missing": ("eval-depth", "mask.pfm", None, 2, "missing input: {path}\n"),
    "pc gt garbage": ("eval-pc", "gt.ply", lambda data: b"garbage\n", 3, "error: {path}: bad PLY magic"),
    "pc gt truncated": ("eval-pc", "gt.ply", lambda data: data[:-4], 3, "error: {path}: PLY payload size mismatch"),
    "pc gt missing": ("eval-pc", "gt.ply", None, 2, "missing input: {path}\n"),
}


@pytest.mark.parametrize("case", EVAL_HEADER_FAULTS.values(), ids=EVAL_HEADER_FAULTS.keys())
def test_eval_commands_check_every_header_before_reading_a_payload(plane_scene, tmp_path, capsys, monkeypatch,
                                                                   case):
    # eval-depth and eval-pc open every input and check its header (and a
    # depth's shape against the prediction's) before any payload byte is
    # read, as loss and Scene do: a fault in the last input is found with
    # no byte of the first read (payloads are read with preadv), the
    # message unchanged.
    command, name, breaks, code, message = case
    argv, files = _reader_inputs(plane_scene, tmp_path)
    payload = []
    preadv = os.preadv

    def counted(*args):
        payload.append(preadv(*args))
        return payload[-1]

    monkeypatch.setattr(os, "preadv", counted)
    assert run_cli(capsys, command, *argv[command])[0] == 0
    assert sum(payload) > 0  # the rule is not vacuous: an intact run reads its payloads so
    payload.clear()
    path = files[name]
    if breaks is None:
        path.unlink()
    else:
        path.write_bytes(breaks(path.read_bytes()))
    code_, out, err = run_cli(capsys, command, *argv[command])
    assert (code_, out, payload) == (code, "", [])
    assert err.startswith("mvsgeo: " + message.format(path=path, pred=files["pred.pfm"]))


def _depth_of(data):
    return formats.depth_from_pfm(formats.read_pfm(data))


# How each file kind is corrupted, and the library reader whose message names the fault.
CORRUPTIONS = {
    "3-channel": lambda data: formats.write_pfm(formats.PfmImage(np.ones((40, 48, 3), dtype=np.float32))),
    "truncated": lambda data: data[:-4],
    "garbage": lambda data: b"garbage\n",
    "NaN in the last band": lambda data: data[:-4] + np.float32(np.nan).tobytes(),
}
READERS = {
    "pair.txt": lambda data: parse_pair_text(data.decode()), "cam 2": lambda data: formats.read_cam(data.decode()),
    "depth 1": _depth_of, "pred.pfm": _depth_of, "gt.pfm": _depth_of,
    "confidence 3": formats.read_pfm, "mask.pfm": formats.read_pfm, "loss gt": formats.read_pfm,
    "penalty": formats.read_pfm, "pred.ply": formats.read_ply, "gt.ply": formats.read_ply,
    "volume": formats.read_probability_volume,
}


@pytest.mark.parametrize("command, name, corruption", [
    ("gc-penalty", "pair.txt", "garbage"),
    ("gc-penalty", "cam 2", "garbage"),
    ("gc-penalty", "depth 1", "3-channel"),
    ("gc-penalty", "depth 1", "truncated"),
    ("fuse", "depth 1", "3-channel"),
    ("fuse", "confidence 3", "truncated"),
    ("warp", "depth 1", "truncated"),
    ("warp", "cam 2", "garbage"),
    ("loss", "volume", "garbage"),
    ("loss", "loss gt", "truncated"),
    ("loss", "penalty", "garbage"),
    ("loss", "volume", "NaN in the last band"),
    ("eval-pc", "pred.ply", "truncated"),
    ("eval-pc", "gt.ply", "garbage"),
    ("eval-pc", "gt.ply", "NaN in the last band"),
    ("eval-depth", "pred.pfm", "3-channel"),
    ("eval-depth", "gt.pfm", "truncated"),
    ("eval-depth", "mask.pfm", "garbage"),
])
def test_a_rejected_input_file_is_named(plane_scene, tmp_path, capsys, command, name, corruption):
    # Exit 3 with the file's path in front of its reader's message, the
    # same message and offset the library gives for the same bytes: a loss
    # volume whether it is rejected at open or as it is scored.
    argv, files = _reader_inputs(plane_scene, tmp_path)
    path = files[name]
    path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
    with pytest.raises(ValueError) as rejected:
        READERS[name](path.read_bytes())
    code, out, err = run_cli(capsys, command, *argv[command])
    assert (code, out) == (3, "")
    assert err == f"mvsgeo: error: {path}: {rejected.value}\n"


@pytest.mark.parametrize("name", ["loss gt", "penalty"])
def test_a_loss_pfm_cut_short_after_it_is_opened_is_named(plane_scene, tmp_path, capsys, monkeypatch, name):
    # A ground truth or penalty cut short after `loss` opened and checked
    # its header fails as a band is read, while the stage is scored: exit
    # 3 with its own path (not the volume's, nor none) in front of the
    # message read_pfm gives for the bytes left.
    argv, files = _reader_inputs(plane_scene, tmp_path)
    path = files[name]
    cut = path.read_bytes()[:-4 * 48 * 20]  # half the rows gone
    with pytest.raises(formats.ParseError) as rejected:
        formats.read_pfm(cut)
    opener = formats.open_pfm

    def open_then_cut(at):
        opened = opener(at)
        if Path(at) == path:
            path.write_bytes(cut)
        return opened

    monkeypatch.setattr(formats, "open_pfm", open_then_cut)
    code, out, err = run_cli(capsys, "loss", *argv["loss"])
    assert (code, out) == (3, "")
    assert err == f"mvsgeo: error: {path}: {rejected.value}\n"
    assert "truncated PFM payload" in err


@pytest.mark.parametrize("command, name", [
    ("warp", "cam 2"), ("warp", "depth 2"),
    ("loss", "volume"), ("loss", "loss gt"), ("loss", "penalty"),
    ("eval-pc", "pred.ply"), ("eval-pc", "gt.ply"),
    ("eval-depth", "pred.pfm"), ("eval-depth", "gt.pfm"), ("eval-depth", "mask.pfm"),
])
def test_a_missing_input_file_is_named(plane_scene, tmp_path, capsys, command, name):
    argv, files = _reader_inputs(plane_scene, tmp_path)
    files[name].unlink()
    code, out, err = run_cli(capsys, command, *argv[command])
    assert (code, out) == (2, "")
    assert err == f"mvsgeo: missing input: {files[name]}\n"
