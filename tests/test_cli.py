import json
import warnings

import numpy as np
import pytest

from mvsgeo import formats, reproject
from mvsgeo.cli import main
from mvsgeo.loss import ProbabilityVolume, StageWeights, total_loss

from truth import covisibility_mask


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_json(stdout):
    return json.loads(stdout)


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
    # walk of the reprojection chain per pair, whose bands every stage
    # votes from; only the threshold comparisons repeat per stage, and the
    # public one-stage inconsistency_mask is not called at all.
    import mvsgeo.penalty

    counts = {"_chain": 0, "inconsistency_mask": 0}
    for module, name in ((reproject, "_chain"), (mvsgeo.penalty, "inconsistency_mask")):
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
    assert counts == {"_chain": pairs, "inconsistency_mask": 0}


def test_gc_penalty_stage_count_mismatch(plane_scene, tmp_path, capsys):
    code, _, err = run_cli(capsys, "gc-penalty", "--scene", str(plane_scene),
                           "--out", str(tmp_path / "x"), "--d-pixel", "1.0", "0.5",
                           "--d-depth", "0.01")
    assert code == 3
    assert "same number of stages" in err


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
def test_gc_penalty_writes_each_reference_at_most_threads_ahead(six_view_scene, tmp_path, capsys,
                                                                 monkeypatch, threads):
    # References computed (or being computed) but not yet written: at most
    # the one being written plus `threads` ahead of it.  With one stage,
    # a reference's histogram is derived from its vote counts right after
    # its PFM is written.
    import threading

    from mvsgeo import cli

    lock = threading.Lock()
    state = {"open": 0, "max": 0}
    compute, histogram = cli._stage_counts, cli._stage_histogram

    def counting_compute(*args):
        with lock:
            state["open"] += 1
            state["max"] = max(state["max"], state["open"])
        return compute(*args)

    def counting_histogram(*args):
        with lock:
            state["open"] -= 1
        return histogram(*args)

    monkeypatch.setattr(cli, "_stage_counts", counting_compute)
    monkeypatch.setattr(cli, "_stage_histogram", counting_histogram)
    code, out, _ = run_cli(capsys, "gc-penalty", "--scene", str(six_view_scene), "--out", str(tmp_path / "p"),
                           "--d-pixel", "1.0", "--d-depth", "0.01", "--threads", str(threads))
    assert code == 0
    assert state["open"] == 0
    assert 1 <= state["max"] <= threads + 1
    assert len(read_json(out)["views"]) > threads + 1  # a window that could be overrun


def test_gc_penalty_single_thread_holds_one_reference(six_view_scene, tmp_path, capsys, monkeypatch):
    # After the scene is loaded, a --threads 1 run holds one reference in
    # flight: its narrow vote counts, one pair's band scratch and corner
    # map while it is checked, then one stage's float32 map or the float64
    # levels its mean reads while it is written.  Holding the maps of
    # every reference until the end, as a compute-all-then-write loop
    # does, a float64 map per stage, or a pair's full-frame reprojection
    # (25 B/px) exceeds this.  Row bands of 8 rows keep the band scratch
    # small.  The window ends when the summary is emitted: encoding it
    # makes about 100 KB of Python string chunks here, set by the number
    # of references and stages, not by the frame.
    import tracemalloc

    from mvsgeo import cli

    w, h, n_stages = 80, 64, 3
    monkeypatch.setattr(reproject, "_BAND_PIXELS", 8 * w)
    load, loaded = cli._load_scene, []
    emit, written = cli._emit_json, []

    def loading(*args):
        scene = load(*args)
        loaded.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return scene

    def emitting(*args):
        written.append(tracemalloc.get_traced_memory()[1])
        return emit(*args)

    monkeypatch.setattr(cli, "_load_scene", loading)
    monkeypatch.setattr(cli, "_emit_json", emitting)
    argv = ["gc-penalty", "--scene", str(six_view_scene), "--out", str(tmp_path / "p"), "--threads", "1"]
    assert run_cli(capsys, *argv)[0] == 0  # first-call allocations out of the measurement
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
    peak = written[-1] - loaded[-1]
    assert peak < counts + stage_map + mean_gather + scratch + corner_map, (peak, counts)


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
        (plane_scene / "depths" / "00000003.pfm").write_bytes(formats.write_pfm(formats.PfmImage(small)))
        message = "does not match reference"
    out_dir = tmp_path / "pen"
    for threads in ("1", "3"):
        code, out, err = run_cli(capsys, "gc-penalty", "--scene", str(plane_scene), "--out", str(out_dir),
                                 "--threads", threads)
        assert code == 3
        assert out == "" and message in err
        assert list(out_dir.glob("*.pfm")) == [] and not (out_dir / "summary.json").exists()


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


def test_fuse_ascii_output(plane_scene, tmp_path, capsys):
    p = tmp_path / "cloud_ascii.ply"
    code, _, _ = run_cli(capsys, "fuse", "--scene", str(plane_scene), "--out", str(p),
                         "--num-consistent", "2", "--ascii")
    assert code == 0
    assert p.read_bytes().startswith(b"ply\nformat ascii 1.0\n")


def test_only_fuse_reads_confidence_maps(plane_scene, tmp_path, capsys):
    # synth writes depth validity as confidence, so fuse without the
    # confidence files (their fallback) gives the same cloud.  Unreadable
    # confidence files stop fuse but not gc-penalty or warp, which never
    # read them.
    import shutil

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


def test_warp_reads_only_its_two_views(plane_scene, tmp_path, capsys):
    # A garbage depth PFM of a third view stops the commands that read
    # every view (gc-penalty) but not warp, which reads --ref and --src.
    (plane_scene / "depths" / "00000002.pfm").write_bytes(b"not a pfm")
    assert run_cli(capsys, "gc-penalty", "--scene", str(plane_scene), "--out", str(tmp_path / "pen"))[0] == 3
    code, out, _ = run_cli(capsys, "warp", "--scene", str(plane_scene), "--ref", "0", "--src", "1",
                           "--out", str(tmp_path / "warp"))
    assert code == 0
    assert read_json(out)["valid_pixels"] > 0


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
    # A non-finite stage loss exits 3 through the JSON guard.
    pen = np.ones((h, w), dtype=np.float32)
    pen[0, 0] = np.inf
    files[2][2].write_bytes(formats.write_pfm(formats.PfmImage(pen)))
    code, out, err = run_cli(capsys, "loss",
                             "--probvol", *[str(f[0]) for f in files],
                             "--gt", *[str(f[1]) for f in files],
                             "--penalty", *[str(f[2]) for f in files])
    assert code == 3
    assert out == "" and "JSON" in err


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
    # An empty file cannot be memory-mapped; the volume reader still
    # rejects it with its own message.
    argv = _plane_loss_argv(plane_scene, tmp_path)
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    argv[argv.index("--probvol") + 1] = str(empty)
    code, out, err = run_cli(capsys, "loss", *argv)
    assert code == 3
    assert out == ""
    assert "truncated PFM header (byte offset 0)" in err


def test_loss_cli_does_not_copy_the_volume(tmp_path, capsys):
    # The volume is read through a memory map: the traced Python and numpy
    # allocations of a whole `loss` call stay under half the file's size,
    # which a copy of the file alone would exceed.
    import tracemalloc

    d, h, w = 64, 48, 64
    probs = np.full((d, h, w), 1.0 / d)
    vol_path = tmp_path / "vol.bin"
    vol_path.write_bytes(formats.write_probability_volume(
        ProbabilityVolume(probs, np.linspace(100.0, 200.0, d))))
    gt_path = tmp_path / "gt.pfm"
    gt_path.write_bytes(formats.write_pfm(formats.PfmImage(np.full((h, w), 150.0, dtype=np.float32))))
    pen_path = tmp_path / "pen.pfm"
    pen_path.write_bytes(formats.write_pfm(formats.PfmImage(np.ones((h, w), dtype=np.float32))))
    argv = ["loss", "--probvol", str(vol_path), "--gt", str(gt_path), "--penalty", str(pen_path)]
    assert main(argv) == 0  # first-call allocations out of the measurement
    first = capsys.readouterr().out
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == first
    assert peak < vol_path.stat().st_size // 2, (peak, vol_path.stat().st_size)


def _plane_loss_argv(plane_scene, tmp_path):
    """`loss` arguments for view 0 of plane_scene: a uniform 2-bin volume and a unit penalty."""
    vol = tmp_path / "vol.bin"
    vol.write_bytes(formats.write_probability_volume(
        ProbabilityVolume(np.full((2, 40, 48), 0.5), np.array([1.0, 1e6]))))
    ones = tmp_path / "ones.pfm"
    ones.write_bytes(formats.write_pfm(formats.PfmImage(np.ones((40, 48), dtype=np.float32))))
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
        gt_cloud = str(plane_scene / "gt_cloud.ply")
        argv = ["eval-pc", "--pred", gt_cloud, "--gt", gt_cloud, "--max-dist", "inf"]
    else:
        argv = ["loss", *_plane_loss_argv(plane_scene, tmp_path), "--alpha", "inf"]
    json_path = tmp_path / "out.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(json_path))
    assert code == 3
    assert out == "" and not json_path.exists()
    assert "JSON" in err


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", "/tmp/x", "--bogus-flag"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage" in err


@pytest.mark.parametrize("argv", [
    ["gc-penalty", "--scene", "s", "--out", "o", "--threads", "0"],
    ["eval-pc", "--pred", "a.ply", "--gt", "b.ply", "--max-dist", "1", "--threads", "-1"],
    ["gc-penalty", "--scene", "s", "--out", "o", "--num-sources", "-1"],
])
def test_bad_counts_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "must be >=" in capsys.readouterr().err


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


def test_threads_default_is_read_from_the_environment_on_every_call(plane_scene, monkeypatch, capsys):
    # The parser is built once per process; the MVSGEO_THREADS default is not.
    from mvsgeo import cli

    seen = []
    real = cli.evaluate_point_clouds

    def recording(pred, gt, max_dist, workers=1):
        seen.append(workers)
        return real(pred, gt, max_dist, workers=workers)

    monkeypatch.setattr(cli, "evaluate_point_clouds", recording)
    cloud = str(plane_scene / "gt_cloud.ply")
    argv = ["eval-pc", "--pred", cloud, "--gt", cloud, "--max-dist", "1"]
    for value in ("3", "1", "2", "bad"):
        monkeypatch.setenv("MVSGEO_THREADS", value)
        assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.delenv("MVSGEO_THREADS")
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, *argv, "--threads", "4")[0] == 0
    assert seen == [3, 1, 2, 1, 1, 4]
