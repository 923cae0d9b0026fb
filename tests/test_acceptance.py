"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Runtime limits include first-call cost.
"""

import json
import time

import numpy as np
import pytest
from scipy import ndimage

from mvsgeo import formats, synth
from mvsgeo.camera import pixel_grid
from mvsgeo.cli import main as cli_main
from mvsgeo.fusion import FusionParams, PointCloud, fuse
from mvsgeo.hypotheses import DIR_TEST, DIR_TRAIN, StageConfig, band_width, coarse_hypotheses, pixel_interval
from mvsgeo.loss import ProbabilityVolume, StageWeights, cross_entropy_error, stage_loss, total_loss
from mvsgeo.metrics import accuracy, completeness, depth_metrics, overall
from mvsgeo.penalty import (
    GcThresholds,
    PenaltyMap,
    apply_reference_mask,
    inconsistency_mask,
    per_pixel_penalty,
)
from mvsgeo.reproject import DepthMap, fbr
from mvsgeo.views import ViewPairing, format_pair_text, parse_pair_text

from conftest import random_camera
from oracles import naive_cross_entropy, naive_penalty, quadratic_nn
from test_formats import CAM_MALFORMED, PFM_MALFORMED, PLY_MALFORMED
from test_views import PAIR_MALFORMED
from truth import covisibility_mask, fixed_point_mask, render_occlusion_truth


def report(num, name, ok, detail=""):
    print(f"\n[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_fbr_fixed_point():
    scenes = ["plane", "tilted-plane", "sphere", "two-planes", "two-planes-offset"]
    start = time.monotonic()
    worst_pde = worst_rdd = 0.0
    checked = 0
    for kind in scenes:
        spec = synth.make_scene(kind, 160, 128, 5, seed=3)
        d0, _ = synth.render_depth(spec, 0)
        xs, ys = pixel_grid(128, 160)
        for s in range(1, 5):
            ds, _ = synth.render_depth(spec, s)
            d_re, p_re = fbr(d0, spec.cameras[0], ds, spec.cameras[s])
            covis = fixed_point_mask(spec, 0, s)
            assert covis.sum() > 1000
            assert not (covis & ~d_re.valid).any()
            worst_pde = max(worst_pde, float(np.hypot(p_re.x - xs, p_re.y - ys)[covis].max()))
            worst_rdd = max(worst_rdd, float((np.abs(d_re.values - d0.values) / d0.values)[covis].max()))
            checked += int(covis.sum())
    elapsed = time.monotonic() - start
    ok = worst_pde < 1e-4 and worst_rdd < 1e-6 and elapsed < 10.0
    report(1, "FBR fixed point", ok,
           f"max PDE {worst_pde:.2e} px, max RDD {worst_rdd:.2e}, {checked} px, {elapsed:.2f}s")


def test_criterion_02_penalty_oracle_equivalence():
    results = []
    # M = 4: tilted plane with two perturbed bands in the reference depth.
    spec = synth.make_scene("tilted-plane", 80, 64, 5, seed=17)
    d0, _ = synth.render_depth(spec, 0)
    vals = d0.values.copy()
    vals[10:20, 15:40] *= 1.05
    vals[40:50, 50:70] *= 1.003
    d_ref = DepthMap(vals, d0.valid)
    sources = [(synth.render_depth(spec, s)[0], spec.cameras[s]) for s in range(1, 5)]
    for mode in ("one-two", "one-three"):
        lib = per_pixel_penalty(d_ref, spec.cameras[0], sources, GcThresholds(1.0, 0.01), mode)
        orc = naive_penalty(d_ref, spec.cameras[0], sources, 1.0, 0.01, mode)
        results.append(np.array_equal(lib.values, orc))
    # M = 8: two-plane occlusion scene, exact reference depth.
    spec = synth.make_scene("two-planes-offset", 80, 64, 9, seed=23)
    d0, _ = synth.render_depth(spec, 0)
    sources = [(synth.render_depth(spec, s)[0], spec.cameras[s]) for s in range(1, 9)]
    lib = per_pixel_penalty(d0, spec.cameras[0], sources, GcThresholds(0.5, 0.005))
    orc = naive_penalty(d0, spec.cameras[0], sources, 0.5, 0.005)
    results.append(np.array_equal(lib.values, orc))
    results.append(len(np.unique(lib.values)) >= 5)  # rich level structure
    report(2, "Alg oracle equivalence (bit-exact, M=4 and M=8)", all(results),
           f"parts {results}")


def test_criterion_03_penalty_semantics():
    spec = synth.make_scene("plane", 80, 64, 5, seed=31)
    d0, _ = synth.render_depth(spec, 0)
    covis = np.logical_and.reduce([covisibility_mask(spec, 0, s) for s in range(1, 5)])
    d_ref = DepthMap(np.where(covis, d0.values, 0.0), d0.valid & covis)
    sources = [(synth.render_depth(spec, s)[0], spec.cameras[s]) for s in range(1, 5)]
    thr = GcThresholds(1.0, 0.01)
    exact = per_pixel_penalty(d_ref, spec.cameras[0], sources, thr)
    part_exact = bool(np.array_equal(exact.values, np.ones(d0.shape)))
    # Perturb a co-visible block by 2 * d_depth * D0.
    region = np.zeros(d0.shape, bool)
    region[24:36, 30:50] = True
    region &= covis
    vals = np.where(region, d_ref.values * (1 + 2 * thr.d_depth), d_ref.values)
    d_pert = DepthMap(np.where(d_ref.valid, vals, 0.0), d_ref.valid)
    p2 = per_pixel_penalty(d_pert, spec.cameras[0], sources, thr)
    p3 = per_pixel_penalty(d_pert, spec.cameras[0], sources, thr, "one-three")
    part_two = bool((p2.values[region] == 2.0).all())
    part_three = bool((p3.values[region] == 3.0).all())
    allowed = {1.0 + k / 4 for k in range(5)}
    part_levels = set(np.unique(p2.values)) <= allowed
    ok = part_exact and part_two and part_three and part_levels
    report(3, "Penalty semantics and quantization", ok,
           f"exact ones {part_exact}, 2.0 {part_two}, 3.0 {part_three}, levels {part_levels}")


def test_criterion_04_occlusion_robustness():
    spec = synth.make_scene("two-planes-offset", 160, 128, 5, seed=41)
    d0, _ = synth.render_depth(spec, 0)
    sources = [(synth.render_depth(spec, s)[0], spec.cameras[s]) for s in range(1, 5)]
    thr = GcThresholds(1.0, 0.01)
    pen = apply_reference_mask(per_pixel_penalty(d0, spec.cameras[0], sources, thr), d0.valid)
    covis = np.logical_and.reduce([fixed_point_mask(spec, 0, s) for s in range(1, 5)])
    mean_covis = float(pen[covis].mean())
    part_mean = covis.sum() > 5000 and mean_covis == 1.0
    # Occluded pixels vote inconsistent in their view.  The ray-cast truth
    # classifies shadow-interior pixels (5x5 erosion keeps samples whose
    # bilinear support lies fully on the occluder).
    total_classified = 0
    part_policy = True
    for s in range(1, 5):
        occ = ndimage.binary_erosion(
            render_occlusion_truth(spec, 0, s), structure=np.ones((5, 5), bool)
        )
        if not occ.any():
            continue
        d_re, p_re = fbr(d0, spec.cameras[0], sources[s - 1][0], sources[s - 1][1])
        mask = inconsistency_mask(d0, d_re, p_re, thr)
        total_classified += int(occ.sum())
        part_policy &= bool(mask[occ].all())
    ok = part_mean and part_policy and total_classified > 300
    report(4, "Occlusion robustness", ok,
           f"mean penalty over co-visible {mean_covis}, occluded classified {total_classified}, "
           f"policy match {part_policy}")


def test_criterion_05_loss_arithmetic():
    rng = np.random.default_rng(5)
    d, h, w = 8, 16, 14
    raw = rng.random((d, h, w))
    probs = raw / raw.sum(axis=0, keepdims=True)
    hyp = np.linspace(425.0, 935.0, d)
    vol = ProbabilityVolume(probs=probs, hypotheses=hyp)
    vals = rng.uniform(425.0, 935.0, (h, w))
    valid = rng.random((h, w)) > 0.2
    gt = DepthMap(np.where(valid, vals, 0.0), valid)
    err, sup = cross_entropy_error(vol, gt)
    o_err, o_sup = naive_cross_entropy(probs, hyp, gt.values, gt.valid)
    part_oracle = np.array_equal(sup, o_sup) and float(np.abs(err - o_err).max()) < 1e-10
    pen = PenaltyMap(np.array([[0, 2], [0, 1]]), "one-two", 2)
    part_example = stage_loss(pen, np.array([[1.0, 1.0], [2.0, 4.0]]), np.ones((2, 2), bool)) == 2.75
    w_paper = StageWeights(1.0, 1.0, 2.0)
    part_total = (
        total_loss([1.0, 1.0, 1.0], w_paper) == 4.0
        and total_loss([0.5, 0.25, 0.125], w_paper) == 1.0
        and total_loss([0.3, 0.2, 0.1], w_paper) == 0.3 + 0.2 + 2.0 * 0.1
    )
    ok = part_oracle and part_example and part_total
    report(5, "Loss arithmetic", ok,
           f"oracle {part_oracle}, 2x2 example {part_example}, totals {part_total}")


def test_criterion_06_hypothesis_interval_arithmetic():
    part_interval = abs(pixel_interval(0.4, 1.06) - 0.424) < 1e-12
    hyp = coarse_hypotheses(StageConfig())
    part_endpoints = hyp[0] == 425.0 and hyp[-1] == 935.0 and hyp.shape == (48,)
    part_bands = True
    for ratios in (DIR_TRAIN, DIR_TEST):
        cfg = StageConfig(dir=ratios)
        widths = [band_width(cfg, s, di=2.5) for s in range(3)]
        part_bands &= widths[0] > widths[1] > widths[2]
    ok = part_interval and part_endpoints and part_bands
    report(6, "Hypothesis and interval-ratio arithmetic", ok,
           f"interval {part_interval}, endpoints {part_endpoints}, bands {part_bands}")


def test_criterion_07_fusion_soundness_and_monotonicity():
    spec = synth.make_scene("plane", 80, 64, 5, seed=7)
    views = []
    for v in range(5):
        depth, mask = synth.render_depth(spec, v)
        views.append((depth, np.where(mask, 0.95, 0.0), spec.cameras[v]))
    base = fuse(views, FusionParams(prob_threshold=0.5, consistency_threshold=2))
    dist = np.abs(base.points[:, 2] - 600.0)
    part_sound = len(base) > 1000 and float(dist.max()) < 1e-5
    counts_prob = [
        len(fuse(views, FusionParams(prob_threshold=p, consistency_threshold=2)))
        for p in (0.0, 0.5, 0.9, 1.0)
    ]
    counts_k = [
        len(fuse(views, FusionParams(prob_threshold=0.5, consistency_threshold=k)))
        for k in (1, 2, 3, 4)
    ]
    part_mono = (
        counts_prob == sorted(counts_prob, reverse=True)
        and counts_prob[-1] == 0
        and counts_k == sorted(counts_k, reverse=True)
    )
    ok = part_sound and part_mono
    report(7, "Fusion soundness and monotonicity", ok,
           f"max surface dist {dist.max():.2e}, prob counts {counts_prob}, k counts {counts_k}")


def test_criterion_08_metric_fidelity():
    rng = np.random.default_rng(8)
    pred = rng.uniform(-100, 100, size=(10_000, 3))
    gt = rng.uniform(-100, 100, size=(10_000, 3))
    d_pg = quadratic_nn(pred, gt)
    d_gp = quadratic_nn(gt, pred)
    max_dist = 15.0
    acc = accuracy(pred, gt, max_dist)
    comp = completeness(pred, gt, max_dist)
    part_acc = abs(acc - d_pg[d_pg <= max_dist].mean()) < 1e-9
    part_comp = abs(comp - d_gp[d_gp <= max_dist].mean()) < 1e-9
    part_overall = overall(0.330, 0.260) == pytest.approx(0.295, rel=1e-12)
    pred_d = np.array([[100.5, 102.0, 104.0]])
    gt_d = np.array([[100.0, 100.0, 100.0]])
    m = depth_metrics(pred_d, gt_d, np.ones((1, 3), bool))
    part_depth = m.e1 == 2.0 / 3.0 and m.e3 == 1.0 / 3.0 and m.epe == np.mean([0.5, 2.0, 4.0])
    ok = part_acc and part_comp and bool(part_overall) and part_depth
    report(8, "Metric fidelity", ok,
           f"acc oracle {part_acc}, comp oracle {part_comp}, overall {bool(part_overall)}, "
           f"depth cases {part_depth}")


def test_criterion_09_format_round_trips():
    rng = np.random.default_rng(9)
    failures = []
    for i in range(100):
        h, w = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        img = formats.PfmImage(rng.normal(size=(h, w)).astype(np.float32))
        data = formats.write_pfm(img)
        back = formats.read_pfm(data)
        if formats.write_pfm(back) != data or not np.array_equal(back.data, img.data):
            failures.append(("pfm", i))
        cam = random_camera(rng)
        text = formats.write_cam(cam)
        cam2 = formats.read_cam(text)
        if formats.write_cam(cam2) != text or not np.array_equal(cam2.E, cam.E):
            failures.append(("cam", i))
        n = int(rng.integers(1, 5))
        pairings = []
        for r in range(n):
            others = [x for x in range(n + 1) if x != r]
            k = int(rng.integers(0, len(others)))
            pairings.append(ViewPairing(r, tuple((o, float(rng.normal())) for o in others[:k])))
        text = format_pair_text(pairings)
        if format_pair_text(parse_pair_text(text)) != text or parse_pair_text(text) != pairings:
            failures.append(("pair", i))
        pts = rng.normal(scale=50, size=(int(rng.integers(0, 20)), 3)).astype(np.float32)
        cloud = PointCloud(points=pts.astype(np.float64))
        blob = formats.write_ply(cloud, binary=bool(rng.integers(0, 2)))
        cloud2 = formats.read_ply(blob)
        if not np.array_equal(cloud2.points, cloud.points):
            failures.append(("ply", i))
    part_roundtrip = not failures

    corpora = {
        "pfm": (PFM_MALFORMED, formats.read_pfm),
        "cam": (CAM_MALFORMED, formats.read_cam),
        "ply": (PLY_MALFORMED, formats.read_ply),
        "pair": ([t for t, _ in PAIR_MALFORMED], parse_pair_text),
    }
    part_malformed = True
    detail = []
    for name, (corpus, reader) in corpora.items():
        assert len(corpus) >= 10
        rejected = 0
        for case in corpus:
            try:
                reader(case)
            except formats.ParseError as exc:
                located = ("line" in str(exc)) or ("offset" in str(exc))
                rejected += located
        part_malformed &= rejected == len(corpus)
        detail.append(f"{name} {rejected}/{len(corpus)}")
    ok = part_roundtrip and part_malformed
    report(9, "Format round trips and malformed rejection", ok,
           f"round-trip failures {failures}, rejected: {', '.join(detail)}")


def test_criterion_10_end_to_end_pipeline(tmp_path, capsys):
    scene = tmp_path / "scene"
    pen_dir = tmp_path / "penalty"
    cloud = tmp_path / "cloud.ply"
    start = time.monotonic()
    rc_synth = cli_main(["synth", "--out", str(scene), "--kind", "plane",
                         "--width", "320", "--height", "256", "--views", "5",
                         "--seed", "10"])
    capsys.readouterr()
    rc_pen = cli_main(["gc-penalty", "--scene", str(scene), "--out", str(pen_dir),
                       "--d-pixel", "1.0", "--d-depth", "0.01", "--threads", "1"])
    capsys.readouterr()
    rc_fuse = cli_main(["fuse", "--scene", str(scene), "--out", str(cloud),
                        "--prob-thresh", "0.5", "--num-consistent", "2", "--threads", "1"])
    capsys.readouterr()
    rc_eval = cli_main(["eval-pc", "--pred", str(cloud), "--gt", str(scene / "gt_cloud.ply"),
                        "--max-dist", "1e-5", "--threads", "1"])
    eval_doc = json.loads(capsys.readouterr().out)
    elapsed = time.monotonic() - start
    summary = json.loads((pen_dir / "summary.json").read_text())
    concentrated = True
    for view_doc in summary["views"].values():
        stage = view_doc["stages"][0]
        hist = {h["level"]: h["count"] for h in stage["histogram"]}
        concentrated &= hist.get(1.0, 0) > 0.6 * stage["pixels_in_mask"]
        concentrated &= hist.get(1.0, 0) == max(hist.values())
    parts = {
        "exit codes": (rc_synth, rc_pen, rc_fuse, rc_eval) == (0, 0, 0, 0),
        "runtime": elapsed < 60.0,
        "accuracy": eval_doc["accuracy"] < 1e-5,
        "completeness": eval_doc["completeness"] < 1e-5,
        "histogram": concentrated,
    }
    ok = all(parts.values())
    report(10, "End-to-end pipeline", ok,
           f"{elapsed:.1f}s, accuracy {eval_doc['accuracy']:.2e}, "
           f"completeness {eval_doc['completeness']:.2e}, parts {parts}")
