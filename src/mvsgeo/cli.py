"""Command-line front end.

Subcommands: synth, gc-penalty, loss, fuse, eval-pc, eval-depth, warp.
Exit codes: 0 ok, 1 usage error, 2 missing input file, 3 computation
error.  Every command accepts --threads (default from MVSGEO_THREADS);
gc-penalty, fuse and eval-pc use it and produce byte-identical outputs
for any thread count, the other commands ignore it.  gc-penalty checks
every reference, then writes each one's PFMs as soon as they are made.

Scene directory convention (emitted by synth, consumed by the rest):

    scene/
      pair.txt                   view pairing (ids + scores)
      cams/{i:08d}_cam.txt       per-view camera
      depths/{i:08d}.pfm         per-view depth, 0 marks invalid pixels
      confidence/{i:08d}.pfm     optional per-view confidence in [0, 1]
      spec.json, gt_cloud.ply    synth provenance and exact surface samples
"""

import argparse
import functools
import json
import mmap
import os
import sys
from pathlib import Path

import numpy as np

from . import formats, synth
from .fusion import FusionParams, PointCloud, fuse
from .loss import StageWeights, cross_entropy_error, stage_loss
from .metrics import depth_metrics, evaluate_point_clouds
from .penalty import (
    GcThresholds,
    STAGE_DEPTH_THRESHOLDS,
    STAGE_PIXEL_THRESHOLDS,
    _stage_counts,
    _stage_histogram,
    _stage_map,
)
from .reproject import _in_order, _pair_errors, fbr
from .views import load_pairing, rank_sources, save_pairing

__all__ = ["main"]


class MissingInputError(FileNotFoundError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("MVSGEO_THREADS", "1")))
    except ValueError:
        return 1


def _count_type(minimum: int):
    """argparse type for an integer count of at least `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _require(path: Path) -> Path:
    if not path.exists():
        raise MissingInputError(str(path))
    return path


def _mapped(path: Path):
    """A read-only memory map of an existing file; b"" for an empty one, which mmap refuses.

    Nothing is copied: the reader's views of the map keep it alive, so it
    is never closed here.
    """
    with open(_require(path), "rb") as f:
        if os.fstat(f.fileno()).st_size == 0:
            return b""
        return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)


def _emit_json(doc: dict, out: str | None = None) -> None:
    """Print doc and write it to out (parents created); a non-finite value raises ValueError."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    sys.stdout.write(text)
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


# ---------------------------------------------------------------------------
# scene directory access
# ---------------------------------------------------------------------------


def _scene_paths(scene: Path, view: int):
    return (
        scene / "cams" / f"{view:08d}_cam.txt",
        scene / "depths" / f"{view:08d}.pfm",
        scene / "confidence" / f"{view:08d}.pfm",
    )


def _load_scene(scene_dir: str, views=None):
    """pair.txt's pairings, then the cameras and depths of `views` (default: every view it names).

    Every camera and depth file to be read is checked to exist before any
    is read; a requested view that pair.txt does not name is a missing input.
    """
    scene = Path(scene_dir)
    pairings = load_pairing(_require(scene / "pair.txt"))
    named = {p.reference for p in pairings} | {s for p in pairings for s, _ in p.ranked_sources}
    ids = sorted(named if views is None else set(views))
    for view in ids:
        if view not in named:
            raise MissingInputError(f"view {view} not present in scene {scene_dir}")
        cam_path, depth_path, _ = _scene_paths(scene, view)
        _require(cam_path)
        _require(depth_path)
    cams, depths = {}, {}
    for view in ids:
        cam_path, depth_path, _ = _scene_paths(scene, view)
        cams[view] = formats.read_cam(cam_path.read_text())
        depths[view] = formats.depth_from_pfm(formats.read_pfm(depth_path.read_bytes()))
    return pairings, cams, depths


def _load_confidence(scene_dir: str, view: int, depth) -> np.ndarray:
    """A view's confidence map as float64; without a file, its depth validity."""
    conf_path = _scene_paths(Path(scene_dir), view)[2]
    if conf_path.exists():
        return formats.read_pfm(conf_path.read_bytes()).data.astype(np.float64)
    return depth.valid.astype(np.float64)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    spec = synth.make_scene(args.kind, args.width, args.height, args.views, args.seed)
    out = Path(args.out)
    (out / "cams").mkdir(parents=True, exist_ok=True)
    (out / "depths").mkdir(exist_ok=True)
    (out / "confidence").mkdir(exist_ok=True)
    rng = np.random.default_rng(args.seed + 1)
    gt_points = []
    for v, cam in enumerate(spec.cameras):
        depth = synth.render_depth(spec, v)[0]
        (out / "cams" / f"{v:08d}_cam.txt").write_text(formats.write_cam(cam))
        values = depth.values
        if args.noise_std > 0:
            noise = rng.normal(0.0, args.noise_std, size=values.shape)
            values = np.where(depth.valid, np.maximum(values + noise, 1e-6), 0.0)
        (out / "depths" / f"{v:08d}.pfm").write_bytes(
            formats.write_pfm(formats.PfmImage(values.astype(np.float32)))
        )
        conf = depth.valid.astype(np.float32)
        (out / "confidence" / f"{v:08d}.pfm").write_bytes(formats.write_pfm(formats.PfmImage(conf)))
        gt_points.append(synth._depth_points(spec, v, depth.values)[depth.valid])
    # Rank every view's sources on a decimated back-projection of its depth.
    pairings = []
    for v in range(len(spec.cameras)):
        pts = gt_points[v][:: max(1, gt_points[v].shape[0] // 128)]
        others = [i for i in range(len(spec.cameras)) if i != v]
        pairing = rank_sources(
            spec.cameras[v],
            [spec.cameras[i] for i in others],
            pts,
            candidate_ids=others,
            reference_id=v,
        )
        pairings.append(pairing)
    save_pairing(pairings, out / "pair.txt")
    cloud = PointCloud(points=np.concatenate(gt_points))
    (out / "gt_cloud.ply").write_bytes(formats.write_ply(cloud))
    (out / "spec.json").write_text(synth.scene_to_json(spec, args.kind))
    _emit_json(
        {
            "out": str(out),
            "kind": args.kind,
            "views": len(spec.cameras),
            "resolution": [args.width, args.height],
            "gt_points": int(len(cloud)),
            "noise_std": args.noise_std,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# gc-penalty
# ---------------------------------------------------------------------------


def _cmd_gc_penalty(args) -> int:
    if len(args.d_pixel) != len(args.d_depth):
        raise ValueError("--d-pixel and --d-depth need the same number of stages")
    pairings, cams, depths = _load_scene(args.scene)
    by_ref = {p.reference: p for p in pairings}
    # Every check that can reject the scene runs here, before any file is written.
    jobs = []
    for ref_id in args.ref if args.ref else sorted(by_ref):
        if ref_id not in by_ref:
            raise MissingInputError(f"view {ref_id} not present in {Path(args.scene) / 'pair.txt'}")
        pairing = by_ref[ref_id]
        src_ids = pairing.top(args.num_sources) if args.num_sources else [i for i, _ in pairing.ranked_sources]
        if not src_ids:
            raise ValueError(f"view {ref_id} has no source views in pair.txt")
        for s in src_ids:
            if depths[s].shape != depths[ref_id].shape:
                raise ValueError(f"view {s} depth shape {depths[s].shape} does not match "
                                 f"reference view {ref_id} {depths[ref_id].shape}")
        jobs.append((ref_id, src_ids))
    stages = [GcThresholds(dp, dd) for dp, dd in zip(args.d_pixel, args.d_depth)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {"range_mode": args.range, "stages": [
        {"d_pixel": t.d_pixel, "d_depth": t.d_depth} for t in stages], "views": {}}

    # A reference in flight is its per-stage vote counts; each stage's map
    # and histogram are derived from them only as the stage is written.
    def run(ref_id, src_ids):
        return ref_id, src_ids, _stage_counts(depths[ref_id], cams[ref_id],
                                              [(depths[s], cams[s]) for s in src_ids], stages)

    def write(computed):
        ref_id, src_ids, counts = computed
        view_doc = {"sources": src_ids, "stages": []}
        valid, m = depths[ref_id].valid, len(src_ids)
        for s, count in enumerate(counts):
            path = out / f"penalty_{ref_id:08d}_stage{s}.pfm"
            path.write_bytes(formats.write_pfm(formats.PfmImage(_stage_map(count, valid, args.range, m))))
            view_doc["stages"].append({**_stage_histogram(count, valid, args.range, m), "pfm": path.name})
        summary["views"][str(ref_id)] = view_doc

    _in_order(run, write, jobs, args.threads)
    _emit_json(summary, out / "summary.json")
    return 0


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def _cmd_loss(args) -> int:
    if not (len(args.probvol) == len(args.gt) == len(args.penalty)):
        raise ValueError("--probvol, --gt and --penalty need one file per stage")
    if len(args.probvol) > 3:
        raise ValueError("at most three stages")
    weights = StageWeights(args.alpha, args.beta, args.gamma)
    losses = []
    for vol_path, gt_path, pen_path in zip(args.probvol, args.gt, args.penalty):
        vol = formats.read_probability_volume(_mapped(Path(vol_path)))
        gt = formats.depth_from_pfm(formats.read_pfm(_require(Path(gt_path)).read_bytes()))
        pen = formats.read_pfm(_require(Path(pen_path)).read_bytes()).data.astype(np.float64)
        err, supervised = cross_entropy_error(vol, gt)
        valid = supervised & (pen > 0)
        losses.append(stage_loss(pen, err, valid))
    total = float(sum(w * l for w, l in zip((weights.alpha, weights.beta, weights.gamma), losses)))
    _emit_json(
        {
            "stage_losses": losses,
            "weights": {"alpha": weights.alpha, "beta": weights.beta, "gamma": weights.gamma},
            "total_loss": total,
        },
        args.out,
    )
    return 0


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------


def _cmd_fuse(args) -> int:
    pairings, cams, depths = _load_scene(args.scene)
    order = sorted(p.reference for p in pairings)
    index = {view: i for i, view in enumerate(order)}
    by_ref = {p.reference: p for p in pairings}
    views = [(depths[v], _load_confidence(args.scene, v, depths[v]), cams[v]) for v in order]
    pairs = []
    for v in order:
        srcs = [index[s] for s, _ in by_ref[v].ranked_sources if s in index]
        pairs.append(srcs)
    params = FusionParams(
        mode=args.mode,
        disparity_threshold=args.disp_thresh,
        depth_threshold=args.depth_thresh,
        prob_threshold=args.prob_thresh,
        consistency_threshold=args.num_consistent,
        average=args.average,
    )
    cloud = fuse(views, params, pairs=pairs, threads=args.threads)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(formats.write_ply(cloud, binary=not args.ascii))
    _emit_json({"out": str(out), "points": int(len(cloud)), "mode": args.mode})
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _cmd_eval_pc(args) -> int:
    pred = formats.read_ply(_require(Path(args.pred)).read_bytes())
    gt = formats.read_ply(_require(Path(args.gt)).read_bytes())
    m = evaluate_point_clouds(pred, gt, args.max_dist, workers=args.threads)
    _emit_json(
        {
            "accuracy": m.accuracy,
            "completeness": m.completeness,
            "overall": m.overall,
            "max_dist": m.max_dist,
            "n_pred": int(len(pred)),
            "n_gt": int(len(gt)),
        },
        args.out,
    )
    return 0


def _cmd_eval_depth(args) -> int:
    pred = formats.depth_from_pfm(formats.read_pfm(_require(Path(args.pred)).read_bytes()))
    gt = formats.depth_from_pfm(formats.read_pfm(_require(Path(args.gt)).read_bytes()))
    valid = pred.valid & gt.valid
    if args.mask:
        mask_img = formats.read_pfm(_require(Path(args.mask)).read_bytes())
        valid = valid & (mask_img.data.astype(np.float64) > 0)
    m = depth_metrics(pred, gt, valid)
    _emit_json({"epe": m.epe, "e1": m.e1, "e3": m.e3, "n_valid": int(valid.sum())}, args.out)
    return 0


# ---------------------------------------------------------------------------
# warp
# ---------------------------------------------------------------------------


def _cmd_warp(args) -> int:
    _, cams, depths = _load_scene(args.scene, (args.ref, args.src))
    d_ref = depths[args.ref]
    d_reproj, p_reproj = fbr(d_ref, cams[args.ref], depths[args.src], cams[args.src])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{args.ref:08d}_{args.src:08d}"
    for name, grid in (
        (f"reproj_depth_{tag}.pfm", d_reproj.values),
        (f"reproj_x_{tag}.pfm", p_reproj.x),
        (f"reproj_y_{tag}.pfm", p_reproj.y),
        (f"reproj_valid_{tag}.pfm", d_reproj.valid.astype(np.float64)),
    ):
        (out / name).write_bytes(formats.write_pfm(formats.PfmImage(grid.astype(np.float32))))
    ok = d_reproj.valid
    doc = {"ref": args.ref, "src": args.src, "valid_pixels": int(ok.sum()), "out": str(out)}
    if ok.any():
        errors = _pair_errors(d_ref, slice(0, d_ref.height), p_reproj.x, p_reproj.y, d_reproj.values, ~ok,
                              np.empty((2,) + d_ref.shape))
        pde, rdd = (e[ok] for e in errors)
        doc.update(
            mean_pde=float(pde.mean()),
            max_pde=float(pde.max()),
            mean_rdd=float(rdd.mean()),
            max_rdd=float(rdd.max()),
        )
    _emit_json(doc)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="mvsgeo", description="Multi-view stereo geometric consistency toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_threads(p, used=True):
        text = ("worker threads (default: MVSGEO_THREADS or 1)" if used
                else "accepted for a uniform command line; has no effect on this command")
        # The default is read from MVSGEO_THREADS at each call (see main).
        p.add_argument("--threads", type=_count_type(1), default=None, help=text)

    p = sub.add_parser("synth", help="emit a synthetic scene directory")
    p.add_argument("--out", required=True)
    p.add_argument("--kind", default="plane", choices=synth.PRESET_SCENES)
    p.add_argument("--width", type=int, default=160)
    p.add_argument("--height", type=int, default=128)
    p.add_argument("--views", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-std", type=float, default=0.0,
                   help="additive Gaussian depth noise for degradation tests")
    add_threads(p, used=False)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("gc-penalty", help="per-pixel geometric consistency penalty maps")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ref", type=int, nargs="*", default=None, help="reference views (default: all)")
    p.add_argument("--num-sources", type=_count_type(0), default=0,
                   help="use the top M sources (default, or 0: all listed)")
    p.add_argument("--d-pixel", type=float, nargs="+", default=STAGE_PIXEL_THRESHOLDS)
    p.add_argument("--d-depth", type=float, nargs="+", default=STAGE_DEPTH_THRESHOLDS)
    p.add_argument("--range", choices=("one-two", "one-three"), default="one-two")
    add_threads(p)
    p.set_defaults(func=_cmd_gc_penalty)

    p = sub.add_parser("loss", help="penalty-weighted cross-entropy loss from files")
    p.add_argument("--probvol", nargs="+", required=True)
    p.add_argument("--gt", nargs="+", required=True)
    p.add_argument("--penalty", nargs="+", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--out", default=None)
    add_threads(p, used=False)
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("fuse", help="fuse scene depth maps into a point cloud")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("fusibile", "dynamic"), default="fusibile")
    p.add_argument("--disp-thresh", type=float, default=1.0)
    p.add_argument("--depth-thresh", type=float, default=0.01)
    p.add_argument("--prob-thresh", type=float, default=0.5)
    p.add_argument("--num-consistent", type=int, default=3)
    p.add_argument("--average", choices=("mean", "median"), default="mean")
    p.add_argument("--ascii", action="store_true", help="write ASCII PLY instead of binary")
    add_threads(p)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("eval-pc", help="accuracy/completeness/overall between two PLY clouds")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--max-dist", type=float, required=True)
    p.add_argument("--out", default=None)
    add_threads(p)
    p.set_defaults(func=_cmd_eval_pc)

    p = sub.add_parser("eval-depth", help="EPE/e1/e3 between two depth PFMs")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--mask", default=None)
    p.add_argument("--out", default=None)
    add_threads(p, used=False)
    p.set_defaults(func=_cmd_eval_depth)

    p = sub.add_parser("warp", help="forward-backward reprojection of one view pair")
    p.add_argument("--scene", required=True)
    p.add_argument("--ref", type=int, required=True)
    p.add_argument("--src", type=int, required=True)
    p.add_argument("--out", required=True)
    add_threads(p, used=False)
    p.set_defaults(func=_cmd_warp)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads is None:
        args.threads = _default_threads()
    try:
        return args.func(args)
    except MissingInputError as exc:
        sys.stderr.write(f"mvsgeo: missing input: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"mvsgeo: missing input: {exc.filename or exc}\n")
        return 2
    except Exception as exc:  # computation / parse errors
        sys.stderr.write(f"mvsgeo: error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
