"""Command-line front end.

Subcommands: synth, gc-penalty, loss, fuse, eval-pc, eval-depth, warp.
Exit codes: 0 ok, 1 usage error, 2 missing input file, 3 computation
error.  A missing input prints "missing input: <path>" (or names the
view that the scene lacks); an input file that a reader rejects is
named in front of the reader's message, "<path>: <message>", whether
it is rejected when opened or, for a loss input, as it is scored.
gc-penalty, loss, fuse and eval-pc accept --threads (default 1); only
eval-pc uses it, and its output is byte-identical for any thread count.
gc-penalty, fuse and loss ignore it until the benchmark, which passes it
to them, stops doing so; synth, warp and eval-depth do not take it.
gc-penalty, fuse and warp open a scene with views.Scene(root), which
checks every view and their one depth shape; gc-penalty and fuse then check that their
references have sources (Scene.source_views; fuse: among the
references), all before any depth map is read or file written.  gc-penalty runs the
references in order on the calling thread (threads were GIL-bound), writing
each one's PFMs and summary entry before the next; it reads each reference
and its sources into two depth frames of Scene.shape that it makes, so its
memory does not grow with the view count.  fuse runs its references in order
on one thread too, with every reference's depth and confidence loaded first.
loss, eval-pc and eval-depth open every input and check its header (eval-depth
each shape against the prediction's) before any payload byte is read; eval-pc
checks --max-dist first, then hands each cloud's points (formats.open_ply) to
the search as read.  warp rejects --src equal to --ref before the scene is opened.
"""

import argparse
import contextlib
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import formats, synth
from .fusion import FusionParams, PointCloud, fuse
from .loss import StageWeights, cross_entropy_error, stage_loss, total_loss
from .metrics import depth_metrics, evaluate_point_clouds
from .penalty import (
    GcThresholds,
    STAGE_DEPTH_THRESHOLDS,
    STAGE_PIXEL_THRESHOLDS,
    apply_reference_mask,
    penalty_histogram,
    stage_penalties,
)
from .reproject import _WARP, _checks
from .views import Scene, _reading, rank_sources, save_pairing

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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


class _NamedBands:
    """A PFM opened with formats.open_pfm whose band reads (loss._band_reader) name its path, as _reading does."""

    def __init__(self, pfm, path):
        self._pfm, self._path, self.shape = pfm, path, pfm.shape

    def _band(self, rows):
        with _reading(self._path):
            return self._pfm._band(rows)

    def close(self):
        self._pfm.close()


def _emit_json(doc: dict, out: str | None = None) -> None:
    """Print doc and write it to out (parents created); a non-finite value raises ValueError."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    sys.stdout.write(text)
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    spec = synth.make_scene(args.kind, args.width, args.height, args.views, args.seed)
    out = Path(args.out)
    for path in Scene._files(out, 0):
        path.parent.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed + 1)
    gt_points = []
    for v, cam in enumerate(spec.cameras):
        cam_path, depth_path, conf_path = Scene._files(out, v)
        depth = synth.render_depth(spec, v)[0]
        cam_path.write_text(formats.write_cam(cam))
        values = depth.values
        if args.noise_std > 0:
            noise = rng.normal(0.0, args.noise_std, size=values.shape)
            values = np.where(depth.valid, np.maximum(values + noise, 1e-6), 0.0)
        depth_path.write_bytes(formats.write_pfm(formats.PfmImage(values.astype(np.float32))))
        conf = depth.valid.astype(np.float32)
        conf_path.write_bytes(formats.write_pfm(formats.PfmImage(conf)))
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
    if args.ref and len(set(args.ref)) < len(args.ref):
        raise ValueError(f"--ref names view {next(v for v in args.ref if args.ref.count(v) > 1)} more than once")
    # Every check that can reject the scene runs here, before any file is
    # written; the depths are read only as the references are checked.
    scene = Scene(args.scene)
    frames = [(np.empty(scene.shape, np.float32), np.empty(scene.shape, bool)) for _ in range(2)]  # ref, source
    jobs = [(v, scene.source_views(v, args.num_sources, frames[1])) for v in args.ref or sorted(scene.pairings)]
    stages = [GcThresholds(dp, dd) for dp, dd in zip(args.d_pixel, args.d_depth)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {"range_mode": args.range, "stages": [
        {"d_pixel": t.d_pixel, "d_depth": t.d_depth} for t in stages], "views": {}}

    # A reference in flight is the two depth frames and its per-stage vote
    # counts; each stage's levels are derived only as the stage is written,
    # and the maps go before the next reference.
    for ref_id, sources in jobs:
        d_ref = scene.depth(ref_id, frames[0])
        penalties = stage_penalties(d_ref, scene.cams[ref_id], sources, stages, args.range)
        view_doc = {"sources": sources.ids, "stages": []}
        valid = d_ref.valid
        for s, penalty in enumerate(penalties):
            path = out / f"penalty_{ref_id:08d}_stage{s}.pfm"
            path.write_bytes(formats.write_pfm(formats.PfmImage(apply_reference_mask(penalty, valid))))
            view_doc["stages"].append({**penalty_histogram(penalty, valid), "pfm": path.name})
        summary["views"][str(ref_id)] = view_doc
        del penalties, penalty
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
    with contextlib.ExitStack() as files:
        stages = [_open_loss_stage(files, *paths) for paths in zip(args.probvol, args.gt, args.penalty)]
        losses = []
        for (vol, gt, pen), vol_path in zip(stages, args.probvol):
            with _reading(vol_path):  # the ground truth's band reads name their own file
                error = cross_entropy_error(vol, gt)
            vol.close()  # each file's band buffers go with it
            gt.close()
            losses.append(stage_loss(pen, *error))
            pen.close()
    _emit_json(
        {
            "stage_losses": losses,
            "weights": {"alpha": weights.alpha, "beta": weights.beta, "gamma": weights.gamma},
            "total_loss": total_loss(losses, weights),
        },
        args.out,
    )
    return 0


def _open_loss_stage(files, vol_path, gt_path, pen_path):
    """A stage's volume, ground truth and penalty, opened on `files` and header-checked.

    The two PFMs must be 1-channel and match the volume's H x W frame; no
    payload byte is read yet.  Each PFM comes wrapped in _NamedBands, so a
    fault in its payload is reported with its path.
    """
    with _reading(vol_path):
        vol = files.enter_context(formats.open_probability_volume(Path(vol_path)))
    frame = vol.shape[1:]
    opened = [vol]
    for role, path in (("ground truth", gt_path), ("penalty", pen_path)):
        with _reading(path):
            pfm = files.enter_context(formats.open_pfm(Path(path)))
        if pfm.shape != frame:
            raise ValueError(f"{role} {path} has shape {pfm.shape}, the probability volume {vol_path} needs {frame}")
        opened.append(_NamedBands(pfm, path))
    return opened


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------


def _cmd_fuse(args) -> int:
    # gc-penalty's check that each reference has sources, among the references, before any depth is read.
    scene = Scene(args.scene)
    order = sorted(scene.pairings)
    pairs = [[order.index(s) for s in scene.source_views(v).ids if s in scene.pairings] for v in order]
    if [] in pairs:
        raise ValueError(f"view {order[pairs.index([])]} has no source views among the references in pair.txt")
    depths = [scene.depth(v) for v in order]
    views = [(d, scene.confidence(v, d), scene.cams[v]) for v, d in zip(order, depths)]
    params = FusionParams(
        mode=args.mode,
        disparity_threshold=args.disp_thresh,
        depth_threshold=args.depth_thresh,
        prob_threshold=args.prob_thresh,
        consistency_threshold=args.num_consistent,
        average=args.average,
    )
    cloud = fuse(views, params, pairs=pairs)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(formats.write_ply(cloud, binary=not args.ascii))
    _emit_json({"out": str(out), "points": int(len(cloud)), "mode": args.mode})
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _cmd_eval_pc(args) -> int:
    # json writes no NaN or infinity, so an infinite max_dist, legal in
    # the library, is rejected here too.
    if not 0 <= args.max_dist < math.inf:
        raise ValueError(f"--max-dist must be finite and non-negative, got {args.max_dist}")
    # Both headers are checked before either cloud's points are read.  No
    # PointCloud: its finiteness pass would repeat open_ply's.
    with contextlib.ExitStack() as files:
        clouds = []
        for path in (args.pred, args.gt):
            with _reading(path):
                clouds.append((path, files.enter_context(formats.open_ply(Path(path)))))
        points = []
        for path, ply in clouds:
            with _reading(path):
                points.append(ply.points())
    pred, gt = points
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
    inputs = [("prediction", args.pred), ("ground truth", args.gt)] + [("mask", args.mask)] * bool(args.mask)
    with contextlib.ExitStack() as files:
        # Each input must match the prediction's frame before any payload
        # is read; a 3-channel mask, (H, W, 3), fails too.
        pfms = []
        for role, path in inputs:
            with _reading(path):
                pfm = files.enter_context(formats.open_pfm(Path(path)))
                shape = pfm.shape if role == "mask" else pfm.depth_shape
            if pfms and shape != pfms[0].shape:
                raise ValueError(f"{role} {path} has shape {shape}, the prediction {args.pred} needs {pfms[0].shape}")
            pfms.append(pfm)
        maps = []
        for (role, path), pfm in zip(inputs, pfms):
            with _reading(path):
                maps.append(pfm.image() if role == "mask" else pfm.depth())
    pred, gt, *mask = maps
    valid = pred.valid & gt.valid
    if mask:
        valid = valid & (mask[0].astype(np.float64) > 0)
    m = depth_metrics(pred, gt, valid)
    _emit_json({"epe": m.epe, "e1": m.e1, "e3": m.e3, "n_valid": int(valid.sum())}, args.out)
    return 0


# ---------------------------------------------------------------------------
# warp
# ---------------------------------------------------------------------------


def _cmd_warp(args) -> int:
    if args.src == args.ref:  # as pair.txt, which lists no reference among its own sources
        raise ValueError(f"--src names the reference view {args.ref}: a view is not its own source")
    scene = Scene(args.scene)
    d_ref, cams = scene.depth(args.ref), scene.cams
    x, y, d, ok = outs = tuple(np.empty(d_ref.shape, dtype=dtype) for dtype in _WARP)
    errors = np.empty((2,) + d_ref.shape)
    for sel, _, pde, rdd, *_ in _checks(d_ref, cams[args.ref], scene.depth(args.src), cams[args.src], outs):
        errors[0, sel], errors[1, sel] = pde, rdd
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{args.ref:08d}_{args.src:08d}"
    for stem, grid in zip(("depth", "x", "y", "valid"), (d, x, y, ok)):
        (out / f"reproj_{stem}_{tag}.pfm").write_bytes(formats.write_pfm(formats.PfmImage(grid.astype(np.float32))))
    doc = {"ref": args.ref, "src": args.src, "valid_pixels": int(ok.sum()), "out": str(out)}
    if ok.any():
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
        text = "worker threads (default: 1)" if used else "accepted with no effect on this command"
        p.add_argument("--threads", type=_count_type(1), default=1, help=text)

    p = sub.add_parser("synth", help="emit a synthetic scene directory")
    p.add_argument("--out", required=True)
    p.add_argument("--kind", default="plane", choices=synth.PRESET_SCENES)
    p.add_argument("--width", type=_count_type(1), default=160)
    p.add_argument("--height", type=_count_type(1), default=128)
    p.add_argument("--views", type=_count_type(2), default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-std", type=float, default=0.0,
                   help="additive Gaussian depth noise for degradation tests")
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
    add_threads(p, used=False)
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
    p.add_argument("--mode", choices=("fusibile", "dynamic"), default="fusibile",
                   help="fusibile: one threshold pair; dynamic: a fixed table of 0.25 px and 0.0025 relative "
                        "depth per required view (default: fusibile)")
    p.add_argument("--disp-thresh", type=float, default=1.0,
                   help="fusibile displacement threshold, px (default: 1.0); --mode dynamic neither checks nor uses it")
    p.add_argument("--depth-thresh", type=float, default=0.01,
                   help="fusibile relative depth threshold (default: 0.01); --mode dynamic neither checks nor uses it")
    p.add_argument("--prob-thresh", type=float, default=0.5)
    p.add_argument("--num-consistent", type=_count_type(1), default=3)
    p.add_argument("--average", choices=("mean", "median"), default="mean")
    p.add_argument("--ascii", action="store_true", help="write ASCII PLY instead of binary")
    add_threads(p, used=False)
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
    p.set_defaults(func=_cmd_eval_depth)

    p = sub.add_parser("warp", help="forward-backward reprojection of one view pair")
    p.add_argument("--scene", required=True)
    p.add_argument("--ref", type=int, required=True)
    p.add_argument("--src", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_warp)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        sys.stderr.write(f"mvsgeo: missing input: {exc.filename or exc}\n")
        return 2
    except Exception as exc:  # computation / parse errors
        sys.stderr.write(f"mvsgeo: error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
