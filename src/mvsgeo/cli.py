"""Command-line front end.

Subcommands: synth, gc-penalty, loss, fuse, eval-pc, eval-depth, warp.
Exit codes: 0 ok, 1 usage error, 2 missing input file, 3 computation
error.  A missing input prints "missing input: <path>" (or names the
view that the scene lacks); an input file that a reader rejects is
named in front of the reader's message, "<path>: <message>", whether
it is rejected when opened or, for a loss input, as it is scored.
Every command accepts --threads (default 1); only eval-pc uses it, and
its output is byte-identical for any thread count.  gc-penalty checks
every reference, then runs them in order on the calling thread, writing
each one's PFMs and summary entry before it checks the next; references
on threads were GIL-bound (at 640 x 512 x 5 views, two threads took
0.75-0.86 s of CPU for 0.50-0.68 s of wall time, one thread 0.60-0.71 s
for 0.61-0.77 s).  Its check reads pair.txt, every camera and each depth
file's header alone; then it holds two depth maps, the reference's and
the source's of the pair being checked, each read as it is needed into a
frame that the next read overwrites, so its memory does not grow with
the view count.  fuse runs its references in order on one thread too,
with every view's depth loaded first.  eval-pc checks --max-dist before
it reads either cloud, then reads each one's points through
formats.open_ply and hands them to the search as read.

Scene directory convention (emitted by synth, consumed by the rest):

    scene/
      pair.txt                   view pairing (ids + scores)
      cams/{i:08d}_cam.txt       per-view camera
      depths/{i:08d}.pfm         per-view depth, 0 marks invalid pixels
      confidence/{i:08d}.pfm     optional per-view confidence in [0, 1]
      spec.json, gt_cloud.ply    synth provenance and exact surface samples
"""

import argparse
import contextlib
import functools
import json
import math
import sys
from collections.abc import Sequence
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
from .reproject import _WARP, _chain, _pair_errors
from .views import load_pairing, rank_sources, save_pairing

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


def _require(path: Path) -> None:
    if not path.exists():
        raise FileNotFoundError(str(path))


class _NamedError(ValueError):
    """A ValueError with the path of the file it came from in front (see _reading)."""


@contextlib.contextmanager
def _reading(path):
    """Name path in front of the ValueError (a ParseError among them) that its file's contents raise within.

    An error a nested _reading has named keeps the name of its own file.
    """
    try:
        yield
    except _NamedError:
        raise
    except ValueError as exc:
        raise _NamedError(f"{path}: {exc}") from None


class _NamedBands:
    """A PFM opened with formats.open_pfm whose band reads (loss._band_reader) name its path, as _reading does."""

    def __init__(self, pfm, path):
        self._pfm, self._path, self.shape = pfm, path, pfm.shape

    def _band(self, rows):
        with _reading(self._path):
            return self._pfm._band(rows)

    def close(self):
        self._pfm.close()


def _read(path, parse):
    """parse(the bytes of the file at path), a ValueError it raises named as _reading names it."""
    with _reading(path):
        return parse(Path(path).read_bytes())


def _read_depth(path, shape=None, frame=None):
    """The depth map in a 1-channel PFM file, read band by band (_PfmFile.depth), named as _reading names it.

    frame is the (values, valid) pair it is read into, or None for fresh
    arrays.  shape, when given, is the one the file's header had when the
    scene was checked: a file that no longer has it is rejected before a
    byte is read into frame.
    """
    with _reading(path), formats.open_pfm(Path(path)) as pfm:
        if shape is not None and pfm.shape != shape:
            raise ValueError(f"depth shape {pfm.shape} is not the {shape} it had when the scene was checked")
        return pfm.depth(frame)


def _read_points(path):
    """The float64 points of the PLY cloud at path, read through formats.open_ply, named as _reading names it."""
    with _reading(path), formats.open_ply(Path(path)) as ply:
        return ply.points()


def _depth_shape(path):
    """The (H, W) of the depth map in a 1-channel PFM file, from its header alone, named as _reading names it."""
    with _reading(path), formats.open_pfm(Path(path)) as pfm:
        return pfm.depth_shape


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


def _load_scene(scene_dir: str, views=None, depth=_read_depth):
    """pair.txt's pairings, then the cameras of `views` (default: every view it names) and depth(path) of each.

    depth reads a view's depth file: its map by default, its shape alone
    for _depth_shape.  Every camera and depth file to be read is checked
    to exist before any is read; a requested view that pair.txt does not
    name is a missing input.
    """
    scene = Path(scene_dir)
    pair_path = scene / "pair.txt"
    with _reading(pair_path):
        pairings = load_pairing(pair_path)
    named = {p.reference for p in pairings} | {s for p in pairings for s, _ in p.ranked_sources}
    ids = sorted(named if views is None else set(views))
    for view in ids:
        if view not in named:
            raise FileNotFoundError(f"view {view} not present in scene {scene_dir}")
        cam_path, depth_path, _ = _scene_paths(scene, view)
        _require(cam_path)
        _require(depth_path)
    cams, depths = {}, {}
    for view in ids:
        cam_path, depth_path, _ = _scene_paths(scene, view)
        with _reading(cam_path):
            cams[view] = formats.read_cam(cam_path.read_text())
        depths[view] = depth(depth_path)
    return pairings, cams, depths


def _load_confidence(scene_dir: str, view: int, depth) -> np.ndarray:
    """A view's confidence map at its file's float32; without a file, its depth validity.

    fuse compares it with its threshold in float64 and keeps no per-point
    confidence, so a run holds 4 B/px of confidence per view, not 8.
    """
    conf_path = _scene_paths(Path(scene_dir), view)[2]
    if conf_path.exists():
        return _read(conf_path, formats.read_pfm).data
    return depth.valid.astype(np.float32)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    spec = synth.make_scene(args.kind, args.width, args.height, args.views, args.seed)
    out = Path(args.out)
    for path in _scene_paths(out, 0):
        path.parent.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed + 1)
    gt_points = []
    for v, cam in enumerate(spec.cameras):
        cam_path, depth_path, conf_path = _scene_paths(out, v)
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


class _Frame:
    """One depth map's float32 values and bool validity, which each read overwrites; remade for another shape."""

    def __init__(self):
        self._arrays = None

    def read(self, path, shape):
        """The depth map in the file at path, whose checked shape is shape, read into the frame."""
        if self._arrays is None or self._arrays[0].shape != shape:
            self._arrays = None  # the old frame goes before the new one is made
            self._arrays = (np.empty(shape, np.float32), np.empty(shape, bool))
        return _read_depth(path, shape, self._arrays)


class _Sources(Sequence):
    """A reference's sources for stage_penalties: item i reads source i's depth into one frame, which item i + 1 overwrites.

    views holds each source's (depth path, checked shape, camera).
    """

    def __init__(self, views, frame: _Frame):
        self._views, self._frame = views, frame

    def __len__(self):
        return len(self._views)

    def __getitem__(self, i):
        path, shape, cam = self._views[i]
        return self._frame.read(path, shape), cam


def _cmd_gc_penalty(args) -> int:
    if len(args.d_pixel) != len(args.d_depth):
        raise ValueError("--d-pixel and --d-depth need the same number of stages")
    # Every check that can reject the scene runs here, before any file is
    # written: pair.txt, every camera and every depth file's header.  A
    # header whose shape and payload size check out leaves no payload
    # byte that can fail to decode, so the depths are read only as the
    # references are checked.
    pairings, cams, shapes = _load_scene(args.scene, depth=_depth_shape)
    by_ref = {p.reference: p for p in pairings}
    jobs = []
    for ref_id in args.ref if args.ref else sorted(by_ref):
        if ref_id not in by_ref:
            raise FileNotFoundError(f"view {ref_id} not present in {Path(args.scene) / 'pair.txt'}")
        pairing = by_ref[ref_id]
        src_ids = pairing.top(args.num_sources) if args.num_sources else [i for i, _ in pairing.ranked_sources]
        if not src_ids:
            raise ValueError(f"view {ref_id} has no source views in pair.txt")
        for s in src_ids:
            if shapes[s] != shapes[ref_id]:
                raise ValueError(f"view {s} depth shape {shapes[s]} does not match "
                                 f"reference view {ref_id} {shapes[ref_id]}")
        jobs.append((ref_id, src_ids))
    stages = [GcThresholds(dp, dd) for dp, dd in zip(args.d_pixel, args.d_depth)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {"range_mode": args.range, "stages": [
        {"d_pixel": t.d_pixel, "d_depth": t.d_depth} for t in stages], "views": {}}

    # Two depth maps are held, each in a frame that its next read
    # overwrites: the reference's, and the source's of the pair being
    # checked.  A reference in flight is also its per-stage penalty maps,
    # which hold vote counts; each stage's levels are derived only as the
    # stage is written, and the maps are dropped before the next
    # reference is checked.
    scene, ref_frame, src_frame = Path(args.scene), _Frame(), _Frame()
    for ref_id, src_ids in jobs:
        d_ref = ref_frame.read(_scene_paths(scene, ref_id)[1], shapes[ref_id])
        sources = _Sources([(_scene_paths(scene, s)[1], shapes[s], cams[s]) for s in src_ids], src_frame)
        penalties = stage_penalties(d_ref, cams[ref_id], sources, stages, args.range)
        view_doc = {"sources": src_ids, "stages": []}
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
    # No PointCloud: its finiteness pass would repeat open_ply's.
    pred, gt = _read_points(args.pred), _read_points(args.gt)
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
    pred = _read_depth(args.pred)

    # Each input must match the prediction's frame before any arithmetic;
    # a 3-channel mask, (H, W, 3), fails too.
    def check(role, path, shape):
        if shape != pred.shape:
            raise ValueError(f"{role} {path} has shape {shape}, the prediction {args.pred} needs {pred.shape}")

    gt = _read_depth(args.gt)
    check("ground truth", args.gt, gt.shape)
    valid = pred.valid & gt.valid
    if args.mask:
        mask = _read(args.mask, formats.read_pfm).data
        check("mask", args.mask, mask.shape)
        valid = valid & (mask.astype(np.float64) > 0)
    m = depth_metrics(pred, gt, valid)
    _emit_json({"epe": m.epe, "e1": m.e1, "e3": m.e3, "n_valid": int(valid.sum())}, args.out)
    return 0


# ---------------------------------------------------------------------------
# warp
# ---------------------------------------------------------------------------


def _cmd_warp(args) -> int:
    _, cams, depths = _load_scene(args.scene, (args.ref, args.src))
    d_ref = depths[args.ref]
    x, y, d, ok = outs = tuple(np.empty(d_ref.shape, dtype=dtype) for dtype in _WARP)
    errors = np.empty((2,) + d_ref.shape)
    for sel, band, _, back, failed in _chain(d_ref, cams[args.ref], depths[args.src], cams[args.src], outs):
        _pair_errors(*band, *back[:3], failed, errors[:, sel])
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
        text = ("worker threads (default: 1)" if used
                else "accepted for a uniform command line; has no effect on this command")
        p.add_argument("--threads", type=_count_type(1), default=1, help=text)

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
    p.add_argument("--mode", choices=("fusibile", "dynamic"), default="fusibile")
    p.add_argument("--disp-thresh", type=float, default=1.0)
    p.add_argument("--depth-thresh", type=float, default=0.01)
    p.add_argument("--prob-thresh", type=float, default=0.5)
    p.add_argument("--num-consistent", type=int, default=3)
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
