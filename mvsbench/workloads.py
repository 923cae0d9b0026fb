"""The benchmark's workloads: how each builds its inputs, what one timed
iteration runs, and how its outputs are checked.

Every workload is a closed loop with one client: an iteration is a fixed
list of mvsgeo CLI calls, the next starts when the last one returned.
Inputs come from the package's own commands, seeded by the benchmark's
--seed, and the program sees only the generated files.
"""

import numpy as np

import checks

# The paper's three default stages (coarse to refine), as gc-penalty and
# the loss cascade use them.
STAGE_PIXEL = (1.0, 0.5, 0.25)
STAGE_DEPTH = (0.01, 0.005, 0.0025)
MAX_DIST = 2.0


def _synth(cli_main, out, width, height, views, seed):
    cli_main(["synth", "--out", str(out), "--kind", "two-planes", "--width", str(width),
              "--height", str(height), "--views", str(views), "--noise-std", "1.0",
              "--seed", str(seed)])


class GcPenalty:
    """gc-penalty over every reference, all listed sources, three stages."""

    name = "gc-penalty"
    why = ("the paper's core at DTU training size: reprojection and penalty "
           "votes on frames larger than L2, single-threaded")
    sizes = {"full": {"width": 640, "height": 512, "views": 5},
             "smoke": {"width": 160, "height": 128, "views": 5}}
    threads = 1
    alt_threads = 2

    def setup(self, p, seed, root, cli_main):
        _synth(cli_main, root / "scene", p["width"], p["height"], p["views"], seed)

    def commands(self, p, inputs, out, threads):
        return [["gc-penalty", "--scene", str(inputs / "scene"), "--out", str(out),
                 "--threads", str(threads)]]

    def megapixels(self, p):
        return p["views"] * p["width"] * p["height"] * len(STAGE_PIXEL) / 1e6

    def check(self, p, inputs, out):
        problems = []
        m = p["views"] - 1
        allowed = np.array([0.0] + [1.0 + k / m for k in range(m + 1)], dtype=np.float32)
        pfms = sorted(out.glob("penalty_*.pfm"))
        if len(pfms) != p["views"] * len(STAGE_PIXEL):
            problems.append(f"{len(pfms)} penalty maps, expected {p['views'] * len(STAGE_PIXEL)}")
        for path in pfms:
            values = checks.read_pfm(path)
            if values.shape != (p["height"], p["width"]):
                problems.append(f"{path.name}: shape {values.shape}")
            elif not np.isin(values, allowed).all():
                problems.append(f"{path.name}: a value outside {{0}} and 1 + k/{m}")
        summary = checks.read_json(out / "summary.json")
        if len(summary["views"]) != p["views"]:
            problems.append(f"summary.json lists {len(summary['views'])} views")
        return problems

    def formulas(self, p, out):
        fbr = p["views"] * (p["views"] - 1) * len(STAGE_PIXEL)
        return {
            "reproject.fbr.calls": fbr,
            "reproject.forward_project.calls": fbr,
            "reproject.remap.calls": fbr,
            "penalty.inconsistency_mask.calls": fbr,
        }


class FuseEval:
    """fuse the scene's depth maps, then evaluate the cloud against the GT cloud."""

    name = "fuse-eval"
    why = ("many small pairs: fusion's consume pass, held pair arrays, KD-tree "
           "queries and the thread pool carry the weight")
    sizes = {"full": {"width": 320, "height": 256, "views": 8},
             "smoke": {"width": 160, "height": 128, "views": 8}}
    threads = 2
    alt_threads = 1

    def setup(self, p, seed, root, cli_main):
        _synth(cli_main, root / "scene", p["width"], p["height"], p["views"], seed)

    def commands(self, p, inputs, out, threads):
        cloud = str(out / "cloud.ply")
        return [
            ["fuse", "--scene", str(inputs / "scene"), "--out", cloud, "--num-consistent", "2",
             "--threads", str(threads)],
            ["eval-pc", "--pred", cloud, "--gt", str(inputs / "scene" / "gt_cloud.ply"),
             "--max-dist", str(MAX_DIST), "--threads", str(threads), "--out", str(out / "eval.json")],
        ]

    def megapixels(self, p):
        return p["views"] * p["width"] * p["height"] / 1e6

    def check(self, p, inputs, out):
        problems = []
        n_pred = checks.read_ply(out / "cloud.ply").shape[0]
        n_gt = checks.read_ply(inputs / "scene" / "gt_cloud.ply").shape[0]
        doc = checks.read_json(out / "eval.json")
        if n_pred == 0:
            problems.append("fused cloud is empty")
        if (doc["n_pred"], doc["n_gt"]) != (n_pred, n_gt):
            problems.append(f"eval counts {doc['n_pred']}/{doc['n_gt']} vs PLY {n_pred}/{n_gt}")
        for key in ("accuracy", "completeness"):
            if not 0.0 < doc[key] <= MAX_DIST:
                problems.append(f"{key} {doc[key]} outside (0, {MAX_DIST}]")
        if doc["overall"] != (doc["accuracy"] + doc["completeness"]) / 2.0:
            problems.append("overall is not the mean of accuracy and completeness")
        return problems

    def formulas(self, p, out):
        pairs = p["views"] * (p["views"] - 1)
        doc = checks.read_json(out / "eval.json")
        return {
            "reproject.fbr.calls": pairs,
            "reproject.forward_project.calls": 2 * pairs,
            "reproject.remap.calls": pairs,
            "metrics.nearest_neighbor_distances.calls": 2,
            "metrics.nearest_neighbor_distances.queries": doc["n_pred"] + doc["n_gt"],
        }


class LossCascade:
    """One three-stage penalty-weighted loss per reference view.

    Stage k has resolution sizes[k] and hyps[k] hypotheses: stage 0 shares
    a uniform sweep, stages 1 and 2 get per-pixel bands from
    refine_hypotheses around the previous stage's estimate, upsampled 2x.
    Probabilities are a Gaussian in hypothesis units around a noisy copy
    of the GT depth.  GT comes from synth at each stage's resolution and
    the penalty from gc-penalty at that stage's thresholds.
    """

    name = "loss-cascade"
    why = ("training-side use of the penalty: large probability-volume reads and "
           "the cross-entropy error dominate, reprojection does no work")
    sizes = {"full": {"views": 5, "sizes": ((160, 128), (320, 256), (640, 512))},
             "smoke": {"views": 5, "sizes": ((40, 32), (80, 64), (160, 128))}}
    hyps = (48, 32, 8)
    threads = 1
    alt_threads = None

    def setup(self, p, seed, root, cli_main):
        for k, (w, h) in enumerate(p["sizes"]):
            _synth(cli_main, root / f"gt{k}", w, h, p["views"], seed)
            cli_main(["gc-penalty", "--scene", str(root / f"gt{k}"), "--out", str(root / f"pen{k}"),
                      "--d-pixel", str(STAGE_PIXEL[k]), "--d-depth", str(STAGE_DEPTH[k]),
                      "--threads", "1"])
        (root / "vol").mkdir()
        for v in range(p["views"]):
            self._write_volumes(p, seed, root, v)

    def _write_volumes(self, p, seed, root, v):
        # Imported here: the package is importable only after import_mvsgeo().
        from mvsgeo import formats, hypotheses
        from mvsgeo.loss import ProbabilityVolume
        from mvsgeo.reproject import DepthMap

        cfg = hypotheses.StageConfig(num_hypotheses=self.hyps)
        di = formats.read_cam((root / "gt0" / "cams" / f"{v:08d}_cam.txt").read_text()).depth_interval
        rng = np.random.default_rng([seed, v])
        estimate = None
        for k in range(3):
            gt = formats.depth_from_pfm(formats.read_pfm((root / f"gt{k}" / "depths" / f"{v:08d}.pfm").read_bytes()))
            if k == 0:
                hyp = hypotheses.coarse_hypotheses(cfg)
                grid = hyp[:, None, None]
                spacing = hyp[1] - hyp[0]
            else:
                prev = DepthMap.from_values(np.repeat(np.repeat(estimate, 2, axis=0), 2, axis=1))
                hyp = hypotheses.refine_hypotheses(prev, k, cfg, di)
                grid = hyp
                spacing = hypotheses.pixel_interval(cfg.dir[k], di)
            target = np.where(gt.valid, gt.values, 0.5 * (cfg.depth_min + cfg.depth_max))
            target = target + rng.normal(0.0, 0.5 * spacing, size=target.shape)
            logits = -0.5 * ((grid - target[None]) / spacing) ** 2
            probs = np.exp(logits - logits.max(axis=0, keepdims=True))
            probs = (probs / probs.sum(axis=0, keepdims=True)).astype(np.float32)
            vol = ProbabilityVolume(probs, hyp.astype(np.float32))
            (root / "vol" / f"{v:08d}_stage{k}.probvol").write_bytes(formats.write_probability_volume(vol))
            estimate = (vol.probs * np.broadcast_to(vol.hypotheses.reshape(grid.shape), vol.probs.shape)).sum(axis=0)

    def commands(self, p, inputs, out, threads):
        calls = []
        for v in range(p["views"]):
            calls.append(
                ["loss", "--probvol", *(str(inputs / "vol" / f"{v:08d}_stage{k}.probvol") for k in range(3)),
                 "--gt", *(str(inputs / f"gt{k}" / "depths" / f"{v:08d}.pfm") for k in range(3)),
                 "--penalty", *(str(inputs / f"pen{k}" / f"penalty_{v:08d}_stage0.pfm") for k in range(3)),
                 "--threads", str(threads), "--out", str(out / f"loss_{v:08d}.json")]
            )
        return calls

    def megapixels(self, p):
        return p["views"] * sum(w * h for w, h in p["sizes"]) / 1e6

    def check(self, p, inputs, out):
        problems = []
        for v in range(p["views"]):
            doc = checks.read_json(out / f"loss_{v:08d}.json")
            l0, l1, l2 = doc["stage_losses"]
            w = doc["weights"]
            if not all(x > 0 for x in (l0, l1, l2)):
                problems.append(f"view {v}: a stage loss is not positive")
            if doc["total_loss"] != w["alpha"] * l0 + w["beta"] * l1 + w["gamma"] * l2:
                problems.append(f"view {v}: total loss is not the weighted stage sum")
        return problems

    def formulas(self, p, out):
        return {
            "loss.cross_entropy_error.calls": 3 * p["views"],
            "reproject.fbr.calls": 0,
        }


WORKLOADS = {w.name: w for w in (GcPenalty(), FuseEval(), LossCascade())}
