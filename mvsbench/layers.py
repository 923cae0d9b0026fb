"""Which package functions the traced run wraps, and the per-layer metrics.

Layers are the mvsgeo modules.  camera is wrapped only where reproject
calls it; synth, views.rank_sources and hypotheses run only during set-up
and are traced in the set-up process.  A per-layer metric is named
<module>.<function>.<stat>:

    calls     spans per iteration
    s         summed span time per iteration (median over iterations)
    self_s    the same, minus time covered by child spans on the same thread
    bytes, queries, points, minor_faults
              summed counter per iteration; minor page faults are the
              whole process's, pool threads included, and unlike the
              counts they vary slightly from run to run
    *_frac    summed counter over summed "tested" counter, all iterations
    maxrss_delta_mb
              rise of the process's peak RSS during the first call
"""

import statistics

import numpy as np

from tracer import Target


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _nbytes(args, kwargs, result):
    return {"bytes": len(args[0] if args else next(iter(kwargs.values())))}


def _result_bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _remap(args, kwargs, result):
    coords = _arg(args, kwargs, 1, "coords")
    return {"valid": int(np.count_nonzero(result.valid)), "tested": int(np.count_nonzero(coords.valid))}


def _inconsistency(args, kwargs, result):
    d_ref = _arg(args, kwargs, 0, "d_ref")
    return {"flagged": int(np.count_nonzero(result)), "tested": int(np.count_nonzero(d_ref.valid))}


def _fuse(args, kwargs, result):
    views = _arg(args, kwargs, 0, "views")
    tested = sum(int(np.count_nonzero(view[0].valid)) for view in views)
    return {"points": len(result), "fused": len(result), "tested": tested}


def _nn(args, kwargs, result):
    return {"queries": int(result.shape[0])}


def _cross_entropy(args, kwargs, result):
    supervised = result[1]
    return {"supervised": int(np.count_nonzero(supervised)), "tested": int(supervised.size)}


def _cli_name(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv")
    return f"cli.{argv[0]}"


TARGETS = (
    Target("mvsgeo.cli", "main", span_name=_cli_name, track_rusage=True),
    Target("mvsgeo.reproject", "fbr"),
    Target("mvsgeo.reproject", "forward_project"),
    Target("mvsgeo.reproject", "remap", counters=_remap),
    Target("mvsgeo.camera", "warp_transform", only_in=("mvsgeo.reproject",)),
    Target("mvsgeo.camera", "pixel_grid", only_in=("mvsgeo.reproject",)),
    Target("mvsgeo.penalty", "per_pixel_penalty"),
    Target("mvsgeo.penalty", "inconsistency_mask", counters=_inconsistency),
    Target("mvsgeo.fusion", "fuse", counters=_fuse, track_rusage=True),
    Target("mvsgeo.metrics", "nearest_neighbor_distances", counters=_nn),
    Target("mvsgeo.formats", "read_probability_volume", counters=_nbytes),
    Target("mvsgeo.formats", "read_pfm", counters=_nbytes),
    Target("mvsgeo.formats", "write_pfm", counters=_result_bytes),
    Target("mvsgeo.formats", "read_cam", counters=_nbytes),
    Target("mvsgeo.formats", "read_ply", counters=_nbytes),
    Target("mvsgeo.formats", "write_ply", counters=_result_bytes),
    Target("mvsgeo.loss", "cross_entropy_error", counters=_cross_entropy),
    Target("mvsgeo.loss", "stage_loss"),
    Target("mvsgeo.views", "load_pairing"),
)

SETUP_TARGETS = (
    Target("mvsgeo.cli", "main", span_name=_cli_name),
    Target("mvsgeo.synth", "render_depth"),
    Target("mvsgeo.views", "rank_sources"),
    Target("mvsgeo.hypotheses", "refine_hypotheses"),
)

# Metrics measured over the timed iterations of the traced run.
ITERATION_METRICS = (
    ("reproject.fbr.calls", "count"),
    ("reproject.fbr.self_s", "s"),
    ("reproject.forward_project.calls", "count"),
    ("reproject.forward_project.s", "s"),
    ("reproject.remap.calls", "count"),
    ("reproject.remap.s", "s"),
    ("reproject.remap.valid_frac", "fraction"),
    ("camera.warp_transform.calls", "count"),
    ("camera.pixel_grid.s", "s"),
    ("penalty.per_pixel_penalty.self_s", "s"),
    ("penalty.inconsistency_mask.calls", "count"),
    ("penalty.inconsistency_mask.s", "s"),
    ("penalty.inconsistency_mask.flagged_frac", "fraction"),
    ("fusion.fuse.s", "s"),
    ("fusion.fuse.self_s", "s"),
    ("fusion.fuse.maxrss_delta_mb", "MB"),
    ("fusion.fuse.points", "count"),
    ("fusion.fuse.fused_frac", "fraction"),
    ("metrics.nearest_neighbor_distances.calls", "count"),
    ("metrics.nearest_neighbor_distances.queries", "count"),
    ("metrics.nearest_neighbor_distances.s", "s"),
    ("formats.read_probability_volume.s", "s"),
    ("formats.read_probability_volume.bytes", "B"),
    ("loss.cross_entropy_error.calls", "count"),
    ("loss.cross_entropy_error.s", "s"),
    ("loss.cross_entropy_error.supervised_frac", "fraction"),
    ("loss.stage_loss.s", "s"),
    ("formats.read_pfm.s", "s"),
    ("formats.read_pfm.bytes", "B"),
    ("formats.write_pfm.s", "s"),
    ("formats.write_pfm.bytes", "B"),
    ("formats.read_cam.s", "s"),
    ("formats.read_cam.bytes", "B"),
    ("formats.read_ply.s", "s"),
    ("formats.read_ply.bytes", "B"),
    ("formats.write_ply.s", "s"),
    ("formats.write_ply.bytes", "B"),
    ("views.load_pairing.s", "s"),
    ("cli.gc-penalty.s", "s"),
    ("cli.gc-penalty.minor_faults", "faults"),
    ("cli.fuse.s", "s"),
    ("cli.fuse.minor_faults", "faults"),
    ("cli.eval-pc.s", "s"),
    ("cli.eval-pc.minor_faults", "faults"),
    ("cli.loss.s", "s"),
    ("cli.loss.minor_faults", "faults"),
)

# Metrics measured in the set-up processes (median over set-up repetitions).
SETUP_METRICS = (
    ("cli.synth.s", "s"),
    ("synth.render_depth.s", "s"),
    ("views.rank_sources.s", "s"),
    ("hypotheses.refine_hypotheses.s", "s"),
)

# The traced run's checks on itself.
TRACE_METRICS = (
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.count_mismatches", "count"),
)

PER_LAYER = ITERATION_METRICS + SETUP_METRICS + TRACE_METRICS


def split_metric(metric: str) -> tuple[str, str]:
    """Split "reproject.fbr.calls" into ("reproject.fbr", "calls")."""
    span, _, stat = metric.rpartition(".")
    return span, stat


def iteration_metrics(per_tag: dict, tags: list[int], first_span) -> dict:
    """Per-layer values from the traced iterations `tags`.

    first_span(name) gives a span name's first span in the process, which
    carries the peak-RSS rise.  A layer the workload never calls reads 0.
    """
    out = {}
    for metric, _ in ITERATION_METRICS:
        span, stat = split_metric(metric)
        rows = [per_tag.get(tag, {}).get(span, {}) for tag in tags]
        if stat.endswith("_frac"):
            num = sum(row.get(stat.removesuffix("_frac"), 0) for row in rows)
            den = sum(row.get("tested", 0) for row in rows)
            value = num / den if den else 0.0
        elif stat == "maxrss_delta_mb":
            first = first_span(span)
            value = first.counters.get("maxrss_delta_kb", 0) / 1024.0 if first else 0.0
        else:
            value = statistics.median(row.get(stat, 0) for row in rows)
        out[metric] = value
    return out


def setup_metrics(rep_summaries: list[dict]) -> dict:
    """Median over set-up repetitions of each set-up layer's summed time."""
    out = {}
    for metric, _ in SETUP_METRICS:
        span, stat = split_metric(metric)
        out[metric] = statistics.median(rep.get(span, {}).get(stat, 0.0) for rep in rep_summaries)
    return out
