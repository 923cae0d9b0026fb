"""The benchmark's own tests, on the smoke size of each workload.

    python3 -m pytest mvsbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import run
from setup_inputs import import_mvsgeo
from tracer import MissingTarget, Target, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "mvsbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(workload, seed, trace):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "results" / f"{workload}-smoke-seed{seed}-trace{trace}.json").read_text())
    return result, record


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["mvsbench"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(layers.PER_LAYER)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_tracer_rebinds_every_importer_and_restores():
    import_mvsgeo()
    import mvsgeo
    from mvsgeo import cli, fusion, penalty, reproject

    original = reproject.fbr
    tracer = Tracer()
    tracer.prepare([Target("mvsgeo.reproject", "fbr")])
    tracer.install()
    try:
        for module in (mvsgeo, cli, fusion, penalty, reproject):
            assert module.fbr is not original and module.fbr.__wrapped__ is original
    finally:
        tracer.uninstall()
    for module in (mvsgeo, cli, fusion, penalty, reproject):
        assert module.fbr is original


def test_tracer_fails_loudly_on_a_missing_function():
    import_mvsgeo()
    with pytest.raises(MissingTarget, match="mvsgeo.reproject.no_such_function"):
        Tracer().prepare([Target("mvsgeo.reproject", "no_such_function")])


def test_self_time_subtracts_children_on_the_same_thread():
    import_mvsgeo()
    from mvsgeo import penalty, synth

    tracer = Tracer()
    tracer.prepare([Target("mvsgeo.penalty", "per_pixel_penalty"), Target("mvsgeo.reproject", "fbr")])
    spec = synth.make_scene("plane", 32, 24, 3, seed=0)
    d_ref = synth.render_depth(spec, 0)[0]
    sources = [(synth.render_depth(spec, s)[0], spec.cameras[s]) for s in (1, 2)]
    tracer.install()
    try:
        penalty.per_pixel_penalty(d_ref, spec.cameras[0], sources, penalty.GcThresholds(1.0, 0.01))
    finally:
        tracer.uninstall()
    stats = tracer.per_tag()[0]
    outer, inner = stats["penalty.per_pixel_penalty"], stats["reproject.fbr"]
    assert (outer["calls"], inner["calls"]) == (1, 2)
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"])
    assert inner["self_s"] == inner["s"]


def test_checks_find_non_finite_values(tmp_path):
    from mvsgeo import formats

    good, bad = tmp_path / "good.pfm", tmp_path / "bad.pfm"
    good.write_bytes(formats.write_pfm(formats.PfmImage(np.ones((4, 5), np.float32))))
    values = np.ones((4, 5), np.float32)
    values[2, 3] = np.nan
    bad.write_bytes(formats.write_pfm(formats.PfmImage(values)))
    assert not checks.nonfinite(good) and checks.nonfinite(bad)
    (tmp_path / "x.json").write_text('{"loss": NaN}')
    assert checks.nonfinite(tmp_path / "x.json")


def test_iteration_failures_are_detected(tmp_path):
    cli = import_mvsgeo()
    _, problems = run.iterate(cli, [["eval-pc", "--pred", str(tmp_path / "missing.ply"), "--gt",
                                     str(tmp_path / "missing.ply"), "--max-dist", "1"]], tmp_path / "out")
    assert problems == ["mvsgeo eval-pc exited 2"]
    _, problems = run.iterate(cli, [["no-such-command"]], tmp_path / "out")
    assert problems == ["mvsgeo no-such-command exited 1"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_runs_are_correct_and_pinned(workload):
    result, record = _result(workload, seed=0, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # Pins hold for the environment they were made in; elsewhere the check is skipped.
    assert record["pinned"] == "match" or record["pinned"].startswith("skipped")
    assert record.get("thread_invariance", "pass") == "pass"


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_runs_match_their_formulas(workload):
    result, record = _result(workload, seed=1, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in layers.PER_LAYER]
    assert record["count_mismatches"] == []
    again, _ = _result(workload, seed=1, trace=1)
    for name, unit in layers.PER_LAYER:
        if unit in ("count", "B", "fraction") and name != "trace.count_mismatches":
            assert again["metrics"][name] == result["metrics"][name], name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "mvsbench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = _run("--workload", "gc-penalty", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
