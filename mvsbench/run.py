"""mvsgeo end-to-end benchmark.

    python3 mvsbench/run.py --workload gc-penalty --seed 0 --seconds 20 --trace 0

One workload runs in this process.  The package is imported from the
checkout's src/.  Inputs are generated by setup_inputs.py, three times in
child processes from the same seed (the repetitions must agree byte for
byte).  Then one warm-up iteration, then timed iterations of
mvsgeo.cli.main for --seconds, then an untimed run at another thread
count whose outputs must hash the same.

An iteration fails when a command exits non-zero, a RuntimeWarning is
raised, an output holds a NaN or an infinity, an output's sha256 differs
from the warm-up's (or, for the pinned seed and environment, from
pinned_hashes.json), or a workload-specific check on the outputs fails.

--trace 0 reports the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced iterations and reports the per-layer
metrics (see layers.py), the tracing overhead and the number of per-layer
counts that differ from their formulas.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}.  A readable
report goes to stderr and the full record, with the environment, to
mvsbench/results/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from setup_inputs import ROOT, SRC, SetupError, import_mvsgeo  # noqa: E402
from tracer import MissingTarget, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
PINS = BENCH / "pinned_hashes.json"
PINNED_SEED = 0
SETUP_REPS = 3
SETUP_TIMEOUT_S = 150

END_TO_END = (
    ("wall_s", "s"),
    ("mpix_per_s", "Mpix/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="mvsgeo end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: about 160x128 frames, for the benchmark's own tests")
    parser.add_argument("--write-pins", action="store_true",
                        help=f"record the warm-up output hashes in {PINS.name} (seed {PINNED_SEED} only)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}{'d' if kind == 'Data' else ''}"] = (index / "size").read_text().strip()
    return caches


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    try:
        from mvsgeo._kernels import USING_NUMBA as using_numba
    except ImportError:
        using_numba = False
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    source = hashlib.sha256()
    for path in sorted((SRC / "mvsgeo").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "using_numba": bool(using_numba),
        "numpy_cpu_features": sorted(k for k, v in features.items() if v),
    }


def pin_key(env: dict) -> dict:
    """The parts of the environment that output bytes may depend on."""
    keys = ("machine", "numpy", "using_numba", "numpy_cpu_features")
    return {k: env[k] for k in keys}


# ---------------------------------------------------------------------------
# iterations
# ---------------------------------------------------------------------------


def _call(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def iterate(cli, commands, out: Path) -> tuple[float, list[str]]:
    """Run one iteration's commands into a fresh out/; returns its time and failures."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always", RuntimeWarning)
        start = time.perf_counter()
        codes = [_call(cli, argv) for argv in commands]
        elapsed = time.perf_counter() - start
    problems = [f"mvsgeo {argv[0]} exited {code}" for argv, code in zip(commands, codes) if code != 0]
    problems += [f"RuntimeWarning: {w.message}" for w in caught if issubclass(w.category, RuntimeWarning)]
    return elapsed, problems


def check_outputs(workload, p, inputs: Path, out: Path, reference: dict | None):
    """Hashes of out/ and the reasons its outputs are wrong, if any."""
    hashes = checks.hashes(out)
    problems = []
    try:
        problems += [f"{rel}: non-finite value" for rel in hashes if checks.nonfinite(out / rel)]
        problems += workload.check(p, inputs, out)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"output check failed: {exc!r}")
    if reference is not None and hashes != reference:
        changed = sorted(set(hashes) ^ set(reference) | {k for k in hashes if reference.get(k) != hashes[k]})
        problems.append(f"outputs differ from the reference: {', '.join(changed[:5])}")
    return hashes, problems


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def run_setup(args, work: Path):
    """Generate inputs SETUP_REPS times; returns (times, rep traces, problems)."""
    times, traces, problems = [], [], []
    first = None
    for k in range(SETUP_REPS):
        dest = work / f"inputs{k}"
        cmd = [sys.executable, str(BENCH / "setup_inputs.py"), "--workload", args.workload,
               "--size", args.size, "--seed", str(args.seed), "--out", str(dest)]
        trace_file = work / f"setup_trace{k}.json"
        if args.trace:
            cmd += ["--trace-out", str(trace_file)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                                  timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise SetupError(f"input generation took longer than {SETUP_TIMEOUT_S} s") from None
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(f"input generation failed:\n{proc.stderr.strip()}")
        if args.trace:
            traces.append(json.loads(trace_file.read_text()))
        if first is None:
            first = checks.hashes(dest)
        else:
            if checks.hashes(dest) != first:
                problems.append(f"set-up repetition {k} generated different inputs from the same seed")
            shutil.rmtree(dest)
    return times, traces, problems


# ---------------------------------------------------------------------------
# pinned hashes
# ---------------------------------------------------------------------------


def _load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def pinned_check(args, env, hashes) -> tuple[str, list[str]]:
    if args.seed != PINNED_SEED:
        return f"not applicable (pins are for seed {PINNED_SEED})", []
    entry = _load_pins().get(f"{args.workload}/{args.size}")
    if entry is None:
        return "no pinned hashes for this workload and size", []
    if entry["env"] != pin_key(env):
        return "skipped: numpy, machine or CPU features differ from the pinned environment", []
    if entry["outputs"] != hashes:
        return "mismatch", ["outputs differ from the hashes pinned for the default seed"]
    return "match", []


def write_pins(args, env, hashes) -> None:
    pins = _load_pins()
    pins[f"{args.workload}/{args.size}"] = {"env": pin_key(env), "outputs": hashes}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def run(args, cli, import_s: float, work: Path) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    p = workload.sizes[args.size]
    env = environment()
    record = {"workload": args.workload, "size": args.size, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env}
    problems = []  # failures of the run as a whole

    setup_times, setup_traces, setup_problems = run_setup(args, work)
    problems += setup_problems
    inputs = work / "inputs0"

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.prepare(layers.TARGETS)
        tracer.install()
        tracer.tag = -1

    out = work / "out"
    iteration_failures = []
    warm_s, warm_problems = iterate(cli, workload.commands(p, inputs, out, workload.threads), out)
    reference, check_problems = check_outputs(workload, p, inputs, out, None)
    warm_problems += check_problems
    record["pinned"], pin_problems = pinned_check(args, env, reference)
    warm_problems += pin_problems
    if args.write_pins and args.seed == PINNED_SEED and not warm_problems:
        write_pins(args, env, reference)
        record["pinned"] = "written"
    if warm_problems:
        iteration_failures.append(("warm-up", warm_problems))

    untraced, traced, traced_tags = [], [], []
    attempted = 1
    loop_start = time.perf_counter()
    i = 0
    while True:
        is_traced = bool(args.trace) and i % 2 == 1
        if tracer is not None:
            tracer.tag = i
            tracer.install() if is_traced else tracer.uninstall()
        elapsed, failures = iterate(cli, workload.commands(p, inputs, out, workload.threads), out)
        _, check_problems = check_outputs(workload, p, inputs, out, reference)
        failures += check_problems
        attempted += 1
        if failures:
            iteration_failures.append((i, failures))
        if is_traced:
            traced.append(elapsed)
            traced_tags.append(i)
        else:
            untraced.append(elapsed)
        i += 1
        if time.perf_counter() - loop_start >= args.seconds and (not args.trace or traced):
            break
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if workload.alt_threads:
        alt_out = work / "out_threads"
        _, alt_problems = iterate(cli, workload.commands(p, inputs, alt_out, workload.alt_threads), alt_out)
        alt_hashes, check_problems = check_outputs(workload, p, inputs, alt_out, None)
        alt_problems += check_problems
        if alt_hashes != reference:
            alt_problems.append(f"outputs at --threads {workload.alt_threads} differ from --threads {workload.threads}")
        record["thread_invariance"] = "fail" if alt_problems else "pass"
        problems += alt_problems

    wall_s = statistics.median(untraced)
    setup_s = import_s + statistics.median(setup_times) + warm_s
    record.update(
        import_s=import_s, setup_rep_s=setup_times, warmup_s=warm_s, iteration_s=untraced,
        traced_iteration_s=traced, problems=problems,
        iteration_failures=[[str(n), msgs] for n, msgs in iteration_failures],
        failed_frac=len(iteration_failures) / attempted,
    )
    if args.trace:
        per_tag = tracer.per_tag()
        values = layers.iteration_metrics(per_tag, traced_tags, tracer.first_span)
        values.update(layers.setup_metrics(setup_traces))
        mismatches = []
        for metric, expected in workload.formulas(p, out).items():
            span, stat = layers.split_metric(metric)
            counts = sorted({per_tag.get(tag, {}).get(span, {}).get(stat, 0) for tag in traced_tags})
            if counts != [expected]:
                mismatches.append(f"{metric}: counted {counts} per iteration, formula gives {expected}")
        traced_s = statistics.median(traced)
        values.update({"trace.wall_s": traced_s, "trace.overhead_s": traced_s - wall_s,
                       "trace.count_mismatches": len(mismatches)})
        units = dict(layers.PER_LAYER)
        metrics = {name: {"value": values[name], "unit": units[name]} for name, _ in layers.PER_LAYER}
        record["count_mismatches"] = mismatches
        record["spans"] = tracer.dump()
    else:
        values = {
            "wall_s": wall_s,
            "mpix_per_s": workload.megapixels(p) / wall_s,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record["metrics"] = metrics
    failed = len(iteration_failures)
    return {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, record


def report(result: dict, record: dict) -> None:
    err = sys.stderr
    print(f"mvsbench {record['workload']} ({record['size']}, seed {record['seed']}, "
          f"trace {record['trace']}): {len(record['iteration_s'])} untraced and "
          f"{len(record['traced_iteration_s'])} traced timed iterations", file=err)
    for name, metric in result["metrics"].items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}", file=err)
    print(f"  {'failed_frac':48s} {record['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} iterations)", file=err)
    print(f"  pinned hashes: {record['pinned']}; thread invariance: "
          f"{record.get('thread_invariance', 'not checked')}", file=err)
    env = record["env"]
    print(f"  env: {env['cpu_model']}, nproc {env['nproc']}, caches {env['caches']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"numba {env['using_numba']}, commit {env['commit']}", file=err)
    for line in record["problems"] + record.get("count_mismatches", []):
        print(f"  ! {line}", file=err)
    for n, msgs in record["iteration_failures"]:
        print(f"  ! iteration {n}: {'; '.join(msgs)}", file=err)


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind so that a running set-up child is killed and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        cli = import_mvsgeo()
    except SetupError as exc:
        print(f"mvsbench: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    work = BENCH / "_work" / f"{args.workload}-{args.size}-seed{args.seed}-pid{os.getpid()}"
    try:
        result, record = run(args, cli, import_s, work)
    except (SetupError, MissingTarget) as exc:
        print(f"mvsbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    report(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
