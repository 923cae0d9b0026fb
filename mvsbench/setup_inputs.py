"""Generate one workload's inputs with the package's own commands.

run.py starts this script once per set-up repetition, in its own process,
so that the memory set-up takes does not count toward the peak RSS of the
timed iterations:

    python3 mvsbench/setup_inputs.py --workload gc-penalty --size full \
        --seed 0 --out DIR [--trace-out FILE]

With --trace-out, the set-up layers (synth, views.rank_sources,
hypotheses) are traced and their per-layer totals written as JSON.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class SetupError(RuntimeError):
    pass


def import_mvsgeo():
    """Import mvsgeo.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import mvsgeo.cli
    except ImportError as exc:
        raise SetupError(f"cannot import mvsgeo from {SRC}: {exc}") from None
    if Path(mvsgeo.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"mvsgeo was imported from {mvsgeo.__file__}, not from {SRC}")
    return mvsgeo.cli


def cli_runner(cli):
    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SetupError(f"mvsgeo {' '.join(argv)} exited {code}")
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    cli = import_mvsgeo()
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.prepare(layers.SETUP_TARGETS)
        tracer.install()
    out = Path(args.out)
    out.mkdir(parents=True)
    workload.setup(workload.sizes[args.size], args.seed, out, cli_runner(cli))
    if tracer is not None:
        tracer.uninstall()
        Path(args.trace_out).write_text(json.dumps(tracer.per_tag().get(0, {})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
