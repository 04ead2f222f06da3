"""Child-process entry points of the benchmark.

    python3 perfbench/child.py lib --workload NAME --size full|small --seed N --out RESULT
        [--spans SPANS --iteration I]
    python3 perfbench/child.py cli --out RESULT [--spans SPANS --phase PHASE --iteration I]
        -- <cover-kit args>

`lib` runs one iteration of a library workload and writes its record to
RESULT.  `cli` runs one `cover-kit` command in this process and writes
its CPU time and speed samples (see speed.py) to RESULT.  With --spans
the tracer is installed before the first coverkit call and its spans are
written to SPANS when the process ends.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from speed import Sampler


def _tracer(spans_path: str | None, iteration: int):
    if spans_path is None:
        return None
    from tracing import Tracer

    tracer = Tracer()
    tracer.iteration = iteration
    tracer.install()
    return tracer


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="child.py")
    sub = ap.add_subparsers(dest="mode", required=True)
    lib = sub.add_parser("lib")
    lib.add_argument("--workload", required=True)
    lib.add_argument("--size", required=True, choices=("full", "small"))
    lib.add_argument("--seed", type=int, required=True)
    lib.add_argument("--out", required=True)
    lib.add_argument("--spans")
    lib.add_argument("--iteration", type=int, default=0)
    cli = sub.add_parser("cli")
    cli.add_argument("--out", required=True)
    cli.add_argument("--spans")
    cli.add_argument("--phase", default="")
    cli.add_argument("--iteration", type=int, default=0)
    cli.add_argument("args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)

    sampler = Sampler()
    sampler.start()
    tracer = _tracer(args.spans, args.iteration)
    if args.mode == "cli":
        import coverkit.cli

        cli_args = args.args[1:] if args.args[:1] == ["--"] else args.args
        if tracer is not None:
            tracer.phase = args.phase
            tracer.main_start = time.monotonic()
        try:
            return coverkit.cli.main(cli_args)
        finally:
            mark = sampler.mark()
            sampler.stop()
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({"cpu": mark}, fh)
            if tracer is not None:
                tracer.dump(args.spans)

    from workloads import LIBRARY, SIZES, Aborted, Iteration

    it = Iteration(sampler, tracer)
    try:
        LIBRARY[args.workload](SIZES[args.size][args.workload], args.seed, it)
    except Aborted:
        pass
    sampler.stop()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"phases": it.phases, "ops": it.ops, "facts": it.facts}, fh)
    if tracer is not None:
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
