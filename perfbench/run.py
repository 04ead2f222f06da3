"""coverkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs iterations of one workload, each in fresh processes and one at a
time, until S seconds have passed, checking every output against an
oracle.  Prints a text report and, as the last line, one JSON object:
with --trace 0 the end-to-end metrics (medians over iterations; times
are CPU seconds at a reference speed, see speed.py), with --trace 1
the per-layer metrics of a separate traced run.  Exits 1 if any
operation failed or an oracle disagreed, 2 if coverkit's sources are
not next to the benchmark.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "locality_s": "s",
    "cover_s": "s",
    "verify_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
# Reported in the JSON result; the others are in the text report only
# (locality_s exists on two workloads; error_rate is `failed`/`attempted`).
END_TO_END_JSON = ("setup_s", "cover_s", "verify_s", "pipeline_s", "peak_rss_mb")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            k = min(n - 1, int(p / 100.0 * n))
            return f"p{p:g} {sorted(values)[k]:.4f}"
    return f"no tail percentile (needs {round(10 / (1 - TAIL_PERCENTILES[-1] / 100))}+ samples)"


def iterate(name: str, size: str, seed: int, seconds: float, traced_plan: bool, work: Path):
    """Yield iteration records while another iteration of typical length
    still fits into `seconds`.

    Untraced: every iteration uses `seed`.  Traced: the plan starts with
    traced(seed), traced(companion seed), untraced(seed), traced(seed),
    then alternates untraced/traced on `seed`, so the counts can be
    compared across two traced runs and two seeds, and the untraced
    iterations give the tracing overhead.
    """
    from workloads import SEEDED, run_iteration

    companion = seed + 1 if name in SEEDED else seed
    if traced_plan:
        head = [(True, seed), (True, companion), (False, seed), (True, seed)]
    else:
        head = [(False, seed)]
    start = time.monotonic()
    lengths: list[float] = []
    i = 0
    while i < len(head) or time.monotonic() - start + statistics.median(lengths) <= seconds:
        traced, s = head[i] if i < len(head) else (i % 2 == 1 and traced_plan, seed)
        t0 = time.monotonic()
        rec = run_iteration(name, size, s, traced, work, i)
        lengths.append(time.monotonic() - t0)
        rec.update(seed=s, traced=traced, iteration=i)
        yield rec
        i += 1


def check_run(name: str, records: list[dict]) -> list[str]:
    """Run-level oracles: cover.json byte-identical within a seed."""
    problems = []
    digests: dict[int, str] = {}
    for rec in records:
        d = rec["facts"].get("cover_digest")
        if d is None:
            continue
        if digests.setdefault(rec["seed"], d) != d:
            problems.append(f"cover output differs between iterations of seed {rec['seed']}")
            op = "cover" if name == "torus-cli" else "build_cover"
            for o in rec["ops"]:
                if o["op"] == op:
                    o["ok"] = False
    return problems


def ok(rec: dict) -> bool:
    return all(o["ok"] for o in rec["ops"])


def pipeline_s(rec: dict) -> float:
    return scaled(rec["pipeline"], rec["pipeline"])


def end_to_end(name: str, records: list[dict], lines: list[str]) -> dict:
    values: dict[str, list[float]] = {k: [] for k in END_TO_END}
    cpu, speed = [], []
    for rec in records:
        if rec["traced"] or not ok(rec):
            continue
        for phase in ("setup", "locality", "cover", "verify"):
            if phase in rec["phases"]:
                values[phase + "_s"].append(scaled(rec["phases"][phase], rec["pipeline"]))
        values["pipeline_s"].append(pipeline_s(rec))
        values["peak_rss_mb"].append(rec["peak_rss_mb"])
        cpu_s, count, seconds = rec["pipeline"]
        cpu.append(cpu_s)
        speed.append(seconds / count / REFERENCE_S)
    out = {}
    for key, unit in END_TO_END.items():
        vs = values[key]
        if not vs:
            lines.append(f"{key:<14} not measured on {name}")
            continue
        med = statistics.median(vs)
        out[key] = {"value": med, "unit": unit}
        lines.append(
            f"{key:<14} median {med:.4f} {unit}  min {min(vs):.4f}  max {max(vs):.4f}  {tail(vs)}  n={len(vs)}"
        )
    if cpu:
        lines.append(
            f"unscaled: pipeline CPU median {statistics.median(cpu):.4f} s; reference_work took "
            f"{statistics.median(speed):.3f} x {1000 * REFERENCE_S:.2f} ms (median; min {min(speed):.3f}, max {max(speed):.3f})"
        )
    return out


def count_mismatches(per_it: list) -> list[str]:
    """The deterministic counts must repeat exactly: all of them between
    traced iterations of one seed, and all but the verify phase's between
    seeds (the normality sample depends on the seed)."""
    problems = []
    ref_seed, ref = per_it[0][0]["seed"], per_it[0][3]
    for rec, _, _, counts in per_it[1:]:
        same_seed = rec["seed"] == ref_seed
        keys = set(ref) | set(counts)
        if not same_seed:
            keys = {k for k in keys if not k.startswith("verify|")}
        diff = sorted(k for k in keys if ref.get(k, 0) != counts.get(k, 0))
        if diff:
            problems.append(
                f"counts differ between traced iterations (seeds {ref_seed} and {rec['seed']}): "
                + ", ".join(f"{k} {ref.get(k, 0)} vs {counts.get(k, 0)}" for k in diff[:6])
            )
    return problems


def per_layer(records: list[dict], seed: int, lines: list[str]) -> tuple[dict, list[str]]:
    from layers import PER_LAYER, iteration_metrics

    traced = [r for r in records if r["traced"] and ok(r)]
    per_it = [(rec, *iteration_metrics(rec["processes"])) for rec in traced]
    problems = count_mismatches(per_it) if per_it else ["no traced iteration succeeded"]
    primary = [(m, s) for rec, m, s, _ in per_it if rec["seed"] == seed]
    out = {}
    for key, unit in PER_LAYER.items():
        vs = [m[key] for m, _ in primary]
        if not vs:
            continue
        med = statistics.median(vs)
        out[key] = {"value": med, "unit": unit}
        lines.append(f"{key:<46} {med:.6g} {unit}  n={len(vs)}")
    for key in ("build_cover_s", "local+graph", "builder+flags", "face_inference"):
        vs = [s[key] for _, s in primary if s]
        if vs:
            fmt = f"{statistics.median(vs):.4f} s" if key == "build_cover_s" else f"{100 * statistics.median(vs):.1f}%"
            lines.append(f"split (cover-phase build_cover) {key:<16} {fmt}")
    untraced = [pipeline_s(r) for r in records if not r["traced"] and ok(r)]
    traced_p = [pipeline_s(r) for r in traced if r["seed"] == seed]
    if untraced and traced_p:
        over = statistics.median(traced_p) - statistics.median(untraced)
        lines.append(
            f"tracing overhead (traced - untraced pipeline_s) {over:.4f} s "
            f"({100 * over / statistics.median(untraced):.1f}%), traced n={len(traced_p)}, untraced n={len(untraced)}"
        )
    return out, problems


def _terminate(signum, frame):
    # unwinds through spawn(), which kills the running child, and the
    # cleanup of the scratch directory
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None, size: str = "full") -> int:
    """The benchmark command; `size` "small" is selftest.py's instances."""
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("torus-cli", "hyperbolic-self", "wide-target"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "coverkit" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no coverkit sources at {ROOT / 'src' / 'coverkit'}\n")
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    sys.path.insert(0, str(ROOT / "src"))
    import coverkit  # noqa: F401  (oracles run in this process; also fills the bytecode cache)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run with the same pid
    work.mkdir(parents=True)
    try:
        records = list(iterate(args.workload, size, args.seed, args.seconds, bool(args.trace), work))
        problems = check_run(args.workload, records)
        lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  iterations {len(records)}"]
        if args.trace:
            metrics, trace_problems = per_layer(records, args.seed, lines)
            problems += trace_problems
        else:
            metrics = end_to_end(args.workload, records, lines)
            metrics = {k: v for k, v in metrics.items() if k in END_TO_END_JSON}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    ops = [o for rec in records for o in rec["ops"]]
    failed = [o for o in ops if not o["ok"]]
    lines.append(f"error_rate     {len(failed) / len(ops):.4f}  ({len(failed)} of {len(ops)} operations failed)")
    for o in failed[:10]:
        lines.append(f"FAILED {o['op']}: {'; '.join(o['problems'])}")
    for p in problems:
        lines.append(f"FAILED {p}")
    surj = sorted({str(rec["facts"].get("surjective")) for rec in records})
    steps = sorted({rec["facts"].get("steps") for rec in records if "steps" in rec["facts"]})
    lines.append(f"cover steps {steps}  surjective {', '.join(surj)}")
    correct = not failed and not problems
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
