"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced on a small instance
and checks that every metric is emitted with its unit and that every
oracle passes.  Also checks that the closed-form oracle rejects a
corrupted map.  Takes about half a minute; exits 1 on the first failure.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from oracles import closed_form_mismatches, permutation  # noqa: E402
from workloads import OPS, SEEDED  # noqa: E402


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def run_small(workload: str, trace: int) -> tuple[int, list[str], dict]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)], size="small")
    lines = buf.getvalue().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def check_workload(workload: str) -> None:
    for trace in (0, 1):
        code, text, result = run_small(workload, trace)
        where = f"{workload} --trace {trace}"
        expect(code == 0 and result["correct"], f"{where}: oracle failed\n" + "\n".join(text))
        expect(result["failed"] == 0 and result["attempted"] >= len(OPS[workload]), where)
        expected = (
            {k: run.END_TO_END[k] for k in run.END_TO_END_JSON} if trace == 0 else PER_LAYER
        )
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == expected, f"{where}: metrics {sorted(set(got) ^ set(expected))} differ")
        named = ["error_rate"]
        if trace == 0:
            named.append("unscaled")
        if trace == 0 and workload in SEEDED:
            named.append("locality_s")
        if trace == 1:
            named += ["tracing overhead", "split"]
        for name in named:
            expect(any(line.startswith(name) for line in text), f"{where}: no {name} line")
        print(f"ok  {where}: {len(got)} metrics, {result['attempted']} operations")


def check_oracle_rejects_corruption() -> None:
    import coverkit as ck

    patch = ck.generate(4, 4, 8)
    inst = ck.make_quotient(ck.QuotientSpec("torus", 5, 5))
    proj = ck.closed_form_projection(inst, patch)
    perm = permutation(inst.graph.n, 3)
    good = {v: perm[proj[v]] for v in proj}
    expect(not closed_form_mismatches(good, proj, perm, inst.graph, True), "true projection rejected")
    bad = dict(good)
    a, b = sorted(bad)[:2]
    bad[a], bad[b] = bad[b], bad[a]
    expect(bool(closed_form_mismatches(bad, proj, perm, inst.graph, True)), "corrupted map accepted")
    print("ok  closed-form oracle rejects a corrupted map")


def main() -> int:
    try:
        check_oracle_rejects_corruption()
        for workload in OPS:
            check_workload(workload)
    except SelfTestFailure as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
