"""The three workloads, one iteration at a time.

Every iteration runs in fresh processes, one at a time, so no cache
survives between iterations.  `torus-cli` runs the `cover-kit` command
line, one interpreter per command (`child.py cli ...`, which calls
`coverkit.cli.main`); the library workloads run in one child process
(`child.py lib ...`) that times its calls and checks its outputs after
the last timed call.  Every child samples the machine's speed while it
runs (speed.py).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from oracles import closed_form_mismatches, identity_mismatches, permutation, relabelled_edges
from speed import add, since

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Full sizes are the benchmark; small sizes are for selftest.py.  An
# iteration of a full size takes 2.5-4.5 s on a 2-core VM, so a run of
# 35 s gets 7-16 fresh processes.  Their scaled times still scatter by
# 5-10% from one process to the next, so the median needs that many.
SIZES = {
    "full": {
        "torus-cli": {"p": 4, "q": 4, "radius": 16, "m": 9, "n": 9},
        "hyperbolic-self": {"p": 3, "q": 7, "radius": 7, "steps": 846},
        "wide-target": {"p": 4, "q": 4, "radius": 8, "m": 12, "n": 12, "trials": 3},
    },
    "small": {
        "torus-cli": {"p": 4, "q": 4, "radius": 12, "m": 7, "n": 7},
        "hyperbolic-self": {"p": 3, "q": 7, "radius": 6, "steps": 314},
        "wide-target": {"p": 4, "q": 4, "radius": 7, "m": 12, "n": 12, "trials": 2},
    },
}
SEEDED = ("torus-cli", "wide-target")  # hyperbolic-self ignores the seed
OPS = {
    "torus-cli": ("gen", "instance", "check-local", "cover", "verify"),
    "hyperbolic-self": ("generate", "build_cover", "check_cover", "check_normality"),
    "wide-target": (
        "generate",
        "make_quotient",
        "is_r_locally",
        "build_cover",
        "check_cover",
        "check_normality",
        "check_uniqueness",
    ),
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cover_digest(doc: dict) -> str:
    # the CLI's own serialisation, so the digest is that of cover.json
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def spawn(cmd: list[str], out_path: Path, cwd: Path) -> tuple[int, float, float]:
    """Run one process to its end: (exit code, start, peak RSS in MB).

    Start is a CLOCK_MONOTONIC reading, comparable with the ones a child
    takes itself.
    """
    with open(out_path, "wb") as out, open(str(out_path) + ".err", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=cwd, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, usage.ru_maxrss / 1024.0


def _stderr_tail(out_path: Path) -> str:
    err = Path(str(out_path) + ".err")
    text = err.read_text(encoding="utf-8", errors="replace").strip() if err.exists() else ""
    return text.splitlines()[-1] if text else ""


# ---------------------------------------------------------------------------
# One iteration's record
# ---------------------------------------------------------------------------

class Iteration:
    """Timed operations and their verdicts.  An operation is one command
    or one timed call; it fails if it raises, exits non-zero, or its
    output fails the oracle.  A phase's time is kept as [CPU seconds,
    speed samples, their seconds] (see speed.py)."""

    def __init__(self, sampler=None, tracer=None) -> None:
        self.sampler = sampler
        self.tracer = tracer
        self.phases: dict[str, list] = {}
        self.ops: list[dict] = []
        self.facts: dict = {}

    def run(self, phase: str, name: str, fn):
        """Time fn() as operation `name` of `phase`; an exception marks it
        failed and ends the iteration."""
        if self.tracer is not None:
            self.tracer.phase = phase
        span = self.tracer.span("op." + name) if self.tracer is not None else nullcontext()
        start = self.sampler.mark()
        try:
            with span:
                result = fn()
        except Exception as exc:  # the benchmark reports the failure and goes on
            self.record(phase, name, since(start, self.sampler.mark()), [_describe(exc)])
            raise Aborted from exc
        self.record(phase, name, since(start, self.sampler.mark()), [])
        return result

    def record(self, phase: str, name: str, cpu: list, problems: list[str]) -> None:
        self.phases[phase] = add(self.phases.get(phase, [0.0, 0, 0.0]), cpu)
        self.ops.append({"op": name, "ok": not problems, "problems": problems})

    def expect(self, name: str, problems: list[str]) -> None:
        """Attach oracle findings to an operation already recorded."""
        if not problems:
            return
        for op in self.ops:
            if op["op"] == name:
                op["ok"] = False
                op["problems"].extend(problems)
                return
        raise KeyError(name)

    def oracle(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()


class Aborted(Exception):
    """An operation raised; the rest of the iteration is not attempted."""


def _describe(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1] if exc.__traceback__ else None
    where = f" at {Path(frame.filename).name}:{frame.lineno}" if frame else ""
    return f"{type(exc).__name__}: {exc}{where}"


def _report_problems(report, label: str) -> list[str]:
    if report.ok:
        return []
    failed = [c.name for c in report.checks if not c.passed]
    return [f"{label} failed: {', '.join(failed)}"]


# ---------------------------------------------------------------------------
# Library workloads (run inside child.py)
# ---------------------------------------------------------------------------

def hyperbolic_self(size: dict, seed: int, it: Iteration) -> None:
    """{p,q} patch as its own host: face inference is bypassed."""
    import coverkit as ck

    patch = it.run("setup", "generate", lambda: ck.generate(size["p"], size["q"], size["radius"]))
    cov = it.run("cover", "build_cover", lambda: ck.build_cover(patch, patch))
    rc = it.run("verify", "check_cover", lambda: ck.check_cover(cov))
    rn = it.run("verify", "check_normality", lambda: ck.check_normality(cov))
    it.facts["pipeline"] = it.sampler.mark()  # from the process's start: interpreter start-up included
    with it.oracle():
        it.expect("build_cover", identity_mismatches(cov.vertex_map, cov.steps, size["steps"]))
        it.expect("check_cover", _report_problems(rc, "check_cover"))
        it.expect("check_normality", _report_problems(rn, "check_normality"))
        it.facts.update(
            steps=cov.steps, surjective=cov.surjective, cover_digest=cover_digest(cov.to_json_dict())
        )


def wide_target(size: dict, seed: int, it: Iteration) -> None:
    """Small patch, larger non-orientable target (Klein bottle)."""
    import coverkit as ck

    patch = it.run("setup", "generate", lambda: ck.generate(size["p"], size["q"], size["radius"]))
    spec = ck.QuotientSpec("klein", size["m"], size["n"])
    inst = it.run("setup", "make_quotient", lambda: ck.make_quotient(spec))
    with it.oracle():
        perm = permutation(inst.graph.n, seed)
        h = ck.Graph(range(inst.graph.n), relabelled_edges(inst.graph.edges, perm))
    loc = it.run("locality", "is_r_locally", lambda: ck.is_r_locally(h, patch, 2, d_balls=True))
    cov = it.run("cover", "build_cover", lambda: ck.build_cover(patch, h))
    rc = it.run("verify", "check_cover", lambda: ck.check_cover(cov))
    rn = it.run("verify", "check_normality", lambda: ck.check_normality(cov, rng_seed=seed))
    ru = it.run("verify", "check_uniqueness", lambda: ck.check_uniqueness(patch, h, trials=size["trials"]))
    it.facts["pipeline"] = it.sampler.mark()
    with it.oracle():
        if not loc.ok:
            it.expect("is_r_locally", [f"not 2-locally-G at {loc.failures[:5]}"])
        projection = ck.closed_form_projection(inst, patch)
        it.expect("build_cover", closed_form_mismatches(cov.vertex_map, projection, perm, inst.graph, False))
        it.expect("check_cover", _report_problems(rc, "check_cover"))
        it.expect("check_normality", _report_problems(rn, "check_normality"))
        it.expect("check_uniqueness", _report_problems(ru, "check_uniqueness"))
        it.facts.update(
            steps=cov.steps, surjective=cov.surjective, cover_digest=cover_digest(cov.to_json_dict())
        )


LIBRARY = {"hyperbolic-self": hyperbolic_self, "wide-target": wide_target}


def run_library_iteration(name, size_name, seed, traced, work: Path, iteration: int) -> dict:
    """One library iteration in a fresh child process."""
    result = work / f"result-{iteration}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "lib", "--workload", name,
           "--size", size_name, "--seed", str(seed), "--out", str(result)]
    spans = None
    if traced:
        spans = work / f"spans-{iteration}.json"
        cmd += ["--spans", str(spans), "--iteration", str(iteration)]
    code, start, rss = spawn(cmd, work / f"child-{iteration}.out", work)
    if code != 0 or not result.exists():
        why = _stderr_tail(work / f"child-{iteration}.out")
        return _crashed(name, f"child exited with {code}: {why}", rss)
    rec = json.loads(result.read_text(encoding="utf-8"))
    # up to the end of the last timed call: the oracles are left out
    rec["pipeline"] = rec["facts"].pop("pipeline", [0.0, 0, 0.0])
    rec["peak_rss_mb"] = rss
    rec["processes"] = [{"spans": str(spans), "start": start, "cli": False}] if traced else []
    return rec


def _crashed(name: str, why: str, rss: float) -> dict:
    ops = [{"op": OPS[name][0], "ok": False, "problems": [why]}]
    return {"phases": {}, "ops": ops, "facts": {}, "pipeline": [0.0, 0, 0.0], "peak_rss_mb": rss, "processes": []}


# ---------------------------------------------------------------------------
# torus-cli (driven from the benchmark process)
# ---------------------------------------------------------------------------

CLI_PHASE = {"gen": "setup", "instance": "setup", "check-local": "locality", "cover": "cover", "verify": "verify"}


def run_cli_iteration(size_name, seed, traced, work: Path, iteration: int) -> dict:
    """gen, instance, check-local, cover, verify: one interpreter each."""
    import coverkit as ck

    size = SIZES[size_name]["torus-cli"]
    d = work / f"it{iteration}"
    d.mkdir()
    it = Iteration()
    processes = []
    rss = 0.0
    pipeline = [0.0, 0, 0.0]

    def command(name: str, args: list[str]) -> tuple[bool, Path]:
        nonlocal rss, pipeline
        out = d / f"{name}.out"
        cpu_out = d / f"{name}.cpu.json"
        cmd = [sys.executable, str(HERE / "child.py"), "cli", "--out", str(cpu_out)]
        if traced:
            spans = d / f"{name}.spans.json"
            cmd += ["--spans", str(spans), "--phase", CLI_PHASE[name], "--iteration", str(iteration)]
        code, start, peak = spawn(cmd + ["--", *args], out, d)
        rss = max(rss, peak)
        cpu = json.loads(cpu_out.read_text(encoding="utf-8"))["cpu"] if cpu_out.exists() else [0.0, 0, 0.0]
        pipeline = add(pipeline, cpu)
        if traced:
            processes.append({"spans": str(spans), "start": start, "cli": True})
        it.record(CLI_PHASE[name], name, cpu, [] if code == 0 else [f"exit code {code}: {_stderr_tail(out)}"])
        return code == 0, out

    def report(out: Path) -> dict:
        try:
            return json.loads(out.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            return {}

    p, q, r = str(size["p"]), str(size["q"]), str(size["radius"])
    ok = command("gen", ["gen", "--p", p, "--q", q, "--radius", r, "-o", "patch.json"])[0]
    ok = ok and command("instance", ["instance", "torus", "--m", str(size["m"]), "--n", str(size["n"]),
                                     "-o", "torus.json"])[0]
    if ok:
        canonical = json.loads((d / "torus.json").read_text(encoding="utf-8"))
        perm = permutation(canonical["n"], seed)
        target = {"n": canonical["n"], "edges": relabelled_edges(canonical["edges"], perm)}
        (d / "target.json").write_text(json.dumps(target), encoding="utf-8")
        ok, out = command("check-local", ["check-local", "--h", "target.json", "--g", "patch.json",
                                          "--r", "2", "--d-balls"])
        if ok and not report(out).get("ok"):
            it.expect("check-local", ["check-local reports failures"])
    ok = ok and command("cover", ["cover", "--g", "patch.json", "--h", "target.json", "-o", "cover.json"])[0]
    if ok:
        ok, out = command("verify", ["verify", "--cover", "cover.json", "--g", "patch.json",
                                     "--h", "target.json", "--normality", "--rng-seed", str(seed)])
        rep = report(out)
        if ok and not (rep.get("ok") and rep.get("rebuild_matches_file")):
            it.expect("verify", ["verify reports a failure"])
    if any(op["op"] == "cover" and op["ok"] for op in it.ops):
        text = (d / "cover.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        patch = ck.import_patch(d / "patch.json")
        inst = ck.make_quotient(ck.QuotientSpec("torus", size["m"], size["n"]))
        vmap = {int(a): int(b) for a, b in doc["map"]}
        problems = closed_form_mismatches(vmap, ck.closed_form_projection(inst, patch), perm, inst.graph, True)
        if not doc.get("surjective"):
            problems.append("cover is not surjective")
        it.expect("cover", problems)
        it.facts.update(steps=doc["steps"], surjective=doc["surjective"],
                        cover_digest=hashlib.sha256(text.encode()).hexdigest())
    return {"phases": it.phases, "ops": it.ops, "facts": it.facts, "pipeline": pipeline,
            "peak_rss_mb": rss, "processes": processes}


def run_iteration(name: str, size_name: str, seed: int, traced: bool, work: Path, iteration: int) -> dict:
    if name == "torus-cli":
        return run_cli_iteration(size_name, seed, traced, work, iteration)
    return run_library_iteration(name, size_name, seed, traced, work, iteration)
