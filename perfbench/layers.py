"""Per-layer metrics from the spans of one traced iteration.

Self time is a span's duration minus the time its direct child spans
cover (calls nest, so the children never overlap).  A span is named
"<module>.<function>" after the coverkit module that defines the
function; "op.*" spans are the benchmark's own timed calls and "io.*"
spans are JSON conversions.
"""

from __future__ import annotations

import json

# The metrics of a traced run's JSON result (see BENCHMARK.json).  A
# metric of a layer that a workload does not use is 0 there.
PER_LAYER = {
    "graph.is_connected_excluding.calls": "count",
    "graph.is_connected_excluding.vertices_scanned": "count",
    "graph.is_connected_excluding.self_s": "s",
    "local.peripheral_cycles_through.calls": "count",
    "local.peripheral_cycles_through.self_s": "s",
    "local.peripheral_cycles_through.repeat_ratio": "ratio",
    "local.dk_ball.calls": "count",
    "local.dk_ball.self_s": "s",
    "local.host_faces_at.calls": "count",
    "local.face_boundaries_at.calls": "count",
    "local.face_boundaries_at.repeat_ratio": "ratio",
    "local.face_core.calls": "count",
    "local.face_core.self_s": "s",
    "local.rooted_isomorphisms.calls": "count",
    "local.rooted_isomorphisms.self_s": "s",
    "local.rooted_isomorphisms.hit_ratio": "ratio",
    "flags.color.calls": "count",
    "flags.color.self_s": "s",
    "flags.color_in_h.calls": "count",
    "flags.color_in_h.self_s": "s",
    "flags.extend_iso.calls": "count",
    "flags.extend_iso.self_s": "s",
    "flags.stabilize_s": "s",
    "builder.steps": "count",
    "builder.select_next_face.self_s": "s",
    "builder.match_face.self_s": "s",
    "builder.extend_cover.self_s": "s",
    "builder.step_ms": "ms",
    "verify.check_cover.self_s": "s",
    "verify.check_normality.self_s": "s",
    "verify.check_uniqueness.self_s": "s",
    "verify.normality_pairs": "count",
    "tessellation.generate_s": "s",
    "tessellation.import_patch_s": "s",
    "tessellation.face_enumeration.calls": "count",
    "instances.make_quotient_s": "s",
    "cli.startup_s": "s",
    "cli.io_s": "s",
}


FACE_INFERENCE = ("local.peripheral_cycles_through", "local.dk_ball", "graph.is_connected_excluding")


def _load(process: dict) -> dict:
    with open(process["spans"], encoding="utf-8") as fh:
        return json.load(fh)


def _self_times(spans: list) -> list[float]:
    self_t = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_t[s[3]] -= s[2] - s[1]
    return self_t


def _outermost(spans: list, names) -> float:
    """Total duration of spans named in `names` that have no such ancestor."""
    total = 0.0
    for s in spans:
        if not s[0].startswith(names):
            continue
        p = s[3]
        while p >= 0 and not spans[p][0].startswith(names):
            p = spans[p][3]
        if p < 0:
            total += s[2] - s[1]
    return total


def _subtree(spans: list, root: int) -> list[int]:
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
    return sorted(inside)


def iteration_metrics(processes: list[dict]) -> tuple[dict, dict, dict]:
    """(metrics, split, by_phase) for one traced iteration made of these
    processes.

    `split` gives the shares of the cover-phase build_cover span's time
    by layer, the figures each workload was chosen for.  `by_phase` holds
    the deterministic counts ("<phase>|<counter>"), which must repeat
    exactly from one traced iteration to the next.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    by_phase: dict[str, int] = {}
    distinct: dict[str, int] = {}
    stabilize = generate = import_patch = make_quotient = io = startup = 0.0
    split: dict = {}
    steps, step_ms = 0, 0.0
    for proc in processes:
        doc = _load(proc)
        spans = doc["spans"]
        for k, v in doc["counts"].items():
            by_phase[k] = by_phase.get(k, 0) + v
            name = k.partition("|")[2]
            counts[name] = counts.get(name, 0) + v
        for k, v in doc["distinct_keys"].items():
            distinct[k] = distinct.get(k, 0) + v
        self_t = _self_times(spans)
        for s, st in zip(spans, self_t):
            calls[s[0]] = calls.get(s[0], 0) + 1
            self_s[s[0]] = self_s.get(s[0], 0.0) + st
            key = f"{s[5]}|{s[0]}.calls"
            by_phase[key] = by_phase.get(key, 0) + 1
        stabilize += _outermost(spans, ("flags.stabilize_n", "flags.i_fundamental_domain"))
        generate += _outermost(spans, ("tessellation.generate",))
        import_patch += _outermost(spans, ("tessellation.import_patch",))
        make_quotient += _outermost(spans, ("instances.make_quotient",))
        io += _outermost(spans, ("io.",))
        if proc["cli"]:
            startup += doc["main_start"] - proc["start"]
        roots = [i for i, s in enumerate(spans) if s[0] == "builder.build_cover" and s[5] == "cover"]
        if roots and not split:
            root = roots[0]
            span_s = spans[root][2] - spans[root][1]
            members = _subtree(spans, root)
            by_layer: dict[str, float] = {}
            for i in members:
                layer = spans[i][0].split(".")[0]
                by_layer[layer] = by_layer.get(layer, 0.0) + self_t[i]
            steps = sum(1 for i in members if spans[i][0] == "builder.extend_cover")
            step_ms = 1000.0 * span_s / steps if steps else 0.0
            face_inf = sum(self_t[i] for i in members if spans[i][0] in FACE_INFERENCE)
            split = {
                "build_cover_s": span_s,
                "local+graph": (by_layer.get("local", 0.0) + by_layer.get("graph", 0.0)) / span_s,
                "builder+flags": (by_layer.get("builder", 0.0) + by_layer.get("flags", 0.0)) / span_s,
                "face_inference": face_inf / span_s,
            }

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls" and base != "local.host_faces_at":
            m[name] = calls.get(base, 0)
        elif kind == "self_s":
            m[name] = self_s.get(base, 0.0)
    m["local.host_faces_at.calls"] = counts.get("local.host_faces_at.calls", 0)
    m["graph.is_connected_excluding.vertices_scanned"] = counts.get(
        "graph.is_connected_excluding.vertices_scanned", 0
    )
    for base in ("local.peripheral_cycles_through", "local.face_boundaries_at"):
        m[base + ".repeat_ratio"] = ratio(calls.get(base, 0), distinct.get(base, 0))
    m["local.rooted_isomorphisms.hit_ratio"] = ratio(
        counts.get("local.rooted_isomorphisms.hits", 0), calls.get("local.rooted_isomorphisms", 0)
    )
    m["flags.stabilize_s"] = stabilize
    m["builder.steps"] = steps
    m["builder.step_ms"] = step_ms
    m["verify.normality_pairs"] = counts.get("verify.normality_pairs", 0)
    m["tessellation.generate_s"] = generate
    m["tessellation.import_patch_s"] = import_patch
    m["instances.make_quotient_s"] = make_quotient
    m["cli.startup_s"] = startup
    m["cli.io_s"] = io
    by_phase["builder.steps"] = steps
    return m, split, by_phase
