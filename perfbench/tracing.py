"""Layer tracing from outside the program.

`Tracer.install()` wraps the public functions of each coverkit layer and
rebinds every wrapper in each coverkit module that bound the original by
name (``from .local import dk_ball`` makes ``builder.dk_ball`` one such
binding), so calls between layers are seen as well as calls from the
benchmark.  Each wrapped call records a span ``[name, start, end, parent,
iteration, phase]``; spans stay in memory and are written out once, when
the process ends.  A few functions also feed per-call counters read from
their arguments or results (vertices scanned, distinct keys, hits).

Functions listed in COUNTED are hot memo lookups: they are counted but
get no span, so their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# (module, function) pairs that get a span.  Names are reported as
# "<module>.<function>"; the module is where the function is defined.
SPANNED = {
    "graph": ("is_connected_excluding", "ball", "induced_subgraph"),
    "local": (
        "peripheral_cycles_through",
        "dk_ball",
        "face_boundaries_at",
        "face_core",
        "rooted_isomorphisms",
        "is_r_locally",
    ),
    "flags": (
        "color",
        "color_in_h",
        "extend_iso",
        "flags_at",
        "flag_orbit_partition",
        "stabilize_n",
        "i_fundamental_domain",
    ),
    "builder": (
        "build_cover",
        "default_seed",
        "init_cover",
        "select_next_face",
        "match_face",
        "extend_cover",
    ),
    "verify": ("check_cover", "check_normality", "check_uniqueness"),
    "tessellation": ("generate", "import_patch", "face_enumeration"),
    "instances": ("make_quotient",),
    "cli": ("main",),
}
COUNTED = {"local": ("host_faces_at",)}

# JSON conversions, traced as "io.<Class>.<method>" spans.
IO_METHODS = (
    ("graph", "Graph", "from_json_dict"),
    ("flags", "Flag", "from_json_dict"),
    ("graph", "Graph", "to_json_dict"),
    ("flags", "Flag", "to_json_dict"),
    ("tessellation", "PlanePatch", "to_json_dict"),
    ("builder", "CoverMap", "to_json_dict"),
    ("instances", "QuotientInstance", "to_json_dict"),
    ("report", "VerificationReport", "to_json_dict"),
    ("local", "LocalCheckReport", "to_json_dict"),
)


def _graph_key(g, v) -> tuple:
    # graph content, not identity: D-balls are rebuilt as new objects
    return (hash(g), g.n, len(g.edges), v)


class Tracer:
    """Spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.iteration = 0
        self.phase = ""
        self.enabled = True
        self.counts: dict[str, int] = {}  # "<phase>|<counter>" -> count
        self.keys: dict[str, set] = {}
        self.main_start: float | None = None  # CLOCK_MONOTONIC, CLI processes only

    # -- recording -----------------------------------------------------------

    def _count(self, name: str, by: int = 1) -> None:
        key = f"{self.phase}|{name}"
        self.counts[key] = self.counts.get(key, 0) + by

    def _spanned(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.iteration, self.phase]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self._count(key)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (phases, CLI commands)."""
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
               self.iteration, self.phase]
        self.spans.append(rec)
        self.stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    @contextmanager
    def paused(self):
        """Nothing inside is traced (the oracles)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- per-call counters -----------------------------------------------------

    def _hooks(self, name: str):
        if name == "graph.is_connected_excluding":
            def before(args, kwargs):
                g = args[0]
                removed = set(args[1] if len(args) > 1 else kwargs["removed"])
                self._count(name + ".vertices_scanned", g.n - sum(1 for v in removed if v in g))
            return before, None
        if name in ("local.peripheral_cycles_through", "local.face_boundaries_at"):
            seen = self.keys.setdefault(name, set())

            def before(args, kwargs):
                seen.add(_graph_key(args[0], args[1]))
            return before, None
        if name == "local.rooted_isomorphisms":
            def after(result):
                if result:
                    self._count(name + ".hits")
            return None, after
        if name == "verify.check_normality":
            def after(report):
                pairs = 0
                for check in report.checks:
                    pairs = max(pairs, int(check.info.get("pairs", 0)))
                self._count("verify.normality_pairs", pairs)
            return None, after
        return None, None

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        import coverkit  # noqa: F401  (loads every layer)
        import coverkit.cli  # noqa: F401

        modules = [m for k, m in sys.modules.items() if k == "coverkit" or k.startswith("coverkit.")]
        for short, names in SPANNED.items():
            home = sys.modules["coverkit." + short]
            for fname in names:
                before, after = self._hooks(f"{short}.{fname}")
                self._rebind(modules, getattr(home, fname),
                             self._spanned(f"{short}.{fname}", getattr(home, fname), before, after))
        for short, names in COUNTED.items():
            home = sys.modules["coverkit." + short]
            for fname in names:
                self._rebind(modules, getattr(home, fname),
                             self._counted(f"{short}.{fname}", getattr(home, fname)))
        for short, cls_name, meth in IO_METHODS:
            cls = getattr(sys.modules["coverkit." + short], cls_name)
            raw = cls.__dict__[meth]
            name = f"io.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self._spanned(name, raw.__func__)))
            else:
                setattr(cls, meth, self._spanned(name, raw))

    @staticmethod
    def _rebind(modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    # -- output --------------------------------------------------------------------

    def dump(self, path: str) -> None:
        distinct = {name: len(seen) for name, seen in self.keys.items()}
        doc = {"spans": self.spans, "counts": self.counts, "distinct_keys": distinct,
               "main_start": self.main_start}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
