"""Per-layer tracing from outside the library.

The tracer wraps public functions of the ``sepdraw`` modules and rebinds
each wrapper in every module namespace that holds the original (a name
imported with ``from .rotation import k5_index`` is a separate binding in
the importing module).  For each wrapped function it counts calls and
accumulates self time: the wrapper's duration minus the time covered by
nested wrapped calls.  Generator functions are timed per ``next()`` call
and also count the items they yield.

Only calls made inside an op (between ``op_begin`` and ``op_end``) are
recorded, so the benchmark's own checks, which call the same library
functions, do not show up in the counts.

Spans (name, start, end, parent span, op id) are kept for ops and for
layer-entry calls, i.e. calls whose caller sits in another layer.  Hot
inner calls such as ``rotation.k5_index`` are only aggregated.
"""
from __future__ import annotations

import inspect
import json
import statistics
import sys
from array import array
from time import perf_counter

# module -> traced functions; "MapBuilder.freeze" names a method.
TRACED = {
    "rotation": (
        "k4_index", "k5_index", "pair_crossing", "crossings_of_edge",
        "is_realizable", "is_realizable_touching", "is_g_convex",
        "subrotation", "canonical_key", "parse_crs", "serialize_crs",
    ),
    "separability": (
        "flip_candidates", "is_separator_edge", "is_separable",
        "certificate_json",
    ),
    "hamiltonicity": (
        "ham_path", "ham_cycle", "plane_matching", "verify_crossing_free",
    ),
    "cmap": (
        "MapBuilder.freeze", "MapBuilder.from_map", "validate_map",
        "extract_rotation_system", "from_two_page", "parse_cmap",
        "serialize_cmap",
    ),
    "routing": (
        "iter_routes", "min_cost_route", "apply_route",
        "apply_route_from_bare_vertex",
    ),
    "extension": (
        "insert_min_witness_crossings", "insert_min_crossings",
        "extend_to_complete_separable", "extend_to_complete_crossmin",
    ),
    "enumeration": (
        "enumerate_good_drawings", "extend_by_vertex", "default_tables",
    ),
    "cli": ("main",),
}

GENERATORS = ("routing.iter_routes", "enumeration.extend_by_vertex")
# Functions whose per-call self time is kept, to reconcile
# calls x median unit cost with the accumulated self time.
UNIT_SAMPLED = ("rotation.k5_index", "cmap.MapBuilder.freeze")


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in GENERATORS:
            units[f"{name}.yielded"] = "count"
    for name in UNIT_SAMPLED:
        units[f"{name}.unit_median_s"] = "s"
        units[f"{name}.reconcile_ratio"] = "ratio"
    units["separability.flip_accept_ratio"] = "ratio"
    units["hamiltonicity.separator_hit_ratio"] = "ratio"
    units["extension.fixup_steps"] = "count"
    units["enumeration.orbit_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        names = traced_names()
        self.calls = dict.fromkeys(names, 0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.yielded = dict.fromkeys(GENERATORS, 0)
        self.units = {name: array("d") for name in UNIT_SAMPLED}
        self.flips_accepted = 0
        self.ham_separator_queries = 0
        self.ham_separator_hits = 0
        self.fixup_steps = 0
        self.orbits_kept = 0
        # each frame: [child seconds, layer, span index]
        self._stack: list[list] = []
        self._op_id = None
        self.spans: list[list] = []
        self._undo: list[tuple] = []
        self._hooks = {
            "separability.is_separator_edge": self._separator_result,
            "extension.extend_to_complete_separable": self._extension_result,
            "extension.extend_to_complete_crossmin": self._extension_result,
            "enumeration.enumerate_good_drawings": self._enumeration_result,
        }

    # -- ops ---------------------------------------------------------------

    def op_begin(self, op_id: int, name: str):
        self._op_id = op_id
        self.spans.append([f"op.{name}", perf_counter(), None, None, op_id])
        self._stack.append([0.0, "op", len(self.spans) - 1])

    def op_end(self):
        frame = self._stack.pop()
        self.spans[frame[2]][2] = perf_counter()
        self._op_id = None

    def exclude(self, seconds: float):
        """Keep time spent on something else, inside the current frame,
        out of its self time."""
        if self._stack:
            self._stack[-1][0] += seconds

    # -- frames ------------------------------------------------------------

    def _enter(self, name: str, layer: str, t0: float) -> list:
        parent = self._stack[-1]
        span = parent[2]
        if parent[1] != layer:
            self.spans.append([name, t0, None, span, self._op_id])
            span = len(self.spans) - 1
        frame = [0.0, layer, span]
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, frame: list, t0: float, t1: float):
        self._stack.pop()
        dt = t1 - t0
        own = dt - frame[0]
        self.self_s[name] += own
        self._stack[-1][0] += dt
        if frame[2] != self._stack[-1][2]:
            self.spans[frame[2]][2] = t1
        units = self.units.get(name)
        if units is not None:
            units.append(own)

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        on_result = self._hooks.get(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            calls[name] += 1
            t0 = perf_counter()
            frame = self._enter(name, layer, t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, frame, t0, perf_counter())
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        layer = name.split(".", 1)[0]
        calls, yielded = self.calls, self.yielded

        def wrapper(*args, **kwargs):
            if not self._stack:
                yield from fn(*args, **kwargs)
                return
            calls[name] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    t0 = perf_counter()
                    frame = self._enter(name, layer, t0)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._leave(name, frame, t0, perf_counter())
                    yielded[name] += 1
                    yield item
            finally:
                it.close()

        return wrapper

    # -- derived counts, from results -------------------------------------

    def _separator_result(self, ev):
        if ev is not None and not ev.uncrossed:
            self.flips_accepted += 1
        if self._stack[-1][1] == "hamiltonicity":
            self.ham_separator_queries += 1
            self.ham_separator_hits += ev is not None

    def _extension_result(self, res):
        self.fixup_steps += max(len(res.potential_log) - 1, 0)

    def _enumeration_result(self, reps):
        self.orbits_kept += len(reps)

    # -- installation ------------------------------------------------------

    def install(self):
        """Rebind every traced function, in every sepdraw namespace that
        holds it."""
        modules = [
            m for k, m in list(sys.modules.items())
            if k == "sepdraw" or k.startswith("sepdraw.")
        ]
        for mod, fns in TRACED.items():
            home = sys.modules[f"sepdraw.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                if "." in fn:
                    self._install_method(home, name, fn)
                    continue
                orig = getattr(home, fn)
                wrap = (
                    self._wrap_generator(name, orig)
                    if name in GENERATORS else self._wrap(name, orig)
                )
                if inspect.isgeneratorfunction(orig) != (name in GENERATORS):
                    raise RuntimeError(f"{name}: generator kind changed")
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrap)
                            self._undo.append((m, attr, orig))

    def _install_method(self, home, name: str, qual: str):
        cls_name, meth = qual.split(".")
        cls = getattr(home, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
        else:
            setattr(cls, meth, self._wrap(name, raw))
        self._undo.append((cls, meth, raw))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """The deterministic part of the trace: call and yield counts."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update({f"{k}.yielded": v for k, v in self.yielded.items()})
        return out

    def metrics(self, overhead_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name, n in self.yielded.items():
            out[f"{name}.yielded"] = n
        for name, units in self.units.items():
            unit = statistics.median(units) if units else 0.0
            expected = self.calls[name] * unit
            out[f"{name}.unit_median_s"] = unit
            out[f"{name}.reconcile_ratio"] = (
                self.self_s[name] / expected if expected else 0.0
            )
        touching = self.calls["rotation.is_realizable_touching"]
        out["separability.flip_accept_ratio"] = (
            self.flips_accepted / touching if touching else 0.0
        )
        out["hamiltonicity.separator_hit_ratio"] = (
            self.ham_separator_hits / self.ham_separator_queries
            if self.ham_separator_queries else 0.0
        )
        out["extension.fixup_steps"] = self.fixup_steps
        yielded = self.yielded["enumeration.extend_by_vertex"]
        out["enumeration.orbit_ratio"] = (
            self.orbits_kept / yielded if yielded else 0.0
        )
        out["trace.overhead_s"] = overhead_s
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "op": op_id}
                ) + "\n")
