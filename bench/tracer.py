"""Spans and counters around the public functions of each twoarr module.

The wrappers live in the benchmark, not in the package. Modules import
functions by name (`from .linalg import rref`), so installing a wrapper
replaces every binding of the original function in every loaded `twoarr`
module, and `uninstall` puts each one back.

A span is (name, start_ns, end_ns, parent span, invocation). Spans stay in
memory; `write_spans` stores them once, at the end of a run. A function's
self time is its inclusive time minus the time of the wrapped calls it
made.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# Span name -> (module, attribute) of the function wrapped under that name.
TARGETS = {
    "cli.main": ("twoarr.cli", "main"),
    "arrangement.parse_arrangement": ("twoarr.arrangement", "parse_arrangement"),
    "arrangement.validate": ("twoarr.arrangement", "validate"),
    "arrangement.codim": ("twoarr.arrangement", "codim"),
    "arrangement.restrict": ("twoarr.arrangement", "restrict"),
    "linalg.rref": ("twoarr.linalg", "rref"),
    "linalg.det_sign": ("twoarr.linalg", "det_sign"),
    "linalg.solve_unique": ("twoarr.linalg", "solve_unique"),
    "matroid.flats": ("twoarr.matroid", "flats"),
    "matroid.circuits": ("twoarr.matroid", "circuits"),
    "matroid.nbc_sets": ("twoarr.matroid", "nbc_sets"),
    "matroid.whitney_check": ("twoarr.matroid", "whitney_check"),
    "presentation.full_presentation": ("twoarr.presentation", "full_presentation"),
    "presentation.circuit_dependencies": ("twoarr.presentation", "circuit_dependencies"),
    "presentation.ideal_rank": ("twoarr.presentation", "ideal_rank"),
    "exterior.degree_span_rank": ("twoarr.exterior", "degree_span_rank"),
    "invariants.kappa": ("twoarr.invariants", "kappa"),
    "invariants.kappa_rank": ("twoarr.invariants", "kappa_rank"),
    "invariants.pairwise_linking": ("twoarr.invariants", "pairwise_linking"),
    "invariants.compare": ("twoarr.invariants", "compare"),
}
VERBS = ("validate", "lattice", "circuits", "betti", "present", "kappa", "linking", "restrict", "compare")


class Tracer:
    def __init__(self) -> None:
        self.names = list(TARGETS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.spans: list[tuple[int, int, int, int, int]] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.invocation = -1
        self.verbs: list[str] = []
        self._codim_keys: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # --- spans ------------------------------------------------------------

    def _call(self, name_id: int, fn, args, kwargs):
        """Run fn inside a span; returns (result, parent span name id or -1)."""
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else -1
        idx = len(spans)
        # an open span carries its name; its times are filled in when it closes
        spans.append((name_id, 0, 0, parent, self.invocation))
        stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs), (spans[parent][0] if parent >= 0 else -1)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[idx] = (name_id, start, end, parent, self.invocation)

    def begin_invocation(self, verb: str) -> None:
        self._flush_codim_keys()
        self.invocation += 1
        self.verbs.append(verb)

    def _flush_codim_keys(self) -> None:
        # a rank cache lives as long as one CLI process, i.e. one invocation
        self.counts["codim.distinct"] += len(self._codim_keys)
        self._codim_keys = set()

    # --- wrappers ---------------------------------------------------------

    def _wrapper(self, name: str, fn):
        nid = self._ids[name]
        call = self._call
        counts = self.counts
        if name == "arrangement.codim":
            keys = self

            def codim(arr, subset):
                subset = tuple(subset)
                keys._codim_keys.add((id(arr), frozenset(subset)))
                return call(nid, fn, (arr, subset), {})[0]

            return codim
        if name == "linalg.rref":
            slice_id = self._ids["exterior.degree_span_rank"]

            def rref(m):
                result, parent = call(nid, fn, (m,), {})
                cells = m.rows * m.cols
                counts["rref.cells"] += cells
                counts["rref.max_cells"] = max(counts["rref.max_cells"], cells)
                if parent == slice_id:
                    counts["slice.cells"] += cells
                    counts["slice.rows"] += m.rows
                    counts["slice.rank"] += len(result[1])
                return result

            return rref
        if name in ("matroid.flats", "matroid.circuits"):
            size = (lambda r: len(r.all_flats())) if name == "matroid.flats" else len

            def counted(*args, **kwargs):
                result = call(nid, fn, args, kwargs)[0]
                counts[name + ".count"] += size(result)
                return result

            return counted

        def wrapped(*args, **kwargs):
            return call(nid, fn, args, kwargs)[0]

        return wrapped

    def install(self) -> None:
        packages = [m for name, m in sys.modules.items() if name == "twoarr" or name.startswith("twoarr.")]
        for name, (module, attr) in TARGETS.items():
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrapper(name, original)
            for m in packages:
                for binding, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, binding, original))
                        setattr(m, binding, wrapper)
        element = getattr(sys.modules.get("twoarr.exterior"), "ExtElement", None)
        if element is None or not hasattr(element, "wedge"):
            self.missing.append("exterior.wedge")
            return
        wedge = element.wedge
        counts = self.counts

        def counted_wedge(a, b):
            counts["wedge.calls"] += 1
            return wedge(a, b)

        self._patches.append((element, "wedge", wedge))
        element.wedge = counted_wedge

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._flush_codim_keys()

    # --- results ----------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter, Counter]:
        """Per span name: calls, inclusive ns, self ns; and rref ns by parent name."""
        calls: Counter = Counter()
        incl: Counter = Counter()
        child: dict[int, int] = defaultdict(int)
        rref_by_parent: Counter = Counter()
        rref_id = self._ids["linalg.rref"]
        for name_id, start, end, parent, _ in self.spans:
            calls[name_id] += 1
            incl[name_id] += end - start
            if parent >= 0:
                child[parent] += end - start
                if name_id == rref_id:
                    rref_by_parent[self.spans[parent][0]] += end - start
        own: Counter = Counter()
        for idx, (name_id, start, end, _, _) in enumerate(self.spans):
            own[name_id] += end - start - child.get(idx, 0)
        by_name = lambda c: Counter({self.names[k]: v for k, v in c.items()})
        return by_name(calls), by_name(incl), by_name(own), by_name(rref_by_parent)

    def metrics(self, stdout_bytes: int) -> dict[str, float]:
        calls, incl, own, rref_by_parent = self.totals()
        s = lambda ns: ns / 1e9
        c = self.counts
        out: dict[str, float] = {
            "cli.main.s": s(incl["cli.main"]),
            "cli.self_s": s(own["cli.main"]),
            "cli.stdout_bytes": stdout_bytes,
        }
        verb_ns: Counter = Counter()
        for name_id, start, end, parent, invocation in self.spans:
            if parent < 0 and name_id == self._ids["cli.main"]:
                verb_ns[self.verbs[invocation]] += end - start
        for verb in VERBS:
            out[f"cli.{verb}.s"] = s(verb_ns[verb])
        for name in TARGETS:
            if name == "cli.main":
                continue
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = s(incl[name])
            out[f"{name}.self_s"] = s(own[name])
        codim_calls = calls["arrangement.codim"]
        out["arrangement.codim.distinct_ratio"] = c["codim.distinct"] / codim_calls if codim_calls else 0.0
        out["arrangement.codim.rref_s"] = s(rref_by_parent["arrangement.codim"])
        out["linalg.rref.cells"] = c["rref.cells"]
        out["linalg.rref.max_cells"] = c["rref.max_cells"]
        out["matroid.flats.count"] = c["matroid.flats.count"]
        out["matroid.circuits.count"] = c["matroid.circuits.count"]
        out["exterior.slice.cells"] = c["slice.cells"]
        out["exterior.slice.rank_ratio"] = c["slice.rank"] / c["slice.rows"] if c["slice.rows"] else 0.0
        out["exterior.slice.rref_s"] = s(rref_by_parent["exterior.degree_span_rank"])
        out["exterior.wedge.calls"] = c["wedge.calls"]
        return out

    def write_spans(self, path: Path, labels: list[str]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "invocation"],
            "names": self.names,
            "invocations": labels,
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
