"""Layer spans and counters for the traced run, recorded from outside the
library.

`install()` replaces each traced function with a wrapper in every edgering
module that holds it, so names imported by value (`holes` in
`hole_families`, `cli` and `acceptance`, for instance) are traced too;
`uninstall()` puts the originals back. Coarse calls become spans kept in
memory; calls made thousands of times per op (lattice tests, membership)
are only counted and timed, per calling span. Untraced runs never import
this module.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import edgering

# (module, attribute path) of the functions recorded as spans
SPANS = [
    ("io", "load_graph"),
    ("facets", "regular_vertices"),
    ("facets", "fundamental_sets"),
    ("facets", "supporting_hyperplanes"),
    ("facets", "face_of"),
    ("exceptional", "exceptional_pairs"),
    ("semigroup", "enumerate_normalization"),
    ("semigroup", "_enumerate_by_inequalities"),
    ("semigroup", "_enumerate_by_closure"),
    ("semigroup", "enumerate_semigroup"),
    ("semigroup", "holes"),
    ("hole_families", "hole_decomposition"),
    ("hole_families", "HoleFamily.points"),
    ("hole_families", "verify_decomposition"),
    ("hole_families", "s2_verdict"),
    ("cli", "cmd_analyze"),
]
# (module, attribute path, group): counted and timed, outermost call per group
HOT = [
    ("semigroup", "member", "member"),
    ("semigroup", "decompose", "member"),
    ("lattices", "IntegerLattice.contains", "contains"),
]
LEMMA_GENERATORS = ("pair_sum_cases", "edge_augment_cases", "double_w_edge_cases")


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "edgering" or name.startswith("edgering."))]


class Tracer:
    def __init__(self):
        self.spans = []          # dicts, kept for the whole run
        self.stack = []          # open spans: [id, name, child_s, hot_calls]
        self.active = defaultdict(int)
        self.hot = defaultdict(lambda: [0, 0.0])   # (group, parent) -> [calls, seconds]
        self.lemma_cases = 0
        self.op = None
        self.missing = set()
        self._patched = []       # (owner, attribute, original)
        self._cached = []
        self.next_id = 0
        self._round_start = 0

    # -------------------------------------------------------------- install

    def install(self):
        self._cached = list({id(f): f for m in _modules() for f in vars(m).values()
                             if callable(getattr(f, "cache_info", None))}.values())
        for mod, path in SPANS:
            self._patch(mod, path, self._span_wrapper)
        for mod, path, group in HOT:
            self._patch(mod, path, lambda name, fn, g=group: self._hot_wrapper(g, fn))
        for name in LEMMA_GENERATORS:
            self._patch("exceptional", name, lambda name, fn: self._generator_wrapper(fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _patch(self, mod, path, make):
        module = getattr(edgering, mod)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(f"{mod}.{path}")
            return
        wrapper = make(f"{mod}.{path}", original)
        if owner_name:
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for m in _modules():
            for key, value in list(vars(m).items()):
                if value is original:
                    self._patched.append((m, key, original))
                    setattr(m, key, wrapper)

    # -------------------------------------------------------------- wrappers

    def _span_wrapper(self, name, fn):
        tracer = self
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            tracer.next_id += 1
            frame = [tracer.next_id, name, 0.0, 0]
            parent = tracer.stack[-1][0] if tracer.stack else None
            misses = cache_info().misses if cache_info else 0
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][2] += end - start
            tracer.spans.append({
                "id": frame[0], "parent": parent, "name": name, "op": tracer.op,
                "start": start, "end": end, "self": end - start - frame[2],
                "hot_calls": frame[3],
                "size": len(result) if isinstance(result, (frozenset, tuple)) else None,
                "miss": cache_info is None or cache_info().misses > misses,
            })
            return result

        traced.__wrapped__ = fn
        return traced

    def _hot_wrapper(self, group, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.active[group]:
                return fn(*args, **kwargs)
            tracer.active[group] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.active[group] -= 1
                parent = tracer.stack[-1] if tracer.stack else None
                if parent is not None:
                    parent[2] += elapsed
                    parent[3] += 1
                entry = tracer.hot[group, parent[1] if parent else None]
                entry[0] += 1
                entry[1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def _generator_wrapper(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            for case in fn(*args, **kwargs):
                tracer.lemma_cases += 1
                yield case

        traced.__wrapped__ = fn
        return traced

    # -------------------------------------------------------------- rounds

    def _cache_totals(self):
        infos = [f.cache_info() for f in self._cached]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def _memo_entries(self):
        memo = getattr(edgering.semigroup, "_memo_by_graph", None)
        return sum(len(m) for m in memo.values()) if memo is not None else 0

    def begin_round(self):
        self._round_start = len(self.spans)
        self.hot.clear()
        self.lemma_cases = 0
        self._start_cache = self._cache_totals()
        self._start_memo = self._memo_entries()

    def end_round(self) -> dict:
        """Per-layer metrics of the round just traced."""
        spans = self.spans[self._round_start:]
        by_name = defaultdict(list)
        for span in spans:
            by_name[span["name"]].append(span)
        name_of = {s["id"]: s["name"] for s in spans}

        def seconds(name, key=None):
            return sum(s[key] if key else s["end"] - s["start"] for s in by_name[name])

        def outermost(names):
            return sum(s["end"] - s["start"] for s in spans
                       if s["name"] in names and name_of.get(s["parent"]) not in names)

        def without_enumeration(name):
            """Time in `name` outside the normalization enumerations it triggers."""
            ids = {s["id"] for s in by_name[name]}
            inner = sum(s["end"] - s["start"] for s in by_name["semigroup.enumerate_normalization"]
                        if s["parent"] in ids)
            return seconds(name) - inner

        def hot(group, parent=None):
            items = [v for (g, p), v in self.hot.items()
                     if g == group and (parent is None or p == parent)]
            return sum(v[0] for v in items), sum(v[1] for v in items)

        hits, misses = self._cache_totals()
        member_calls, member_s = hot("member")
        contains_calls, contains_s = hot("contains")
        holes_tested, _ = hot("member", "semigroup.holes")
        points_tested, _ = hot("contains", "hole_families.HoleFamily.points")
        holes_found = sum(s["size"] for s in by_name["semigroup.holes"])
        passes = [s for s in by_name["hole_families.HoleFamily.points"] if s["hot_calls"]]
        families = {}
        for s in by_name["hole_families.hole_decomposition"]:
            families[s["op"]] = max(families.get(s["op"], 0), s["size"])

        metrics = {
            "io.load_s": seconds("io.load_graph"),
            "facets.hyperplanes_s": outermost({"facets.regular_vertices", "facets.fundamental_sets",
                                               "facets.supporting_hyperplanes"}),
            "facets.face_of_calls": len(by_name["facets.face_of"]),
            "exceptional.pairs_s": seconds("exceptional.exceptional_pairs"),
            "exceptional.lemma_cases": self.lemma_cases,
            "semigroup.normalization_s": seconds("semigroup.enumerate_normalization", "self"),
            "semigroup.method_a_s": seconds("semigroup._enumerate_by_inequalities"),
            "semigroup.method_b_s": seconds("semigroup._enumerate_by_closure"),
            "semigroup.semigroup_s": seconds("semigroup.enumerate_semigroup"),
            "semigroup.normalization_points": sum(
                s["size"] for s in by_name["semigroup.enumerate_normalization"] if s["miss"]),
            "semigroup.holes_s": without_enumeration("semigroup.holes"),
            "semigroup.member_calls": member_calls,
            "semigroup.member_s": member_s,
            "semigroup.memo_entries": self._memo_entries() - self._start_memo,
            "semigroup.holes_per_point": _ratio(holes_found, holes_tested),
            "lattices.contains_calls": contains_calls,
            "lattices.contains_s": contains_s,
            "hole_families.decomposition_builds": len(by_name["hole_families.hole_decomposition"]),
            "hole_families.families": sum(families.values()),
            "hole_families.points_passes": len(passes),
            "hole_families.points_tested": points_tested,
            "hole_families.points_kept_ratio": _ratio(sum(s["size"] for s in passes), points_tested),
            "hole_families.points_s": without_enumeration("hole_families.HoleFamily.points"),
            "hole_families.verify_s": seconds("hole_families.verify_decomposition"),
            "hole_families.verdict_s": seconds("hole_families.s2_verdict"),
            "cache.hits": hits - self._start_cache[0],
            "cache.misses": misses - self._start_cache[1],
            "cli.analyze_self_s": seconds("cli.cmd_analyze", "self"),
        }
        for private, metric in (("semigroup._enumerate_by_inequalities", "semigroup.method_a_s"),
                                ("semigroup._enumerate_by_closure", "semigroup.method_b_s")):
            if private in self.missing:
                del metrics[metric]
        return metrics


def _ratio(a, b):
    return a / b if b else 0.0
