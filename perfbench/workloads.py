"""The three benchmark workloads: their inputs, their ops and their checks.

The graphs and query vectors are generated here from the seed; the
library only parses them. The facts the checks compare against (triangles,
exceptional pairs, the Type 1/Type 2 law, chordless odd cycles, edge-sum
witnesses) are computed here too, so a wrong library answer cannot also be
the expected one.

Every op gets a graph no earlier op in the process has seen: the vertex
labels carry a per-op serial number and the vertex order is kept, so the
work is identical from round to round while every graph-keyed cache in
the library misses.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

import edgering
from edgering import cli

# ---------------------------------------------------------------- graphs
#
# A graph here is (vertices, edges): a vertex list in coordinate order and
# an edge list of index pairs (i, j), i < j, sorted, which is the order the
# library gives its edge generators.


def _graph(vertices, named_edges):
    ix = {v: i for i, v in enumerate(vertices)}
    edges = sorted({tuple(sorted((ix[a], ix[b]))) for a, b in named_edges})
    return list(vertices), edges


def cactus(n, pendants):
    """The canonical cactus: hub w on n triangles, spokes x1..x2n, and
    pendant triangles y{i}_{k} on spoke i, in the library's vertex order."""
    verts = ["w"] + [f"x{i}" for i in range(1, 2 * n + 1)]
    for i in range(1, 2 * n + 1):
        verts += [f"y{i}_{k}" for k in range(1, 2 * pendants[i - 1] + 1)]
    edges = []
    for k in range(1, n + 1):
        a, b = f"x{2 * k - 1}", f"x{2 * k}"
        edges += [("w", a), ("w", b), (a, b)]
    for i in range(1, 2 * n + 1):
        for t in range(1, pendants[i - 1] + 1):
            ya, yb = f"y{i}_{2 * t - 1}", f"y{i}_{2 * t}"
            edges += [(f"x{i}", ya), (f"x{i}", yb), (ya, yb)]
    return _graph(verts, edges)


def complete(n):
    verts = [f"k{i}" for i in range(n)]
    return _graph(verts, itertools.combinations(verts, 2))


def wheel(m):
    rim = [f"r{i}" for i in range(m)]
    edges = [("c", r) for r in rim] + [(rim[i], rim[(i + 1) % m]) for i in range(m)]
    return _graph(["c"] + rim, edges)


def petersen():
    outer = [f"o{i}" for i in range(5)]
    inner = [f"i{i}" for i in range(5)]
    edges = [(outer[i], outer[(i + 1) % 5]) for i in range(5)]
    edges += [(outer[i], inner[i]) for i in range(5)]
    edges += [(inner[i], inner[(i + 2) % 5]) for i in range(5)]
    return _graph(outer + inner, edges)


def graph_text(vertices, edges, tag):
    labels = [f"{v}_{tag}" for v in vertices]
    lines = [f"{len(vertices)} {len(edges)}", *labels]
    lines += [f"{labels[i]} {labels[j]}" for i, j in edges]
    return "\n".join(lines) + "\n"


def _adjacency(d, edges):
    adj = [set() for _ in range(d)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def triangles(d, edges):
    adj = _adjacency(d, edges)
    return [
        (a, b, c)
        for a, b, c in itertools.combinations(range(d), 3)
        if b in adj[a] and c in adj[a] and c in adj[b]
    ]


def chordless_odd_cycles(d, edges):
    """Every chordless odd cycle as a vertex set, by extending paths from
    their smallest vertex; a new vertex may touch only the path's end (and
    the start, which closes the cycle)."""
    adj = _adjacency(d, edges)
    found = set()

    def extend(path):
        s, last = path[0], path[-1]
        for v in adj[last]:
            if v <= s or v in path:
                continue
            inner = path[1:-1]
            if any(v in adj[u] for u in inner):
                continue
            if v in adj[s]:
                if len(path) >= 2 and (len(path) + 1) % 2 == 1:
                    found.add(frozenset(path + [v]))
                continue
            extend(path + [v])

    for s in range(d):
        extend([s])
    return [c for c in found if len(c) >= 3]


def exceptional_pairs(d, edges, cycles):
    """Pairs of odd cycles that are vertex-disjoint with no edge between."""
    adj = _adjacency(d, edges)
    return [
        (a, b)
        for a, b in itertools.combinations(cycles, 2)
        if not (set(a) & set(b)) and not any(adj[u] & set(b) for u in a)
    ]


def odd_cycle_condition(d, edges):
    return not exceptional_pairs(d, edges, chordless_odd_cycles(d, edges))


def type2_by_law(n, pendants):
    """Type 2 iff two adjacent spokes both have degree 2, which in the
    canonical cactus means a hub triangle with no pendant on either spoke."""
    return any(pendants[2 * k] == 0 and pendants[2 * k + 1] == 0 for k in range(n))


# ---------------------------------------------------------------- workloads


class Workload:
    """A fixed list of ops, run in whole rounds. `prepare(r)` builds round
    r's fresh inputs outside the timers; `ops(r)` returns the op callables;
    `check(r, outputs)` returns a list of error strings."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.tag0 = self.rng.randrange(16 ** 4)

    def tag(self, r: int, k: int) -> str:
        return f"{self.tag0:04x}{r:04d}{k:03d}"

    def failed(self, output) -> bool:
        return isinstance(output, Exception)


def _analyze(path, report, max_d, degree):
    argv = ["analyze", str(path), "--max-d", str(max_d), "--json", str(report)]
    if degree is not None:
        argv += ["--degree", str(degree)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class AnalyzeWorkload(Workload):
    """One op is one in-process `edgering analyze FILE --json REPORT`."""

    max_d = 13
    degree = None

    def setup(self):
        self.graphs = self.draw()
        self.rng.shuffle(self.graphs)
        self.prepare(0)

    def prepare(self, r):
        self.paths = []
        for k, g in enumerate(self.graphs):
            path = self.workdir / f"op{k:02d}.graph"
            path.write_text(graph_text(g["vertices"], g["edges"], self.tag(r, k)))
            self.paths.append(path)

    def ops(self, r):
        return [
            (lambda p=p, k=k: _analyze(p, self.workdir / f"op{k:02d}.json",
                                       self.max_d, self.degree))
            for k, p in enumerate(self.paths)
        ]

    def failed(self, output) -> bool:
        return output != 0

    def check(self, r, outputs):
        errors = []
        for k, (g, rc) in enumerate(zip(self.graphs, outputs)):
            if self.failed(rc):
                continue
            report = json.loads((self.workdir / f"op{k:02d}.json").read_text())
            errors += [f"{g['name']}: {e}" for e in self.check_report(g, report)]
        return errors


class Verdict(AnalyzeWorkload):
    """Non-normal diameter-4 triangular cacti at the CLI's default degree."""

    # (n, pendants): n = 2-4 hub triangles, d <= 13; Type 1 x4, Type 2 x3.
    # The op costs cluster so that the median op lies inside a cluster.
    SHAPES = [
        (2, (1, 0, 1, 0)),
        (2, (1, 1, 1, 0)),
        (2, (2, 0, 1, 0)),
        (3, (1, 0, 1, 0, 1, 0)),
        (3, (1, 0, 1, 0, 0, 0)),
        (3, (1, 1, 1, 0, 0, 0)),
        (4, (1, 0, 1, 0, 0, 0, 0, 0)),
    ]

    def draw(self):
        out = []
        for n, s in self.SHAPES:
            verts, edges = cactus(n, s)
            out.append({"name": f"cactus n={n} s={s}", "n": n, "pendants": s,
                        "vertices": verts, "edges": edges})
        return out

    def check_report(self, g, rep):
        d = len(g["vertices"])
        want_tag = "Type2" if type2_by_law(g["n"], g["pendants"]) else "Type1"
        pairs = len(exceptional_pairs(d, g["edges"], triangles(d, g["edges"])))
        dec = rep["decomposition"] or {}
        dims = dec.get("family_dimensions", []) + rep["s2"]["evidence"].get("family_dimensions", [])
        checks = {
            "normal is false": rep["s2"]["normal"] is False and rep["normality"]["is_normal"] is False,
            "s2 is true": rep["s2"]["s2"] is True,
            f"type is {want_tag}": rep["graph"]["type"]["tag"] == want_tag,
            f"{pairs} exceptional pairs": len(rep["normality"]["exceptional_pairs"]) == pairs,
            f"{pairs} degree-6 holes": rep["holes"]["count_by_degree"].get("6", 0) == pairs,
            "families of dimension d-1": bool(dims) and all(x == d - 1 for x in dims),
            "no uncovered hole": dec.get("holes_not_covered") == [],
            "no extra family point": dec.get("family_points_not_holes") == [],
        }
        return [f"expected {name}" for name, ok in checks.items() if not ok]


class Normal(AnalyzeWorkload):
    """Normal graphs at degree 12: enumeration and holes, no family layer."""

    max_d = 11
    degree = 12

    def draw(self):
        shapes = [
            ("K5", complete(5)),
            ("cac3", cactus(1, (1, 1))),
            ("friend3", cactus(3, (0,) * 6)),
            ("wheel W7", wheel(7)),
            ("cactus n=2 s=1100", cactus(2, (1, 1, 0, 0))),
            ("cactus n=1 s=21", cactus(1, (2, 1))),
            ("Petersen", petersen()),
            ("cactus n=3 s=110000", cactus(3, (1, 1, 0, 0, 0, 0))),
        ]
        return [{"name": name, "vertices": v, "edges": e} for name, (v, e) in shapes]

    def check_report(self, g, rep):
        checks = {
            "odd cycle condition": odd_cycle_condition(len(g["vertices"]), g["edges"]),
            "normal": rep["normality"]["is_normal"] is True and rep["s2"]["normal"] is True,
            "s2": rep["s2"]["s2"] is True,
            "no holes": rep["holes"]["total"] == 0,
        }
        return [f"expected {name}" for name, ok in checks.items() if not ok]


class Queries(Workload):
    """Point queries against one warm membership memo per graph, on cacti
    too large to enumerate. One op is one query (decompose, cone_contains,
    lattice_member on one vector) or one lemma case; a lemma case follows
    every LEMMA_EVERY queries."""

    SHAPES = [
        (4, (1, 0, 1, 0, 1, 0, 1, 0)),
        (5, (1, 0, 1, 0, 1, 0, 1, 0, 0, 0)),
        (5, (1, 0, 1, 0, 1, 0, 1, 0, 1, 0)),
    ]
    QUERIES = 240
    LEMMA_EVERY = 4
    GENERATORS = ("pair_sum_cases", "edge_augment_cases", "double_w_edge_cases")

    def setup(self):
        self.graphs = []
        for n, s in self.SHAPES:
            verts, edges = cactus(n, s)
            self.graphs.append({"vertices": verts, "edges": edges,
                                "queries": self.draw_queries(verts, edges)})
        (self.workdir / "queries.json").write_text(json.dumps(self.graphs))
        self.expected = None
        self.prepare(0)

    def draw_queries(self, verts, edges):
        d = len(verts)
        pairs = exceptional_pairs(d, edges, triangles(d, edges))
        out = []
        for q in range(self.QUERIES):
            kind = ("sum", "move", "odd", "pair")[q % 4]
            x = [0] * d
            for _ in range(self.rng.randint(3, 10)):
                i, j = self.rng.choice(edges)
                x[i] += 1
                x[j] += 1
            if kind == "move":
                i = self.rng.choice([i for i in range(d) if x[i]])
                x[i] -= 1
                x[self.rng.randrange(d)] += 1
            elif kind == "odd":
                x[self.rng.randrange(d)] += 1
            elif kind == "pair":
                a, b = self.rng.choice(pairs)
                base = x if self.rng.random() < 0.5 else [0] * d
                x = [c + (i in a) + (i in b) for i, c in enumerate(base)]
            out.append({"kind": kind, "x": x})
        return out

    def prepare(self, r):
        self.live = []
        for k, g in enumerate(self.graphs):
            text = graph_text(g["vertices"], g["edges"], self.tag(r, k))
            self.live.append(edgering.io.parse_graph_text(text))

    def ops(self, r):
        self.meta = []   # (graph number, query number, is a lemma case) per op
        ops = []
        for n, G in enumerate(self.live):
            gens = [getattr(edgering.exceptional, name)(G) for name in self.GENERATORS]
            for q, query in enumerate(self.graphs[n]["queries"]):
                ops.append(lambda G=G, x=tuple(query["x"]): _query(G, x))
                self.meta.append((n, q, False))
                if q % self.LEMMA_EVERY == self.LEMMA_EVERY - 1:
                    gen = gens[(q // self.LEMMA_EVERY) % len(gens)]
                    ops.append(lambda gen=gen: next(gen, None))
                    self.meta.append((n, q, True))
        return ops

    def check(self, r, outputs):
        """The first round is checked in full. Later rounds differ from it
        only in vertex labels, so their answers, in index form, must be
        the same."""
        answers = [self._answer(m, out) for m, out in zip(self.meta, outputs)]
        if self.expected is None:
            self.expected = answers
            return [e for m, out in zip(self.meta, outputs) if not self.failed(out)
                    for e in self._check_op(m, out)]
        return [f"op {k}: the answer differs from the first round's"
                for k, (a, b) in enumerate(zip(answers, self.expected)) if a != b]

    def _answer(self, meta, out):
        if self.failed(out) or out is None:
            return repr(out)
        if meta[2]:
            return out["lemma"], out["vector"], out["closed_form"], out["oracle"]
        G = self.live[meta[0]]
        witness, in_cone, in_lattice = out
        if witness is not None:
            witness = [(G.index(u), G.index(v)) for u, v in witness]
        return witness, in_cone, in_lattice

    def _check_op(self, meta, out):
        n, q, is_lemma = meta
        G, g = self.live[n], self.graphs[n]
        query = g["queries"][q]
        where = f"graph d={G.dimension} query {q} ({query['kind']})"
        if is_lemma:
            if out is None:
                return [f"{where}: a lemma case generator ran out"]
            return [] if out["agree"] else [f"{where}: lemma case disagrees: {out['inputs']}"]
        x = query["x"]
        witness, in_cone, in_lattice = out
        errors = []
        if in_lattice != (sum(x) % 2 == 0):
            errors.append(f"{where}: lattice_member is {in_lattice}")
        if query["kind"] == "sum" and witness is None:
            errors.append(f"{where}: a sum of edges is not a member")
        if witness is not None:
            errors += [f"{where}: {e}" for e in _witness_errors(G, witness, x, g["edges"])]
            if not in_cone:
                errors.append(f"{where}: a member is outside the cone")
        elif in_cone and in_lattice:
            double = [2 * c for c in x]
            w2 = edgering.semigroup.decompose(G, double)
            if w2 is None:
                errors.append(f"{where}: the double of a hole is not a member")
            else:
                errors += [f"{where} doubled: {e}" for e in _witness_errors(G, w2, double, g["edges"])]
        return errors


def _query(G, x):
    return (edgering.semigroup.decompose(G, x),
            edgering.facets.cone_contains(G, x),
            edgering.semigroup.lattice_member(G, x))


def _witness_errors(G, witness, x, edges):
    edges = set(map(tuple, edges))
    total = [0] * len(x)
    for u, v in witness:
        i, j = sorted((G.index(u), G.index(v)))
        if (i, j) not in edges:
            return [f"witness uses the non-edge {u}-{v}"]
        total[i] += 1
        total[j] += 1
    return [] if total == list(x) else ["witness does not sum back to the vector"]


WORKLOADS = {"verdict": Verdict, "normal": Normal, "queries": Queries}
