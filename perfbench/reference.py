"""Time the ROADMAP baseline stages once, on t2min at degree 12.

    python3 perfbench/reference.py

Each stage runs on a graph no earlier stage has seen, except where a stage
is defined on top of another one (holes and families use the cached
normalization, as they do inside `analyze`). Prints one line per stage.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from edgering import Graph, fixtures, hole_families, semigroup  # noqa: E402

D = 12


def fresh(tag):
    G = fixtures.build("t2min")
    name = {v: f"{v}_{tag}" for v in G.vertices}
    return Graph([name[v] for v in G.vertices], [(name[a], name[b]) for a, b in G.edges])


def timed(label, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    print(f"{label:34s} {time.perf_counter() - t0:8.3f} s")
    return out


def main():
    print(f"t2min at D={D}")
    timed("method A (inequality walk)", semigroup._enumerate_by_inequalities, fresh("a"), D)
    timed("method B (closure)", semigroup._enumerate_by_closure, fresh("b"), D)
    G = fresh("c")
    N = timed("enumerate_normalization (A + B)", semigroup.enumerate_normalization, G, D)
    H = timed("holes (member over N_D)", semigroup.holes, G, D)
    timed("families + points", hole_families.hole_decomposition, G, D)
    timed("s2_verdict (fresh graph)", hole_families.s2_verdict, fresh("d"), D)
    print(f"|N_D| = {len(N)}, holes = {len(H)}")


if __name__ == "__main__":
    main()
