"""Command-line front end.

Subcommands: `gen` builds a triangular cactus from a compact spec and
writes it as a graph file; `analyze` runs the full pipeline on one graph;
`verify-paper` runs the acceptance suite and prints one pass/fail line per
criterion.

Exit codes: 0 success, 1 acceptance failure, 2 input error,
3 decomposition mismatch, 4 normalization cross-check mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import acceptance
from .errors import (
    DecompositionMismatchError,
    EdgeRingError,
    MethodMismatchError,
)
from .facets import fundamental_sets, regular_vertices, supporting_hyperplanes
from .graph_core import (
    CactusSpec,
    cycles_json,
    diameter,
    exceptional_pairs,
    is_normal,
    is_triangular_cactus,
)
from .hole_families import classify, degree_cap, s2_verdict, uncompared, verify_decomposition
from .io import (
    format_graph_json,
    format_graph_text,
    load_graph,
    parse_cactus_spec_json,
)
from .semigroup import count_by_degree, holes

EXIT_OK = 0
EXIT_ACCEPTANCE_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_DECOMPOSITION_MISMATCH = 3
EXIT_METHOD_MISMATCH = 4
MISMATCH_EXIT = {
    DecompositionMismatchError: EXIT_DECOMPOSITION_MISMATCH,
    MethodMismatchError: EXIT_METHOD_MISMATCH,
}


# ---------------------------------------------------------------- gen


def cmd_gen(args) -> int:
    if args.spec:
        spec = parse_cactus_spec_json(Path(args.spec).read_text())
    else:
        if args.n is None:
            print("gen: provide --n (with --s) or --spec FILE", file=sys.stderr)
            return EXIT_INPUT_ERROR
        pendants = tuple(
            int(tok) for tok in args.s.split(",") if tok.strip() != ""
        ) if args.s else ()
        spec = CactusSpec(args.n, pendants)
    G = spec.build()
    out = args.output
    if out is None:
        tag = "".join(str(c) for c in spec.pendants)
        out = f"cactus-n{spec.triangles}-s{tag}.graph"
    text = format_graph_json(G) if args.format == "json" else format_graph_text(G)
    Path(out).write_text(text)
    print(f"d={G.dimension} diameter={diameter(G)} type={classify(G).tag}")
    print(f"wrote {out}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------- analyze


def cmd_analyze(args) -> int:
    G = load_graph(args.graph)
    if G.dimension > args.max_d:
        print(
            f"analyze: graph has {G.dimension} vertices, above the --max-d "
            f"bound {args.max_d}; raise the bound to proceed",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    degree = args.degree
    if degree < 0:
        print(f"analyze: truncation degree {degree} is negative", file=sys.stderr)
        return EXIT_INPUT_ERROR
    cap = degree_cap()
    if degree > cap:
        print(
            f"analyze: truncation degree {degree} capped to {cap} "
            f"(EDGERING_MAX_DEGREE)",
            file=sys.stderr,
        )
        degree = cap

    # the facet layer refuses a graph without an odd cycle; asking it first
    # means such a graph is refused before any of the report is printed
    regs = regular_vertices(G)
    fsets = fundamental_sets(G)
    hyps = supporting_hyperplanes(G)
    ct = classify(G)
    report: dict = {
        "graph": {
            "dimension": G.dimension,
            "edges": G.edge_count,
            "diameter": diameter(G),
            "is_triangular_cactus": is_triangular_cactus(G),
            "type": ct.as_json(),
        }
    }
    print(
        f"graph: {G.dimension} vertices, {G.edge_count} edges, "
        f"diameter {report['graph']['diameter']}, type {ct.tag}"
    )

    normal = is_normal(G)
    pairs = exceptional_pairs(G)
    report["normality"] = {
        "is_normal": normal,
        "exceptional_pairs": [cycles_json(P) for P in pairs],
    }
    print(f"normal: {normal} ({len(pairs)} exceptional pair(s))")

    report["facets"] = {
        "regular_vertices": list(regs),
        "fundamental_set_count": len(fsets),
        "hyperplane_count": len(hyps),
    }
    print(
        f"facets: {len(regs)} regular vertices, {len(fsets)} fundamental "
        f"sets, {len(hyps)} supporting hyperplanes"
    )

    hole_set = holes(G, degree)
    report["holes"] = {
        "degree": degree,
        "total": len(hole_set),
        "count_by_degree": count_by_degree(hole_set),
    }
    if hole_set:
        per = ", ".join(
            f"{k}:{v}" for k, v in report["holes"]["count_by_degree"].items()
        )
        print(f"holes to degree {degree}: {len(hole_set)} (by degree: {per})")
    else:
        print(f"holes to degree {degree}: none")

    report["decomposition"] = None
    if ct.tag in ("Type1", "Type2"):
        dec = verify_decomposition(G, degree)
        report["decomposition"] = dec
        checked = uncompared(dec) or f"verified at degree {degree}"
        print(f"decomposition: {len(dec['families'])} hole families, "
              f"dimensions {dec['family_dimensions']}, {checked}")

    verdict = s2_verdict(G, degree)
    report["s2"] = verdict
    s2_text = {True: "true", False: "false", None: "inconclusive"}[verdict["s2"]]
    print(f"verdict: normal={str(verdict['normal']).lower()} s2={s2_text}")

    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"wrote {args.json}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------- verify-paper


def cmd_verify_paper(args) -> int:
    only = None
    if args.only is not None:
        only = [tok for part in args.only for tok in part.split(",") if tok]
    reports = acceptance.run_all(only=only, fixtures_dir=args.fixtures)
    for r in reports:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"[{status}] {r['id']}. {r['name']}: {r['title']}")
        if not r["passed"]:
            print(f"       details: {json.dumps(r['details'], sort_keys=True)}")
    failed = [r for r in reports if not r["passed"]]
    print(f"{len(reports) - len(failed)}/{len(reports)} criteria passed")
    if args.json:
        Path(args.json).write_text(json.dumps(reports, indent=2, sort_keys=True))
        print(f"wrote {args.json}", file=sys.stderr)
    return EXIT_ACCEPTANCE_FAIL if failed else EXIT_OK


# ---------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgering",
        description="Exact edge-ring analysis: normality, cone facets, "
        "normalization holes, and Serre's (S2) condition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "gen", help="build a triangular cactus graph from a compact spec"
    )
    gen.add_argument("--n", type=int, default=None, help="number of hub triangles")
    gen.add_argument(
        "--s",
        default="",
        help="comma-separated pendant triangle counts, one per spoke (2n values)",
    )
    gen.add_argument("--spec", help="JSON spec file with keys n and s")
    gen.add_argument("-o", "--output", help="output graph file path")
    gen.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    gen.set_defaults(func=cmd_gen)

    analyze = sub.add_parser("analyze", help="run the full pipeline on one graph")
    analyze.add_argument("graph", help="graph file (text or JSON)")
    analyze.add_argument(
        "--degree", type=int, default=8, help="truncation degree (default 8)"
    )
    analyze.add_argument("--json", help="write the full JSON report here")
    analyze.add_argument(
        "--max-d",
        type=int,
        default=12,
        help="refuse graphs with more vertices than this (default 12)",
    )
    analyze.set_defaults(func=cmd_analyze)

    verify = sub.add_parser(
        "verify-paper", help="run the acceptance suite over the shipped fixtures"
    )
    verify.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="NAME[,NAME...]",
        help=f"run only these criteria ({', '.join(acceptance.criterion_names())})",
    )
    verify.add_argument("--json", help="write the criterion reports here")
    verify.add_argument(
        "--fixtures", help="load file-backed fixtures from this directory instead"
    )
    verify.set_defaults(func=cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DecompositionMismatchError, MethodMismatchError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return MISMATCH_EXIT[type(exc)]
    except (EdgeRingError, OSError, ValueError) as exc:
        print(f"{parser.prog}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
