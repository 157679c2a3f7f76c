"""Benchmark entry point for edgering.

    python3 perfbench/run.py --workload verdict --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. Times SETUP_STARTS cold starts of
the workload's set-up (untraced runs only), then runs the workload in one
more fresh interpreter (perfbench/worker.py) and prints each metric by
name and unit.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verdict", "normal", "queries")
SETUP_STARTS = 7
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "semigroup.holes_per_point":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "edgering" / "__init__.py").is_file():
        print(f"run.py: no edgering sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    began = time.perf_counter()
    # one hash seed for every child, so set orders repeat from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    base = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed)]

    setups = []
    for _ in range(0 if args.trace else SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run(base + ["--setup-only"], env=env, check=True,
                       timeout=DEADLINE_S, stdout=subprocess.DEVNULL)
        setups.append(time.perf_counter() - t0)

    proc = subprocess.run(
        base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
        timeout=DEADLINE_S - (time.perf_counter() - began),
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    raw = result["metrics"]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit(name)} for name, value in raw.items()}
    else:
        raw["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": raw[name], "unit": u} for name, u in END_TO_END.items()}

    print(f"edgering benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"rounds {result['rounds']}, ops attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:14.6f} {m['unit']}")
    if raw.get("op_p90_ms") is not None:
        print(f"  {'op_p90_ms (informational)':38s} {raw['op_p90_ms']:14.6f} ms")
    for error in result["errors"][:20]:
        print(f"check failed: {error}", file=sys.stderr)

    summary = {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
