"""One workload in one fresh interpreter: set up, run whole rounds of ops
for the requested time, check every round's outputs, and print the raw
figures as one JSON line. `run.py` starts this script; see README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import edgering  # noqa: E402

if not Path(edgering.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"edgering was imported from {edgering.__file__}, not from {ROOT / 'src'}")

from workloads import WORKLOADS  # noqa: E402


def run_rounds(wl, start, budget, tracer=None):
    """Run whole rounds, from round `start`, until their timed wall time
    reaches `budget` seconds. Returns one record per round."""
    rounds = []
    elapsed = 0.0
    r = start
    while not rounds or elapsed < budget:
        if r:
            wl.prepare(r)
        ops = wl.ops(r)
        if tracer:
            tracer.begin_round()
        times, outputs = [], []
        t0 = time.perf_counter()
        for k, op in enumerate(ops):
            if tracer:
                tracer.op = f"{r}.{k}"
            s = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # an op that raises counts as failed
                traceback.print_exc()
                out = exc
            times.append(time.perf_counter() - s)
            outputs.append(out)
        wall = time.perf_counter() - t0
        record = {
            "wall": wall,
            "times": times,
            "failed": sum(1 for out in outputs if wl.failed(out)),
            "layers": tracer.end_round() if tracer else None,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["errors"] = wl.check(r, outputs)
        rounds.append(record)
        elapsed += wall
        r += 1
    return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = HERE / "work" / f"{args.workload}-s{args.seed}"
    wl = WORKLOADS[args.workload](args.seed, workdir)
    wl.setup()
    if args.setup_only:
        return 0

    if args.trace:
        import tracer as tracing

        plain = run_rounds(wl, 0, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_rounds(wl, len(plain), args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        (out / f"trace-{args.workload}-s{args.seed}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "spans": tracer.spans}))
        names = traced[0]["layers"].keys()
        metrics = {n: statistics.fmean(r["layers"][n] for r in traced) for n in names}
        metrics["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                       - statistics.median(r["wall"] for r in plain))
        rounds = plain + traced
    else:
        rounds = run_rounds(wl, 0, args.seconds)
        # every round runs the same ops, so an op's time is its mean over the rounds
        times = [statistics.fmean(ts) for ts in zip(*(r["times"] for r in rounds))]
        metrics = {
            "wall_s": statistics.median(r["wall"] for r in rounds),
            "op_p50_ms": 1000 * statistics.median(times),
            "op_p90_ms": 1000 * statistics.quantiles(times, n=10)[-1] if len(times) >= 100 else None,
            # after the first round, so that it covers the same work in every run
            "peak_rss_mb": rounds[0]["rss_mb"],
        }
    print(json.dumps({
        "rounds": len(rounds),
        "attempted": sum(len(r["times"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "errors": [e for r in rounds for e in r["errors"]],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
