"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads design link --seeds 1 2 3 4 5

Runs are made one after another from the checkout's root, with the run
length of ``BENCHMARK.json`` unless ``--seconds`` is given. For every
workload and metric it prints the median over the runs and the distance
between the first and third quartile as a share of the median (the
``statistics.quantiles(values, n=4)`` rule), and writes the runs to
``perfbench/results/spread-<time>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, "wall_s": wall, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} wall={wall:.1f}s",
                  flush=True)

    print(f"\n{'workload':10s} {'metric':30s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for workload in args.workloads:
        mine = [r for r in runs if r["workload"] == workload]
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            med = statistics.median(values)
            spread = stats.quartile_spread(values) if len(values) > 1 and med else float("nan")
            print(f"{workload:10s} {name:30s} {med:12.6g} {spread:8.3f} {bounds.get(name, float('nan')):6.2f}")
        print(f"{workload:10s} {'wall_s (whole run)':30s} {statistics.median(r['wall_s'] for r in mine):12.6g}")

    out = BENCH / "results" / f"spread-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
