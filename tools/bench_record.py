"""Record the benchmark's end-to-end metrics of one checkout as ``BENCH_<n>.json``:

    python3 tools/bench_record.py N                        # writes BENCH_N.json at the root
    python3 tools/bench_record.py N --seeds 1 2 3 --seconds 15 --workloads link

Runs ``perfbench/run.py`` untraced (``--trace 0``) once per workload and seed, one run
after another from the checkout's root, with the command and run length of
``BENCHMARK.json``, as ``perfbench/spread.py`` does. Every workload of
``BENCHMARK.json`` is run unless ``--workloads`` names some, over seeds 1-5 unless
``--seeds`` names others. The file records the git commit and whether tracked files
differed from it (both null outside a git checkout); the Python and numpy versions of
the interpreter that ran the benchmark and the CPU count; and per workload whether
every run was ``correct``, the ops attempted and failed, and per end-to-end metric
its unit, the values in seed order, their median and their first and third quartiles
(``statistics.quantiles(values, n=4)``; with one seed both quartiles are that seed's
value). Keys are sorted.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VERSIONS = "import platform, numpy; print(platform.python_version(), numpy.__version__)"


def git(*args):
    """Output of a git command at the root, or None outside a git checkout."""
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def summary(values: list) -> dict:
    q1, q3 = statistics.quantiles(values, n=4)[::2] if len(values) > 1 else values * 2
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def run(command: list, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run: the JSON object on the last line of its standard output."""
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("n", type=int, help="the number in the file name BENCH_<n>.json")
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", type=Path, help="where to write the file (default: BENCH_<n>.json at the root)")
    args = p.parse_args(argv)
    names = [m["name"] for m in spec["end_to_end"]]

    status = git("status", "--porcelain", "--untracked-files=no")
    python, numpy = subprocess.run([spec["command"][0], "-c", VERSIONS], capture_output=True,
                                   text=True, check=True).stdout.split()
    record = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": python,
        "numpy": numpy,
        "cpu_count": os.cpu_count(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run(spec["command"], workload, seed, args.seconds))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} attempted={runs[-1]['attempted']} "
                  f"failed={runs[-1]['failed']}", flush=True)
        record["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {name: {"unit": runs[0]["metrics"][name]["unit"],
                               **summary([r["metrics"][name]["value"] for r in runs])} for name in names},
        }

    out = args.out or ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
