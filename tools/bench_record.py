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

``--against DIR`` also runs every seed in the checkout at ``DIR`` (say, the parent
commit's), with this checkout's command and run length, alternating which side runs
first: the parent first at the first seed, this checkout first at the second, and so
on. The file then also records ``DIR``'s commit and dirty flag under ``against``,
per workload the other side's ``correct``, ``attempted`` and ``failed`` under
``against``, and per metric the other side's summary under ``against`` and
``wins``, the number of seeds at which this checkout's value is strictly better in
the metric's direction (``better`` in ``BENCHMARK.json``). Without it the schema is
as above.
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


def git(*args, cwd=ROOT):
    """Output of a git command in a checkout (this one by default), or None outside a git checkout."""
    try:
        return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def checkout(cwd=ROOT) -> dict:
    """The git commit of a checkout and whether tracked files differ from it (both None outside git)."""
    status = git("status", "--porcelain", "--untracked-files=no", cwd=cwd)
    return {"commit": git("rev-parse", "HEAD", cwd=cwd), "dirty": None if status is None else bool(status)}


def summary(values: list) -> dict:
    q1, q3 = statistics.quantiles(values, n=4)[::2] if len(values) > 1 else values * 2
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def run(command: list, workload: str, seed: int, seconds: int, cwd=ROOT) -> dict:
    """One untraced benchmark run in a checkout: the JSON object on the last line of its standard output."""
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed} in {cwd} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def outcome(runs: list) -> dict:
    """Whether every run was correct, and the ops they attempted and failed."""
    return {"correct": all(r["correct"] for r in runs), "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs)}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("n", type=int, help="the number in the file name BENCH_<n>.json")
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", type=Path, help="where to write the file (default: BENCH_<n>.json at the root)")
    p.add_argument("--against", type=Path, help="a checkout to run every seed in as well, alternating with this one")
    args = p.parse_args(argv)
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}

    python, numpy = subprocess.run([spec["command"][0], "-c", VERSIONS], capture_output=True,
                                   text=True, check=True).stdout.split()
    record = {
        **checkout(),
        "python": python,
        "numpy": numpy,
        "cpu_count": os.cpu_count(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    sides = {"here": ROOT}
    if args.against:
        record["against"] = checkout(args.against)
        sides = {"against": args.against, "here": ROOT}
    for workload in args.workloads:
        runs = {side: [] for side in sides}
        for i, seed in enumerate(args.seeds):
            for side in list(sides)[:: -1 if i % 2 else 1]:
                runs[side].append(run(spec["command"], workload, seed, args.seconds, sides[side]))
                last = runs[side][-1]
                print(f"{workload} seed {seed} ({side}): correct={last['correct']} attempted={last['attempted']} "
                      f"failed={last['failed']}", flush=True)

        def values(side, name):
            return [r["metrics"][name]["value"] for r in runs[side]]

        entry = record["workloads"][workload] = {
            **outcome(runs["here"]),
            "metrics": {name: {"unit": runs["here"][0]["metrics"][name]["unit"], **summary(values("here", name))}
                        for name in metrics},
        }
        if args.against:
            entry["against"] = outcome(runs["against"])
            for name, better in metrics.items():
                sign = 1.0 if better == "higher" else -1.0
                pairs = zip(values("here", name), values("against", name))
                entry["metrics"][name]["against"] = summary(values("against", name))
                entry["metrics"][name]["wins"] = sum(sign * (mine - theirs) > 0 for mine, theirs in pairs)

    out = args.out or ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
