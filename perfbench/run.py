"""jcasbeam benchmark: one workload, one seed, a closed loop for a fixed time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload design --seed 1 --seconds 10 --trace 0

The package is imported from the checkout's ``src/`` (nothing is built or
installed). Ops run one after another with a single caller and BLAS held to
one thread. Each op's outputs are checked after its timed region; a failed
check or an exception marks the op failed and the run goes on.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs the same
loop with every public function of the package wrapped in a span and reports
the per-layer metrics instead. Op and set-up times are reported in reference
seconds: wall time scaled by the machine speed sampled while it ran (see
``speed.py``). The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. A fuller record,
with the environment and every op, goes to ``perfbench/results/``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for var in BLAS_ENV:  # before anything loads numpy and its BLAS
    os.environ[var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path

import speed
import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"
CALIBRATION_S = 3.0  # untraced ops a traced run times first, to measure what tracing costs
RANK_WARNING = "effective channel rank"
ROOT_SPAN = "harness.op"  # around each timed op; its layer is the harness
SETUP_SPAN = "harness.setup"

# (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_ref_s", "ref_s", "lower"),
    ("op_tail_ref_s", "ref_s", "lower"),
    ("designs_per_ref_s", "1/ref_s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None where it cannot be asked."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout when it is itself a git work tree, else None."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest():
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "jcasbeam").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def run_ops(workload, base_seed, seconds, probe, tracer=None, min_ops=1):
    """The closed loop: ops one after another until ``seconds`` have passed.

    At least ``min_ops`` ops run, and ops of one seed group always run together.
    ``probe`` is the :class:`speed.SpeedProbe` that samples machine speed
    around and during each op. Returns one record per op: index, seed, wall
    time in s without the probe's own time, mean kernel time sampled over
    the op, the op time in reference seconds, the problems found (an
    exception in the op or a failed output check) and the count of
    rank-deficiency warnings the op raised.
    """
    records = []
    sink = io.StringIO()  # what the package prints during an op
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t_loop = time.perf_counter()
        index = 0
        while index < min_ops or index % workload.group or time.perf_counter() - t_loop < seconds:
            seed = workload.seed_of(base_seed, index)
            n_caught = len(caught)
            if tracer is not None:
                outer_op, tracer.op = tracer.op, index
            span = tracer.span(ROOT_SPAN) if tracer is not None else contextlib.nullcontext()
            output, problems = None, []
            start = probe.mark()
            try:
                with span, contextlib.redirect_stdout(sink):
                    output = workload.run(index, seed)
            except Exception as exc:
                problems.append(f"op raised {type(exc).__name__}: {exc}")
            duration, kernel_s = probe.op_span(start, probe.mark())
            if tracer is not None:
                tracer.op = outer_op
            if not problems:
                try:
                    problems = workload.check(index, seed, output)
                except Exception:
                    problems = ["output check raised: " + traceback.format_exc(limit=3)]
            sink.seek(0)
            sink.truncate()
            rank = sum(RANK_WARNING in str(w.message) for w in caught[n_caught:])
            records.append({"index": index, "seed": seed, "duration_s": duration,
                            "kernel_s": kernel_s, "ref_s": speed.reference_s(duration, kernel_s),
                            "problems": problems, "rank_warnings": rank})
            index += 1
    return records


def end_to_end_metrics(records, setup, points_per_op):
    """The end-to-end metrics, and the same timings in wall seconds as detail.

    ``setup`` is the set-up's (wall time in s, mean kernel time in s).
    """
    ok = sum(1 for r in records if not r["problems"])
    metrics = {"setup_s": speed.reference_s(*setup)}
    detail = {"setup_wall_s": setup[0]}
    for key, unit in (("ref_s", "ref_s"), ("duration_s", "s")):
        durations = [r[key] for r in records]
        tail, tail_p, tail_beyond = stats.tail(durations)
        out = metrics if key == "ref_s" else detail
        out[f"op_p50_{unit}"] = statistics.median(durations)
        out[f"op_tail_{unit}"] = tail
        out[f"designs_per_{unit}"] = points_per_op * ok / sum(durations)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail.update({"kernel_p50_s": statistics.median(r["kernel_s"] for r in records),
                   "op_tail_percentile": tail_p, "op_tail_beyond": tail_beyond,
                   "ops": len(records), "fail_frac": (len(records) - ok) / len(records)})
    return metrics, detail


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "jcasbeam" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"no jcasbeam sources under {SRC} (or no {REFERENCE.name}); run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import jcasbeam
    import jcasbeam.cli  # noqa: F401  (workloads call it as jcasbeam.cli)

    import layers
    import spans
    from workloads import WORKLOADS

    if Path(jcasbeam.__file__).resolve().parent != SRC / "jcasbeam":
        print(f"imported jcasbeam from {jcasbeam.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        restore = spans.instrument(jcasbeam, tracer, layers.HOOKS)
        tracer.op = spans.SETUP_OP

    work = WORK / f"{args.workload}-{os.getpid()}"
    reference = json.loads(REFERENCE.read_text())
    workload = WORKLOADS[args.workload](jcasbeam, work, reference)
    calibration = []
    probe = speed.SpeedProbe()
    probe.start()
    try:
        work.mkdir(parents=True, exist_ok=True)
        span = tracer.span(SETUP_SPAN) if tracer else contextlib.nullcontext()
        with span:
            setup_problems = workload.prepare()
        if tracer:
            # the traced loop starts with the seeds these untraced ops ran
            restore()
            calibration = run_ops(workload, args.seed, CALIBRATION_S, probe)
            restore = spans.instrument(jcasbeam, tracer, layers.HOOKS)
            tracer.op = spans.NO_OP

        setup = probe.op_span((T_START, T_START, 0.0), probe.mark())
        records = run_ops(workload, args.seed, args.seconds, probe, tracer, min_ops=len(calibration))

        if tracer:
            tracer.op = spans.FINISH_OP
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore", RuntimeWarning)
            finish_problems = workload.finish()
        if tracer:
            restore()
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    attempted = len(calibration) + len(records)
    failed = sum(1 for r in calibration + records if r["problems"])
    correct = failed == 0 and not setup_problems and not finish_problems
    if tracer:
        table = tracer.table()
        metrics = layers.layer_metrics(
            table, [r["index"] for r in records], [r["ref_s"] for r in records],
            [r["rank_warnings"] for r in records], [r["ref_s"] for r in calibration],
        )
        units = {name: unit for name, unit, _ in layers.METRICS}
        detail = {}
    else:
        metrics, detail = end_to_end_metrics(records, setup, workload.points_per_op)
        units = {name: unit for name, unit, _ in END_TO_END}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {
        "args": vars(args),
        "environment": environment(),
        "load_average": {"start": load_start, "end": os.getloadavg()},
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "detail": detail,
        "setup_problems": setup_problems,
        "finish_problems": finish_problems,
        "calibration_ops": calibration,
        "ops": records,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        # one spans file per workload, overwritten, so repeated runs use bounded disk
        spans.write_spans(table, RESULTS / f"{args.workload}.spans.npz")

    for problem in setup_problems + finish_problems:
        print(f"check failed: {problem}")
    for r in calibration + records:
        for problem in r["problems"]:
            print(f"op {r['index']} (seed {r['seed']}) failed: {problem}")
    for name, value in metrics.items():
        print(f"{args.workload:10s} {name:30s} {value:14.6g} {units[name]}")
    for name, value in detail.items():
        print(f"{args.workload:10s} {name:30s} {value:14.6g}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
