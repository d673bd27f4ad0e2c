"""``tools/bench_record.py``: one short benchmark run recorded in the ``BENCH_<n>.json`` schema."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def results_listing() -> list:
    """The files in the checkout's ``perfbench/results/``, which runs in copies of the checkout leave alone."""
    results = ROOT / "perfbench" / "results"
    return sorted(p.name for p in results.iterdir()) if results.exists() else []


def test_bench_record_writes_one_seed_of_link_in_the_schema(tmp_path):
    out = tmp_path / "BENCH_0.json"
    before = results_listing()
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_record.py"), "0", "--workloads", "link",
                    "--seeds", "1", "--seconds", "1", "--out", str(out)],
                   cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
    assert results_listing() == before
    text = out.read_text()
    record = json.loads(text)
    assert text == json.dumps(record, indent=1, sort_keys=True) + "\n"
    assert set(record) == {"commit", "dirty", "python", "numpy", "cpu_count", "seconds", "seeds", "workloads"}
    assert (record["seconds"], record["seeds"], list(record["workloads"])) == (1, [1], ["link"])
    assert all(isinstance(record[key], str) for key in ("python", "numpy"))
    assert isinstance(record["cpu_count"], int)

    link = record["workloads"]["link"]
    assert set(link) == {"correct", "attempted", "failed", "metrics"}
    assert link["correct"] is True and link["failed"] == 0 and link["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(link["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    for name, metric in link["metrics"].items():
        assert set(metric) == {"unit", "median", "q1", "q3", "values"}, name
        [value] = metric["values"]
        assert metric["median"] == metric["q1"] == metric["q3"] == value > 0, name


def test_bench_record_against_a_checkout_adds_its_values_and_the_wins(tmp_path):
    # against this checkout itself: one 1-s link seed on each side
    out = tmp_path / "BENCH_0.json"
    before = results_listing()
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_record.py"), "0", "--workloads", "link",
                           "--seeds", "1", "--seconds", "1", "--out", str(out), "--against", str(ROOT)],
                          cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
    assert results_listing() == before
    # the parent side runs first at the first seed
    assert proc.stdout.index("link seed 1 (against)") < proc.stdout.index("link seed 1 (here)")
    record = json.loads(out.read_text())
    assert set(record) == {"commit", "dirty", "python", "numpy", "cpu_count", "seconds", "seeds", "workloads",
                           "against"}
    assert set(record["against"]) == {"commit", "dirty"}
    assert record["against"]["commit"] == record["commit"]

    link = record["workloads"]["link"]
    assert set(link) == {"correct", "attempted", "failed", "metrics", "against"}
    assert set(link["against"]) == {"correct", "attempted", "failed"}
    assert link["against"]["correct"] is True and link["against"]["failed"] == 0
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for name, metric in link["metrics"].items():
        assert set(metric) == {"unit", "median", "q1", "q3", "values", "against", "wins"}, name
        assert set(metric["against"]) == {"median", "q1", "q3", "values"}, name
        [value] = metric["values"]
        [theirs] = metric["against"]["values"]
        assert theirs > 0, name
        # a win is a strictly better value in the metric's direction
        assert metric["wins"] == int(value > theirs if better[name] == "higher" else value < theirs), name
