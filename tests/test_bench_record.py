"""``tools/bench_record.py``: one short benchmark run recorded in the ``BENCH_<n>.json`` schema."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_record_writes_one_seed_of_link_in_the_schema(tmp_path):
    out = tmp_path / "BENCH_0.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_record.py"), "0", "--workloads", "link",
                    "--seeds", "1", "--seconds", "1", "--out", str(out)],
                   cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
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
