"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q
"""

import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import jcasbeam  # noqa: E402
from jcasbeam.errors import SolverError  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(1, 50.0, 0), (2, 50.0, 1), (15, 50.0, 7), (19, 50.0, 9), (20, 50.0, 10),
     (21, 100 * 11 / 21, 10), (40, 75.0, 10), (100, 90.0, 10), (10000, 99.9, 10)],
)
def test_tail_percentile_rule(n, percentile, beyond):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted on purpose
    value, p, b = stats.tail(values)
    assert (p, b) == (pytest.approx(percentile), beyond)
    assert sum(v > value for v in values) == b
    assert value >= statistics.median(values)


def test_tail_below_twenty_ops_is_the_median():
    values = [3.0, 1.0, 2.0, 100.0, 4.0]
    assert stats.tail(values) == (3.0, 50.0, 2)
    assert stats.tail([7.5]) == (7.5, 50.0, 0)
    assert stats.tail([1.0, 2.0]) == (1.5, 50.0, 1)


def test_quartile_spread():
    assert stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def span(i, parent, name, start, end, op=0, attrs=None):
    return (i, parent, op, name, start, end, attrs)


def test_self_time_on_a_synthetic_tree():
    tree = spans.SpanTable.from_rows([
        span(0, -1, "harness.op", 0, 100),
        span(1, 0, "pipeline.run_design", 10, 40),
        span(2, 1, "manifold.solve_rcg", 20, 30),
        span(3, 0, "evaluation.beampattern_mse", 30, 60),  # overlaps span 1
        span(4, 3, "covariance.beampattern_values", 50, 120),  # overhangs its parent
        span(5, -1, "harness.op", 200, 300, op=1),
        span(6, 5, "pipeline.run_design", 200, 300, op=1),  # covers all of its parent
    ])
    got = dict(zip(tree.id.tolist(), spans.self_times(tree).tolist()))
    assert got == {0: 100 - 50, 1: 30 - 10, 2: 10, 3: 30 - 10, 4: 70, 5: 0, 6: 100}


def test_tracer_nests_and_charges_the_defining_module():
    cfg = jcasbeam.SystemConfig(n_tx=2, n_rx=2, n_streams=2, n_subcarriers=2, n_jcas=1, grid_size=31)
    tracer = spans.Tracer()
    restore = spans.instrument(jcasbeam, tracer, layers.HOOKS)
    try:
        assert jcasbeam.evaluation.beampattern_gain is jcasbeam.covariance.beampattern_values
        tracer.op = 0
        with tracer.span(run.ROOT_SPAN):
            result = jcasbeam.run_design(cfg)
            jcasbeam.beampattern_mse(result.precoders, result.jcas_subcarriers, result.grid)
    finally:
        restore()
    assert not hasattr(jcasbeam.run_design, "__traced__")
    table = tracer.table()
    names = {table.names[c] for c in table.name}
    # called from evaluation under the alias beampattern_gain, charged to covariance
    assert "covariance.beampattern_values" in names
    assert {"pipeline.run_design", "pipeline.eigen_stage", "manifold.solve_rcg",
            "precoding.waterfill", "covariance.solve_pattern_covariance"} <= names
    assert sorted(table.id.tolist()) == list(range(len(table)))
    assert (table.op == 0).all() and (table.start <= table.end).all()
    rows = spans.rows_by_id(table)
    has_parent = table.parent >= 0
    parent = rows[table.parent[has_parent]]
    assert (table.start[parent] <= table.start[has_parent]).all()
    assert (table.end[has_parent] <= table.end[parent]).all()
    solve_id = int(table.id[table.name == table.names.index("covariance.solve_pattern_covariance")][0])
    k = int(result.jcas_subcarriers[0])
    assert table.attrs[solve_id]["iterations"] == result.covariances[k].iterations

    metrics = layers.layer_metrics(table, [0], [1.0], [0], [1.0])
    assert [m for m, _, _ in layers.METRICS] == list(metrics)
    assert metrics["pipeline.designs"] == 1
    assert metrics["covariance.solves"] == 1
    assert metrics["evaluation.pass1_eigen_calls"] == 0
    root = int(np.flatnonzero(table.parent == -1)[0])
    assert sum(metrics[f"{name}.self_s"] for name in layers.LAYERS) == pytest.approx(
        (table.end[root] - table.start[root]) * 1e-9)


def test_pass1_counts_eigen_stage_only_outside_run_design():
    tree = spans.SpanTable.from_rows([
        span(0, -1, "harness.op", 0, 100),
        span(1, 0, "evaluation.sweep", 0, 100),
        span(2, 1, "pipeline.eigen_stage", 1, 2),
        span(3, 1, "pipeline.eigen_stage", 3, 4),
        span(4, 1, "pipeline.run_design", 5, 50),
        span(5, 4, "pipeline.eigen_stage", 6, 7),
        span(6, -1, "pipeline.eigen_stage", 8, 9, op=spans.SETUP_OP),
        span(7, 4, "covariance.solve_pattern_covariance", 10, 20, attrs={"iterations": 7, "converged": True}),
        span(8, -1, "covariance.solve_pattern_covariance", 30, 40, op=spans.SETUP_OP,
             attrs={"iterations": 5, "converged": False}),
    ])
    metrics = layers.layer_metrics(tree, [0], [1.0], [0], [1.0])
    assert metrics["evaluation.pass1_eigen_calls"] == 2
    assert metrics["pipeline.designs"] == 1
    assert metrics["covariance.admm_iters"] == 7
    assert metrics["covariance.converged_frac"] == 0.5
    assert metrics["covariance.setup_s"] == pytest.approx(10e-9)


def test_overhead_compares_traced_and_untraced_ops_of_the_same_seeds():
    tree = spans.SpanTable.from_rows([span(i, -1, "harness.op", 0, 10, op=i) for i in range(4)])
    # the untraced ops ran the seeds of traced ops 0 and 1; ops 2 and 3 are not compared
    metrics = layers.layer_metrics(tree, [0, 1, 2, 3], [1.2, 1.4, 9.0, 9.0], [0] * 4, [1.0, 1.2])
    assert metrics["trace.overhead_frac"] == pytest.approx(1.3 / 1.1 - 1)
    assert metrics["trace.op_p50_ref_s"] == pytest.approx(5.2)


class ScriptedWorkload(workloads.Workload):
    """Three ops in one seed group; op 1 raises, op 2 fails its check."""

    group = 3

    def __init__(self):
        super().__init__(jcasbeam, BENCH, {})

    def run(self, index, seed):
        print("op output goes to the sink, not the result line")
        if index == 1:
            raise SolverError("covariance solver residual too large")
        return index

    def check(self, index, seed, output):
        return ["bad output"] if output == 2 else []


def test_an_op_that_raises_solver_error_counts_as_failed(capsys):
    records = run.run_ops(ScriptedWorkload(), base_seed=4, seconds=0.0, probe=speed.SpeedProbe())
    assert [r["index"] for r in records] == [0, 1, 2]
    assert [r["seed"] for r in records] == [4000, 4000, 4000]
    assert records[0]["problems"] == []
    assert "SolverError" in records[1]["problems"][0]
    assert records[2]["problems"] == ["bad output"]
    assert capsys.readouterr().out == ""
    metrics, detail = run.end_to_end_metrics(records, setup=(1.0, 0.5), points_per_op=2)
    assert detail["fail_frac"] == pytest.approx(2 / 3)
    assert detail["designs_per_s"] == pytest.approx(2 / sum(r["duration_s"] for r in records))
    assert metrics["designs_per_ref_s"] == pytest.approx(2 / sum(r["ref_s"] for r in records))
    assert metrics["setup_s"] == pytest.approx(2 * speed.REF_KERNEL_S)
    # a traced run asks for at least as many ops as its untraced calibration ran; groups stay whole
    records = run.run_ops(ScriptedWorkload(), base_seed=4, seconds=0.0, probe=speed.SpeedProbe(), min_ops=4)
    assert [r["seed"] for r in records] == [4000] * 3 + [4001] * 3


def test_op_span_takes_out_handler_time_and_averages_kernel_samples():
    probe = speed.SpeedProbe()
    probe.samples = [(9.0, 1.0), (10.0, 0.002), (10.5, 0.004), (12.0, 0.006), (13.0, 1.0)]
    # marks: kernel sampled at 10.0 and 12.0; the timer's sample at 10.5 took 0.25 s of handler time
    duration, kernel_s = probe.op_span((10.0, 10.01, 0.5), (12.0, 12.01, 0.75))
    assert duration == pytest.approx(12.0 - 10.01 - 0.25)
    assert kernel_s == pytest.approx(0.004)
    assert speed.reference_s(duration, kernel_s) == pytest.approx(duration * speed.REF_KERNEL_S / 0.004)


def test_probe_samples_on_its_timer_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe(interval_s=0.01)
    probe.start()
    try:
        start = probe.mark()
        t_end = start[1] + 0.2
        while time.perf_counter() < t_end:
            pass
        end = probe.mark()
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) > 3 and probe.handler_s > 0
    duration, kernel_s = probe.op_span(start, end)
    assert 0 < duration < end[0] - start[1]
    assert kernel_s > 0
