"""Per-layer metrics of jcasbeam from the spans of a traced run.

A layer is one module of the package. Counts and self times are per timed
op; the ratios (``us_per_iter``, ``converged_frac``, ``evals_per_iter``) pool
every call of the run, set-up included, since they describe the solver
rather than the op.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from spans import SETUP_OP, layer_of, rows_by_id, self_times

LAYERS = ("covariance", "manifold", "precoding", "pipeline", "evaluation",
          "beamgrid", "channel", "tables", "cli", "harness")

def _solve_attrs(result, args):
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _rcg_attrs(result, args):
    return {"iterations": result.iterations}


def _table_attrs(result, args):
    return {"bytes": os.path.getsize(args[0])}


HOOKS = {
    "covariance.solve_pattern_covariance": _solve_attrs,
    "manifold.solve_rcg": _rcg_attrs,
    "tables.write_table": _table_attrs,
}

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    ("covariance.self_s", "s", "lower"),
    ("covariance.solves", "count", "lower"),
    ("covariance.admm_iters", "count", "lower"),
    ("covariance.us_per_iter", "us", "lower"),
    ("covariance.converged_frac", "ratio", "higher"),
    ("covariance.setup_s", "s", "lower"),
    ("manifold.self_s", "s", "lower"),
    ("manifold.solves", "count", "lower"),
    ("manifold.rcg_iters", "count", "lower"),
    ("manifold.objective_evals", "count", "lower"),
    ("manifold.evals_per_iter", "ratio", "lower"),
    ("precoding.self_s", "s", "lower"),
    ("precoding.calls", "count", "lower"),
    ("precoding.rank_warnings", "count", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.designs", "count", "higher"),
    ("evaluation.self_s", "s", "lower"),
    ("evaluation.pass1_eigen_calls", "count", "lower"),
    ("beamgrid.self_s", "s", "lower"),
    ("channel.self_s", "s", "lower"),
    ("tables.self_s", "s", "lower"),
    ("tables.bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("trace.op_p50_ref_s", "ref_s", "lower"),
    ("trace.spans_per_op", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def _has_ancestor(table, rows, row, code):
    parent = table.parent[row]
    while parent != -1:
        row = rows[parent]
        if table.name[row] == code:
            return True
        parent = table.parent[row]
    return False


def layer_metrics(table, op_ids, durations, rank_warnings, untraced):
    """Every metric of :data:`METRICS` as ``{name: value}``.

    ``table`` is the run's :class:`spans.SpanTable`, ``op_ids`` the timed
    ops, ``durations`` their traced times in reference seconds (see
    ``speed.py``), ``rank_warnings`` the rank-deficiency warnings each
    raised, and ``untraced`` the times of untraced ops run with the seeds of
    the first ``len(untraced)`` traced ops.
    ``trace.overhead_frac`` compares the medians of those two sets.
    """
    n_ops = len(op_ids)
    self_s = self_times(table) * 1e-9
    in_ops = np.isin(table.op, list(op_ids))
    code = {n: i for i, n in enumerate(table.names)}
    layer_code = {name: i for i, name in enumerate(sorted({layer_of(n) for n in table.names}))}
    layer = np.array([layer_code[layer_of(n)] for n in table.names], dtype=np.int64)[table.name]

    def per_op(value):
        return value / n_ops

    def named(name):
        return table.name == code.get(name, -1)

    def count(name):
        return int(np.count_nonzero(named(name) & in_ops))

    def attr_sum(mask, key):
        return sum(table.attrs.get(int(i), {}).get(key, 0) for i in table.id[mask])

    def in_layer(name):
        return layer == layer_code.get(name, -1)

    def layer_self(name, mask=in_ops):
        return float(self_s[in_layer(name) & mask].sum())

    solve = named("covariance.solve_pattern_covariance")
    solve_attrs = [table.attrs[int(i)] for i in table.id[solve] if "converged" in table.attrs.get(int(i), {})]
    iters_all = attr_sum(solve, "iterations")
    rcg_iters = attr_sum(named("manifold.solve_rcg") & in_ops, "iterations")
    evals = count("manifold.tradeoff_objective")

    rows = rows_by_id(table)
    has_parent = table.parent >= 0
    parent_layer = np.where(has_parent, layer[rows[np.where(has_parent, table.parent, 0)]], -1)
    precoding = in_layer("precoding")
    precoding_entries = int(np.count_nonzero(precoding & (parent_layer != layer) & in_ops))
    sweep, run_design = code.get("evaluation.sweep", -2), code.get("pipeline.run_design", -2)
    pass1 = sum(
        1 for row in np.flatnonzero(named("pipeline.eigen_stage") & in_ops)
        if _has_ancestor(table, rows, row, sweep) and not _has_ancestor(table, rows, row, run_design)
    )
    op_p50 = statistics.median(durations)
    untraced_p50 = statistics.median(untraced)
    paired_p50 = statistics.median(durations[:len(untraced)])

    out = {f"{name}.self_s": per_op(layer_self(name)) for name in LAYERS}
    out.update({
        "covariance.solves": per_op(count("covariance.solve_pattern_covariance")),
        "covariance.admm_iters": per_op(attr_sum(solve & in_ops, "iterations")),
        "covariance.us_per_iter": _ratio(layer_self("covariance", True) * 1e6, iters_all),
        "covariance.converged_frac": _ratio(sum(a["converged"] for a in solve_attrs), len(solve_attrs)),
        "covariance.setup_s": layer_self("covariance", table.op == SETUP_OP),
        "manifold.solves": per_op(count("manifold.solve_rcg")),
        "manifold.rcg_iters": per_op(rcg_iters),
        "manifold.objective_evals": per_op(evals),
        "manifold.evals_per_iter": _ratio(evals, rcg_iters),
        "precoding.calls": per_op(precoding_entries),
        "precoding.rank_warnings": per_op(sum(rank_warnings)),
        "pipeline.designs": per_op(count("pipeline.run_design")),
        "evaluation.pass1_eigen_calls": per_op(pass1),
        "tables.bytes": per_op(attr_sum(named("tables.write_table") & in_ops, "bytes")),
        "trace.op_p50_ref_s": op_p50,
        "trace.spans_per_op": per_op(int(np.count_nonzero(in_ops))),
        "trace.overhead_frac": paired_p50 / untraced_p50 - 1.0,
    })
    return {name: out[name] for name, _, _ in METRICS}
