"""In-memory spans around every public function of a package, and self time.

:func:`instrument` replaces each public function of every module of a
package with a wrapper that records a span, both in the module that defines
it and in every other module of the package that imported it by name. Each
span is charged to the defining module, so a layer keeps its spans when code
moves around inside it, and the package itself is never edited.

A span has an id, a parent id (-1 for a root), an op id, a name, a start and
an end in ns, and optionally a dict of counts (attrs). A traced run makes
millions of them, so the tracer keeps them in typed columns, not objects,
and :meth:`Tracer.table` hands them over as a :class:`SpanTable` of numpy
arrays. They stay in memory until :func:`write_spans` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array
from dataclasses import dataclass

import numpy as np

# Op ids for spans outside the timed ops.
SETUP_OP = -1
FINISH_OP = -2
NO_OP = -3

COLUMNS = ("id", "parent", "op", "name", "start", "end")


@dataclass
class SpanTable:
    """Spans as parallel arrays, one row per span in the order they closed."""

    id: np.ndarray
    parent: np.ndarray
    op: np.ndarray
    name: np.ndarray   # index into ``names``
    start: np.ndarray  # ns
    end: np.ndarray    # ns
    names: list
    attrs: dict        # span id -> dict of counts

    @classmethod
    def from_rows(cls, rows):
        """Table from ``(id, parent, op, name, start, end[, attrs])`` tuples."""
        names = sorted({r[3] for r in rows})
        code = {n: i for i, n in enumerate(names)}

        def col(values):
            return np.array(values, dtype=np.int64)

        return cls(
            col([r[0] for r in rows]),
            col([r[1] for r in rows]),
            col([r[2] for r in rows]),
            col([code[r[3]] for r in rows]),
            col([r[4] for r in rows]),
            col([r[5] for r in rows]),
            names,
            {r[0]: r[6] for r in rows if len(r) > 6 and r[6]},
        )

    def __len__(self):
        return len(self.id)


class Tracer:
    """Collects spans; every span closed while ``op`` is set carries it."""

    def __init__(self, clock=time.perf_counter_ns):
        self.op = NO_OP
        self.names = []
        self.attrs = {}
        self._codes = {}
        self._cols = {c: array("q") for c in COLUMNS}
        self._clock = clock
        self._stack = []
        self._next_id = 0

    def _code(self, name):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _recorder(self):
        ids, parents, ops, names, starts, ends = (self._cols[c].append for c in COLUMNS)

        def record(span_id, parent, name_code, start, end):
            ids(span_id)
            parents(parent)
            ops(self.op)
            names(name_code)
            starts(start)
            ends(end)

        return record

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block of the harness itself (an op, the set-up)."""
        record = self._recorder()
        code = self._code(name)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            self._stack.pop()
            record(span_id, parent, code, start, end)

    def wrap(self, fn, name, on_result=None):
        """``fn`` recording a span named ``name``.

        ``on_result(result, args)`` returns the span's attrs (a dict of
        counts) after a call that returned; it runs outside the span. A call
        that raised gets the attrs ``{"raised": 1}``.
        """
        stack = self._stack
        clock = self._clock
        attrs = self.attrs
        record = self._recorder()
        code = self._code(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                record(span_id, parent, code, start, end)
                attrs[span_id] = {"raised": 1}
                raise
            end = clock()
            stack.pop()
            record(span_id, parent, code, start, end)
            if on_result is not None:
                attrs[span_id] = on_result(result, args)
            return result

        traced.__traced__ = fn
        return traced

    def table(self):
        # views, not copies: the columns must not grow any more (array raises if they do)
        cols = {c: np.frombuffer(self._cols[c], dtype=np.int64) for c in COLUMNS}
        return SpanTable(**cols, names=list(self.names), attrs=dict(self.attrs))


def package_modules(package):
    """The package and every module below it, imported."""
    mods = [package]
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        mods.append(importlib.import_module(info.name))
    return mods


def instrument(package, tracer, hooks=None):
    """Wrap every public function of ``package``; returns a function that undoes it.

    A public function is one whose name has no leading underscore, defined
    (``__module__``) in the module that holds it. Its span is named
    ``<module>.<function>`` after the defining module, and ``hooks`` maps
    such names to ``on_result`` callbacks. Every module attribute bound to
    the function, under any name, is rebound to the one wrapper.
    """
    hooks = hooks or {}
    mods = package_modules(package)
    wrappers = {}
    for mod in mods:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__ == mod.__name__
                and id(obj) not in wrappers
            ):
                name = f"{layer}.{obj.__name__}"
                wrappers[id(obj)] = (obj, tracer.wrap(obj, name, hooks.get(name)))

    replaced = []
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                setattr(mod, attr, wrappers[id(obj)][1])
                replaced.append((mod, attr, obj))

    def restore():
        for mod, attr, obj in replaced:
            setattr(mod, attr, obj)

    return restore


def rows_by_id(table):
    """Row of every span id; -1 for an id with no row."""
    rows = np.full(int(table.id.max()) + 1 if len(table) else 0, -1, dtype=np.int64)
    rows[table.id] = np.arange(len(table))
    return rows


def self_times(table):
    """Self time in ns of every row: its duration minus what its children cover.

    Children's intervals are clipped to the parent and merged first, so
    overlapping or overhanging children are never counted twice.
    """
    self_ns = table.end - table.start
    child = np.flatnonzero(table.parent >= 0)
    if not child.size:
        return self_ns
    prow = rows_by_id(table)[table.parent[child]]
    c_start = np.maximum(table.start[child], table.start[prow])
    c_end = np.maximum(np.minimum(table.end[child], table.end[prow]), c_start)
    order = np.lexsort((c_start, prow))
    prow, c_start, c_end = prow[order], c_start[order], c_end[order]
    # Lift each parent's children above every earlier parent's, so one running
    # maximum over all rows never carries an end from one parent to the next.
    t0 = int(table.start.min())
    width = int(table.end.max()) - t0 + 1
    lift = np.cumsum(np.r_[0, prow[1:] != prow[:-1]]) * width - t0
    s, e = c_start + lift, c_end + lift
    prev_reach = np.r_[np.iinfo(np.int64).min, np.maximum.accumulate(e)[:-1]]
    covered = np.maximum(e - np.maximum(s, prev_reach), 0)
    return self_ns - np.bincount(prow, weights=covered, minlength=len(table)).astype(np.int64)


def layer_of(name):
    return name.split(".", 1)[0]


def write_spans(table, path):
    """Write spans as a compressed ``.npz``: the columns, ``names``, and ``attrs`` as JSON."""
    np.savez_compressed(
        path,
        **{c: getattr(table, c) for c in COLUMNS},
        names=np.array(table.names),
        attrs=np.array(json.dumps({str(k): v for k, v in table.attrs.items()}, sort_keys=True)),
    )

