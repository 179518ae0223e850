"""Span tracer for the traced benchmark run.

The tracer wraps functions at toughkit's module boundaries from outside the
package: every name in a ``toughkit`` or ``toughkit.*`` namespace that is
bound to a traced function is rebound to a wrapper, and so is each entry of
``harness.SUITES``.  Calls made through any of those names (including calls
between toughkit modules) therefore open a span.

Each span records its name, start, end, parent span and operation id in
flat arrays that stay in memory until ``write`` dumps them.  Self time (span
time minus the time of its child spans) and call counts are summed as spans
close, keyed by (name, group, tag): ``group`` is the nearest enclosing
classify, suite or CLI span, and ``tag`` is a label the workload sets per
operation (the stratum of a query).
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# Spans that start a new attribution group for the spans nested inside them.
_GROUP_ROOTS = {"harness.classify": "classify", "cli.run": "cli"}
_SUITE_PREFIX = "harness.suite."


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._group_of: list[str | None] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.op = -1
        self.tag = "-"
        # (name id, group, tag) -> [calls, self seconds, total seconds]
        self.agg: dict[tuple[int, str, str], list] = {}
        self.yields: dict[str, int] = {}
        # open spans: [span index, child seconds, group]
        self._stack: list[list] = []
        self._undo: list[tuple[object, object, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            if name.startswith(_SUITE_PREFIX):
                self._group_of.append("suite." + name[len(_SUITE_PREFIX):])
            else:
                self._group_of.append(_GROUP_ROOTS.get(name))
        return nid

    def _open(self, nid: int) -> None:
        stack = self._stack
        if stack:
            top = stack[-1]
            parent, group = top[0], top[2]
        else:
            parent, group = -1, "-"
        own = self._group_of[nid]
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        stack.append([idx, 0.0, own or group])
        self.span_start.append(time.perf_counter())

    def _close(self, nid: int) -> None:
        end = time.perf_counter()
        stack = self._stack
        idx, child, group = stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        if stack:
            stack[-1][1] += dur
        key = (nid, group, self.tag)
        acc = self.agg.get(key)
        if acc is None:
            self.agg[key] = [1, dur - child, dur]
        else:
            acc[0] += 1
            acc[1] += dur - child
            acc[2] += dur

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(nid)

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        """Wrap a generator function: each resumption is one span."""
        nid = self._name_id(name)
        open_, close = self._open, self._close
        yields = self.yields
        yields.setdefault(name, 0)

        def steps(gen):
            while True:
                open_(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    close(nid)
                yields[name] += 1
                yield item

        def traced(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers --------------------------------------------------

    def install(self, targets, suites: dict) -> None:
        """Rebind each (module, attribute, span name, is_generator) target in
        every toughkit namespace, and wrap every entry of ``suites``."""
        modules = [
            m for k, m in sys.modules.items()
            if m is not None and (k == "toughkit" or k.startswith("toughkit."))
        ]
        for module, attr, name, is_gen in targets:
            orig = getattr(module, attr)
            wrapped = (self.wrap_generator if is_gen else self.wrap)(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapped)
        for sid, fn in list(suites.items()):
            self._undo.append((suites, sid, fn))
            suites[sid] = self.wrap(_SUITE_PREFIX + sid, fn)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, self seconds, total seconds] over every group and tag."""
        out: dict[str, list] = {}
        for (nid, _group, _tag), acc in self.agg.items():
            row = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            for i in range(3):
                row[i] += acc[i]
        return out

    def by(self, name: str, group: str | None = None, tag: str | None = None) -> list:
        """[calls, self seconds] of one span name restricted to a group or tag."""
        nid = self._ids.get(name)
        acc = [0, 0.0]
        for (k, g, t), (calls, self_s, _total) in self.agg.items():
            if k == nid and group in (None, g) and tag in (None, t):
                acc[0] += calls
                acc[1] += self_s
        return acc

    def write(self, path: Path, meta: dict) -> None:
        """Dump every span: one JSON header line, then the raw arrays
        (name id, start, end, parent index, operation id) in that order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = (self.span_name, self.span_start, self.span_end,
                  self.span_parent, self.span_op)
        header = dict(
            meta,
            names=self.names,
            spans=len(self.span_start),
            arrays=[[a.typecode, a.itemsize] for a in arrays],
            byteorder=sys.byteorder,
        )
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                a.tofile(fh)
