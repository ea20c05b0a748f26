"""In-memory span recording, per-layer self time, and the span file format.

A span is one call across a layer boundary: ``(name, parent, start_ns,
end_ns)``. The recorder keeps spans in four flat ``array`` columns (24 bytes
per span, no per-span Python objects), so a traced run of a few million
calls stays within a few tens of megabytes. Spans are written out only when
the run ends.

Span names are ``<layer>:<Class.method>``; the layer is the package under
``src/repro/`` that defines the called code. A layer's self time is the
time its spans cover minus the time covered by their direct child spans,
whatever layer the children belong to. Because every span lies inside its
parent, the self times of all spans add up exactly to the root span's
duration.

Read a span file written by ``run.py --trace 1``::

    python3 perfbench/spans.py .perfbench/spans/faults-mesh4.json

prints, per span name and per layer, the call count and self time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

#: Column typecodes of the binary span file, in file order.
COLUMNS = (("name", "i"), ("parent", "i"), ("start_ns", "q"), ("end_ns", "q"))


def layer_of(name: str) -> str:
    """``"gptp:Ptp4lInstance.on_sync"`` -> ``"gptp"``."""
    return name.split(":", 1)[0]


class SpanRecorder:
    """Records nested spans; :meth:`wrap` makes a callable record one."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        #: Indices of the open spans; -1 is the virtual root.
        self.stack: List[int] = [-1]
        self.call = self._make_call()

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.name_col)

    def current_layer(self) -> str:
        """Layer of the innermost open span (``"sim"`` outside any span)."""
        top = self.stack[-1]
        if top < 0:
            return "sim"
        return layer_of(self.names[self.name_col[top]])

    def _make_call(self) -> Callable:
        """Build ``call(nid, fn, *args, **kwargs)``: ``fn`` inside span ``nid``.

        The kernel's callbacks go through it directly, with no closure per
        event; :meth:`wrap` goes through it for boundary methods.
        """
        name_append = self.name_col.append
        parent_append = self.parent_col.append
        start_append = self.start_col.append
        end_append = self.end_col.append
        ends = self.end_col
        stack = self.stack
        push = stack.append
        pop = stack.pop
        clock = time.perf_counter_ns

        def call(nid, fn, *args, **kwargs):
            idx = len(ends)
            name_append(nid)
            parent_append(stack[-1])
            end_append(0)
            push(idx)
            start_append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                pop()

        call.perfbench_span = "call"
        return call

    def wrap(self, fn: Callable, name: str) -> Callable:
        """Return ``fn`` wrapped so that every call records a span."""
        nid = self.intern(name)
        call = self.call

        def traced(*args, **kwargs):
            return call(nid, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        traced.perfbench_span = name
        return traced

    def span(self, name: str) -> "_OpenSpan":
        """Context manager recording one span (the benchmark's root span)."""
        return _OpenSpan(self, self.intern(name))

    # ------------------------------------------------------------------
    def columns(self) -> Tuple[array, array, array, array]:
        return self.name_col, self.parent_col, self.start_col, self.end_col

    def write(self, path: str, extra: Dict) -> None:
        """Write ``path`` (JSON header) and ``path[:-5] + ".bin"`` (columns)."""
        bin_path = os.path.splitext(path)[0] + ".bin"
        with open(bin_path, "wb") as fh:
            for column in self.columns():
                column.tofile(fh)
        header = dict(extra)
        header.update({
            "names": self.names,
            "count": len(self),
            "columns": [list(c) for c in COLUMNS],
            "byteorder": sys.byteorder,
            "binary": os.path.basename(bin_path),
        })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)


class _OpenSpan:
    def __init__(self, recorder: SpanRecorder, nid: int) -> None:
        self.recorder = recorder
        self.nid = nid
        self.idx = -1

    def __enter__(self) -> "_OpenSpan":
        rec = self.recorder
        self.idx = len(rec.end_col)
        rec.name_col.append(self.nid)
        rec.parent_col.append(rec.stack[-1])
        rec.end_col.append(0)
        rec.stack.append(self.idx)
        rec.start_col.append(time.perf_counter_ns())
        return self

    def __exit__(self, *exc) -> None:
        rec = self.recorder
        rec.end_col[self.idx] = time.perf_counter_ns()
        rec.stack.pop()


def read_spans(path: str) -> Tuple[Dict, Tuple[array, ...]]:
    """Load a span file written by :meth:`SpanRecorder.write`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    count = header["count"]
    columns = []
    bin_path = os.path.join(os.path.dirname(path), header["binary"])
    with open(bin_path, "rb") as fh:
        for _, code in header["columns"]:
            column = array(code)
            column.fromfile(fh, count)
            if header["byteorder"] != sys.byteorder:
                column.byteswap()
            columns.append(column)
    return header, tuple(columns)


def summarize(names: List[str], name_col, parent_col, start_col, end_col):
    """Per-name call counts, total span time and self time, in ns.

    Returns ``{name: (calls, total_ns, self_ns)}``. Self time is a span's
    duration minus the durations of its direct children; nested calls of
    the same name count each call's own self time once.
    """
    n = len(name_col)
    child_ns = array("q", bytes(8 * n))
    for i in range(n):
        parent = parent_col[i]
        if parent >= 0:
            child_ns[parent] += end_col[i] - start_col[i]
    calls = [0] * len(names)
    total = [0] * len(names)
    self_ns = [0] * len(names)
    for i in range(n):
        nid = name_col[i]
        duration = end_col[i] - start_col[i]
        calls[nid] += 1
        total[nid] += duration
        self_ns[nid] += duration - child_ns[i]
    return {
        name: (calls[k], total[k], self_ns[k])
        for k, name in enumerate(names)
        if calls[k]
    }


def layer_self_ns(per_name: Dict[str, Tuple[int, int, int]]) -> Dict[str, int]:
    """Sum self time by layer."""
    out: Dict[str, int] = {}
    for name, (_, _, self_ns) in per_name.items():
        layer = layer_of(name)
        out[layer] = out.get(layer, 0) + self_ns
    return out


def root_ns(parent_col, start_col, end_col) -> int:
    """Total duration of the top-level spans."""
    return sum(
        end_col[i] - start_col[i]
        for i in range(len(parent_col))
        if parent_col[i] < 0
    )


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    header, columns = read_spans(argv[0])
    per_name = summarize(header["names"], *columns)
    wall = root_ns(columns[1], columns[2], columns[3])
    print(f"{header.get('workload', '?')} seed={header.get('seed')} "
          f"spans={header['count']} traced wall={wall / 1e9:.3f} s")
    print(f"{'layer':<12} {'self_s':>9} {'share':>7}")
    for layer, ns in sorted(layer_self_ns(per_name).items(),
                            key=lambda kv: -kv[1]):
        print(f"{layer:<12} {ns / 1e9:9.3f} {ns / wall:7.1%}")
    print(f"\n{'span':<58} {'calls':>9} {'self_s':>9} {'total_s':>9}")
    for name, (calls, total, self_ns) in sorted(per_name.items(),
                                                key=lambda kv: -kv[1][2]):
        print(f"{name:<58} {calls:9d} {self_ns / 1e9:9.3f} {total / 1e9:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
