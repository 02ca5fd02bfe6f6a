"""Per-layer tracing for the benchmark's traced run.

The tracer wraps the public functions of the four layers (pfdeque, blockio,
cpqa, skyline) from outside the program and records one span per call made
during a timed operation: span id, parent span id, operation id, name, start
and end in nanoseconds. Spans are kept in memory (the first SPAN_CAP of them)
and written out at the end; every call, capped or not, feeds the per-name
totals the per-layer metrics are computed from.

Self time is a span's duration minus the time its child spans cover. Blocks
are attributed by reading the account's counters at span boundaries: a span
owns the reads and writes charged while it was the innermost open span of
the skyline, cpqa or pfdeque layer. blockio spans pass their charges up
unchanged, since every charge is made inside one of them.
"""

from __future__ import annotations

import csv
import time

from skyq import cpqa
from skyq.blockio import IoAccount, _Operation
from skyq.pfdeque import PDeque
from skyq.skyline import SkylineIndex

SPAN_CAP = 100_000

# (layer, owner object, function names); owner is a class or a module
TARGETS = (
    ("skyline", SkylineIndex, ("query3", "insert", "delete")),
    (
        "cpqa",
        cpqa,
        (
            "insert_and_attrite",
            "catenate_and_attrite",
            "delete_min",
            "find_min",
            "concat_sequence",
            "bias",
            "singleton",
            "empty",
            "critical_records",
        ),
    ),
    ("pfdeque", PDeque, ("push", "inject", "pop", "eject", "catenate", "get", "first", "last")),
    (
        "blockio",
        IoAccount,
        ("charge_read_words", "charge_write_words", "operation", "current_op", "register", "pin", "unpin", "is_pinned", "depth"),
    ),
    # entering and leaving an operation scope is blockio bookkeeping too
    ("blockio", _Operation, ("__enter__", "__exit__")),
)

_BLOCK_MEASURES = (("calls_per_op", "calls/op"), ("self_us_per_op", "us/op"), ("reads_per_op", "blocks/op"), ("writes_per_op", "blocks/op"))


def _metric_names() -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    for fn in ("query3", "insert", "delete"):
        out += [("skyline.%s.%s" % (fn, m), u) for m, u in _BLOCK_MEASURES]
    out += [("skyline.node_reads_per_op", "blocks/op"), ("skyline.self_us_per_op", "us/op")]
    for fn in ("insert_and_attrite", "catenate_and_attrite", "delete_min", "concat_sequence", "bias", "singleton"):
        out += [("cpqa.%s.%s" % (fn, m), u) for m, u in _BLOCK_MEASURES]
    out += [("cpqa.find_min.calls_per_op", "calls/op"), ("cpqa.self_us_per_op", "us/op")]
    for fn in TARGETS[2][2]:
        out.append(("pfdeque.%s.calls_per_op" % fn, "calls/op"))
    out += [("pfdeque.calls_per_op", "calls/op"), ("pfdeque.self_us_per_op", "us/op")]
    for fn in TARGETS[3][2]:
        out.append(("blockio.%s.calls_per_op" % fn, "calls/op"))
    out += [
        ("blockio.self_us_per_op", "us/op"),
        ("blockio.reads_per_op", "blocks/op"),
        ("blockio.writes_per_op", "blocks/op"),
        ("blockio.peak_pinned_words", "words"),
        ("trace.untraced_ops_per_s", "ops/s"),
        ("trace.traced_ops_per_s", "ops/s"),
        ("trace.overhead_x", "ratio"),
    ]
    return out


PER_LAYER = _metric_names()


class Tracer:
    """Span recorder over one account; install(), run traced ops, uninstall()."""

    def __init__(self, account: IoAccount):
        self.counters = account.counters
        self.active = False
        self.op_id = 0
        self.next_span = 0
        self.stack: list[list] = []
        self.names: list[str] = []
        self.totals: list[list[int]] = []  # per name: calls, self ns, self reads, self writes
        self.spans: list[tuple] = []
        self.ops = 0
        self.reads = 0
        self.writes = 0
        self._r0 = self._w0 = 0  # counters when the current operation began
        self._saved: list[tuple] = []

    # -- operations ------------------------------------------------------------

    def begin_op(self) -> None:
        self.op_id += 1
        self._r0 = self.counters.reads
        self._w0 = self.counters.writes
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.stack.clear()
        self.ops += 1
        self.reads += self.counters.reads - self._r0
        self.writes += self.counters.writes - self._w0

    # -- wrapping --------------------------------------------------------------

    def install(self) -> None:
        for layer, owner, fns in TARGETS:
            for fn in fns:
                orig = owner.__dict__[fn]
                self._saved.append((owner, fn, orig))
                name = "blockio.operation_" + fn.strip("_") if owner is _Operation else "%s.%s" % (layer, fn)
                setattr(owner, fn, self._wrap(name, orig, layer != "blockio"))

    def uninstall(self) -> None:
        for owner, fn, orig in reversed(self._saved):
            setattr(owner, fn, orig)
        self._saved.clear()

    def _wrap(self, name: str, fn, owns_blocks: bool):
        nid = len(self.names)
        self.names.append(name)
        total = [0, 0, 0, 0]
        self.totals.append(total)
        stack = self.stack
        spans = self.spans
        counters = self.counters
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.next_span
            tracer.next_span = sid + 1
            parent = stack[-1][3] if stack else -1
            frame = [0, 0, 0, sid]  # child ns, child reads, child writes, span id
            stack.append(frame)
            r0 = counters.reads
            w0 = counters.writes
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                total[0] += 1
                total[1] += dur - frame[0]
                if owns_blocks:
                    dr = counters.reads - r0
                    dw = counters.writes - w0
                    total[2] += dr - frame[1]
                    total[3] += dw - frame[2]
                if stack:
                    up = stack[-1]
                    up[0] += dur
                    if owns_blocks:
                        up[1] += dr
                        up[2] += dw
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent, tracer.op_id, nid, t0, t1))

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------------

    def by_name(self) -> dict[str, list[int]]:
        return dict(zip(self.names, self.totals))

    def metrics(self, untraced_ops_per_s: float, traced_ops_per_s: float) -> dict:
        ops = max(1, self.ops)
        tot = self.by_name()
        zero = [0, 0, 0, 0]

        def layer_sum(layer: str, i: int) -> int:
            return sum(v[i] for k, v in tot.items() if k.startswith(layer + "."))

        values = {
            "skyline.node_reads_per_op": layer_sum("skyline", 2) / ops,
            "blockio.reads_per_op": self.reads / ops,
            "blockio.writes_per_op": self.writes / ops,
            "blockio.peak_pinned_words": self.counters.peak_pinned_words,
            "trace.untraced_ops_per_s": untraced_ops_per_s,
            "trace.traced_ops_per_s": traced_ops_per_s,
            "trace.overhead_x": untraced_ops_per_s / traced_ops_per_s,
        }
        for layer in ("skyline", "cpqa", "pfdeque", "blockio"):
            values["%s.self_us_per_op" % layer] = layer_sum(layer, 1) / 1000 / ops
            values["%s.calls_per_op" % layer] = layer_sum(layer, 0) / ops
        out = {}
        for name, unit in PER_LAYER:
            if name not in values:
                fn, _, measure = name.rpartition(".")
                t = tot.get(fn, zero)
                i = ("calls_per_op", "self_us_per_op", "reads_per_op", "writes_per_op").index(measure)
                values[name] = t[i] / (1000 * ops) if i == 1 else t[i] / ops
            out[name] = (values[name], unit)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(("span", "parent", "op", "name", "start_ns", "end_ns"))
            names = self.names
            for sid, parent, op, nid, t0, t1 in self.spans:
                w.writerow((sid, parent, op, names[nid], t0, t1))
