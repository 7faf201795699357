"""Layer spans recorded from outside the program.

The traced run replaces, for the length of one pass, the public functions
and methods each layer exposes with a thin wrapper that records a span
(name, start, duration, self time, depth) and calls straight through.  A
wrapper is installed at the name each *caller* binds — ``run_transformer``
is wrapped in :mod:`repro.runtime.serving`, where ``execute_batch`` looks
it up, not only in :mod:`repro.runtime.engine` — and removed again after
the pass, so untraced passes run the program untouched.

Self time is a span's duration minus the time its child spans cover, so a
``Planner.memo`` call or a sample builder reached from inside pricing
counts toward ``plan``/``samples``, not toward ``price``.

Forked worker processes inherit the wrappers; a fork hook switches the
recorder off in the child, so workers run at full speed and their spans
(which the host could never see) are not recorded.  Worker-side work shows
on the host as the round trip of each dispatch.
"""

from __future__ import annotations

import json
import os
import time
import types
from collections import Counter

import numpy as np

from repro.baselines import pit_backend
from repro.core import plan, tiledb
from repro.hw import memtracker
from repro.runtime import frontend, scheduler, serving
from repro.runtime.cluster import frontend as cluster_frontend
from repro.runtime.cluster import transport, worker


def _resolve_hit(result, args):
    return {"hit": bool(result.cache_hit)}


def _frame_out(result, args):
    message = args[0]
    kind = message.get("type") if isinstance(message, dict) else None
    return {"bytes": len(result), "type": kind}


def _frame_in(result, args):
    kind = result.get("type") if isinstance(result, dict) else None
    return {"bytes": len(args[0]), "type": kind}


#: (owner, attribute, span name, annotate).  The span name's first
#: component is the layer.  ``annotate(result, args)`` adds attributes.
SPAN_TARGETS = (
    (scheduler.ContinuousScheduler, "run", "scheduler.run", None),
    (frontend.VirtualClock, "fire_next", "scheduler.event", None),
    (frontend.AsyncServingFrontend, "finish", "scheduler.finish", None),
    (serving.ServingEngine, "estimate_exec_us", "placement.estimate", None),
    (serving.ServingEngine, "execute_batch", "serving.execute", None),
    (plan.Planner, "resolve", "plan.resolve", _resolve_hit),
    (plan, "kernel_selection", "plan.search", None),
    (plan.Planner, "memo", "plan.memo", None),
    (serving, "relu_activation_mask", "samples.relu", None),
    (pit_backend, "relu_activation_mask", "samples.relu", None),
    (serving, "representative_attention_mask", "samples.attention", None),
    (serving, "routing_sample_mask", "samples.routing", None),
    (serving, "run_transformer", "price.run", None),
    (pit_backend.PITBackend, "linear", "price.linear", None),
    (pit_backend.PITBackend, "attention", "price.attention", None),
    (pit_backend.PITBackend, "ffn", "price.ffn", None),
    (pit_backend.PITBackend, "moe_ffn", "price.moe", None),
    (pit_backend.PITBackend, "layernorm", "price.layernorm", None),
    (pit_backend.PITBackend, "pointwise", "price.pointwise", None),
    (tiledb.TileDB, "best_dense_tile", "tiledb.best_dense_tile", None),
    (cluster_frontend.ClusterFrontend, "start_workers", "transport.spawn", None),
    (cluster_frontend.ClusterFrontend, "shutdown_workers",
     "transport.shutdown", None),
    (cluster_frontend, "dispatch_message", "transport.encode", None),
    (cluster_frontend, "decode_wire", "transport.decode", None),
    (cluster_frontend, "decode_delta_entries", "transport.decode", None),
    (worker.WorkerProcess, "request", "transport.rtt", None),
)

#: (owner, attribute, counter name): calls counted without a span, where a
#: span per call would cost more than the call itself.
COUNT_TARGETS = (
    (memtracker.MemoryTracker, "alloc", "mem.alloc"),
)

#: Backend ops whose calls from ``run_transformer`` count as priced ops.
PRICE_OPS = (
    "price.linear", "price.attention", "price.ffn", "price.moe",
    "price.layernorm", "price.pointwise",
)


class Recorder:
    """Spans and counters of traced passes, kept in memory.

    A span is ``(name, start_ns, dur_ns, self_ns, depth, attrs)``.  The
    benchmark's host process is single-threaded (the cluster replay runs
    its dispatches inline), so one stack suffices.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.active = True
        self._stack: list = []
        self._saved: list = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.active = False

    def clear(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    # ------------------------------------------------------------------
    def wrap(self, fn, name: str, annotate=None):
        clock = time.perf_counter_ns
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                recorder.spans.append(
                    [name, start, dur, dur - frame[0], len(stack), None]
                )
            if annotate is not None:
                recorder.spans[-1][5] = annotate(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn, name: str):
        recorder = self

        def counting(*args, **kwargs):
            if recorder.active:
                recorder.counts[name] += 1
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn
        return counting

    def install(self) -> None:
        """Wrap every target; :meth:`remove` restores the originals."""
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        for owner, attr, name, annotate in SPAN_TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, annotate))
        for owner, attr, name in COUNT_TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.counted(original, name))
        # The channel frames its messages with the module's `json`; a
        # stand-in with the same two functions measures every frame.
        real_json = transport.json
        self._saved.append((transport, "json", real_json))
        transport.json = types.SimpleNamespace(
            dumps=self.wrap(real_json.dumps, "transport.frame_encode",
                            _frame_out),
            loads=self.wrap(real_json.loads, "transport.frame_decode",
                            _frame_in),
        )

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def run_pass(self, fn):
        """Run ``fn()`` as one traced pass: wrappers on, a ``pass`` root."""
        self.install()
        try:
            return self.wrap(fn, "pass")()
        finally:
            self.remove()


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_table(spans) -> list:
    """Rows ``(span name, calls, inclusive ms, self ms)``, by self time."""
    agg: dict = {}
    for name, _, dur, self_ns, _, _ in spans:
        row = agg.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += dur
        row[2] += self_ns
    rows = [
        (name, calls, incl / 1e6, own / 1e6)
        for name, (calls, incl, own) in agg.items()
    ]
    return sorted(rows, key=lambda r: -r[3])


def format_table(spans, batches: int) -> str:
    """The per-layer table printed after a traced run."""
    rows = layer_table(spans)
    total = sum(r[3] for r in rows) or 1.0
    lines = [
        f"{'span':<26}{'calls':>9}{'incl ms':>11}{'self ms':>11}"
        f"{'self ms/batch':>15}{'self %':>8}"
    ]
    for name, calls, incl, own in rows:
        lines.append(
            f"{name:<26}{calls:>9}{incl:>11.2f}{own:>11.2f}"
            f"{own / max(1, batches):>15.4f}{100 * own / total:>8.1f}"
        )
    return "\n".join(lines)


def layer_metrics(spans, counts, batches: int, requests: int) -> dict:
    """The benchmark's per-layer metrics from traced passes' spans.

    ``batches`` and ``requests`` are totals over the same passes; every
    ``*_per_batch`` figure divides by ``batches``.
    """
    per_batch = max(1, batches)
    own_ms: Counter = Counter()
    calls: Counter = Counter()
    durations: dict = {}
    for name, _, dur, own, _, _ in spans:
        own_ms[name] += own / 1e6
        calls[name] += 1
        durations.setdefault(name, []).append(dur / 1e6)

    resolves = [s for s in spans if s[0] == "plan.resolve"]
    hits = [s[2] / 1e3 for s in resolves if s[5]["hit"]]
    misses = [s[2] / 1e6 for s in resolves if not s[5]["hit"]]

    # Priced ops are the backend calls made directly by run_transformer
    # (ffn's own inner linears are part of the ffn op).
    ops = 0
    run_depth = None
    for name, _, _, _, depth, _ in sorted(spans, key=lambda s: s[1]):
        if name == "price.run":
            run_depth = depth
        elif name in PRICE_OPS and run_depth is not None and (
            depth == run_depth + 1
        ):
            ops += 1

    transport = _transport_metrics(spans)
    passes = [s for s in spans if s[0] == "pass"]
    pass_ns = sum(s[2] for s in passes)
    covered_ns = sum(s[2] - s[3] for s in passes)
    metrics = {
        "scheduler.self_ms_per_batch": sum(
            v for k, v in own_ms.items() if k.startswith("scheduler.")
        ) / per_batch,
        "scheduler.batch_size.mean": requests / per_batch,
        "placement.estimate_calls": calls["placement.estimate"],
        "placement.estimate_ms_per_batch": own_ms["placement.estimate"]
        / per_batch,
        "serving.execute_ms.p50": _pct(durations.get("serving.execute", []), 50),
        "serving.execute_ms.p95": _pct(durations.get("serving.execute", []), 95),
        "plan.resolves": len(resolves),
        "plan.hit_ratio": len(hits) / len(resolves) if resolves else 0.0,
        "plan.hit_us.p50": _pct(hits, 50),
        "plan.miss_ms.p50": _pct(misses, 50),
        "plan.miss_ms.p95": _pct(misses, 95),
        "plan.search_ms_per_batch": own_ms["plan.search"] / per_batch,
        "plan.memo_ms_per_batch": own_ms["plan.memo"] / per_batch,
        "samples.calls": sum(
            v for k, v in calls.items() if k.startswith("samples.")
        ),
        "samples.ms_per_batch": sum(
            v for k, v in own_ms.items() if k.startswith("samples.")
        ) / per_batch,
        "price.runs": calls["price.run"],
        "price.run_ms.p50": _pct(durations.get("price.run", []), 50),
        "price.ops_per_run": ops / max(1, calls["price.run"]),
        "price.linear_ms_per_batch": own_ms["price.linear"] / per_batch,
        "price.attention_ms_per_batch": own_ms["price.attention"] / per_batch,
        "price.ffn_ms_per_batch": own_ms["price.ffn"] / per_batch,
        "price.moe_ms_per_batch": own_ms["price.moe"] / per_batch,
        "tiledb.best_dense_tile_calls_per_batch": calls[
            "tiledb.best_dense_tile"
        ] / per_batch,
        "tiledb.best_dense_tile_ms_per_batch": own_ms[
            "tiledb.best_dense_tile"
        ] / per_batch,
        "mem.alloc_calls_per_batch": counts["mem.alloc"] / per_batch,
        "trace.coverage_pct": 100.0 * covered_ns / pass_ns if pass_ns else 0.0,
    }
    metrics.update(transport)
    return metrics


def self_ms(spans, layers) -> float:
    """Total self time (ms) of the spans of ``layers``."""
    return sum(
        s[3] for s in spans if s[0].split(".", 1)[0] in layers
    ) / 1e6


def _transport_metrics(spans) -> dict:
    """Per-dispatch codec cost, frame sizes and round trips.

    A dispatch starts at its ``transport.encode`` span; every codec span
    after it, up to the next dispatch, belongs to it.
    """
    encode_us, decode_us = [], []
    dispatch_bytes, result_bytes, rtt_ms = [], [], []
    delta_bytes = 0
    passes = 0
    for name, _, dur, _, _, attrs in sorted(spans, key=lambda s: s[1]):
        if name == "pass":
            passes += 1
        elif name == "transport.encode":
            encode_us.append(dur / 1e3)
            decode_us.append(0.0)
        elif name == "transport.frame_encode":
            if attrs["type"] == "dispatch" and encode_us:
                encode_us[-1] += dur / 1e3
                dispatch_bytes.append(attrs["bytes"])
            elif attrs["type"] == "cache-delta":
                delta_bytes += attrs["bytes"]
        elif name == "transport.frame_decode":
            if attrs["type"] == "result" and decode_us:
                decode_us[-1] += dur / 1e3
                result_bytes.append(attrs["bytes"])
        elif name == "transport.decode" and decode_us:
            decode_us[-1] += dur / 1e3
        elif name == "transport.rtt":
            rtt_ms.append(dur / 1e6)
    return {
        "transport.encode_us.p50": _pct(encode_us, 50),
        "transport.decode_us.p50": _pct(decode_us, 50),
        "transport.dispatch_bytes.p50": _pct(dispatch_bytes, 50),
        "transport.result_bytes.p50": _pct(result_bytes, 50),
        "transport.rtt_ms.p50": _pct(rtt_ms, 50),
        "transport.rtt_ms.p95": _pct(rtt_ms, 95),
        "transport.delta_bytes_total": delta_bytes / max(1, passes),
    }


def write_chrome_trace(spans, path, metadata: dict) -> None:
    """Write spans as Chrome trace-event JSON (opens in Perfetto)."""
    origin = min((s[1] for s in spans), default=0)
    events = [
        {
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": (start - origin) / 1e3,
            "dur": dur / 1e3,
            "pid": 1,
            "tid": 1,
            "args": dict(attrs or {}, self_us=own / 1e3),
        }
        for name, start, dur, own, _, attrs in spans
    ]
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "metadata": metadata}, f)
