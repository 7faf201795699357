"""Wire codec for the cluster transport: the plan codec, extended.

The plan dump codec (:mod:`repro.core.plan`) already solves the hard half
of cross-process messaging — cache keys and plan values that compare equal
after a process boundary.  The transport needs the rest of the dispatch
surface on the wire too: workloads (with their numpy-backed sparsity
statistics), requests and reports; worker configuration, resilience
config included, crosses by fork and never rides a message.  This module
layers those on top of :func:`repro.core.plan.encode_value` without
changing the dump format — a cache-delta entry on the wire *is* a
:meth:`PlanCache.save` entry.

Everything here is data-only by construction: :func:`encode_wire` raises
``TypeError`` for anything it does not recognize, so lambdas, locks,
backends and other process-bound objects can never ride a message — the
``transport-hygiene`` pitlint rule enforces the same property statically
at every send site.
"""

from __future__ import annotations

import base64
import dataclasses

import numpy as np

from ...core.plan import decode_value, encode_value
from ...models.config import AttentionSpec, ModelConfig, MoESpec
from ...models.workloads import Workload
from ...sparsity.attention import MaskStats
from ...sparsity.moe import RoutingTable
from ..engine import RunReport
from ..resilience import (
    InjectedFault,
    ReplicaDownFault,
    TransientExecFault,
    WorkerCrashFault,
)
from ..serving import BatchReport, InferenceRequest, RequestReport


# ----------------------------------------------------------------------
# Value codec
# ----------------------------------------------------------------------
def _encode_ndarray(arr: np.ndarray) -> dict:
    contiguous = np.ascontiguousarray(arr)
    return {
        "dtype": contiguous.dtype.str,
        "shape": list(contiguous.shape),
        "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
    }


def _decode_ndarray(data: dict) -> np.ndarray:
    raw = base64.b64decode(data["data"])
    arr = np.frombuffer(raw, dtype=np.dtype(data["dtype"]))
    return arr.reshape(tuple(data["shape"])).copy()


def encode_wire(obj):
    """Encode one message payload value into JSON-compatible data.

    Superset of the plan codec: everything :func:`encode_value` accepts
    plus ndarrays, workloads, requests and reports.
    Raises ``TypeError`` for anything else — a transport message must
    never smuggle live process state across the boundary.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": _encode_ndarray(obj)}
    if isinstance(obj, list):
        return [encode_wire(x) for x in obj]
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str) or key.startswith("__"):
                raise TypeError(
                    f"wire dicts need plain string keys, got {key!r}"
                )
            out[key] = encode_wire(value)
        return out
    if isinstance(obj, MaskStats):
        return {"__maskstats__": dataclasses.asdict(obj)}
    if isinstance(obj, RoutingTable):
        return {
            "__routing__": {
                "layers": list(obj.layers),
                "counts": _encode_ndarray(obj.counts),
                "num_tokens": int(obj.num_tokens),
            }
        }
    if isinstance(obj, MoESpec):
        return {"__moespec__": dataclasses.asdict(obj)}
    if isinstance(obj, AttentionSpec):
        return {"__attnspec__": dataclasses.asdict(obj)}
    if isinstance(obj, ModelConfig):
        fields = {
            f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
        }
        fields["moe"] = encode_wire(fields["moe"])
        fields["attention"] = encode_wire(fields["attention"])
        return {"__modelconfig__": fields}
    if isinstance(obj, Workload):
        return {
            "__workload__": {
                "config": encode_wire(obj.config),
                "lengths": _encode_ndarray(np.asarray(obj.lengths)),
                "act_sparsity": obj.act_sparsity,
                "attn_stats": encode_wire(obj.attn_stats),
                "routing": encode_wire(obj.routing),
                "seed": obj.seed,
            }
        }
    if isinstance(obj, InferenceRequest):
        return {
            "__request__": {
                "request_id": obj.request_id,
                "workload": encode_wire(obj.workload),
                "arrival_us": obj.arrival_us,
            }
        }
    if isinstance(obj, RequestReport):
        return {"__reqreport__": dataclasses.asdict(obj)}
    if isinstance(obj, RunReport):
        # The timeline is per-process profiling state, not a decision;
        # decode rebuilds a fresh default.
        fields = {
            f.name: getattr(obj, f.name)
            for f in dataclasses.fields(obj)
            if f.name != "timeline"
        }
        return {"__runreport__": fields}
    if isinstance(obj, BatchReport):
        fields = {
            f.name: getattr(obj, f.name)
            for f in dataclasses.fields(obj)
            if f.name != "run"
        }
        fields = {k: encode_wire(v) for k, v in fields.items()}
        fields["run"] = encode_wire(obj.run)
        return {"__batchreport__": fields}
    # Everything the plan dump codec covers: tuples, GPUSpec, TileConfig,
    # MicroTile, KernelChoice, PermutedChoice.  Recursion re-enters
    # encode_wire only for tuples, which encode_value handles itself (tuple
    # members in plan keys/values are always plan-codec types).
    return encode_value(obj)


def decode_wire(data):
    """Inverse of :func:`encode_wire`."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):
        return [decode_wire(x) for x in data]
    if isinstance(data, dict):
        if "__ndarray__" in data:
            return _decode_ndarray(data["__ndarray__"])
        if "__maskstats__" in data:
            return MaskStats(**data["__maskstats__"])
        if "__routing__" in data:
            body = data["__routing__"]
            return RoutingTable(
                tuple(body["layers"]),
                _decode_ndarray(body["counts"]),
                body["num_tokens"],
            )
        if "__moespec__" in data:
            return MoESpec(**data["__moespec__"])
        if "__attnspec__" in data:
            return AttentionSpec(**data["__attnspec__"])
        if "__modelconfig__" in data:
            fields = dict(data["__modelconfig__"])
            fields["moe"] = decode_wire(fields["moe"])
            fields["attention"] = decode_wire(fields["attention"])
            return ModelConfig(**fields)
        if "__workload__" in data:
            body = data["__workload__"]
            return Workload(
                config=decode_wire(body["config"]),
                lengths=_decode_ndarray(body["lengths"]),
                act_sparsity=body["act_sparsity"],
                attn_stats=decode_wire(body["attn_stats"]),
                routing=decode_wire(body["routing"]),
                seed=body["seed"],
            )
        if "__request__" in data:
            body = data["__request__"]
            return InferenceRequest(
                request_id=body["request_id"],
                workload=decode_wire(body["workload"]),
                arrival_us=body["arrival_us"],
            )
        if "__reqreport__" in data:
            return RequestReport(**data["__reqreport__"])
        if "__runreport__" in data:
            return RunReport(**data["__runreport__"])
        if "__batchreport__" in data:
            fields = {
                k: decode_wire(v)
                for k, v in data["__batchreport__"].items()
                if k != "run"
            }
            fields["run"] = decode_wire(data["__batchreport__"]["run"])
            return BatchReport(**fields)
        if any(key.startswith("__") for key in data):
            return decode_value(data)
        return {key: decode_wire(value) for key, value in data.items()}
    raise TypeError(f"cannot decode {data!r} from a wire message")


# ----------------------------------------------------------------------
# Message constructors (one per wire message kind)
# ----------------------------------------------------------------------
def dispatch_message(
    requests,
    *,
    batch_id: int,
    attempt: int,
    start_us: float,
    replica_id: int,
) -> dict:
    """Execute one closed batch.  Each request's workload crosses once; the
    worker merges the batch itself."""
    return {
        "type": "dispatch",
        "batch_id": batch_id,
        "attempt": attempt,
        "start_us": start_us,
        "replica_id": replica_id,
        "requests": [encode_wire(r) for r in requests],
    }


def result_message(
    batch_id: int, attempt: int, batch_report, request_reports, delta
) -> dict:
    """A completed dispatch: the reports plus the plan-cache entries this
    batch resolved cold (``PlanCache.save`` entry format)."""
    return {
        "type": "result",
        "batch_id": batch_id,
        "attempt": attempt,
        "batch_report": encode_wire(batch_report),
        "request_reports": [encode_wire(r) for r in request_reports],
        "delta": delta,
    }


def error_message(batch_id: int, attempt: int, exc: BaseException) -> dict:
    """A failed dispatch: the exception class name travels so the host can
    rebuild the matching :class:`InjectedFault` subclass."""
    return {
        "type": "error",
        "batch_id": batch_id,
        "attempt": attempt,
        "kind": type(exc).__name__,
        "message": str(exc),
    }


def cache_delta_message(entries) -> dict:
    """Broadcast resolved plans.

    ``entries`` must already be in the dump entry format
    (``{"key": ..., "value": ...}`` with plan-codec-encoded members), i.e.
    exactly what :func:`encode_delta_entries` produces.
    """
    return {"type": "cache-delta", "entries": list(entries)}


def ping_message() -> dict:
    return {"type": "ping"}


def pong_message() -> dict:
    return {"type": "pong"}


def shutdown_message() -> dict:
    return {"type": "shutdown"}


def encode_delta_entries(pairs) -> list:
    """``(key, value)`` pairs -> dump-format delta entries.

    Entries whose key or value the plan codec cannot serialize are skipped,
    mirroring :meth:`PlanCache.save` — such entries were never meant to
    cross a process boundary, and every serving-path plan kind is covered.
    """
    entries = []
    for key, value in pairs:
        try:
            entries.append(
                {"key": encode_value(key), "value": encode_value(value)}
            )
        except TypeError:
            continue
    return entries


def decode_delta_entries(entries) -> list:
    """Dump-format delta entries -> ``(key, value)`` pairs."""
    return [
        (decode_value(entry["key"]), decode_value(entry["value"]))
        for entry in entries
    ]


_FAULT_CLASSES = {
    cls.__name__: cls
    for cls in (
        InjectedFault,
        WorkerCrashFault,
        TransientExecFault,
        ReplicaDownFault,
    )
}


def decode_exception(kind: str, message: str) -> Exception:
    """Rebuild a worker-side exception on the host.

    Injected-fault classes round-trip exactly, so the host's failure path
    (``resolve_failure`` + retry/failover) treats a fault raised in a worker
    process identically to one raised in-process.  Unknown classes come
    back as a plain ``RuntimeError`` carrying the original class name.
    """
    cls = _FAULT_CLASSES.get(kind)
    if cls is not None:
        return cls(message)
    return RuntimeError(f"{kind}: {message}")
