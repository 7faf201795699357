"""The serving layer: concurrent variable-shape requests, batched + cached.

The paper's premise is that dynamic sparsity must be handled *online*: the
deployed PIT keeps kernel selection at 30-100us by reusing cover grids and
pre-profiled tiles (Sections 3.2, 5.5).  A serving process goes one step
further — requests arrive continuously and their dynamic patterns are
statistically alike, so the whole Algorithm 1 outcome is reusable across
requests via the :class:`~repro.core.selection.PlanCache`.

The :class:`ServingEngine` accepts :class:`InferenceRequest`\\ s (a workload
plus an arrival time), groups compatible requests into dynamic batches with
token-budget bucketing over the variable sequence lengths (the Figure 11/12
workloads), executes each batch through
:func:`~repro.runtime.engine.run_transformer`, and reports per-request
queueing delay and latency plus aggregate throughput.  Two clocks coexist
deliberately:

* **execution time** is the analytical device model's simulated latency;
* **selection overhead** is *real* wall time spent in (cached) Algorithm 1 —
  the quantity Section 5.5 measures at 30-100us per search.  Steady-state
  requests hit the plan cache and pay a dictionary lookup instead.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..baselines.pit_backend import PITBackend
from ..core.plan import PlanSpec, ResolvedPlan
from ..core.selection import KernelChoice, PlanCache, dense_candidate
from ..core.tiledb import TileDB
from ..hw.spec import GPUSpec
from ..models.workloads import Workload
from ..sparsity.activation import relu_activation_mask
from ..sparsity.attention import (
    SIGNATURE_QUANTUM,
    MaskStats,
    representative_attention_mask,
)
from ..sparsity.moe import RoutingTable, routing_sample_mask
from .engine import RunReport, run_transformer
from .resilience import FaultInjector, ResilienceConfig


@dataclass(frozen=True)
class InferenceRequest:
    """One queued inference call: a workload and when it arrived."""

    request_id: int
    workload: Workload
    #: Arrival time on the engine's simulated clock (microseconds).
    arrival_us: float = 0.0

    @property
    def tokens(self) -> int:
        return self.workload.total_tokens

    @property
    def max_len(self) -> int:
        return self.workload.max_len

    def batch_signature(self) -> tuple:
        """Requests sharing a signature may execute in one batch.

        Compatible means: same model architecture, same activation-sparsity
        regime, attention masks of the same shape whose density agrees to
        within one quantization bucket, and — for MoE workloads — routing
        tables over the same expert population on the same layers whose
        load statistics agree to within one bucket.  Merged batches price
        with merged statistics (:func:`merge_workloads`), so members must
        be statistically alike — the same tolerance the plan cache uses.
        MoE routing tables add up
        (:meth:`~repro.sparsity.moe.RoutingTable.merged`): the grouped
        kernel's cost follows the total token count, so co-batching is
        sound.

        The bucket width is the plans' own
        :data:`~repro.sparsity.attention.SIGNATURE_QUANTUM`, so requests
        judged batch-compatible also quantize to one plan signature.
        """
        cfg = self.workload.config
        stats = self.workload.attn_stats
        attn_key = None
        if stats is not None:
            attn_key = (
                stats.seq,
                int(round(stats.density / SIGNATURE_QUANTUM)),
                stats.micro_w,
                stats.block,
            )
        moe_key = None
        routing = self.workload.routing
        if routing is not None:
            moe_key = (routing.layers, routing.signature)
        return (cfg.name, self.workload.act_sparsity, attn_key, moe_key)


def merge_workloads(workloads) -> Workload:
    """Concatenate compatible workloads' sequences into one batch.

    The merged batch is priced with *merged* dynamic-sparsity metadata, not
    the first member's: ``act_sparsity`` is token-weight-averaged,
    ``attn_stats`` are sequence-weight-averaged
    (:meth:`~repro.sparsity.attention.MaskStats.merged`) and MoE routing
    tables add up (:meth:`~repro.sparsity.moe.RoutingTable.merged`).
    Irreconcilable metadata —
    different architectures, an activation-sparse member next to a dense
    one, mismatched attention shapes, differing MoE layer sets — raises
    ``ValueError`` instead of being silently dropped.
    """
    workloads = list(workloads)
    if not workloads:
        raise ValueError("cannot merge zero workloads")
    base = workloads[0]
    if len(workloads) == 1:
        return base
    for w in workloads[1:]:
        if w.config != base.config:
            raise ValueError(
                f"cannot merge workloads of different models: "
                f"{base.config.name} vs {w.config.name}"
            )
    lengths = np.concatenate([np.asarray(w.lengths) for w in workloads])

    sparsities = [w.act_sparsity for w in workloads]
    if any(s is None for s in sparsities):
        if any(s is not None for s in sparsities):
            raise ValueError(
                "cannot merge workloads where some exploit activation "
                "sparsity and some do not"
            )
        act_sparsity = None
    else:
        tokens = np.asarray([w.total_tokens for w in workloads], dtype=float)
        weights = tokens if tokens.sum() else None  # no tokens: equal weights
        act_sparsity = float(np.average(sparsities, weights=weights))

    stats = [w.attn_stats for w in workloads]
    if any(s is None for s in stats):
        if any(s is not None for s in stats):
            raise ValueError(
                "cannot merge workloads where some carry attention-mask "
                "statistics and some do not"
            )
        attn_stats = None
    else:
        attn_stats = MaskStats.merged(
            stats, weights=[w.batch_size for w in workloads]
        )

    tables = [w.routing for w in workloads]
    routing = None
    if any(t is not None for t in tables):
        if any(t is None for t in tables):
            raise ValueError(
                "cannot merge MoE workloads routing different layer sets"
            )
        routing = RoutingTable.merged(tables)

    return Workload(
        config=base.config,
        lengths=lengths,
        act_sparsity=act_sparsity,
        attn_stats=attn_stats,
        routing=routing,
        seed=base.seed,
    )


@dataclass(frozen=True)
class DeviceClass:
    """One distinct device type of a (possibly heterogeneous) replica fleet.

    Replicas of the same :class:`~repro.hw.spec.GPUSpec` share everything
    device-specific: the backend (and with it the class's one
    :class:`~repro.core.plan.Planner`), the profiled :class:`TileDB` and
    the analytical pricing model.
    Plans for different classes coexist in the engine's one
    :class:`PlanCache` because the TileDB key — which embeds the full
    ``GPUSpec`` — is part of every plan key, so adding a replica of an
    already-seen class adds zero cold searches.
    """

    #: Dense index in first-seen lineup order (0 = the engine's own spec).
    class_id: int
    spec: GPUSpec
    backend: PITBackend
    tiledb: TileDB
    #: A second backend of the same device *not* attached to the shared
    #: plan cache: cost-aware placement prices candidate workloads through
    #: it, and pricing must not perturb the serving cache's hit/miss
    #: accounting (placement probes are not traffic).
    pricing_backend: PITBackend

    @property
    def name(self) -> str:
        return self.spec.name


@dataclass
class SpeculativeSelection:
    """A plan search issued at batch-*open* time, from the first admitted
    request's signature.

    The continuous scheduler issues the Algorithm 1 search the moment a
    batch opens instead of when it closes, so a *cold* search runs while the
    batch is still collecting partners and while the target replica finishes
    its previous batch — the selection/compute overlap the paper's online
    compilation model implies.  The search is speculative: the closed
    batch's merged workload can quantize to a different signature, in which
    case the close-time residual search still runs (serially, as before).
    """

    #: Simulated time the search was issued (the batch-open event).
    issued_us: float
    #: Measured wall time of the speculative lookups/search.
    search_us: float
    cache_hits: int
    cache_misses: int
    #: Plan kind -> whether the speculative resolve was cold for that kind.
    plan_kinds: dict = field(default_factory=dict)
    #: Device class the speculation resolved against — the scheduler's
    #: *predicted* placement target at batch-open time.  The close-time
    #: residual re-resolves against the actual target, so a mispredicted
    #: class costs at most one serial search (and only while that class is
    #: still cold).
    device: str = ""

    @property
    def cold(self) -> bool:
        """True when the speculation paid a real Algorithm 1 search."""
        return self.cache_misses > 0


@dataclass
class RequestReport:
    """Per-request outcome: where its time went."""

    request_id: int
    batch_id: int
    tokens: int
    arrival_us: float
    start_us: float
    #: Time spent waiting for the batch to form and the device to free up.
    queue_us: float
    #: Wall time of the batch this request rode in (shared, not divided).
    exec_us: float
    #: This request's amortized share of the batch's plan-selection time.
    selection_us: float
    ok: bool = True
    error: Optional[str] = None
    #: True when the live front end load-shed this request at admission
    #: (queue depth over the SLO-feasible bound).  Shed requests never
    #: execute (``batch_id == -1``) but are always reported, never silently
    #: dropped: they count toward ``failed_requests`` with ``ok=False``.
    shed: bool = False
    #: True when retries could not complete the request within its SLO —
    #: distinct from ``shed`` (refused at admission) and from a plain
    #: ``ok=False`` (execution failed with retry budget spent).
    deadline_exceeded: bool = False
    #: Failed attempts this request's batch(es) went through before this
    #: outcome (0 on the fault-free path).
    retries: int = 0

    @property
    def latency_us(self) -> float:
        """End-to-end: arrival to batch completion."""
        return self.queue_us + self.exec_us


@dataclass
class BatchReport:
    """One executed dynamic batch."""

    batch_id: int
    request_ids: list
    tokens: int
    padded_tokens: int
    start_us: float
    exec_us: float
    selection_us: float
    cache_hits: int
    cache_misses: int
    run: RunReport
    #: Which replica executed the batch (always 0 under the drain policy).
    replica_id: int = 0
    #: Simulated time removed from the critical path by overlapping this
    #: batch's cold plan search with the open window / prior compute
    #: (0 for drain batches and for warm batches).
    overlap_saved_us: float = 0.0
    #: Plan kind (``proj`` | ``ffn-act`` | ``attention`` | ``moe-grouped``)
    #: -> whether this batch's resolve of that kind was cold.
    plan_kinds: dict = field(default_factory=dict)
    #: Which execution attempt this report describes (0 = first dispatch;
    #: a batch that failed over carries the attempt that succeeded).
    attempt: int = 0
    #: Simulated model execution time including any injected straggler
    #: slowdown, *excluding* charged selection wall time — the quantity
    #: health tracking compares against the placement estimate.
    compute_us: float = 0.0
    #: How many of this batch's plans fell back to the conservative dense
    #: default because Algorithm 1's search failed (degraded mode).
    degraded_plans: int = 0

    @property
    def size(self) -> int:
        return len(self.request_ids)


@dataclass
class ReplicaStats:
    """Per-replica accounting of one scheduler run."""

    replica_id: int
    #: Device-class name of the replica (e.g. ``"A100-80GB"``); empty on
    #: reports predating heterogeneous lineups.
    device: str = ""
    batches: int = 0
    tokens: int = 0
    #: Simulated time the replica spent executing batches.
    busy_us: float = 0.0
    #: ``busy_us / makespan_us`` — fraction of the run the replica worked.
    utilization: float = 0.0
    #: Simulated time saved on this replica by selection/compute overlap.
    overlap_saved_us: float = 0.0


@dataclass
class ServingReport:
    """Aggregate outcome of one queue drain (or scheduler run)."""

    requests: list = field(default_factory=list)
    batches: list = field(default_factory=list)
    plan_cache_stats: dict = field(default_factory=dict)
    #: Simulated time from first batch start to last batch completion.
    makespan_us: float = 0.0
    #: Which batching policy produced this report:
    #: "drain" | "continuous" | "live".
    policy: str = "drain"
    #: Per-replica utilization (continuous policy; one entry per replica).
    replica_stats: list = field(default_factory=list)
    #: Batch attempts that were requeued after a failure (resilience mode).
    retries: int = 0
    #: Retries that landed on a different replica than the one that failed.
    failovers: int = 0
    #: ``(us, replica_id, state)`` health transitions, in observation order
    #: (resilience mode; empty otherwise).
    health_timeline: list = field(default_factory=list)

    @property
    def total_tokens(self) -> int:
        return sum(r.tokens for r in self.requests)

    @property
    def shed_requests(self) -> int:
        """Requests the live front end refused at admission (reported,
        never silently dropped)."""
        return sum(1 for r in self.requests if r.shed)

    @property
    def completed_tokens(self) -> int:
        """Tokens of successfully served requests — failed (OOM/unsupported)
        batches do not count toward throughput."""
        return sum(r.tokens for r in self.requests if r.ok)

    @property
    def failed_requests(self) -> int:
        return sum(1 for r in self.requests if not r.ok)

    @property
    def deadline_exceeded(self) -> int:
        """Requests retries could not complete within their SLO (distinct
        from shed and from plain execution failures)."""
        return sum(1 for r in self.requests if r.deadline_exceeded)

    @property
    def degraded_plans(self) -> int:
        """Plan resolves that fell back to the conservative dense default
        because Algorithm 1's search failed, summed over batches."""
        return sum(b.degraded_plans for b in self.batches)

    @property
    def throughput_tokens_per_s(self) -> float:
        if self.makespan_us <= 0:
            return 0.0
        return self.completed_tokens / (self.makespan_us / 1e6)

    @property
    def requests_per_s(self) -> float:
        if self.makespan_us <= 0:
            return 0.0
        return (len(self.requests) - self.failed_requests) / (self.makespan_us / 1e6)

    @property
    def mean_latency_us(self) -> float:
        """Mean end-to-end latency of *successful* requests.

        Failed (OOM/unsupported) requests never produced output; folding
        their timings into the SLO metrics would let a fast-failing batch
        flatter the percentiles.  They are counted in
        :attr:`failed_requests` instead.
        """
        lats = [r.latency_us for r in self.requests if r.ok]
        return float(np.mean(lats)) if lats else 0.0

    @property
    def p95_latency_us(self) -> float:
        lats = [r.latency_us for r in self.requests if r.ok]
        return float(np.percentile(lats, 95)) if lats else 0.0

    @property
    def mean_queue_us(self) -> float:
        qs = [r.queue_us for r in self.requests if r.ok]
        return float(np.mean(qs)) if qs else 0.0

    @property
    def p95_queue_us(self) -> float:
        qs = [r.queue_us for r in self.requests if r.ok]
        return float(np.percentile(qs, 95)) if qs else 0.0

    @property
    def total_selection_us(self) -> float:
        return sum(b.selection_us for b in self.batches)

    @property
    def overlap_saved_us(self) -> float:
        """Simulated time the selection/compute overlap removed from the
        critical path, summed over batches (0 under drain, and 0 when every
        signature hit the plan cache — there was nothing to hide)."""
        return sum(b.overlap_saved_us for b in self.batches)

    def selection_summary(self) -> dict:
        """Cold-vs-steady selection overhead — the PlanCache amortization.

        A batch is *cold* when at least one of its plan lookups missed (it
        paid a full Algorithm 1 search); *warm* when every lookup hit.
        """
        cold = [b.selection_us for b in self.batches if b.cache_misses > 0]
        warm = [b.selection_us for b in self.batches if b.cache_misses == 0
                and b.cache_hits > 0]
        cold_us = float(np.mean(cold)) if cold else 0.0
        warm_us = float(np.mean(warm)) if warm else 0.0
        by_kind: dict = {}
        for b in self.batches:
            for kind, was_cold in b.plan_kinds.items():
                agg = by_kind.setdefault(kind, {"resolved": 0, "cold": 0})
                agg["resolved"] += 1
                agg["cold"] += 1 if was_cold else 0
        return {
            "cold_batches": len(cold),
            "warm_batches": len(warm),
            "cold_selection_us": cold_us,
            "warm_selection_us": warm_us,
            "amortization": (cold_us / warm_us) if warm_us > 0 else float("inf"),
            #: Per plan kind: how many batches resolved such a plan and how
            #: many of those resolves were cold (attention and moe-grouped
            #: plans flow through the same Planner as proj/ffn-act ones).
            "plans_by_kind": by_kind,
        }

    def describe(self) -> str:
        sel = self.selection_summary()
        cache = self.plan_cache_stats
        lines = [
            f"requests: {len(self.requests)}  batches: {len(self.batches)}  "
            f"tokens: {self.total_tokens}  failed: {self.failed_requests}",
            f"throughput: {self.throughput_tokens_per_s:,.0f} tok/s "
            f"({self.requests_per_s:.1f} req/s)",
            f"latency: mean {self.mean_latency_us / 1e3:.2f} ms  "
            f"p95 {self.p95_latency_us / 1e3:.2f} ms  "
            f"queue {self.mean_queue_us / 1e3:.2f} ms",
            f"plan cache: {cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses "
            f"(hit rate {cache.get('hit_rate', 0.0) * 100:.1f}%)",
            f"selection: cold {sel['cold_selection_us']:.1f} us/batch, "
            f"steady {sel['warm_selection_us']:.1f} us/batch",
        ]
        if sel["plans_by_kind"]:
            kinds = "  ".join(
                f"{kind}: {agg['resolved']} ({agg['cold']} cold)"
                for kind, agg in sorted(sel["plans_by_kind"].items())
            )
            lines.append(f"plans: {kinds}")
        if self.overlap_saved_us > 0:
            lines.append(
                f"selection/compute overlap: saved "
                f"{self.overlap_saved_us / 1e3:.2f} ms of serial search time"
            )
        if self.replica_stats:
            util = "  ".join(
                f"r{s.replica_id}: {s.utilization * 100:.0f}% "
                f"({s.batches} batches)"
                for s in self.replica_stats
            )
            lines.append(f"replicas: {len(self.replica_stats)}  {util}")
            by_class = self.device_class_stats()
            if by_class:
                classes = "  ".join(
                    f"{name}: {agg['replicas']}x util "
                    f"{agg['utilization'] * 100:.0f}% "
                    f"({agg['batches']} batches)"
                    for name, agg in sorted(by_class.items())
                )
                lines.append(f"device classes: {classes}")
        if (
            self.retries
            or self.failovers
            or self.deadline_exceeded
            or self.degraded_plans
        ):
            lines.append(
                f"resilience: {self.retries} retries "
                f"({self.failovers} failovers)  "
                f"deadline-exceeded: {self.deadline_exceeded}  "
                f"degraded plans: {self.degraded_plans}"
            )
        if self.health_timeline:
            by_replica: dict = {}
            for us, replica_id, state in self.health_timeline:
                by_replica.setdefault(replica_id, []).append(
                    f"{state}@{us / 1e3:.1f}ms"
                )
            timeline = "  ".join(
                f"r{rid}: {' -> '.join(steps)}"
                for rid, steps in sorted(by_replica.items())
            )
            lines.append(f"health: {timeline}")
        return "\n".join(lines)

    def device_class_stats(self) -> dict:
        """Per-device-class aggregates over the replica stats.

        ``{device name: {replicas, batches, tokens, busy_us, utilization}}``
        where utilization is the class's busy time over the time the class's
        replicas collectively had available (``replicas * makespan``).
        Empty when the report predates heterogeneous lineups (no replica
        carries a device name).
        """
        by_class: dict = {}
        for s in self.replica_stats:
            if not s.device:
                continue
            agg = by_class.setdefault(
                s.device,
                {"replicas": 0, "batches": 0, "tokens": 0, "busy_us": 0.0},
            )
            agg["replicas"] += 1
            agg["batches"] += s.batches
            agg["tokens"] += s.tokens
            agg["busy_us"] += s.busy_us
        for agg in by_class.values():
            window = agg["replicas"] * self.makespan_us
            agg["utilization"] = agg["busy_us"] / window if window > 0 else 0.0
        return by_class


class ServingEngine:
    """Dynamic-batching inference engine over a (possibly mixed) device fleet.

    Requests are drained FCFS: compatible requests (same
    :meth:`InferenceRequest.batch_signature`) accumulate into a batch until
    the padded-token budget or the batch-size cap would be exceeded, then
    the batch executes on the simulated device.  Every batch first resolves
    its kernel plans through the shared :class:`PlanCache` — cold batches
    pay the Algorithm 1 search, steady-state batches pay a lookup.

    ``replicas=N`` is the homogeneous shorthand for N copies of ``spec``;
    ``replica_specs=[A100, A100, V100]`` declares a heterogeneous lineup.
    One backend/TileDB/:class:`~repro.core.plan.Planner` is built per
    *distinct* device class (a :class:`DeviceClass`), all sharing the one
    plan cache — plans for different devices coexist because the TileDB key
    is part of every plan key.  The continuous policy places closed batches
    cost-aware by default (minimize predicted finish time on each class's
    analytical model); ``placement="least-loaded"`` places each batch on
    the replica that frees earliest, whatever its device.
    """

    #: Fixed row/column extents of the representative masks fed to kernel
    #: selection; selection outcomes concentrate long before the full
    #: problem size.  A sample's row count is a *resolution* choice, not a
    #: property of the plan, so it must not vary with batch composition —
    #: otherwise the batch-open speculative spec (first request's tokens)
    #: and the close-time spec (merged tokens) would name different plans,
    #: defeating both the selection/compute overlap and cache reuse across
    #: batch compositions.
    SAMPLE_ROWS = 512
    SAMPLE_COLS = 256
    ACT_SAMPLE_ROWS = 256
    ACT_SAMPLE_COLS = 1024

    def __init__(
        self,
        spec: GPUSpec,
        *,
        dtype: str = "float32",
        max_batch_tokens: int = 16384,
        max_batch_size: int = 32,
        replicas: int = 1,
        replica_specs: Optional[list] = None,
        placement: str = "cost-aware",
        batch_window_us: Optional[float] = 2000.0,
        overlap_selection: bool = True,
        enforce_memory: bool = False,
        plan_cache: Optional[PlanCache] = None,
        charge_selection: bool = True,
        resilience: Optional[ResilienceConfig] = None,
    ):
        if max_batch_tokens < 1 or max_batch_size < 1:
            raise ValueError("batch budgets must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if replica_specs is not None:
            replica_specs = list(replica_specs)
            if not replica_specs:
                raise ValueError("replica_specs must name at least one device")
            if replicas != 1 and replicas != len(replica_specs):
                raise ValueError(
                    f"replicas={replicas} contradicts the "
                    f"{len(replica_specs)}-device replica_specs lineup; pass "
                    f"one or the other"
                )
        else:
            # The homogeneous shorthand: N replicas of the engine's spec.
            replica_specs = [spec] * replicas
        if placement not in ("cost-aware", "least-loaded"):
            raise ValueError(
                f"placement must be cost-aware|least-loaded, got {placement!r}"
            )
        if batch_window_us is not None and batch_window_us < 0:
            raise ValueError("batch_window_us must be >= 0 (or None)")
        self.spec = spec
        self.dtype = dtype
        self.max_batch_tokens = max_batch_tokens
        self.max_batch_size = max_batch_size
        self.replicas = len(replica_specs)
        self.placement = placement
        self.batch_window_us = batch_window_us
        #: Continuous policy only: issue Algorithm 1 searches speculatively
        #: at batch-open time and overlap them with prior compute.
        self.overlap_selection = overlap_selection
        self.enforce_memory = enforce_memory
        #: When True (default), the *measured* wall time of plan selection
        #: is charged into each batch's simulated ``exec_us`` exactly as in
        #: every prior PR.  When False, selection stays reported
        #: (``selection_us``) but is excluded from the simulated schedule —
        #: the deterministic accounting the replay-equivalence harness
        #: runs under, since measured wall time differs run to run while
        #: the analytical latency model does not.
        self.charge_selection = charge_selection
        #: Fault-tolerance policy (retries, deadlines, circuit breaking,
        #: degraded-mode planning); ``None`` keeps every legacy behaviour —
        #: a worker exception fails its batch exactly as before.
        self.resilience = resilience
        #: Deterministic fault source, present only when the resilience
        #: config carries a :class:`~repro.runtime.resilience.FaultSpec`.
        self.fault_injector = (
            FaultInjector(resilience.fault)
            if resilience is not None and resilience.fault is not None
            else None
        )
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        #: GPUSpec -> DeviceClass, one per distinct device in the lineup
        #: (insertion-ordered; the engine's own spec is always class 0).
        #: Serving backends share the plan cache; pricing backends are
        #: cache-detached so placement probes never perturb the serving
        #: cache's hit/miss accounting.
        self._device_classes: dict = {}
        for dev_spec in [spec] + replica_specs:
            if dev_spec in self._device_classes:
                continue
            dev_backend = PITBackend(dev_spec, dtype, plan_cache=self.plan_cache)
            self._device_classes[dev_spec] = DeviceClass(
                class_id=len(self._device_classes),
                spec=dev_spec,
                backend=dev_backend,
                tiledb=dev_backend.tiledb,
                pricing_backend=PITBackend(dev_spec, dtype),
            )
        #: DeviceClass serving each replica id, in lineup order.
        self.replica_devices = [
            self._device_classes[s] for s in replica_specs
        ]
        #: The engine's own device class's TileDB: the identity a saved
        #: plan cache is stamped with (:meth:`save_plan_cache`).
        self.tiledb = self._device_classes[spec].tiledb
        #: Memoized analytical exec-time estimates for cost-aware placement,
        #: keyed by (batch signature, device spec): the first batch of a
        #: traffic shape prices one simulated run per device class, and
        #: every later placement decision is a dictionary lookup.
        self._exec_estimates: dict = {}
        self._queue: list = []
        self._next_id = 0
        #: Latest arrival time ever submitted; `submit_many` continues from
        #: here so a second stream never arrives before an already-queued one.
        self._arrival_clock_us = 0.0

    # ------------------------------------------------------------------
    # Device classes (heterogeneous replica lineups)
    # ------------------------------------------------------------------
    def device_for_replica(self, replica_id: int) -> DeviceClass:
        """The device class serving ``replica_id``; an off-range id falls
        back to the engine's own class."""
        if 0 <= replica_id < len(self.replica_devices):
            return self.replica_devices[replica_id]
        return self._device_classes[self.spec]

    def make_worker_backend(self, device: DeviceClass) -> PITBackend:
        """A fresh PIT backend of ``device``'s class for one live worker.

        The per-class serving backend is shared by every replica of the
        class and carries per-run mutable state (``set_fusion`` toggles,
        the online detector's dedup set), so concurrent replica workers
        must not run through it.  Worker instances share the expensive
        state anyway — the profiled :class:`~repro.core.tiledb.TileDB` via
        its shared registry and the engine's one
        :class:`~repro.core.selection.PlanCache` — so construction is
        cheap and plans stay process-wide warm.
        """
        return PITBackend(device.spec, self.dtype, plan_cache=self.plan_cache)

    def estimate_exec_us(
        self,
        signature,
        workload: Workload,
        device: Optional[DeviceClass] = None,
        *,
        memoize: bool = True,
    ) -> float:
        """Predicted execution time of a ``signature`` batch on ``device``.

        The estimate is the analytical device model's simulated latency of
        ``workload`` on the class's pricing backend, memoized per
        ``(batch signature, device spec)`` so the placement hot path stays a
        dictionary lookup.  Within one signature bucket the first-memoized
        batch composition stands in for all later ones — the same
        statistical-likeness bet the plan cache makes.  Only dispatch-time
        pricing memoizes (``memoize=True``, pricing the closed batch's
        *merged* workload); the scheduler's batch-open target prediction
        passes ``memoize=False`` because it only has the first admitted
        request, and a single request's latency must not stand in for full
        batches (nor may enabling the accounting-only overlap flag change
        what the memo holds).  A workload the device cannot serve
        (simulated OOM / unsupported model) prices as ``inf``, steering
        placement toward replicas that can finish.
        """
        device = device if device is not None else self.device_for_replica(0)
        key = (signature, device.spec)
        est = self._exec_estimates.get(key)
        if est is None:
            run = run_transformer(
                workload,
                device.pricing_backend,
                enforce_memory=self.enforce_memory,
            )
            est = run.latency_ms * 1e3 if run.ok else float("inf")
            if memoize:
                self._exec_estimates[key] = est
        return est

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(
        self,
        workload: Workload,
        *,
        arrival_us: float = 0.0,
    ) -> InferenceRequest:
        """Enqueue one workload; returns its request handle."""
        request = InferenceRequest(
            request_id=self._next_id, workload=workload, arrival_us=arrival_us
        )
        self._next_id += 1
        self._queue.append(request)
        self._arrival_clock_us = max(self._arrival_clock_us, arrival_us)
        return request

    def submit_many(self, workloads, *, interarrival_us: float = 0.0) -> list:
        """Enqueue a stream with a fixed inter-arrival gap.

        The stream continues the engine's arrival clock: the first arrival
        lands one gap after the latest arrival ever submitted (at 0 on a
        fresh engine), so a second call cannot produce arrivals earlier than
        already-queued requests.  The gap must be finite and non-negative
        (``ValueError`` otherwise, before anything is queued).
        """
        if not (math.isfinite(interarrival_us) and interarrival_us >= 0):
            raise ValueError(
                f"interarrival_us must be finite and >= 0, got {interarrival_us!r}"
            )
        base = self._arrival_clock_us
        if self._next_id > 0:
            base += interarrival_us
        out = []
        for i, w in enumerate(workloads):
            out.append(self.submit(w, arrival_us=base + i * interarrival_us))
        return out

    # ------------------------------------------------------------------
    # Batching: token-budget bucketing over variable-length requests
    # ------------------------------------------------------------------
    def _fits(self, batch: list, request: InferenceRequest) -> bool:
        if not batch:
            return True  # a lone oversized request still gets a batch
        if len(batch) >= self.max_batch_size:
            return False
        max_len = max(r.max_len for r in batch + [request])
        num_seqs = sum(r.workload.batch_size for r in batch + [request])
        return max_len * num_seqs <= self.max_batch_tokens

    def plan_batches(self, requests) -> list:
        """Group arrival-ordered requests into compatible, budgeted batches.

        Buckets are keyed by batch signature; a request opens a new batch
        for its bucket when the padded-token budget (``max(len) x seqs``, the
        quantity a padding-free kernel still schedules tiles over) or the
        size cap would overflow.
        """
        order = sorted(requests, key=lambda r: (r.arrival_us, r.request_id))
        open_batches: dict = {}
        closed: list = []
        for request in order:
            sig = request.batch_signature()
            batch = open_batches.get(sig)
            if batch is not None and not self._fits(batch, request):
                closed.append(batch)
                batch = None
            if batch is None:
                batch = []
                open_batches[sig] = batch
            batch.append(request)
        closed.extend(b for b in open_batches.values() if b)
        closed.sort(key=lambda b: (b[0].arrival_us, b[0].request_id))
        return closed

    # ------------------------------------------------------------------
    # Plan selection (the PlanCache hot path)
    # ------------------------------------------------------------------
    def _token_mask(self, workload: Workload) -> np.ndarray:
        """Representative mask of the token-gather projection (m-axis):
        live rows in proportion to real/padded tokens."""
        padded = workload.max_len * workload.batch_size
        density = workload.total_tokens / max(1, padded)
        rows = self.SAMPLE_ROWS
        cols = min(workload.config.d_model, self.SAMPLE_COLS)
        mask = np.zeros((rows, cols), dtype=bool)
        live = int(round(density * rows))
        if workload.total_tokens > 0:
            # A non-empty workload must never present an all-false mask to
            # Algorithm 1: one real token in a heavily padded batch rounds
            # to zero live rows, which would plan for an empty operator.
            live = max(1, live)
        mask[:live] = True
        return mask

    def _quantize(self, x: float) -> int:
        return int(round(x / SIGNATURE_QUANTUM))

    def _plan_requests(self, workload: Workload, tiledb_key: tuple) -> list:
        """``[(PlanSpec, make_samples)]`` for every plan a batch of this
        workload needs, against the tile database named by ``tiledb_key``.

        Specs are derived from the workload's *summary statistics*, so the
        steady-state path never touches a mask — that is what keeps a hit
        at dictionary-lookup cost.  ``make_samples`` builds the
        representative masks Algorithm 1 searches over, invoked only on a
        miss.  All four serving plan kinds come from here: the token
        projection, the activation-sparse FFN, the dynamic attention cover
        and the grouped MoE dispatch over the (merged) routing tables.
        ``tiledb_key`` is the target device class's — plans are
        device-specific, so the same workload names different specs on an
        A100 than on a V100.
        """
        cfg = workload.config
        padded = workload.max_len * workload.batch_size
        density = workload.total_tokens / max(1, padded)
        m = self.SAMPLE_ROWS
        k = min(cfg.d_model, self.SAMPLE_COLS)
        requests = [(
            PlanSpec(
                kind="proj", m=m, k=k, n=k,
                signature=(self._quantize(density),), tiledb_key=tiledb_key,
            ),
            lambda: [self._token_mask(workload)],
        )]
        if workload.act_sparsity is not None:
            rows = self.ACT_SAMPLE_ROWS
            cols = min(cfg.d_ff, self.ACT_SAMPLE_COLS)
            sparsity = workload.act_sparsity
            requests.append((
                PlanSpec(
                    kind="ffn-act", m=rows, k=cols, n=k,
                    signature=(self._quantize(1.0 - sparsity),),
                    tiledb_key=tiledb_key,
                ),
                lambda: [
                    relu_activation_mask(rows, cols, sparsity, seed=workload.seed)
                ],
            ))
        if workload.attn_stats is not None:
            stats = workload.attn_stats
            arows = min(stats.seq, self.SAMPLE_ROWS)
            acols = min(stats.seq, self.SAMPLE_ROWS)
            requests.append((
                PlanSpec(
                    kind="attention", m=arows, k=acols,
                    n=max(1, cfg.head_dim),
                    signature=stats.plan_signature(),
                    tiledb_key=tiledb_key,
                ),
                lambda: [representative_attention_mask(stats, arows, acols)],
            ))
        routing = workload.routing
        if routing is not None:
            mrows = self.SAMPLE_ROWS
            requests.append((
                PlanSpec(
                    kind="moe-grouped", m=mrows,
                    k=max(1, routing.num_experts),
                    n=min(cfg.d_ff, self.ACT_SAMPLE_COLS),
                    signature=routing.signature,
                    tiledb_key=tiledb_key,
                ),
                lambda: [
                    routing_sample_mask(routing.counts.sum(axis=0), mrows)
                ],
            ))
        return requests

    def _select_plans(
        self, workload: Workload, device: Optional[DeviceClass] = None
    ) -> tuple:
        """Resolve the batch's kernel plans through ``device``'s Planner.

        Returns ``(plans, wall_us, hits, misses)``: ``plans`` maps plan
        kind to its :class:`~repro.core.plan.ResolvedPlan` (choice +
        provenance) and ``wall_us`` is the *measured* time the
        lookups/searches took — the serving-side analogue of Section 5.5's
        online search overhead.
        """
        device = device if device is not None else self.device_for_replica(0)
        plans = {}
        # Count hits/misses from each resolve's own provenance rather than
        # global-counter deltas: concurrent replicas resolve through the
        # same cache, and a delta would attribute their traffic to this
        # batch.  Sequentially the two accountings are identical (each
        # resolve is exactly one hit or one miss).  Degraded fallbacks are
        # neither: no search ran and no cached plan served.
        hits = misses = 0
        start = time.perf_counter()
        for spec, make_samples in self._plan_requests(
            workload, device.tiledb.cache_key
        ):
            plan = self._resolve_with_fallback(device, spec, make_samples)
            plans[spec.kind] = plan
            if plan.cache_hit:
                hits += 1
            elif not plan.degraded:
                misses += 1
        wall_us = (time.perf_counter() - start) * 1e6
        return plans, wall_us, hits, misses

    def _resolve_with_fallback(self, device, spec, make_samples):
        """Resolve one plan, degrading to a dense default on search failure.

        Without a resilience config this is exactly ``planner.resolve`` —
        failures propagate as before.  With one, an injected or real
        Algorithm 1 failure yields a conservative plan instead of failing
        the batch's requests: the tile database's best *dense* tile for the
        spec's shape, ``degraded=True``, never cached — so a later resolve
        of the same spec retries the search (an injected per-signature
        failure stays deterministically degraded; a real transient one
        recovers).
        """
        injector = self.fault_injector
        if (
            injector is not None
            and injector.search_fails(spec.kind, spec.signature)
            and spec.cache_key() not in self.plan_cache
        ):
            return self._degraded_plan(device, spec)
        try:
            return device.backend.planner.resolve(spec, make_samples)
        except Exception:
            if self.resilience is None:
                raise
            return self._degraded_plan(device, spec)

    def _degraded_plan(self, device, spec) -> ResolvedPlan:
        """The conservative dense fallback for a failed plan search: the
        dense candidate Algorithm 1 itself prices for the spec's shape."""
        tile, cost = dense_candidate(spec.m, spec.k, spec.n, device.tiledb)
        choice = KernelChoice(
            tile=tile,
            pit_axis=None,
            microtile=None,
            est_cost_us=cost,
            covered_sparsity=0.0,
            search_time_us=0.0,
        )
        return ResolvedPlan(
            spec=spec,
            choice=choice,
            cache_hit=False,
            search_us=0.0,
            device=device.name,
            degraded=True,
        )

    def save_plan_cache(self, path) -> dict:
        """Persist this engine's plan cache for a later process.

        A fresh engine constructed with
        ``PlanCache.load(path, expected_tiledb_key=...)`` serves the same
        traffic with zero cold searches — every serving-path plan kind is
        keyed by a serializable :class:`~repro.core.plan.PlanSpec`.

        The dump header records the engine's own device class's TileDB key,
        the transfer guard ``PlanCache.load`` validates.  A heterogeneous
        engine's cache holds entries for every class, each carrying its own
        ``tiledb_key`` inside the plan key; those per-entry keys are what
        planners match at resolve time.
        """
        return self.plan_cache.save(path, tiledb_key=self.tiledb.cache_key)

    def speculate_plans(
        self,
        workload: Workload,
        *,
        issued_us: float,
        device: Optional[DeviceClass] = None,
    ) -> SpeculativeSelection:
        """Resolve ``workload``'s plans ahead of batch closure.

        Called by the continuous scheduler the moment a batch opens, with
        the first admitted request's workload: a cold search warms the
        :class:`PlanCache` while the batch is still collecting partners, so
        by close time the merged workload usually resolves with lookups.
        ``device`` is the scheduler's *predicted* placement target — plans
        are device-specific, so speculation resolves against the class the
        batch is expected to execute on.  Returns the accounting record the
        scheduler uses to overlap the search with the target replica's
        prior compute.
        """
        device = device if device is not None else self.device_for_replica(0)
        plans, search_us, hits, misses = self._select_plans(workload, device)
        return SpeculativeSelection(
            issued_us=issued_us,
            search_us=search_us,
            cache_hits=hits,
            cache_misses=misses,
            plan_kinds={kind: plan.cold for kind, plan in plans.items()},
            device=device.name,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute_batch(
        self,
        batch,
        *,
        batch_id: int,
        start_us: float,
        replica_id: int = 0,
        speculation: Optional[SpeculativeSelection] = None,
        device: Optional[DeviceClass] = None,
        workload: Optional[Workload] = None,
        backend=None,
        attempt: int = 0,
    ) -> tuple:
        """Plan, execute and account one closed batch at ``start_us``.

        Shared by the drain path and the continuous scheduler: resolves the
        batch's kernel plans through the engine's :class:`PlanCache` (one
        cache regardless of which replica executes, so a cold search on any
        replica warms every replica *of that device class*), prices the
        merged workload on the target device model, and returns
        ``(BatchReport, [RequestReport])``.  ``device`` is the class of the
        replica executing the batch — plans resolve against its planner and
        execution runs on its backend; it defaults to the class serving
        ``replica_id``.

        ``speculation`` is the batch-open search the scheduler issued.  Its
        hits/misses/wall-time fold into the batch's accounting; a *cold*
        speculative search is excluded from ``exec_us`` because the
        scheduler already charged it against the open window and the
        replica's prior compute (the overlap model) — only the close-time
        residual selection stays serial with execution.

        ``workload`` is the batch's merged workload when the caller (the
        scheduler, which merged it for placement pricing) already has it;
        otherwise it is merged here.

        ``backend`` overrides the model backend execution runs on — the
        live front end's replica workers execute concurrently, and the
        per-class serving backend carries per-run mutable state
        (``set_fusion``, the online detector's dedup set), so each worker
        passes its own instance (see :meth:`make_worker_backend`).  Plans
        still resolve through ``device``'s planner and the shared cache.
        """
        if device is None:
            device = self.device_for_replica(replica_id)
        if workload is None:
            workload = merge_workloads([r.workload for r in batch])
        injector = self.fault_injector
        slowdown = 1.0
        if injector is not None:
            # Injected execution faults raise *before* planning so the plan
            # cache evolves identically whether or not the attempt fails —
            # a prerequisite for decision-trace equality across processes.
            injector.exec_fault(replica_id, batch_id, attempt, start_us)
            slowdown = injector.slowdown(replica_id, batch_id, attempt)
        plans, residual_us, hits, misses = self._select_plans(workload, device)
        degraded = len(plans) - hits - misses  # neither a hit nor a search
        plan_kinds = {kind: plan.cold for kind, plan in plans.items()}
        selection_us = residual_us
        serial_us = residual_us
        if speculation is not None:
            selection_us += speculation.search_us
            hits += speculation.cache_hits
            misses += speculation.cache_misses
            # A plan kind was cold for this batch when either the open-time
            # speculation or the close-time residual paid the search.
            for kind, was_cold in speculation.plan_kinds.items():
                plan_kinds[kind] = plan_kinds.get(kind, False) or was_cold
            if not speculation.cold:
                # Warm speculation is just a pair of lookups; charging it
                # serially makes a warm batch cost what it costs without
                # speculation.
                serial_us += speculation.search_us
        run = run_transformer(
            workload,
            backend if backend is not None else device.backend,
            enforce_memory=self.enforce_memory,
        )
        compute_us = run.latency_ms * 1e3 * slowdown
        exec_us = compute_us + (serial_us if self.charge_selection else 0.0)
        batch_report = BatchReport(
            batch_id=batch_id,
            request_ids=[r.request_id for r in batch],
            tokens=workload.total_tokens,
            padded_tokens=workload.max_len * workload.batch_size,
            start_us=start_us,
            exec_us=exec_us,
            selection_us=selection_us,
            cache_hits=hits,
            cache_misses=misses,
            run=run,
            replica_id=replica_id,
            plan_kinds=plan_kinds,
            attempt=attempt,
            compute_us=compute_us,
            degraded_plans=degraded,
        )
        share = selection_us / len(batch)
        request_reports = [
            RequestReport(
                request_id=r.request_id,
                batch_id=batch_id,
                tokens=r.tokens,
                arrival_us=r.arrival_us,
                start_us=start_us,
                queue_us=start_us - r.arrival_us,
                exec_us=exec_us,
                selection_us=share,
                ok=run.ok,
                error=run.error,
                retries=attempt,
            )
            for r in batch
        ]
        return batch_report, request_reports

    def run(self, *, policy: str = "drain") -> ServingReport:
        """Serve everything queued and return the aggregate report.

        ``policy="drain"`` batches the whole queue FCFS up front and
        executes the batches serially on one replica.
        ``policy="continuous"`` serves through
        :class:`~repro.runtime.scheduler.ContinuousScheduler`, the
        virtual-time continuous-batching loop (open batches admit arrivals
        until a budget or the batching window closes them; closed batches
        place across ``self.replicas`` replicas — cost-aware by predicted
        finish time, or least-loaded with ``placement="least-loaded"``).
        """
        if policy == "continuous":
            from .scheduler import ContinuousScheduler

            requests, self._queue = self._queue, []
            return ContinuousScheduler(self).run(requests)
        if policy != "drain":
            raise ValueError(
                f"policy must be drain|continuous, got {policy!r}"
            )
        requests, self._queue = self._queue, []
        report = ServingReport(policy="drain")
        now = 0.0
        for batch_id, batch in enumerate(self.plan_batches(requests)):
            start = max(now, max(r.arrival_us for r in batch))
            batch_report, request_reports = self.execute_batch(
                batch, batch_id=batch_id, start_us=start
            )
            now = start + batch_report.exec_us
            report.batches.append(batch_report)
            report.requests.extend(request_reports)
        report.requests.sort(key=lambda r: r.request_id)
        # First batch start to last batch completion: idle time before any
        # work arrives is not held against throughput.
        first_start = report.batches[0].start_us if report.batches else 0.0
        report.makespan_us = now - first_start
        report.plan_cache_stats = self.plan_cache.stats()
        return report
