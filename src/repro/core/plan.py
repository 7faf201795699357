"""The unified planning API: one serializable plan surface for Algorithm 1.

PIT's central claim is that the kernel choice for a dynamically sparse
operator is a *pure function* of the op shape plus the observed sparsity
pattern (Algorithm 1, Section 3.2).  Every layer of this repo that wants a
plan — the JIT compiler, the model backend, the serving engine — therefore
asks the same question, and this module gives the question itself a name:

* :class:`PlanSpec` — a frozen, hashable description
  of "the plan I need": op kind, problem dims, sparse operand, the quantized
  sparsity signature, and the identity of the tile database the plan must be
  valid against.  The spec *is* the cache key.
* :class:`Planner` — the single entry point for Algorithm 1.
  ``Planner.resolve(spec, make_samples)`` returns a :class:`ResolvedPlan`
  (the :class:`~repro.core.selection.KernelChoice` plus provenance: cache
  hit or miss, measured search time, the spec itself).  Samples are only
  materialized on a miss, which is what keeps the steady state at
  dictionary-lookup cost.
* a JSON codec (:func:`encode_value` / :func:`decode_value`) for every
  object that appears in plan-cache keys and values, so a
  :class:`~repro.core.selection.PlanCache` can be persisted with
  ``save(path)`` and revived in a *different process* with ``load(path)`` —
  a warm cache survives restarts and a freshly constructed engine serves
  identical traffic with zero cold searches.

In the spirit of PermLLM's observation that permutation/selection decisions
should be first-class, checkpointable artifacts rather than transient search
state, plans here are data, not side effects.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional

from ..hw.costmodel import TileConfig
from ..hw.spec import GPUSpec
from .microtile import MicroTile
from .selection import (
    KernelChoice,
    PermutedChoice,
    PlanCache,
    kernel_selection,
    nm_kernel_selection,
    sparsity_signature,
)
from .tiledb import TileDB

#: The op kinds a plan can describe.  ``proj`` is the token gather
#: projection (m-axis over padded rows), ``ffn-act`` the post-ReLU
#: activation-sparse second FFN matmul (k-axis), ``attention`` the dynamic
#: attention-mask cover, and ``moe-grouped`` the grouped expert dispatch of
#: a merged routing table.  The training path adds ``weight-sparse`` (the
#: mask lives on the weight operand B — iterative magnitude pruning's
#: drifting masks) and ``nm-sparse`` (operand-B N:M structured sparsity
#: whose plan includes a channel-permutation choice).
PLAN_KINDS = (
    "proj",
    "ffn-act",
    "attention",
    "moe-grouped",
    "weight-sparse",
    "nm-sparse",
)


# ----------------------------------------------------------------------
# JSON codec for plan keys and plan values
# ----------------------------------------------------------------------
def encode_value(obj):
    """Encode a plan-cache key or value into JSON-compatible data.

    Tuples, :class:`GPUSpec`, :class:`TileConfig`, :class:`MicroTile`,
    :class:`KernelChoice` and :class:`PermutedChoice` are tagged so
    :func:`decode_value` can rebuild objects that compare (and hash) equal
    to the originals — the property cache keys need to survive a process
    boundary.  A revived choice names the same kernel
    through :func:`~repro.core.kernels.kernel_from_choice`, so it prices
    and executes identically; an nm-sparse plan keeps its concrete
    permutation, so it replays the channel order bit for bit.  Raises
    ``TypeError`` for anything else non-primitive, so callers can skip
    entries that were never meant to be persisted.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, tuple):
        return {"__tuple__": [encode_value(x) for x in obj]}
    if isinstance(obj, GPUSpec):
        return {"__gpuspec__": dataclasses.asdict(obj)}
    if isinstance(obj, TileConfig):
        return {"__tile__": [obj.tm, obj.tk, obj.tn]}
    if isinstance(obj, MicroTile):
        return {"__microtile__": list(obj.shape)}
    if isinstance(obj, KernelChoice):
        return {"__choice__": _choice_fields(obj)}
    if isinstance(obj, PermutedChoice):
        return {"__permchoice__": {
            "choice": _choice_fields(obj.choice),
            "permutation": list(obj.permutation),
            "pattern": list(obj.pattern),
        }}
    raise TypeError(f"cannot serialize {type(obj).__name__} into a plan dump")


def decode_value(data):
    """Inverse of :func:`encode_value`."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):  # JSON has no tuples; bare lists stay lists
        return [decode_value(x) for x in data]
    if isinstance(data, dict):
        if "__tuple__" in data:
            return tuple(decode_value(x) for x in data["__tuple__"])
        if "__gpuspec__" in data:
            return GPUSpec(**data["__gpuspec__"])
        if "__tile__" in data:
            return TileConfig(*data["__tile__"])
        if "__microtile__" in data:
            return MicroTile(shape=tuple(data["__microtile__"]))
        if "__choice__" in data:
            return _choice_from_fields(data["__choice__"])
        if "__permchoice__" in data:
            fields = data["__permchoice__"]
            return PermutedChoice(
                choice=_choice_from_fields(fields["choice"]),
                permutation=tuple(fields["permutation"]),
                pattern=tuple(fields["pattern"]),
            )
    raise TypeError(f"cannot decode {data!r} from a plan dump")


def _choice_fields(choice: KernelChoice) -> dict:
    """A choice's fields; the tile and micro-tile ride as bare lists."""
    tile, micro = choice.tile, choice.microtile
    return {
        "tile": None if tile is None else [tile.tm, tile.tk, tile.tn],
        "pit_axis": choice.pit_axis,
        "microtile": None if micro is None else list(micro.shape),
        "est_cost_us": choice.est_cost_us,
        "covered_sparsity": choice.covered_sparsity,
        "search_time_us": choice.search_time_us,
    }


def _choice_from_fields(data: dict) -> KernelChoice:
    tile, micro = data["tile"], data["microtile"]
    return KernelChoice(
        tile=None if tile is None else TileConfig(*tile),
        pit_axis=data["pit_axis"],
        microtile=None if micro is None else MicroTile(shape=tuple(micro)),
        est_cost_us=data["est_cost_us"],
        covered_sparsity=data["covered_sparsity"],
        search_time_us=data["search_time_us"],
    )


def _freeze(obj):
    """Recursively convert lists to tuples so signatures stay hashable."""
    if isinstance(obj, (list, tuple)):
        return tuple(_freeze(x) for x in obj)
    return obj


# ----------------------------------------------------------------------
# PlanSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanSpec:
    """A declarative, serializable description of one needed kernel plan.

    Two specs are interchangeable exactly when they compare equal: same op
    kind, same problem shape, same sparse operand, same quantized sparsity
    signature, and same tile-database identity.  The spec is hashable, so
    it keys caches directly, and its :meth:`cache_key` holds only
    primitives and tuples, so plan dumps keyed on it survive process
    boundaries.
    """

    kind: str
    m: int
    k: int
    n: int
    sparse_operand: str = "A"
    #: Quantized sparsity signature — the statistics Algorithm 1's outcome
    #: actually depends on, bucketed so invocation noise maps to one spec.
    signature: tuple = ()
    #: :attr:`TileDB.cache_key` of the database the plan must be selected
    #: against; plans are only valid for equal keys.
    tiledb_key: tuple = ()
    #: ``nm-sparse`` only: the (n, m) structured pattern — keep ``n`` of
    #: every aligned ``m``-group along the weight's k-axis.  Empty for
    #: every other kind.  The winning channel order lives in the cached
    #: :class:`~repro.core.selection.PermutedChoice`, not here: the spec
    #: names the search, the plan records its outcome.
    pattern: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in PLAN_KINDS:
            raise ValueError(
                f"kind must be one of {PLAN_KINDS}, got {self.kind!r}"
            )
        if min(self.m, self.k, self.n) < 1:
            raise ValueError(
                f"plan dims must be >= 1, got m={self.m} k={self.k} n={self.n}"
            )
        if self.sparse_operand not in ("A", "B"):
            raise ValueError(
                f"sparse_operand must be A or B, got {self.sparse_operand!r}"
            )
        # Normalize sequences so equality/hashing don't depend on whether a
        # caller passed a list or a tuple.  A tuple holding no list or tuple
        # (every spec the serving path builds) is already normal.
        for name in ("signature", "tiledb_key", "pattern"):
            value = getattr(self, name)
            if type(value) is not tuple or any(
                map(isinstance, value, repeat((list, tuple)))
            ):
                object.__setattr__(self, name, _freeze(value))
        if self.kind in ("weight-sparse", "nm-sparse"):
            if self.sparse_operand != "B":
                raise ValueError(
                    f"{self.kind} plans put the mask on the weight: "
                    f"sparse_operand must be 'B', got {self.sparse_operand!r}"
                )
        if self.kind == "nm-sparse":
            if len(self.pattern) != 2:
                raise ValueError(
                    f"nm-sparse needs an (n, m) pattern, got {self.pattern!r}"
                )
            nn, mm = self.pattern
            if not 1 <= nn <= mm:
                raise ValueError(f"invalid N:M pattern {self.pattern!r}")
            if self.k % mm:
                raise ValueError(
                    f"k={self.k} not divisible by N:M group size {mm}"
                )
        else:
            if self.pattern:
                raise ValueError(
                    f"pattern is an nm-sparse-only field, "
                    f"got it on kind {self.kind!r}"
                )

    def cache_key(self) -> tuple:
        """The :class:`~repro.core.selection.PlanCache` key this spec names.

        Stable across processes: every component is a primitive, a tuple, or
        a frozen value-compared dataclass (:class:`GPUSpec`).

        nm-sparse specs add their pattern ahead of the tiledb key, which
        stays last in either layout.
        """
        head = (
            "plan",
            self.kind,
            self.m,
            self.k,
            self.n,
            self.sparse_operand,
            self.signature,
        )
        if self.pattern:
            head = head + (self.pattern,)
        return head + (self.tiledb_key,)

    def describe(self) -> str:
        return (
            f"{self.kind}[{self.m}x{self.k}x{self.n}/{self.sparse_operand}] "
            f"sig={self.signature}"
        )


@dataclass(frozen=True)
class ResolvedPlan:
    """A plan plus its provenance: how the Planner arrived at it."""

    spec: PlanSpec
    choice: KernelChoice
    #: Whether the plan came out of the cache (False = Algorithm 1 ran).
    cache_hit: bool
    #: Measured wall time of this resolve call in microseconds — a lookup
    #: when warm, the full search when cold (Section 5.5's quantity).
    search_us: float
    #: Name of the device whose tile database the plan was resolved against
    #: — plans are device-specific (an A100 and a V100 pick different tiles
    #: for the same sparsity), and a heterogeneous serving fleet resolves
    #: one plan per device class, so provenance names the class.
    device: str = ""
    #: True when Algorithm 1's search failed and the plan is the serving
    #: engine's conservative dense fallback (graceful degradation).
    #: Degraded plans are never cached, so a later resolve retries the
    #: search instead of pinning the fallback.
    degraded: bool = False

    @property
    def cold(self) -> bool:
        return not self.cache_hit


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class Planner:
    """The single entry point for Algorithm 1 over one tile database.

    Every caller that needs a kernel plan — compiler, backend, serving
    engine — describes it as a :class:`PlanSpec` and resolves it here.  The
    planner owns the memoization discipline: the spec is the cache key, the
    samples are only built on a miss, and the outcome carries provenance.
    """

    def __init__(self, tiledb: TileDB, cache: Optional[PlanCache] = None):
        self.tiledb = tiledb
        self.cache = cache if cache is not None else PlanCache()
        #: The database's identity as a spec stores it; every resolve
        #: compares against it.
        self._tiledb_key = _freeze(tiledb.cache_key)

    def make_spec(
        self,
        kind: str,
        sparsity_samples,
        m: int,
        k: int,
        n: int,
        *,
        sparse_operand: str = "A",
        pattern: tuple = (),
    ) -> PlanSpec:
        """Build the spec for ``sparsity_samples`` of an ``[m,k,n]`` matmul.

        The signature is the quantized sparsity signature of the samples.
        ``pattern`` only applies to nm-sparse specs.
        """
        sig = sparsity_signature(sparsity_samples)
        return PlanSpec(
            kind=kind,
            m=m,
            k=k,
            n=n,
            sparse_operand=sparse_operand,
            signature=sig,
            tiledb_key=self._tiledb_key,
            pattern=pattern,
        )

    def resolve(
        self, spec: PlanSpec, make_samples: Optional[Callable] = None
    ) -> ResolvedPlan:
        """Resolve ``spec`` to a plan: cache lookup, else Algorithm 1.

        ``make_samples`` is a zero-argument callable returning the sparsity
        samples; it is invoked only on a miss (the steady-state path never
        touches a mask).  Raises ``ValueError`` when the spec was built
        against a different tile database — a plan selected over other
        tiles would silently be wrong here.

        Resolution is single-flight: concurrent resolves of the same spec
        (the front end's replica workers racing on one traffic class) run
        Algorithm 1 exactly once — one caller searches while the rest wait
        on its result and report a hit.
        """
        if spec.tiledb_key != self._tiledb_key:
            raise ValueError(
                f"spec was built against tile database {spec.tiledb_key!r}, "
                f"but this planner serves {self.tiledb.cache_key!r}"
            )
        start = time.perf_counter()
        key = spec.cache_key()

        def search():
            if make_samples is None:
                raise ValueError(
                    f"cold resolve of {spec.describe()} needs make_samples "
                    f"(the plan is not cached and Algorithm 1 has nothing "
                    f"to search over)"
                )
            if spec.kind == "nm-sparse":
                return nm_kernel_selection(
                    make_samples(),
                    spec.m,
                    spec.k,
                    spec.n,
                    self.tiledb,
                    pattern=spec.pattern,
                )
            return kernel_selection(
                make_samples(),
                spec.m,
                spec.k,
                spec.n,
                self.tiledb,
                sparse_operand=spec.sparse_operand,
            )

        choice, hit = self.cache.get_or_compute(key, search)
        return ResolvedPlan(
            spec=spec,
            choice=choice,
            cache_hit=hit,
            search_us=(time.perf_counter() - start) * 1e6,
            device=self.tiledb.spec.name,
        )

    def memo(self, spec: PlanSpec, compute: Callable):
        """Memoize an auxiliary plan artifact under ``spec``.

        Some plan-shaped decisions are not a :class:`KernelChoice` — the
        PIT backend's activation-cover workload is a (covered fraction,
        micro-tiles per row) pair — but they are still pure functions of a
        spec and belong in the same persistent cache.  Entries live under
        a ``("memo",) + spec.cache_key()`` key so they can never collide
        with resolved kernel plans.
        """
        key = ("memo",) + spec.cache_key()
        value, _ = self.cache.get_or_compute(key, compute)
        return value
