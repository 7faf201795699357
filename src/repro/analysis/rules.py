"""The repo-specific rule set.

Every rule answers one question about an invariant the concurrency and
reproducibility story rests on (see ``docs/static-analysis.md`` for the
catalog with examples):

* ``lock-discipline`` — shard state and ``*_LOCK``-guarded registries are
  only touched under their lock, and the lock-order graph is acyclic.
* ``async-hygiene`` — no blocking calls inside ``async def`` bodies; CPU
  work goes through ``asyncio.to_thread``.
* ``replay-determinism`` — code reachable from the scheduling decision
  core never reads wall-clock time, unseeded RNG, or set iteration order.
* ``seeded-rng`` — every ``np.random.default_rng`` takes an explicit seed
  and nothing uses numpy's hidden global RNG state.
* ``frozen-spec-purity`` — no attribute mutation on ``PlanSpec`` /
  ``KernelChoice`` / ``ResolvedPlan`` instances outside construction.
* ``bounded-retry`` — retry loops carry a static attempt bound, and
  fault-injection randomness always takes an explicit seed.
* ``transport-hygiene`` — only plan-codec-serializable payloads cross
  the worker boundary (no lambdas, locks, backends, engines in channel
  sends).
* ``pragma-justification`` — every suppression pragma carries a reason
  and silences something real.
"""

from __future__ import annotations

import ast
import re
from typing import Optional

from .astutil import (
    CONSTRUCTOR_NAMES,
    ImportMap,
    call_name,
    dotted_name,
    iter_functions,
)
from .findings import Finding
from .lockgraph import (
    SHARD_STATE_ATTRS,
    build_lock_graph,
    find_cycles,
    guarded_globals,
    infer_shard_vars,
    walk_held,
)
from .registry import known_rule_ids, rule


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------
@rule(
    "lock-discipline",
    "Shard state and *_LOCK-guarded globals accessed only under their "
    "lock; lock-order graph acyclic",
)
def check_lock_discipline(corpus):
    findings: set = set()
    for module in corpus:
        global_guards = guarded_globals(module.tree)
        for info in iter_functions(module.tree):
            if info.name in CONSTRUCTOR_NAMES:
                continue
            shard_vars = infer_shard_vars(info)
            for node, held in walk_held(info):
                if isinstance(node, tuple):
                    continue
                tokens = {ref.token for ref in held}
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in shard_vars
                    and node.attr in SHARD_STATE_ATTRS
                    and ("attr", node.value.id) not in tokens
                ):
                    base = node.value.id
                    findings.add(
                        Finding(
                            rule="lock-discipline",
                            path=module.path,
                            line=node.lineno,
                            message=(
                                f"shard state `{base}.{node.attr}` accessed "
                                f"outside `with {base}.lock`"
                            ),
                            hint=(
                                "wrap the access in `with "
                                f"{base}.lock:` (take each shard's lock "
                                "sequentially when aggregating, never "
                                "nested)"
                            ),
                        )
                    )
                elif (
                    isinstance(node, ast.Name)
                    and node.id in global_guards
                    and ("name", global_guards[node.id]) not in tokens
                ):
                    findings.add(
                        Finding(
                            rule="lock-discipline",
                            path=module.path,
                            line=node.lineno,
                            message=(
                                f"registry `{node.id}` accessed outside "
                                f"`with {global_guards[node.id]}`"
                            ),
                            hint=(
                                f"every read or write of `{node.id}` must "
                                f"hold its companion lock"
                            ),
                        )
                    )
    nodes, edges = build_lock_graph(corpus)
    for cycle in find_cycles(edges):
        held, acquired = cycle[0], cycle[1]
        site = min(
            (e for e in edges if e.held == held and e.acquired == acquired),
            key=lambda e: (e.path, e.line),
        )
        findings.add(
            Finding(
                rule="lock-discipline",
                path=site.path,
                line=site.line,
                message=(
                    "lock-order cycle "
                    + " -> ".join(cycle)
                    + f" (acquires `{acquired}` while holding `{held}` here)"
                ),
                hint=(
                    "impose a single global acquisition order, or release "
                    "the outer lock before taking the inner one (the "
                    "single-flight pattern in PlanCache.get_or_compute)"
                ),
            )
        )
    return sorted(findings, key=lambda f: (f.path, f.line))


# ----------------------------------------------------------------------
# async-hygiene
# ----------------------------------------------------------------------
#: Calls that block the event loop no matter how they are used.
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "open",
        "io.open",
        "socket.create_connection",
    }
)
#: Method names that block unless the call is awaited (asyncio's own
#: ``Lock.acquire`` / ``Condition.wait`` are coroutines, so ``await
#: lock.acquire()`` is fine; a bare call is the threading primitive).
_BLOCKING_METHODS = frozenset({"acquire", "result"})
#: Direct backend execution — CPU-bound engine work that must be handed
#: to a worker thread, never run on the loop.
_DIRECT_EXEC_METHODS = frozenset({"execute_batch", "run_lineup"})


@rule(
    "async-hygiene",
    "No blocking calls (sleep, lock acquire, file I/O, .result(), direct "
    "backend execution) inside async def bodies",
)
def check_async_hygiene(corpus):
    findings = []
    for module in corpus:
        imports = ImportMap(module.tree)
        for info in iter_functions(module.tree):
            if not isinstance(info.node, ast.AsyncFunctionDef):
                continue
            walked = walk_held(info)
            awaited = {
                id(node.value)
                for node, _ in walked
                if isinstance(node, ast.Await)
            }
            for node, _ in walked:
                if isinstance(node, tuple) or not isinstance(node, ast.Call):
                    continue
                resolved = call_name(node, imports)
                attr = (
                    node.func.attr
                    if isinstance(node.func, ast.Attribute)
                    else None
                )
                if resolved in _BLOCKING_CALLS:
                    findings.append(
                        Finding(
                            rule="async-hygiene",
                            path=module.path,
                            line=node.lineno,
                            message=(
                                f"blocking call `{resolved}` inside "
                                f"`async def {info.name}`"
                            ),
                            hint=(
                                "use the asyncio equivalent, or run it in "
                                "a worker: `await asyncio.to_thread(...)`"
                            ),
                        )
                    )
                elif attr in _DIRECT_EXEC_METHODS:
                    findings.append(
                        Finding(
                            rule="async-hygiene",
                            path=module.path,
                            line=node.lineno,
                            message=(
                                f"direct backend execution `.{attr}(...)` "
                                f"inside `async def {info.name}` stalls the "
                                f"event loop"
                            ),
                            hint="hand it off: `await asyncio.to_thread(...)`",
                        )
                    )
                elif attr in _BLOCKING_METHODS and id(node) not in awaited:
                    findings.append(
                        Finding(
                            rule="async-hygiene",
                            path=module.path,
                            line=node.lineno,
                            message=(
                                f"potentially blocking `.{attr}()` call "
                                f"inside `async def {info.name}` is not "
                                f"awaited"
                            ),
                            hint=(
                                "await the asyncio primitive, or move the "
                                "threading primitive into "
                                "`asyncio.to_thread`"
                            ),
                        )
                    )
    return findings


# ----------------------------------------------------------------------
# replay-determinism
# ----------------------------------------------------------------------
#: Definitions that anchor the deterministic decision core.  Everything
#: name-reachable from these, within the modules that define them, must be
#: a pure function of its inputs.  Calls that leave those modules (the
#: engine boundary: execution pricing, plan search, measured wall time)
#: are the documented measurement boundary and are not followed.
_DETERMINISM_ROOT_CLASSES = frozenset(
    {"SchedulingPolicy", "ContinuousScheduler", "VirtualClock"}
)
_DETERMINISM_ROOT_FUNCS = frozenset(
    {"decision_trace", "replay_trace", "serve_virtual"}
)

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)
_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.choices",
        "random.shuffle",
        "random.sample",
        "random.uniform",
        "random.gauss",
    }
)
_NUMPY_GLOBAL_SAMPLERS = frozenset(
    {
        f"numpy.random.{name}"
        for name in (
            "rand",
            "randn",
            "randint",
            "random",
            "random_sample",
            "choice",
            "shuffle",
            "permutation",
            "normal",
            "uniform",
            "standard_normal",
            "beta",
            "binomial",
            "poisson",
            "seed",
        )
    }
)


def _is_unseeded_default_rng(node: ast.Call, resolved: Optional[str]) -> bool:
    if resolved != "numpy.random.default_rng":
        return False
    args = [a for a in node.args if not isinstance(a, ast.Starred)]
    if args:
        return isinstance(args[0], ast.Constant) and args[0].value is None
    for kw in node.keywords:
        if kw.arg == "seed":
            return isinstance(kw.value, ast.Constant) and kw.value.value is None
        if kw.arg is None:  # **kwargs: assume the caller threads a seed
            return False
    return not node.args


def _set_valued_names(func_node) -> set:
    """Names assigned a set expression anywhere in the function."""
    names: set = set()
    for node in ast.walk(func_node):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value, ()):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _is_set_expr(node, set_names) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    return isinstance(node, ast.Name) and node.id in set_names


@rule(
    "replay-determinism",
    "Code reachable from the scheduling decision core must not read wall "
    "clocks, unseeded RNG, or set iteration order",
)
def check_replay_determinism(corpus):
    findings = []
    root_modules = []
    for module in corpus:
        names = {
            n.name
            for n in ast.walk(module.tree)
            if isinstance(n, (ast.ClassDef, ast.FunctionDef))
        }
        if names & (_DETERMINISM_ROOT_CLASSES | _DETERMINISM_ROOT_FUNCS):
            root_modules.append(module)
    if not root_modules:
        return findings

    # Joint name tables over the root modules (the decision core may span
    # the scheduler and the front end).
    func_table: dict = {}
    method_table: dict = {}
    class_table: dict = {}
    functions_of: dict = {}
    for module in root_modules:
        functions_of[module.path] = iter_functions(module.tree)
        for info in functions_of[module.path]:
            func_table.setdefault(info.name, []).append((module, info))
            if info.class_name is not None:
                method_table.setdefault(info.name, []).append((module, info))
                class_table.setdefault(info.class_name, []).append(
                    (module, info)
                )

    reachable: dict = {}  # id(node) -> (module, info)

    def mark(module, info):
        if id(info.node) not in reachable:
            reachable[id(info.node)] = (module, info)
            pending.append((module, info))

    pending: list = []
    for module in root_modules:
        for info in functions_of[module.path]:
            if (
                info.class_name in _DETERMINISM_ROOT_CLASSES
                or (info.class_name is None and info.name in _DETERMINISM_ROOT_FUNCS)
            ):
                mark(module, info)

    while pending:
        module, info = pending.pop()
        for node, _ in walk_held(info):
            if isinstance(node, tuple):
                continue
            if isinstance(node, ast.Name):
                for entry in func_table.get(node.id, []):
                    mark(*entry)
                for entry in class_table.get(node.id, []):
                    mark(*entry)
            elif isinstance(node, ast.Attribute):
                for entry in method_table.get(node.attr, []):
                    mark(*entry)

    for module, info in reachable.values():
        imports = ImportMap(module.tree)
        set_names = _set_valued_names(info.node)
        context = (
            f"`{info.qualname}` (reachable from the scheduling decision core)"
        )
        for node, _ in walk_held(info):
            if isinstance(node, tuple):
                continue
            if isinstance(node, ast.Call):
                resolved = call_name(node, imports)
                if resolved in _WALL_CLOCK_CALLS:
                    findings.append(
                        Finding(
                            rule="replay-determinism",
                            path=module.path,
                            line=node.lineno,
                            message=f"wall-clock read `{resolved}` in {context}",
                            hint=(
                                "decisions must be driven by the injected "
                                "clock (VirtualClock/RealClock), never "
                                "wall time"
                            ),
                        )
                    )
                elif (
                    resolved in _GLOBAL_RANDOM_FUNCS
                    or resolved in _NUMPY_GLOBAL_SAMPLERS
                    or _is_unseeded_default_rng(node, resolved)
                ):
                    findings.append(
                        Finding(
                            rule="replay-determinism",
                            path=module.path,
                            line=node.lineno,
                            message=f"unseeded RNG `{resolved}` in {context}",
                            hint=(
                                "thread an explicitly seeded "
                                "np.random.default_rng(seed) through the "
                                "decision path"
                            ),
                        )
                    )
            iter_expr = None
            if isinstance(node, ast.For):
                iter_expr = node.iter
            elif isinstance(node, ast.comprehension):
                iter_expr = node.iter
            if iter_expr is not None and _is_set_expr(iter_expr, set_names):
                findings.append(
                    Finding(
                        rule="replay-determinism",
                        path=module.path,
                        line=iter_expr.lineno,
                        message=(
                            f"iteration over a set in {context}: element "
                            f"order is hash-randomized and would feed a "
                            f"decision"
                        ),
                        hint="iterate `sorted(...)` or keep a list/dict",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# seeded-rng
# ----------------------------------------------------------------------
@rule(
    "seeded-rng",
    "np.random.default_rng must take an explicit seed; numpy's global RNG "
    "state is off limits",
)
def check_seeded_rng(corpus):
    findings = []
    for module in corpus:
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = call_name(node, imports)
            if _is_unseeded_default_rng(node, resolved):
                findings.append(
                    Finding(
                        rule="seeded-rng",
                        path=module.path,
                        line=node.lineno,
                        message=(
                            "np.random.default_rng without an explicit "
                            "seed: entropy-seeded plans are not "
                            "reproducible"
                        ),
                        hint=(
                            "pass a seed expression (the repo idiom: "
                            "default_rng(seed), default_rng(seed ^ salt))"
                        ),
                    )
                )
            elif resolved in _NUMPY_GLOBAL_SAMPLERS:
                findings.append(
                    Finding(
                        rule="seeded-rng",
                        path=module.path,
                        line=node.lineno,
                        message=(
                            f"`{resolved}` draws from numpy's hidden "
                            f"global RNG state"
                        ),
                        hint=(
                            "construct a local np.random.default_rng(seed) "
                            "and sample from it"
                        ),
                    )
                )
    return findings


# ----------------------------------------------------------------------
# frozen-spec-purity
# ----------------------------------------------------------------------
_FROZEN_CLASSES = frozenset(
    {"PlanSpec", "KernelChoice", "PermutedChoice", "ResolvedPlan"}
)
#: Factory methods whose return value is a frozen plan object.
_FROZEN_FACTORIES = {"make_spec": "PlanSpec", "resolve": "ResolvedPlan"}


def _annotation_class(annotation) -> Optional[str]:
    name = dotted_name(annotation) if annotation is not None else None
    if name is None:
        return None
    tail = name.rsplit(".", 1)[-1]
    return tail if tail in _FROZEN_CLASSES else None


def _frozen_vars(info) -> dict:
    """Names known to hold frozen plan objects in one function."""
    frozen: dict = {}
    if info.class_name in _FROZEN_CLASSES:
        frozen["self"] = info.class_name
    args = info.node.args
    for arg in [
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *filter(None, [args.vararg, args.kwarg]),
    ]:
        cls = _annotation_class(arg.annotation)
        if cls is not None:
            frozen[arg.arg] = cls
    for node in ast.walk(info.node):
        value, targets = None, []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign):
            cls = _annotation_class(node.annotation)
            if cls is not None and isinstance(node.target, ast.Name):
                frozen[node.target.id] = cls
            continue
        if not isinstance(value, ast.Call):
            continue
        func = value.func
        cls = None
        if isinstance(func, ast.Name) and func.id in _FROZEN_CLASSES:
            cls = func.id
        elif isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in _FROZEN_CLASSES
            ):
                cls = func.value.id  # classmethod factory, e.g. from_json
            elif func.attr in _FROZEN_FACTORIES:
                cls = _FROZEN_FACTORIES[func.attr]
        if cls is not None:
            for target in targets:
                if isinstance(target, ast.Name):
                    frozen[target.id] = cls
    return frozen


@rule(
    "frozen-spec-purity",
    "No attribute mutation on PlanSpec/KernelChoice/ResolvedPlan outside "
    "their constructors",
)
def check_frozen_spec_purity(corpus):
    findings = []
    for module in corpus:
        for info in iter_functions(module.tree):
            in_constructor = info.name in CONSTRUCTOR_NAMES
            frozen = {} if in_constructor else _frozen_vars(info)

            def flag(node, target, cls):
                findings.append(
                    Finding(
                        rule="frozen-spec-purity",
                        path=module.path,
                        line=node.lineno,
                        message=(
                            f"attribute mutation on frozen {cls} instance "
                            f"`{target}` outside its constructor"
                        ),
                        hint=(
                            "plans are immutable value objects: build a "
                            "new instance (dataclasses.replace) instead "
                            "of mutating"
                        ),
                    )
                )

            for node, _ in walk_held(info):
                if isinstance(node, tuple):
                    continue
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in frozen
                        ):
                            flag(node, target.value.id, frozen[target.value.id])
                elif isinstance(node, ast.Call):
                    resolved = dotted_name(node.func)
                    if (
                        resolved == "object.__setattr__"
                        and not in_constructor
                    ):
                        target = (
                            node.args[0].id
                            if node.args and isinstance(node.args[0], ast.Name)
                            else "<object>"
                        )
                        cls = frozen.get(target, "plan-like")
                        flag(node, target, cls)
                    elif (
                        resolved == "setattr"
                        and node.args
                        and isinstance(node.args[0], ast.Name)
                        and node.args[0].id in frozen
                    ):
                        flag(node, node.args[0].id, frozen[node.args[0].id])
    return findings


# ----------------------------------------------------------------------
# bounded-retry
# ----------------------------------------------------------------------
#: A loop counter name that smells like a retry/attempt count.
_RETRY_COUNTER = re.compile(r"(?i)(retr|attempt)")
#: Constructors whose randomness must be pinned by an explicit seed: an
#: entropy-seeded fault schedule makes every chaos run unreproducible.
_FAULT_RNG_CONSTRUCTORS = frozenset({"FaultSpec", "FaultInjector"})


def _incremented_names(loop: ast.While) -> set:
    """Names the loop body grows: ``x += ...`` or ``x = x <op> ...``."""
    names = set()
    for node in ast.walk(loop):
        if isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and isinstance(
                node.value, ast.BinOp
            ):
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name) and sub.id == target.id:
                        names.add(target.id)
                        break
    return names


def _compared_names(loop: ast.While) -> set:
    """Names the loop body ever compares (a bound check, however spelled)."""
    names = set()
    for node in ast.walk(loop):
        if isinstance(node, ast.Compare):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return names


@rule(
    "bounded-retry",
    "Retry loops carry a static attempt bound; fault-injection RNG "
    "always takes an explicit seed",
)
def check_bounded_retry(corpus):
    """Two failure-handling invariants the resilience layer rests on.

    A ``while True`` loop that counts retries/attempts without ever
    comparing the counter can retry forever — a failed replica then wedges
    the front end instead of surfacing a terminal report.  And a
    :class:`~repro.runtime.resilience.FaultSpec` (or injector) built
    without an explicit seed draws a different fault schedule every run,
    which breaks the replay-equivalence gate the chaos tests rely on.
    """
    findings = []
    for module in corpus:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.While):
                test = node.test
                if not (
                    isinstance(test, ast.Constant) and test.value is True
                ):
                    continue
                counters = {
                    name
                    for name in _incremented_names(node)
                    if _RETRY_COUNTER.search(name)
                }
                unbounded = sorted(counters - _compared_names(node))
                if unbounded:
                    findings.append(
                        Finding(
                            rule="bounded-retry",
                            path=module.path,
                            line=node.lineno,
                            message=(
                                f"`while True` increments retry counter "
                                f"`{unbounded[0]}` without ever comparing "
                                f"it: the retry chain has no static bound"
                            ),
                            hint=(
                                "loop `for attempt in "
                                "range(max_retries + 1)` or guard with "
                                "`while attempt <= max_retries`"
                            ),
                        )
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                tail = name.rsplit(".", 1)[-1]
                if tail not in _FAULT_RNG_CONSTRUCTORS:
                    continue
                seed_kw = next(
                    (kw for kw in node.keywords if kw.arg == "seed"), None
                )
                unseeded = not node.args and not node.keywords
                explicit_none = (
                    seed_kw is not None
                    and isinstance(seed_kw.value, ast.Constant)
                    and seed_kw.value.value is None
                )
                if unseeded or explicit_none:
                    findings.append(
                        Finding(
                            rule="bounded-retry",
                            path=module.path,
                            line=node.lineno,
                            message=(
                                f"`{tail}` without an explicit seed: the "
                                f"fault schedule changes every run and "
                                f"chaos results are not reproducible"
                            ),
                            hint=(
                                "pass the seed first: FaultSpec(seed, ...) "
                                "/ FaultInjector(spec)"
                            ),
                        )
                    )
    return findings


# ----------------------------------------------------------------------
# transport-hygiene
# ----------------------------------------------------------------------
#: A receiver whose attribute chain smells like a transport endpoint.
_TRANSPORT_RECEIVER = re.compile(r"(?i)(transport|channel|chan\b|chan_|pipe)")
#: Methods that put a payload on the wire.
_TRANSPORT_SEND_METHODS = frozenset(
    {"send", "send_message", "broadcast", "request"}
)
#: Identifiers that name things the plan codec cannot (and must not)
#: serialize: live handles, not data.
_UNSERIALIZABLE_NAME = re.compile(
    r"(?i)(backend|planner|tiledb|lock|thread|socket|executor|engine)"
)


def _attr_segments(node) -> list:
    """Name segments of a ``a.b.c``-style receiver chain, if any."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts


@rule(
    "transport-hygiene",
    "Only codec-serializable payloads cross the worker boundary",
)
def check_transport_hygiene(corpus):
    """The wire-protocol invariant the cluster subsystem rests on.

    A channel ``send`` whose payload expression mentions a live handle —
    a backend, engine, lock, thread, socket — or embeds a lambda is
    smuggling process state across the boundary; only data the plan codec
    round-trips may travel (build messages with the ``codec`` helpers).
    """
    findings: dict = {}

    def flag(module, line, message, hint):
        # One finding per line: a payload subtree may trip several name
        # patterns, but the defect (and the fix) is the send itself.
        key = (module.path, line)
        if key not in findings:
            findings[key] = Finding(
                rule="transport-hygiene",
                path=module.path,
                line=line,
                message=message,
                hint=hint,
            )

    for module in corpus:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                not isinstance(func, ast.Attribute)
                or func.attr not in _TRANSPORT_SEND_METHODS
            ):
                continue
            segments = _attr_segments(func.value)
            if not any(_TRANSPORT_RECEIVER.search(s) for s in segments):
                continue
            payloads = [
                *node.args,
                *(kw.value for kw in node.keywords),
            ]
            for payload in payloads:
                for sub in ast.walk(payload):
                    if isinstance(sub, ast.Lambda):
                        flag(
                            module,
                            node.lineno,
                            (
                                f"lambda in a `.{func.attr}(...)` payload: "
                                f"functions cannot cross the worker "
                                f"boundary"
                            ),
                            (
                                "send data the plan codec round-trips; "
                                "behaviour lives in the worker, not the "
                                "message"
                            ),
                        )
                    elif isinstance(
                        sub, ast.Name
                    ) and _UNSERIALIZABLE_NAME.search(sub.id):
                        flag(
                            module,
                            node.lineno,
                            (
                                f"`{sub.id}` in a `.{func.attr}(...)` "
                                f"payload: live handles do not cross the "
                                f"worker boundary"
                            ),
                            (
                                "extract the serializable fields and build "
                                "the message with the codec helpers"
                            ),
                        )
                    elif isinstance(
                        sub, ast.Attribute
                    ) and _UNSERIALIZABLE_NAME.search(sub.attr):
                        flag(
                            module,
                            node.lineno,
                            (
                                f"`.{sub.attr}` in a `.{func.attr}(...)` "
                                f"payload: live handles do not cross the "
                                f"worker boundary"
                            ),
                            (
                                "extract the serializable fields and build "
                                "the message with the codec helpers"
                            ),
                        )
    return sorted(findings.values(), key=lambda f: (f.path, f.line))


# ----------------------------------------------------------------------
# pragma-justification
# ----------------------------------------------------------------------
@rule(
    "pragma-justification",
    "Every `# pit: allow[...]` pragma names a known rule and carries a "
    "one-line justification",
)
def check_pragma_justification(corpus):
    findings = []
    known = known_rule_ids()
    for module in corpus:
        for suppression in module.suppressions:
            if not suppression.reason:
                findings.append(
                    Finding(
                        rule="pragma-justification",
                        path=module.path,
                        line=suppression.line,
                        message=(
                            f"suppression of `{suppression.rule}` has no "
                            f"justification"
                        ),
                        hint=(
                            "write `# pit: allow["
                            + suppression.rule
                            + "] — <why this is safe here>`"
                        ),
                    )
                )
            if suppression.rule != "*" and suppression.rule not in known:
                findings.append(
                    Finding(
                        rule="pragma-justification",
                        path=module.path,
                        line=suppression.line,
                        message=(
                            f"pragma names unknown rule "
                            f"`{suppression.rule}`"
                        ),
                        hint="run `python -m repro.analysis --list-rules`",
                    )
                )
    return findings
