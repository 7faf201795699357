"""repro.analysis — "pitlint", the invariant checker for this repo.

Serving is concurrent, and this package checks mechanically the
invariants that keep it correct (lock discipline over the
:class:`~repro.core.selection.PlanCache` and the shared registries, async
hygiene in the live front end, decision-path determinism behind the
replay-equivalence guarantee, seeded RNG everywhere, frozen plan objects)
with two tools:

* a **static analyzer** (`python -m repro.analysis src`) with a rule
  registry, per-rule findings, inline suppression pragmas
  (``# pit: allow[rule-id] — reason``) and text/JSON reporters — wired
  into CI as a gate;
* a **dynamic verifier** (:mod:`repro.analysis.runtime_checks`): a debug
  lock factory, enabled by ``REPRO_DEBUG_LOCKS=1``, that records real
  acquisition order at test time and cross-checks it against the
  statically derived lock-order graph.

See ``docs/static-analysis.md`` for the rule catalog and how to add a
rule.
"""

from .. import _lazy_exports

__all__ = [
    "Corpus",
    "Finding",
    "Report",
    "RuleInfo",
    "Suppression",
    "all_rules",
    "analyze",
    "analyze_paths",
    "build_lock_graph",
    "extract_suppressions",
    "find_cycles",
    "get_rule",
    "known_rule_ids",
    "load_corpus",
    "rule",
    "static_lock_order",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "engine": ("Corpus", "analyze", "analyze_paths", "load_corpus"),
    "findings": ("Finding", "Report", "Suppression", "extract_suppressions"),
    "lockgraph": ("build_lock_graph", "find_cycles", "static_lock_order"),
    "registry": (
        "RuleInfo", "all_rules", "get_rule", "known_rule_ids", "rule",
    ),
})
