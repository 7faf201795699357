"""Known-bad: mutating the permutation of a resolved nm-sparse plan.

Parsed only, never imported — the bare PermutedChoice/PlanSpec names are
resolved by annotation and constructor-name inference, not at runtime.
The cached channel permutation is part of the plan artifact: rewriting it
in place silently changes which weights survive the N:M projection for
every later consumer of the cache entry.
"""


def reorder(plan: PermutedChoice, order):  # noqa: F821
    plan.permutation = tuple(order)  # expect[frozen-spec-purity]
    setattr(plan, "pattern", (2, 4))  # expect[frozen-spec-purity]
    object.__setattr__(plan, "permutation", order)  # expect[frozen-spec-purity]
    return plan


def retune(planner, shapes):
    choice = PermutedChoice(None, (), ())  # noqa: F821
    choice.permutation = (1, 0)  # expect[frozen-spec-purity]
    spec = planner.make_spec("nm-sparse", shapes)
    spec.pattern = (1, 4)  # expect[frozen-spec-purity]
    return choice, spec
