"""Known-good: nm-sparse plans carry their permutation immutably."""

import dataclasses


class PermutedChoice:
    def __init__(self, choice, permutation, pattern):
        # Constructors may initialize frozen fields.
        object.__setattr__(self, "choice", choice)
        object.__setattr__(self, "permutation", permutation)
        object.__setattr__(self, "pattern", pattern)

    def __post_init__(self):
        object.__setattr__(self, "permutation", tuple(self.permutation))


def reorder(plan: PermutedChoice, order):
    return dataclasses.replace(plan, permutation=tuple(order))


def retune(planner, shapes):
    spec = planner.make_spec("nm-sparse", shapes)
    return dataclasses.replace(spec, pattern=(1, 4))
