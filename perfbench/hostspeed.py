"""Host-speed reference: a fixed loop timed between the timed passes.

The benchmark's host is a share of a machine that other tenants load too.
Its speed drifts by up to 1.7x, in periods that last from seconds to
minutes, and a pass's CPU time equals its wall time, so the drift is slower
execution, not preemption.  Within one run, the lower quartile of the pass
times filters out bursts of a few seconds; periods longer than a run are
what this module corrects for.  The benchmark times :func:`reference_loop`,
which runs no code of the program under test, right after the set-up and
after every timed pass, and reports times scaled to the speed that loop has
on a calm host (:data:`REFERENCE_S`)::

    wall  = lower_quartile(pass times) * REFERENCE_S
            / lower_quartile(reference loop times of the whole run)
    setup = set-up time * REFERENCE_S
            / lower_quartile(reference loop times right after set-up)

On a calm host the scaled and unscaled figures agree.  A change to the
program moves the scaled figure exactly as it moves the unscaled one,
because the reference loop does not depend on the program.  The loop is the
same kind of work as the program's hot path: a pure-Python search over
slotted tile records (the arithmetic of ``TileDB.best_dense_tile``),
tuple-keyed dict inserts and small numpy reductions.  In slow periods it
slows somewhat more than the program does, so scaled figures then read up
to about 12% low.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Lower quartile of :func:`reference_loop` times on a calm 2-core host
#: (Intel Xeon at 2.0 GHz, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.0155
#: Loop timings taken after each pass.
REPEATS = 3


class _Tile:
    __slots__ = ("tm", "tn", "base")

    def __init__(self, tm: int, tn: int, base: float):
        self.tm, self.tn, self.base = tm, tn, base

    def cost_us(self, k: int) -> float:
        return self.base * (1.0 + k / 64.0)


_TILES = [
    _Tile(16 * (1 + i % 8), 16 * (1 + i // 8 % 8), 0.5 + i % 7)
    for i in range(64)
]
_SHAPES = [
    (64 * (1 + i % 12), 64 * (1 + i % 9), 64 * (1 + i % 16)) for i in range(48)
]
_VECTOR = np.linspace(0.0, 1.0, 64)


def reference_loop() -> float:
    """A fixed amount of work; returns a checksum so none is skipped."""
    memo = {}
    total = 0.0
    for r in range(6):
        for m, k, n in _SHAPES:
            best, best_cost = None, math.inf
            for tile in _TILES:
                waves = math.ceil(
                    math.ceil(m / tile.tm) * math.ceil(n / tile.tn) / 80
                )
                cost = waves * tile.cost_us(k)
                if cost < best_cost:
                    best, best_cost = tile, cost
            memo[(r, m, k, n)] = (best.tm, best_cost)
            scaled = _VECTOR * best_cost
            total += float(scaled.sum()) + float(np.percentile(scaled, 95))
    return total + len(memo)


def sample(repeats: int = REPEATS) -> list:
    """``repeats`` timings (s) of the reference loop, taken now."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return times


def lower_quartile(times: list) -> float:
    """The first quartile of ``times``.

    Other tenants only ever add time, in bursts that last seconds and hit a
    varying share of the timings.  A quarter of the timings lie below the
    first quartile, so it follows the host's quiet speed, where the median
    follows the bursts.
    """
    return statistics.quantiles(times, n=4)[0]


def scaled(seconds: float, reference_times: list) -> float:
    """``seconds`` at the calm host speed, given reference loop timings
    taken around the interval that ``seconds`` measured."""
    return seconds * REFERENCE_S / lower_quartile(reference_times)
