"""Known-bad: a lock-owning cache's state and a guarded registry touched
without their locks, plus an inconsistent lock-order pair.  Never
imported — parsed only."""

import threading

from repro.analysis.runtime_checks import make_lock

_REG: dict = {}
_REG_LOCK = threading.Lock()

_A_LOCK = threading.Lock()
_B_LOCK = threading.Lock()


class Cache:
    def __init__(self):
        self._entries = {}
        self._hits = 0
        self._lock = make_lock("plan_cache")

    def put_unlocked(self, key, value):
        self._entries[key] = value  # expect[lock-discipline]

    @property
    def hits(self):
        return self._hits  # expect[lock-discipline]


def register_unlocked(name, value):
    _REG[name] = value  # expect[lock-discipline]


def forward():
    with _A_LOCK:
        with _B_LOCK:  # expect[lock-discipline]
            pass


def backward():
    with _B_LOCK:
        with _A_LOCK:
            pass
