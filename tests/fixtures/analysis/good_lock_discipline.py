"""Known-good: the same access patterns as the bad twin, done right."""

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

    def put_locked(self, key, value):
        with self._lock:
            self._entries[key] = value

    @property
    def hits(self):
        with self._lock:
            return self._hits


def register_locked(name, value):
    with _REG_LOCK:
        _REG[name] = value


def forward():
    with _A_LOCK:
        with _B_LOCK:
            pass


def also_forward():
    with _A_LOCK:
        with _B_LOCK:
            pass
