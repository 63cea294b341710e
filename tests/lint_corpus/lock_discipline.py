# reprolint: path=src/repro/service/corpus_lock_discipline.py
"""Planted violations: lock-discipline (2 findings) + flow-lockset (1)."""

import threading
import time


class LeakyService:
    def __init__(self):
        self._lock = threading.Lock()
        self.jobs = 0
        self.done = 0
        self.slots = [None] * 4

    def submit(self):
        # VIOLATION: unlocked write to instance state
        self.jobs += 1

    def park(self, index):
        # VIOLATION: unlocked subscript write through instance state
        self.slots[index] = None

    def wait_all(self, futures):
        with self._lock:
            for fut in futures:
                # VIOLATION: blocking call while holding the lock
                fut.result()

    def finish(self):
        # OK: written under the lock
        with self._lock:
            self.done += 1

    def nap_then_count(self):
        time.sleep(0)  # OK: blocking, but no lock held
        with self._lock:
            self.done += 1

    def waived_bump(self):
        # single-writer by construction; see the module design notes
        self.jobs += 1  # reprolint: disable=lock-discipline


class Lockless:
    """No lock attribute — the rule has nothing to enforce here."""

    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1
