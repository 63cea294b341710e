# reprolint: path=src/repro/service/corpus_flow_lockset.py
"""Planted violations: flow-lockset (3 findings) + flow-resource (1).

The lockset findings exercise exactly what a syntactic, one-node-at-a-time
check cannot see: blocking reached *through a helper method*, and a
lock-order cycle spread across two methods.  The ticket finding rides
along because discarding a registry ticket is a service-layer pattern.
"""

import threading
import time


class CycleProne:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()
        self._box = None

    def forward(self):
        with self._a:
            # order edge a -> b
            with self._b:
                pass

    def backward(self):
        with self._b:
            # VIOLATION (flow-lockset): order edge b -> a closes the cycle
            with self._a:
                pass


class HelperBlocker:
    def __init__(self, engine):
        self._cond = threading.Condition()
        self._engine = engine
        self._pending = []

    def _drain_one(self, fut):
        # blocking on its own is fine here — no lock is held...
        return fut.result()

    def flush(self, fut):
        with self._cond:
            # VIOLATION (flow-lockset): ...but calling the helper while
            # holding the condition reaches fut.result() with the lock held
            value = self._drain_one(fut)
            self._pending.append(value)
        return value

    def nap_under_lock(self):
        with self._cond:
            # VIOLATION (flow-lockset): direct blocking call under the lock
            time.sleep(0.01)

    def deliberate_wait(self):
        with self._cond:
            # OK: suppressed — the handshake sleeps while held
            time.sleep(0.001)  # reprolint: disable=flow-lockset

    def register_and_forget(self, fut):
        # VIOLATION (flow-resource): the ticket _register returns is the
        # only handle clients have; dropping it strands the future
        self._register(fut)

    def _register(self, fut):
        with self._cond:
            self._pending.append(fut)
        return len(self._pending)
