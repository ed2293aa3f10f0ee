"""Spans around the benchmark's calls into simpchrom, kept in memory.

Every library call the benchmark makes goes through ``Tracer.call`` under a
``<module>.<function>`` name.  With tracing off the call is forwarded with no
timing at all, so the untimed path costs one extra Python call.  With
tracing on, each call adds its duration and one call to its name, and an
exception adds one to ``<module>.errors`` before it propagates.  Counters
(work done, computed from inputs and outputs) are kept only while tracing.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.counters = defaultdict(int)

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = perf_counter()
        try:
            return fn(*args)
        except Exception:
            self.errors[name.split(".", 1)[0]] += 1
            raise
        finally:
            self.seconds[name] += perf_counter() - start
            self.calls[name] += 1

    def count(self, name: str, amount: int = 1):
        if self.enabled:
            self.counters[name] += amount

    def peak(self, name: str, value: int):
        if self.enabled:
            self.counters[name] = max(self.counters[name], value)
