"""In-memory spans and counters for the traced replay.

A span records (name, start, end, parent index). Spans are kept in a list
and written out once, when the replayed operation ends; a layer's self
time is its span's duration minus the time covered by its child spans.
`NULL` has the same interface and records nothing, so the driver can run
untraced through the same code.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from time import perf_counter


class Tracer:
    on = True

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] += value

    def max(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "maxima": self.maxima}


class _NullTracer:
    on = False

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: int = 1) -> None:
        pass

    def max(self, name: str, value: int) -> None:
        pass


NULL = _NullTracer()


def coeff_bits(values) -> int:
    """Largest bit length of any numerator or denominator among values."""
    bits = 0
    for x in values:
        x = Fraction(x)
        bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return bits


def self_times(spans) -> tuple[dict, Counter, float]:
    """Per-name self time and call count; the root "op" span's self time
    (replay glue outside every layer span) is returned separately."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    seconds: dict = {}
    calls: Counter = Counter()
    glue = 0.0
    for i, (name, start, end, _parent) in enumerate(spans):
        own = end - start - covered[i]
        if name == "op":
            glue += own
        else:
            seconds[name] = seconds.get(name, 0.0) + own
            calls[name] += 1
    return seconds, calls, glue
