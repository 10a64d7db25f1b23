"""In-memory span recorder that wraps eqtie's public functions from outside.

Each traced function is replaced on its module by a wrapper that records one
span per call: (span id, parent span id, name, start ns, end ns, op label).
Replacing the module attribute is enough because eqtie's modules call one
another through module attributes (``specio.parse_spec``, ``designs.merge_colors``)
and a module's own functions look their globals up in the module dict, so
``certify_unique`` reaches the wrapped ``enumerate_automorphisms`` too.

Counts are taken at the same boundaries from each call's arguments and
result. Nothing under ``src/`` is modified; ``unwrap_all`` restores every
original attribute.
"""

from __future__ import annotations

import collections
import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int, str]] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack = [0]
        self._next_id = 1
        self._op = ""
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, count=None):
        """Replace ``module.attr`` by a recording wrapper.

        ``count(counter, args, result)`` runs after each call, outside the span.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end, self._op))
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, original))

    def unwrap_all(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    @contextmanager
    def op(self, label: str):
        """A root span around one benchmark op; every span inside carries ``label``."""
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        self._op = label
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._op = ""
            self.spans.append((span_id, 0, "op", start, end, label))


def self_times(spans) -> dict[str, float]:
    """Seconds per span name: each span's duration minus its direct children's."""
    child_ns: collections.Counter = collections.Counter()
    for _, parent, _, start, end, _ in spans:
        child_ns[parent] += end - start
    totals: collections.Counter = collections.Counter()
    for span_id, _, name, start, end, _ in spans:
        totals[name] += end - start - child_ns[span_id]
    return {name: ns / 1e9 for name, ns in totals.items()}


def write_tsv(spans, path):
    with open(path, "w") as f:
        f.write("span\tparent\tname\tstart_ns\tend_ns\top\n")
        for span in spans:
            f.write("\t".join(str(v) for v in span) + "\n")
