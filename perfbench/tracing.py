"""Spans and counts around primekit's public functions, installed from outside.

install() replaces each listed function with a wrapper in every module
that imports it, so calls between modules pass through the wrapper. A
span records its name, start, end, parent span and command number; a
span's self time is its duration minus the time of the spans directly
under it. Counters wrap functions whose calls are too many to time one by
one but whose results say how much work was done. A name a module no
longer has is skipped, so the tracer keeps working as primekit changes.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name, what to count from the result)
SPANS = (
    ("primekit.cli", "run", "cli.run", None),
    ("primekit.cli", "primes_below", "exclusion.primes_below", "primes_out"),
    ("primekit.cli", "primes_leq_sqrt", "oracle.primes_leq_sqrt", None),
    ("primekit.exclusion", "primes_leq_sqrt", "oracle.primes_leq_sqrt", None),
    ("primekit.cli", "is_prime", "oracle.is_prime", "verdict"),
    ("primekit.oracle", "is_prime", "oracle.is_prime", "verdict"),
    ("primekit.relations", "is_prime", "oracle.is_prime", "verdict"),
    ("primekit.bigsearch", "is_prime", "oracle.is_prime", "verdict"),
    ("primekit.mersenne", "is_prime", "oracle.is_prime", "verdict"),
    ("primekit.bigsearch", "odd_prime_product", "oracle.odd_prime_product", None),
    ("primekit.cli", "enumerate_certified", "relations.enumerate_certified", "accepted"),
    ("primekit.cli", "eval_relation1", "relations.eval", None),
    ("primekit.cli", "eval_relation1_factorial", "relations.eval", None),
    ("primekit.cli", "eval_relation2", "relations.eval", None),
    ("primekit.cli", "eval_relation3", "relations.eval", None),
    ("primekit.relations", "eval_relation1", "relations.eval", None),
    ("primekit.relations", "eval_relation1_factorial", "relations.eval", None),
    ("primekit.relations", "eval_relation2", "relations.eval", None),
    ("primekit.relations", "eval_relation3", "relations.eval", None),
    ("primekit.cli", "build_state", "bigsearch.build_state", None),
    ("primekit.cli", "min_exponent", "bigsearch.min_exponent", None),
    ("primekit.cli", "search", "bigsearch.search", "hits"),
    ("primekit.cli", "scan_prime_zn", "mersenne.scan_prime_zn", "zn_hits"),
    ("primekit.mersenne", "compute_zn", "mersenne.compute_zn", None),
)

# (module, attribute, what to count from the result): counted, not timed
COUNTERS = (
    ("primekit.relations", "enumeration_grid_size", "grid_points"),
    ("primekit.bigsearch", "odd_k_candidates", "windows"),
)


def _count(counts: Counter, what: str, result) -> None:
    if what == "verdict":
        counts["is_prime." + result.method] += 1
    elif what == "grid_points":
        counts["grid_points"] += result
    elif what == "windows":
        counts["windows"] += 1
        counts["nonempty_windows"] += bool(result)
    else:
        counts[what] += len(result)


class Tracer:
    """Spans kept in memory as [name, start, end, parent, command, child time]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.command = -1

    def span(self, fn, name: str, what: str | None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, 0.0]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = end = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]][5] += end - record[1]
            if what is not None:
                _count(counts, what, result)
            return result

        return traced

    def counter(self, fn, what: str):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            _count(counts, what, result)
            return result

        return counted

    def write(self, path: str) -> None:
        """The spans as JSON lines: name, start, end, parent index, command."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, command, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, command]) + "\n")

    def layers(self) -> dict:
        """Calls, total ms and self ms per span name, and the counts."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for name, start, end, _, _, children in self.spans:
            calls[name] += 1
            total[name] += (end - start) * 1000.0
            own[name] += (end - start - children) * 1000.0
        return {"calls": dict(calls), "ms": dict(total), "self_ms": dict(own), "counts": dict(self.counts)}


def install(tracer: Tracer) -> None:
    for module_name, attribute, name, what in SPANS:
        module = importlib.import_module(module_name)
        if hasattr(module, attribute):
            setattr(module, attribute, tracer.span(getattr(module, attribute), name, what))
    for module_name, attribute, what in COUNTERS:
        module = importlib.import_module(module_name)
        if hasattr(module, attribute):
            setattr(module, attribute, tracer.counter(getattr(module, attribute), what))
