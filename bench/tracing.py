"""Span tracer installed around duelsim's public functions from outside.

The benchmark process replaces each traced method on its class
with a wrapper that times the call; nothing under src/ knows about it, and
restore() puts the originals back so untraced runs are untouched.

Spans are aggregated as they close instead of stored one by one (a paper
horizon run closes millions): per (parent span, span) edge the tracer keeps
calls, total time and self time, where self time is the span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import time
from typing import Callable

# (module, class, method, span name).
# Several attributes may share a span name; their times add up.
TARGETS = (
    ("environment", "DuelingEnvironment", "step", "environment.step"),
    ("environment", "DuelingEnvironment", "observe_new", "environment.observe"),
    ("environment", "DuelingEnvironment", "observe_aggregated", "environment.observe"),
    ("delays", "DelayDistribution", "sample", "delays.sample"),
    ("delays", "DelayDistribution", "tau_table", "delays.tau_table"),
    ("estimator", "DelayCorrectedEstimator", "ucb_matrix", "estimator.ucb_matrix"),
    ("estimator", "DelayCorrectedEstimator", "matrices", "estimator.matrices"),
    ("estimator", "DelayCorrectedEstimator", "pair_stats", "estimator.pair_stats"),
    ("estimator", "DelayCorrectedEstimator", "record_play", "estimator.record_play"),
    ("estimator", "DelayCorrectedEstimator", "ingest_conversion", "estimator.ingest_conversion"),
) + tuple(
    ("policies", cls, attr, name)
    for cls in ("RucbDelay", "RrDbDelay", "MrrDbDelay")
    for attr, name in (
        ("select", "policies.select"),
        ("observe", "policies.observe"),
        ("observe_count", "policies.observe"),
    )
)

# Spans whose True results are counted as accepted.
ACCEPTING = {"estimator.ingest_conversion"}


class Tracer:
    """Aggregates nested spans: edges[(parent, name)] = [calls, total_ns, self_ns, accepted]."""

    def __init__(self):
        self.edges: dict[tuple[str | None, str], list[int]] = {}
        self._open: list[list] = []  # [name, ns covered by child spans]

    def wrap(self, name: str, fn):
        edges = self.edges
        open_spans = self._open
        clock = time.perf_counter_ns
        accepting = name in ACCEPTING

        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else None
            span = [name, 0]
            open_spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                key = (parent[0] if parent else None, name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0, 0, 0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - span[1]
                if parent is not None:
                    parent[1] += elapsed
            if accepting and result is True:
                edge[3] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span opened by the caller."""
        return self.wrap(name, fn)(*args, **kwargs)

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name, summed over parents: calls, total_ns, self_ns, accepted."""
        out: dict[str, dict[str, int]] = {}
        for (_, name), (calls, total, own, accepted) in self.edges.items():
            agg = out.setdefault(name, dict(calls=0, total_ns=0, self_ns=0, accepted=0))
            agg["calls"] += calls
            agg["total_ns"] += total
            agg["self_ns"] += own
            agg["accepted"] += accepted
        return out

    def tree(self) -> list[dict]:
        """The aggregated edges, for writing out with the run record."""
        return [
            dict(parent=parent, span=name, calls=c, total_ns=t, self_ns=s)
            for (parent, name), (c, t, s, _) in sorted(
                self.edges.items(), key=lambda kv: -kv[1][1]
            )
        ]


def install(tracer: Tracer, package) -> Callable[[], None]:
    """Wrap every target of the imported duelsim package; returns restore()."""
    saved = []
    for module_name, owner_name, attr, span in TARGETS:
        module = getattr(package, module_name)
        owner = getattr(module, owner_name)
        if attr not in vars(owner):
            continue
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(span, original))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
