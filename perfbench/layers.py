"""Per-layer metrics of the traced run, named as in ``LAYERS.json``."""

from __future__ import annotations

import statistics
from typing import Dict

from tracer import Tracer

__all__ = ["layer_metrics"]

#: Layers whose metric ``<layer>_s`` is the reference-seconds total of the
#: layer's spans in the set-up (``SETUP``) or in the traced iteration.
SETUP = ("workloads.generate", "workloads.simulate", "history.write")
TIMED = (
    "history.segment_load",
    "history.epochlog_open",
    "history.epoch_decode",
    "core.index.build",
    "core.intcheck.pre_checks",
    "core.divergence.scan",
    "core.graph.build",
    "core.csr.acyclicity",
    "core.checkers.reject_label",
    "adapters.collect",
    "core.incremental.ingest",
    "core.incremental.result",
    "parallel.partition",
    "parallel.check",
    "parallel.merge",
)


def layer_metrics(
    tracer: Tracer,
    scenario,
    *,
    timed_mark: int,
    setup_factor: float,
    timed_factor: float,
) -> Dict[str, float]:
    """Every per-layer metric except the ``bench.*`` run figures.

    ``timed_mark`` splits the span list: set-up spans before it, the traced
    timed iteration from it on.  Raw span seconds are scaled to
    reference-seconds by the wall-weighted drift factor of each part.
    A layer the workload bypasses (or the program no longer has) reads 0.
    """
    out: Dict[str, float] = {}
    for layer in SETUP:
        out[f"{layer}_s"] = tracer.total(layer, 0, timed_mark) * setup_factor
    for layer in TIMED:
        out[f"{layer}_s"] = tracer.total(layer, timed_mark) * timed_factor
    out["history.segment_bytes_per_txn"] = scenario.bytes_per_txn

    graphs = [g for g in tracer.observed_since("core.graph.build", timed_mark) if g]
    nodes, edges = max(graphs, key=lambda g: g[1]) if graphs else (0, 0)
    out["core.graph.nodes"], out["core.graph.edges"] = nodes, edges
    out["core.checkers.witness_len"] = getattr(scenario, "witness_len", 0)

    engine_seconds, engine_calls = tracer.counters["db.engine"]
    out["db.engine_s"] = engine_seconds * timed_factor
    out["db.calls"] = engine_calls
    out["adapters.self_s"] = out["adapters.collect_s"] - out["db.engine_s"]
    collected = [c for c in tracer.observed_since("adapters.collect", timed_mark) if c]
    committed, aborted, retries = collected[-1] if collected else (0, 0, 0)
    out["adapters.commit_ratio"] = committed / (committed + aborted) if collected else 0.0
    out["adapters.retries"] = retries

    epochs = [s * timed_factor for s in tracer.durations("core.incremental.ingest", timed_mark)]
    rows = tracer.observed_since("core.incremental.ingest", timed_mark)
    if len(epochs) >= 2 and len(rows) == len(epochs):
        tenth = max(1, len(epochs) // 10)
        out["core.incremental.epoch_p50_ms"] = 1e3 * statistics.median(epochs)
        out["core.incremental.epoch_p90_ms"] = 1e3 * statistics.quantiles(epochs, n=10)[8]
        out["core.incremental.us_per_txn_first_decile"] = 1e6 * sum(epochs[:tenth]) / sum(rows[:tenth])
        out["core.incremental.us_per_txn_last_decile"] = 1e6 * sum(epochs[-tenth:]) / sum(rows[-tenth:])
    else:
        for name in ("epoch_p50_ms", "epoch_p90_ms", "us_per_txn_first_decile", "us_per_txn_last_decile"):
            out[f"core.incremental.{name}"] = 0.0

    shards = [s for s in tracer.observed_since("parallel.partition", timed_mark) if s]
    sizes = shards[-1] if shards else []
    out["parallel.shards"] = len(sizes)
    out["parallel.largest_shard_share"] = max(sizes) / sum(sizes) if sizes and sum(sizes) else 0.0

    covered, window = tracer.layer_coverage(timed_mark)
    out["bench.trace_coverage"] = covered / window if window else 0.0
    out["bench.absent_layers"] = len(tracer.absent)
    return out
