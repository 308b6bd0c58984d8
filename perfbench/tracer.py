"""Outside-in layer tracing: wrap the program's public functions, keep spans.

Nothing under ``src/`` knows it is being traced.  :class:`Tracer` replaces
each entry in :data:`TARGETS` at the place its caller looks the name up —
a module global such as ``repro.core.checkers.build_dependency`` or a
class attribute such as ``HistoryIndex.from_columns`` — with a wrapper
that records a span (name, start, end, parent span) in memory, and puts
the originals back on :meth:`Tracer.uninstall`.

A target that no longer exists (a later change fused or renamed the stage)
is recorded in :attr:`Tracer.absent` instead of failing, so the benchmark
keeps working and reports that layer's figures as 0.

Three wrapper kinds:

* ``span`` — one span per call;
* ``iter`` — the call returns an iterator; one span per item produced,
  closed before the item is handed to the consumer;
* ``counter`` — hot per-operation calls (the database engine): a running
  total of seconds and calls instead of one span each.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["TARGETS", "Tracer", "check_span_tree"]

#: ``(layer, "module[:Class]", attribute, kind)`` for every wrapped call.
#: The layer is the span name; per-layer metrics aggregate by it.
TARGETS: List[Tuple[str, str, str, str]] = [
    ("workloads.generate", "repro.workloads:MTWorkloadGenerator", "generate", "span"),
    ("workloads.simulate", "repro.workloads", "run_workload", "span"),
    ("history.write", "repro.history:ColumnarHistory", "from_history", "span"),
    ("history.write", "repro.history:ColumnarHistory", "save", "span"),
    ("history.write", "repro.history:EpochLogWriter", "append", "span"),
    ("history.write", "repro.history:EpochLogWriter", "seal", "span"),
    ("history.write", "repro.history:EpochLogWriter", "close", "span"),
    ("history.segment_load", "repro.history", "load_history_segment", "span"),
    ("history.epochlog_open", "repro.history:EpochLog", "open", "span"),
    ("history.epoch_decode", "repro.history:EpochLog", "iter_segments", "iter"),
    ("core.checker.verify", "repro.core.checker:MTChecker", "verify", "span"),
    ("core.index.build", "repro.core.index:HistoryIndex", "from_columns", "span"),
    ("core.intcheck.pre_checks", "repro.core.index:HistoryIndex", "int_violations", "span"),
    ("core.divergence.scan", "repro.core.checkers", "find_divergence", "span"),
    ("core.graph.build", "repro.core.checkers", "build_dependency", "span"),
    ("core.graph.build", "repro.parallel.executor", "build_dependency", "span"),
    ("core.csr.acyclicity", "repro.core.csr:CSRGraph", "has_cycle", "span"),
    ("core.csr.acyclicity", "repro.core.csr:CSRGraph", "si_induced", "span"),
    ("core.checkers.reject_label", "repro.core.csr:CSRGraph", "to_multigraph", "span"),
    ("core.checkers.reject_label", "repro.core.graph:DependencyGraph", "si_induced_graph", "span"),
    ("core.checkers.reject_label", "repro.core.graph:DependencyGraph", "find_cycle", "span"),
    ("core.checkers.reject_label", "repro.core.checkers", "classify_cycle", "span"),
    ("adapters.collect", "repro.adapters:AsyncCollector", "collect", "span"),
    ("db.engine", "repro.db:Database", "begin", "counter"),
    ("db.engine", "repro.db:Database", "read", "counter"),
    ("db.engine", "repro.db:Database", "write", "counter"),
    ("db.engine", "repro.db:Database", "commit", "counter"),
    ("db.engine", "repro.db:Database", "abort", "counter"),
    ("core.incremental.ingest", "repro.core.incremental:CheckerSession", "ingest_segment", "span"),
    ("core.incremental.result", "repro.core.incremental:CheckerSession", "result", "span"),
    ("parallel.partition", "repro.parallel.executor", "partition_columns", "span"),
    ("parallel.check", "repro.parallel", "check_parallel", "span"),
    ("parallel.merge", "repro.parallel.executor", "merge_shard_results", "span"),
    ("parallel.merge", "repro.parallel.executor", "merge_sser_graphs", "span"),
    ("parallel.merge", "repro.parallel.executor", "finalize_sser_wires", "span"),
]

#: Span-name prefix of the benchmark's own step spans (the tree's roots).
BENCH_PREFIX = "bench."

#: layer -> ``f(result, args)`` keeping the few numbers the per-layer
#: metrics need from a call, so the tracer never holds on to (and keeps
#: alive) a history or a graph.
OBSERVERS: Dict[str, Callable[[Any, tuple], Any]] = {
    "core.graph.build": lambda out, args: (out.num_nodes, out.num_edges),
    "parallel.partition": lambda out, args: [shard.num_transactions for shard in out],
    "core.incremental.ingest": lambda out, args: args[1].num_transactions,
    "adapters.collect": lambda out, args: (
        out.stats.committed,
        out.stats.aborted,
        out.stats.retries,
    ),
}


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``spans`` holds ``[name, start, end, parent]`` lists in start order;
    ``parent`` is the index of the enclosing span or ``-1``.  Single
    threaded by design: every wrapped call in the traced paths runs on the
    benchmark's main thread (the async collector runs its coroutines
    there too).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: layer -> [seconds, calls] for ``counter`` targets.
        self.counters: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        #: layer -> ``(span index, observation)`` from :data:`OBSERVERS`.
        self.observed: Dict[str, List[Tuple[int, Any]]] = defaultdict(list)
        self.absent: List[str] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> list:
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def run(self, name: str, fn: Callable[[], Any]) -> Any:
        """Call ``fn()`` inside a span called ``name``."""
        record = self._open(name)
        try:
            return fn()
        finally:
            self._close(record)

    def span_wrapper(self, layer: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(layer)
        observed = self.observed[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(layer)
            index = len(self.spans) - 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(record)
            if observe is not None:
                try:
                    observed.append((index, observe(out, args)))
                except (AttributeError, TypeError, IndexError):
                    observed.append((index, None))  # the call changed shape
            return out

        return wrapper

    def iter_wrapper(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))

            def items():
                while True:
                    record = tracer._open(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(record)
                    yield item

            return items()

        return wrapper

    def counter_wrapper(self, layer: str, fn: Callable) -> Callable:
        total = self.counters[layer]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total[0] += clock() - started
                total[1] += 1

        return wrapper

    # -- installation --------------------------------------------------
    def install(self, targets=TARGETS) -> "Tracer":
        make = {
            "span": self.span_wrapper,
            "iter": self.iter_wrapper,
            "counter": self.counter_wrapper,
        }
        self.absent = []
        for layer, owner_name, attr, kind in targets:
            try:
                owner = _resolve(owner_name)
                static = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{owner_name}.{attr}")
                continue
            if isinstance(static, (classmethod, staticmethod)):
                wrapped = type(static)(make[kind](layer, static.__func__))
            else:
                wrapped = make[kind](layer, static)
            own = inspect.isclass(owner) and attr in owner.__dict__
            if inspect.isclass(owner) and not own:
                self._undo.append(functools.partial(delattr, owner, attr))
            else:
                self._undo.append(functools.partial(setattr, owner, attr, static))
            setattr(owner, attr, wrapped)
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- queries -------------------------------------------------------
    def mark(self) -> int:
        """Position in the span list; pass to the queries to scope them."""
        return len(self.spans)

    def reset_counters(self) -> None:
        for total in self.counters.values():
            total[0] = 0.0
            total[1] = 0

    def durations(self, layer: str, since: int = 0, until: Optional[int] = None) -> List[float]:
        """Durations of the outermost ``layer`` spans among
        ``spans[since:until]`` (a span nested in another span of the same
        layer is already counted by its ancestor)."""
        spans = self.spans
        out = []
        for index in range(since, len(spans) if until is None else until):
            name, start, end, parent = spans[index]
            if name != layer:
                continue
            while parent >= 0 and spans[parent][0] != layer:
                parent = spans[parent][3]
            if parent < 0:
                out.append(end - start)
        return out

    def total(self, layer: str, since: int = 0, until: Optional[int] = None) -> float:
        return sum(self.durations(layer, since, until))

    def observed_since(self, layer: str, since: int = 0) -> List[Any]:
        return [value for index, value in self.observed[layer] if index >= since]

    def layer_coverage(self, since: int = 0) -> Tuple[float, float]:
        """``(covered, window)``: summed duration of the layer spans that sit
        directly under a benchmark step span, and summed step duration.

        ``covered`` equals the sum of every layer span's self time, since a
        layer span's children are layer spans too.
        """
        spans = self.spans
        covered = window = 0.0
        for index in range(since, len(spans)):
            name, start, end, parent = spans[index]
            if name.startswith(BENCH_PREFIX):
                window += end - start
            elif parent >= 0 and spans[parent][0].startswith(BENCH_PREFIX):
                covered += end - start
        return covered, window

    def dump(self, path: Path) -> None:
        """Write spans, counters and absent targets as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": self.spans,
            "counters": {layer: list(total) for layer, total in self.counters.items()},
            "absent": self.absent,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def check_span_tree(spans: List[list]) -> Optional[str]:
    """Return why ``spans`` is not a well-formed tree, or ``None``.

    Every parent must precede its child and contain its interval; spans
    sharing a parent must not overlap (the traced paths are single
    threaded, so siblings run one after another).
    """
    last_child_end: Dict[int, float] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        if end < start:
            return f"span {index} ({name}) ends before it starts"
        if parent >= index:
            return f"span {index} ({name}) has parent {parent} not before it"
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                return f"span {index} ({name}) escapes its parent {parent}"
        if start < last_child_end.get(parent, float("-inf")):
            return f"span {index} ({name}) overlaps an earlier sibling"
        last_child_end[parent] = end
    return None
