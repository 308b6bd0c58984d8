"""The four benchmark workloads, each one public ``repro`` path end to end.

Each scenario builds its inputs from the seed in :meth:`setup` and runs the
timed path once per :meth:`iteration`, asserting every verdict.  Both go
through :class:`Bench` ``.step`` so each stage is timed in
reference-seconds with a probe sample on either side, and (in the traced
run) becomes a root span.  Timed paths hold no sleeps, timers or polling:
no ``op_delay``, no think time, no retry backoff.

Entry points are looked up on their modules at call time
(``repro.history.load_history_segment``, ...) so the tracer's wrappers
take effect.  Shapes are given for ~100k transactions per input and scaled
by ``scale`` in transactions per session.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

import repro
import repro.history
import repro.parallel
import repro.workloads
from repro import IsolationLevel
from repro.adapters.aio import AsyncSimulatedAdapter
from repro.resilience import RetryPolicy

from refclock import RefClock, Step
from tracer import BENCH_PREFIX, Tracer

__all__ = ["SCENARIOS", "Bench", "VerdictError", "pin_one_cpu"]

T = TypeVar("T")

SER = IsolationLevel.SERIALIZABILITY
SI = IsolationLevel.SNAPSHOT_ISOLATION
SSER = IsolationLevel.STRICT_SERIALIZABILITY


def pin_one_cpu() -> None:
    """Restrict this process to one CPU (the last one it may use)."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class VerdictError(AssertionError):
    """The program returned a wrong verdict: the run is invalid."""


class Bench:
    """Per-run context: the reference clock, the optional tracer, and the
    operation counts behind ``ok_share``."""

    def __init__(self, clock: RefClock, tracer: Optional[Tracer] = None) -> None:
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def step(self, name: str, fn: Callable[[], T]) -> Tuple[T, Step]:
        if self.tracer is not None:
            tracer, inner = self.tracer, fn
            fn = lambda: tracer.run(BENCH_PREFIX + name, inner)  # noqa: E731
        return self.clock.step(name, fn)

    def op(self, fn: Callable[[], T], count: int = 1) -> Optional[T]:
        """One verify/ingest call: counted as attempted, failed if it raises."""
        self.attempted += count
        try:
            return fn()
        except Exception:  # noqa: BLE001 - a raising call is a counted failure
            traceback.print_exc(file=sys.stderr)
            self.failed += count
            return None


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise VerdictError(message)


def _expect_satisfied(result, level: IsolationLevel, committed: int) -> None:
    if result is None:
        return  # the call raised; counted against ok_share
    _expect(result.satisfied, f"{level.short_name}: expected satisfied, got {result.violations[:1]}")
    _expect(
        result.num_transactions == committed,
        f"{level.short_name}: verified {result.num_transactions} of {committed} committed",
    )


class Scenario:
    """Base: seeded inputs under ``workdir`` and a repeatable timed path."""

    name = ""
    #: Independent inputs built by :meth:`setup`; iterations take them in turn.
    inputs = 1

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        #: Input bytes on disk per transaction (``history.segment_bytes_per_txn``).
        self.bytes_per_txn = 0.0

    def per_session(self, full: int) -> int:
        return max(1, round(full * self.scale))

    def setup(self, bench: Bench) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed: finish lazy start-up after set-up, before timing."""

    def iteration(self, bench: Bench, index: int) -> int:
        """Run the timed path once on input ``index``; return the
        transactions it verified."""
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _simulate(workload, seed: int):
    database = repro.Database("serializable", keys=workload.keys)
    return repro.workloads.run_workload(database, workload, seed=seed)


def _write_segment(history, path: Path) -> int:
    repro.history.ColumnarHistory.from_history(history).save(path)
    return path.stat().st_size


class VerifyBatch(Scenario):
    """``repro check`` accept path: one segment, MTChecker at SER, SI, SSER."""

    name = "verify-batch"
    levels = (SER, SI, SSER)

    def setup(self, bench: Bench) -> None:
        gen = repro.MTWorkloadGenerator(
            num_sessions=24,
            txns_per_session=self.per_session(4000),
            num_objects=10_000,
            distribution="uniform",
            seed=self.seed,
        )
        workload, _ = bench.step("generate", gen.generate)
        run, _ = bench.step("simulate", lambda: _simulate(workload, self.seed))
        self.path = self.workdir / "history.seg"
        size, _ = bench.step("write", lambda: _write_segment(run.history, self.path))
        self.committed = run.stats.committed
        self.bytes_per_txn = size / (run.stats.committed + run.stats.aborted)

    def iteration(self, bench: Bench, index: int) -> int:
        columns, _ = bench.step("load", lambda: repro.history.load_history_segment(self.path))
        for level in self.levels:
            result, _ = bench.step(
                level.short_name,
                lambda: bench.op(lambda: repro.MTChecker().verify(columns, level)),
            )
            _expect_satisfied(result, level, self.committed)
        return self.committed * len(self.levels)


class CollectCheck(Scenario):
    """``repro collect --async --check`` against a database with a bug."""

    name = "collect-check"
    #: Injected stale reads: about 100 over the full 102k-transaction run.
    fault_rate = 0.001
    #: What the reject path costs depends on where the faults land (the
    #: witness cycle ranges from tens to over a thousand edges), so one run
    #: measures several placements instead of one.
    inputs = 4

    def setup(self, bench: Bench) -> None:
        self.workloads = []
        for index in range(self.inputs):
            gen = repro.MTWorkloadGenerator(
                num_sessions=64,
                txns_per_session=self.per_session(1600),
                num_objects=10_000,
                distribution="uniform",
                seed=self.seed * self.inputs + index,
            )
            workload, _ = bench.step("generate", gen.generate)
            self.workloads.append(workload)

    def faults(self, index: int):
        # Keep the expected number of injected faults the same at every
        # scale, so a small run still carries a detectable bug.
        rate = min(0.05, self.fault_rate / self.scale)
        return repro.FaultPlan.for_anomaly(
            "causalityviolation", rate=rate, seed=self.seed * self.inputs + index
        )

    def iteration(self, bench: Bench, index: int) -> int:
        workload = self.workloads[index]
        adapter = AsyncSimulatedAdapter("serializable", faults=self.faults(index))
        collector = repro.AsyncCollector(
            adapter,
            max_inflight=64,
            retry_policy=RetryPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0),
        )
        total = workload.num_transactions
        collected, _ = bench.step(
            "collect", lambda: bench.op(lambda: collector.collect(workload), count=total)
        )
        if collected is None:
            return 0
        # A transaction that never committed (retries exhausted, or UNKNOWN)
        # is a failed operation.
        bench.failed += total - collected.stats.committed
        result, _ = bench.step(
            "check", lambda: bench.op(lambda: repro.MTChecker().verify(collected.columns, SER))
        )
        if result is not None:
            _expect(not result.satisfied, "SER: the injected stale reads went undetected")
            violation = result.violations[0]
            _expect(isinstance(violation.kind, repro.AnomalyKind), f"unnamed anomaly {violation.kind!r}")
            cycle = violation.cycle
            self.witness_len = len(cycle)
            _expect(bool(cycle), f"{violation.kind.value}: empty witness cycle")
            _expect(
                all(cycle[i][1] == cycle[(i + 1) % len(cycle)][0] for i in range(len(cycle))),
                f"{violation.kind.value}: witness {cycle} is not a closed cycle",
            )
        return collected.stats.committed


class WatchStream(Scenario):
    """``repro watch --once``: SI streaming over a sealed epoch log."""

    name = "watch-stream"
    level = SI
    epochs = 100
    #: Epochs ingested between two probe samples.
    epochs_per_step = 10

    def setup(self, bench: Bench) -> None:
        gen = repro.MTWorkloadGenerator(
            num_sessions=24,
            txns_per_session=self.per_session(3000),
            num_objects=1000,
            distribution="hotspot",
            seed=self.seed,
        )
        workload, _ = bench.step("generate", gen.generate)
        run, _ = bench.step("simulate", lambda: _simulate(workload, self.seed))
        self.log_dir = self.workdir / "epochs"
        rows = run.stats.committed + run.stats.aborted
        per_epoch = max(1, math.ceil((rows + 1) / self.epochs))

        def write_log() -> int:
            writer = repro.history.EpochLogWriter(self.log_dir, epoch_transactions=per_epoch)
            for txn in repro.stream_order(run.history):
                writer.append(txn)
            writer.close()
            return sum(p.stat().st_size for p in self.log_dir.iterdir())

        size, _ = bench.step("write", write_log)
        self.committed = run.stats.committed
        self.bytes_per_txn = size / rows

    def iteration(self, bench: Bench, index: int) -> int:
        log, _ = bench.step("open", lambda: repro.history.EpochLog.open(self.log_dir))
        session = repro.MTChecker().session(self.level)
        segments = log.iter_segments()

        def ingest_some() -> bool:
            for _ in range(self.epochs_per_step):
                item = next(segments, None)
                if item is None:
                    return False
                violations = bench.op(lambda: session.ingest_segment(item[1]))
                _expect(not violations, f"{self.level.short_name}: streaming flagged {violations}")
            return True

        more = True
        while more:
            more, _ = bench.step("ingest", ingest_some)
        result, _ = bench.step("result", lambda: bench.op(session.result))
        _expect_satisfied(result, self.level, self.committed)
        return self.committed


class _GroupGenerator(repro.MTWorkloadGenerator):
    """MT generator over one key group's own names (``g<group>:k<i>``)."""

    def __init__(self, group: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.group = group

    def key_name(self, index: int) -> str:
        return f"g{self.group}:k{index}"


class VerifySharded(Scenario):
    """``repro check --workers 2``: disjoint key groups, sharded MTChecker."""

    name = "verify-sharded"
    levels = (SER, SSER)
    workers = 2
    groups = 8

    def setup(self, bench: Bench) -> None:
        def generate():
            sessions: List = []
            keys: List[str] = []
            for group in range(self.groups):
                part = _GroupGenerator(
                    group,
                    num_sessions=4,
                    txns_per_session=self.per_session(2500),
                    num_objects=1000,
                    distribution="uniform",
                    seed=self.seed * self.groups + group,
                ).generate()
                sessions.extend(part.sessions)
                keys.extend(part.keys)
            return repro.workloads.Workload(sessions=sessions, keys=keys, name="mt-groups")

        workload, _ = bench.step("generate", generate)
        run, _ = bench.step("simulate", lambda: _simulate(workload, self.seed))
        self.path = self.workdir / "history.seg"
        size, _ = bench.step("write", lambda: _write_segment(run.history, self.path))
        self.committed = run.stats.committed
        self.bytes_per_txn = size / (run.stats.committed + run.stats.aborted)

    def _verify_all(self, bench: Bench, workers: Optional[int]) -> Tuple[float, list]:
        """Load and verify at every level; return (ref-seconds, verdicts)."""
        columns, load = bench.step("load", lambda: repro.history.load_history_segment(self.path))
        seconds, verdicts = load.ref, []
        for level in self.levels:
            result, step = bench.step(
                level.short_name,
                lambda: bench.op(lambda: repro.MTChecker(workers=workers).verify(columns, level)),
            )
            _expect_satisfied(result, level, self.committed)
            seconds += step.ref
            verdicts.append(result)
        return seconds, verdicts

    def prepare(self) -> None:
        # Start the worker pool with every CPU allowed, then put this
        # process back on one: the workers (forked now, kept by the pool)
        # run on both vCPUs, while the probe and the serial part of each
        # check (index build, partition, merge) share one.
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, range(os.cpu_count() or 1))
        try:
            columns = repro.history.load_history_segment(self.path)
            repro.MTChecker(workers=self.workers).verify(columns, SER)
        finally:
            os.sched_setaffinity(0, pinned)

    def iteration(self, bench: Bench, index: int) -> int:
        _, self.last_verdicts = self._verify_all(bench, self.workers)
        return self.committed * len(self.levels)

    def serial_seconds(self, bench: Bench) -> float:
        """Reference-seconds of the serial pipeline on the same segment,
        after asserting it agrees with the last sharded run's verdicts."""
        seconds, serial = self._verify_all(bench, None)
        for sharded, plain in zip(self.last_verdicts, serial):
            if sharded is None or plain is None:
                continue
            _expect(
                (sharded.satisfied, sharded.num_transactions, [v.kind for v in sharded.violations])
                == (plain.satisfied, plain.num_transactions, [v.kind for v in plain.violations]),
                f"{plain.level.short_name}: sharded verdict differs from serial",
            )
        return seconds

    def close(self) -> None:
        repro.parallel.executor.shutdown_pool()
        super().close()


SCENARIOS: Dict[str, type] = {
    cls.name: cls for cls in (VerifyBatch, CollectCheck, WatchStream, VerifySharded)
}
