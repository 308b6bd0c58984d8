"""End-to-end benchmark of the MT isolation checker, one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify-batch --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/LAYERS.json`` for what each one stresses and
bypasses): ``verify-batch``, ``collect-check``, ``watch-stream``,
``verify-sharded``.

``--trace 0`` sets the input up several times (``setup_s`` is the median),
then repeats the timed path for ``--seconds`` and prints the end-to-end
metrics.  ``--trace 1`` sets up once, repeats the timed path untraced for
``--seconds``, runs it once more with every layer wrapped by
:mod:`tracer`, and prints the per-layer metrics; the spans are written to
``.perfbench_out/``.

The benchmark process is pinned to one CPU and its hash seed is fixed;
inputs live in a temporary directory under ``.perfbench_out/`` that is
removed at the end.  All times are reference-seconds (see
:mod:`refclock`).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A wrong verdict prints ``"correct": false`` and exits 1; a
checkout without ``src/repro`` exits 2 without a result.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = OUT / "tmp"
WORKLOADS = ("verify-batch", "collect-check", "watch-stream", "verify-sharded")
#: Fixed for every run, so string hashing (set/dict order) is the same.
HASH_SEED = "0"
#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Transactions per session relative to the ~100k-transaction shapes.
#: Small inputs make short steps, which the drift probes bracket tightly:
#: at 0.25, verify-batch spread about twice as much from run to run.
DEFAULT_SCALE = 0.1


def metric_units(section: str) -> Dict[str, str]:
    """``name -> unit`` of one metric list of ``BENCHMARK.json``
    (``end_to_end`` or ``per_layer``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="timed window length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE, help="input size factor (tests use tiny ones)"
    )
    return parser.parse_args(argv)


def _reexec_if_needed() -> None:
    """Re-run this script with the fixed hash seed and a temp dir inside
    the checkout, replacing the process (no child is left behind)."""
    want = {"PYTHONHASHSEED": HASH_SEED, "TMPDIR": str(TMP)}
    if all(os.environ.get(key) == value for key, value in want.items()):
        return
    TMP.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]]
    os.execve(sys.executable, argv, {**os.environ, **want})


def _reset_peak_rss() -> None:
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")  # resets VmHWM to the current RSS
    except OSError:
        pass


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ref(steps) -> float:
    return sum(step.ref for step in steps)


def _wall(steps) -> float:
    return sum(step.wall for step in steps)


def _freeze_heap() -> None:
    """Move everything alive after set-up out of the collector's reach.

    The inputs a scenario holds in memory (workload specs, thousands of
    small objects) would otherwise be re-scanned by every full collection
    in the timed path, a cost set by how the benchmark stages its inputs
    rather than by the program.
    """
    gc.collect()
    gc.freeze()


def _timed_window(scenario, bench, seconds: float) -> List[Tuple[int, int, float, float]]:
    """Repeat the timed path for ``seconds``, taking the scenario's inputs
    in turn; return per-iteration ``(input, txns, ref_s, wall_s)``."""
    clock = bench.clock
    deadline = time.perf_counter() + seconds
    iterations = []
    for turn in itertools.count():
        gc.collect()
        mark = len(clock.steps)
        index = turn % scenario.inputs
        txns = scenario.iteration(bench, index)
        steps = clock.steps[mark:]
        iterations.append((index, txns, _ref(steps), _wall(steps)))
        if time.perf_counter() >= deadline:
            return iterations


def _throughput(iterations, column: int) -> float:
    """Transactions per second over one pass of every input: the sum of
    each input's median transactions over the sum of its median seconds
    (``column`` 2: reference-seconds, 3: wall seconds)."""
    by_input = defaultdict(list)
    for row in iterations:
        by_input[row[0]].append(row)
    txns = sum(statistics.median(row[1] for row in rows) for rows in by_input.values())
    seconds = sum(statistics.median(row[column] for row in rows) for rows in by_input.values())
    return txns / seconds


def run_e2e(cls, args, bench, workdir: Path) -> Dict[str, float]:
    setups = []
    scenario = None
    try:
        for attempt in range(SETUP_REPEATS):
            if scenario is not None:
                scenario.close()
            scenario = cls(args.seed, args.scale, workdir / f"setup{attempt}")
            scenario.workdir.mkdir(parents=True)
            gc.collect()
            mark = len(bench.clock.steps)
            scenario.setup(bench)
            setups.append(_ref(bench.clock.steps[mark:]))
        scenario.prepare()
        _freeze_heap()
        _reset_peak_rss()
        iterations = _timed_window(scenario, bench, args.seconds)
        peak = _peak_rss_mb()
    finally:
        if scenario is not None:
            scenario.close()
    rates = [txns / ref for _, txns, ref, _ in iterations]
    raw = [txns / wall for _, txns, _, wall in iterations]
    probes = bench.clock.probes
    print(
        f"{cls.name} seed={args.seed}: {len(iterations)} iterations, "
        f"txn/s ref {[round(r) for r in rates]} raw {[round(r) for r in raw]}, "
        f"setup ref-s {[round(s, 3) for s in setups]}, "
        f"probe ms {1000 * min(probes):.3f}..{1000 * max(probes):.3f}"
    )
    return {
        "e2e_txns_per_s": _throughput(iterations, 2),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
        "ok_share": (bench.attempted - bench.failed) / bench.attempted,
    }


def run_traced(cls, args, bench, workdir: Path) -> Dict[str, float]:
    from layers import layer_metrics
    from tracer import Tracer

    clock = bench.clock
    tracer = bench.tracer = Tracer()
    scenario = cls(args.seed, args.scale, workdir / "setup")
    scenario.workdir.mkdir(parents=True)
    try:
        with tracer:
            scenario.setup(bench)
        setup_steps = list(clock.steps)
        bench.tracer = None
        scenario.prepare()
        _freeze_heap()
        untraced = _timed_window(scenario, bench, args.seconds)
        # The traced iteration takes the first input; compare like with like.
        untraced_ref = statistics.median(ref for index, _, ref, _ in untraced if index == 0)
        if hasattr(scenario, "serial_seconds"):
            gc.collect()
            vs_serial = untraced_ref / scenario.serial_seconds(bench)
        else:
            vs_serial = 0.0
        gc.collect()
        bench.tracer = tracer
        timed_mark, step_mark = tracer.mark(), len(clock.steps)
        with tracer:
            tracer.reset_counters()
            scenario.iteration(bench, 0)
        traced_steps = clock.steps[step_mark:]
    finally:
        scenario.close()
    spans_path = OUT / f"spans-{cls.name}-seed{args.seed}.json"
    tracer.dump(spans_path)
    metrics = layer_metrics(
        tracer,
        scenario,
        timed_mark=timed_mark,
        setup_factor=_ref(setup_steps) / _wall(setup_steps),
        timed_factor=_ref(traced_steps) / _wall(traced_steps),
    )
    probes = clock.probes
    print(
        f"{cls.name} seed={args.seed}: {len(untraced)} untraced iterations, traced one "
        f"{_ref(traced_steps):.3f} ref-s, {len(tracer.spans)} spans in {spans_path.name}"
    )
    metrics.update(
        {
            "parallel.vs_serial": vs_serial,
            "bench.probe_ms": 1000 * statistics.median(probes),
            "bench.probe_spread": max(probes) / min(probes),
            "bench.raw_e2e_txns_per_s": _throughput(untraced, 3),
            "bench.trace_overhead": _ref(traced_steps) / untraced_ref,
        }
    )
    return metrics


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    _reexec_if_needed()
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from refclock import RefClock
    from scenarios import SCENARIOS, Bench, VerdictError, pin_one_cpu

    cls = SCENARIOS[args.workload]
    # The benchmark process runs on one CPU, so the probe samples the vCPU
    # the work runs on (worker processes may be given more, see scenarios).
    pin_one_cpu()
    TMP.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
    runner = run_traced if args.trace else run_e2e
    bench = Bench(RefClock())
    correct = True
    try:
        metrics = runner(cls, args, bench, workdir)
    except VerdictError as exc:
        print(f"error: wrong verdict: {exc}", file=sys.stderr)
        correct, metrics = False, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(TMP.iterdir()):
            TMP.rmdir()
    units = metric_units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": correct,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
        if correct
        else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
