"""Tests for the shared :class:`repro.core.index.HistoryIndex`."""

import pytest

from repro.core.anomalies import ANOMALY_NAMES, anomaly_history
from repro.core.checkers import check_ser, check_si, check_sser
from repro.core.checker import MTChecker
from repro.core.index import HistoryIndex
from repro.core.intcheck import build_write_index, check_internal_consistency
from repro.core.mini import validate_mt_history
from repro.core.model import (
    History,
    Session,
    Transaction,
    TransactionStatus,
    make_initial_transaction,
    read,
    write,
)
from repro.core.result import IsolationLevel
from repro.bench import generate_mt_history
from repro.db import FaultPlan


def history_of(*sessions, initial_keys=("x", "y")):
    return History.from_transactions(list(sessions), initial_keys=list(initial_keys))


def random_histories():
    for seed, faults in [
        (1, None),
        (2, FaultPlan.for_anomaly("lostupdate", rate=0.4, seed=2)),
        (3, FaultPlan.for_anomaly("abortedread", rate=0.4, seed=3)),
    ]:
        yield generate_mt_history(
            isolation="si",
            num_sessions=4,
            txns_per_session=25,
            num_objects=10,
            distribution="zipf",
            seed=seed,
            faults=faults,
        ).history


class TestInterning:
    def test_dense_ids_cover_every_transaction_and_key(self):
        t1 = Transaction(1, [read("x", 0), write("x", 1)])
        t2 = Transaction(2, [read("y", 0), write("y", 2)], session_id=1)
        index = HistoryIndex.build(history_of([t1], [t2]))
        assert sorted(index.txn_ids) == [-1, 1, 2]
        assert index.txn_dense[index.txn_ids[0]] == 0
        assert sorted(index.key_names) == ["x", "y"]
        assert index.keys_of(1) == ["x"]
        assert index.keys_of(-1) == ["x", "y"]

    def test_txn_keys_are_dense_and_sorted(self):
        for history in random_histories():
            index = HistoryIndex.build(history)
            for dense, key_ids in enumerate(index.txn_keys):
                assert key_ids == sorted(set(key_ids))
                txn = index.transactions[dense]
                assert {index.key_names[k] for k in key_ids} == txn.keys()


class TestWriteIndexParity:
    def test_final_and_intermediate_writers_match_write_index(self):
        for history in random_histories():
            index = HistoryIndex.build(history)
            legacy = build_write_index(history)
            for txn in history.transactions(include_initial=True):
                for op in txn.operations:
                    if not op.is_write:
                        continue
                    ours = index.final_writer(op.key, op.value)
                    theirs = legacy.final_writer(op.key, op.value)
                    assert (ours is None) == (theirs is None)
                    if ours is not None:
                        assert ours.txn_id == theirs.txn_id
                    inter_ours = index.intermediate_writer(op.key, op.value)
                    inter_theirs = legacy.intermediate_writer(op.key, op.value)
                    assert (inter_ours is None) == (inter_theirs is None)

    def test_external_reads_match_model(self):
        for history in random_histories():
            index = HistoryIndex.build(history)
            for txn in history.committed_transactions(include_initial=False):
                records = index.external_reads(txn.txn_id)
                assert {(r.key, r.value) for r in records} == set(
                    txn.external_reads().items()
                )
                for record in records:
                    assert record.writes_key == txn.writes_to(record.key)
                    if record.writes_key:
                        assert record.written_value == txn.final_write(record.key)

    def test_final_writes_match_model(self):
        for history in random_histories():
            index = HistoryIndex.build(history)
            for txn in history.transactions(include_initial=True):
                assert index.final_writes(txn.txn_id) == txn.final_writes()


class TestCachedPasses:
    def test_int_violations_equal_standalone_pass(self):
        for name in ANOMALY_NAMES:
            history = anomaly_history(name)
            index = HistoryIndex.build(history)
            ours = [(v.kind, tuple(v.txn_ids)) for v in index.int_violations()]
            theirs = [
                (v.kind, tuple(v.txn_ids))
                for v in check_internal_consistency(history)
            ]
            assert ours == theirs

    def test_caches_are_memoised(self):
        history = next(iter(random_histories()))
        index = HistoryIndex.build(history)
        assert index.int_violations() is index.int_violations()
        assert index.mt_problems() is index.mt_problems()
        assert index.session_order_pairs is index.session_order_pairs
        assert index.stream_order() is index.stream_order()

    def test_mt_problems_match_validate(self):
        history = next(iter(random_histories()))
        index = HistoryIndex.build(history)
        assert len(index.mt_problems()) == len(validate_mt_history(history))


class TestVersionChains:
    def test_chain_links_writer_readers_overwriters(self):
        t1 = Transaction(1, [read("x", 0), write("x", 1)])
        t2 = Transaction(2, [read("x", 1), write("x", 2)], session_id=1)
        t3 = Transaction(3, [read("x", 1)], session_id=2)
        index = HistoryIndex.build(history_of([t1], [t2], [t3]))
        chain = index.version_chains()["x"]
        by_value = {entry.value: entry for entry in chain}
        assert by_value[1].writer_id == 1
        assert set(by_value[1].reader_ids) == {2, 3}
        assert by_value[1].overwriter_ids == (2,)
        assert by_value[0].writer_id == -1  # the initial transaction

    def test_aborted_writers_anchor_no_version(self):
        t1 = Transaction(1, [read("x", 0), write("x", 1)], status=TransactionStatus.ABORTED)
        t2 = Transaction(2, [read("x", 1), write("x", 2)], session_id=1)
        index = HistoryIndex.build(history_of([t1], [t2]))
        values = [entry.value for entry in index.version_chains()["x"]]
        assert 1 not in values  # aborted write is not a version
        # ... but the write index still attributes it for AbortedRead.
        assert index.final_writer("x", 1).aborted


class TestSingleConstruction:
    """The acceptance invariant: one HistoryIndex per MTChecker.verify call."""

    @pytest.mark.parametrize(
        "level",
        [
            IsolationLevel.SERIALIZABILITY,
            IsolationLevel.SNAPSHOT_ISOLATION,
            IsolationLevel.STRICT_SERIALIZABILITY,
        ],
    )
    def test_verify_builds_exactly_one_index(self, level):
        history = generate_mt_history(
            isolation="serializable",
            num_sessions=3,
            txns_per_session=15,
            num_objects=8,
            seed=7,
        ).history
        checker = MTChecker(strict_mt=True)
        before = HistoryIndex.builds
        result = checker.verify(history, level)
        assert HistoryIndex.builds == before + 1
        assert result.satisfied

    def test_checkers_share_supplied_index(self):
        history = next(iter(random_histories()))
        index = HistoryIndex.build(history)
        before = HistoryIndex.builds
        check_ser(history, index=index)
        check_si(history, index=index)
        check_sser(history, index=index)
        assert HistoryIndex.builds == before

    def test_baselines_build_one_index_per_check(self):
        from repro.baselines import CobraChecker, PolySIChecker

        history = next(iter(random_histories()))
        for checker in (CobraChecker(), PolySIChecker()):
            before = HistoryIndex.builds
            checker.check(history)
            assert HistoryIndex.builds == before + 1


class TestScanOrder:
    """``build`` scans ``history.transactions()`` as listed — sessions are
    not re-sorted by id — so dense numbering, and with it Tarjan's
    labeled cycles and the DIVERGENCE report, follow the history."""

    @staticmethod
    def unsorted_history():
        def txn(txn_id, session_id, start, *ops):
            return Transaction(
                txn_id, list(ops), session_id=session_id,
                start_ts=start, finish_ts=start + 1.0,
            )

        return History(
            [
                Session(2, [txn(1, 2, 0.0, read("x", 0), write("x", 1)),
                            txn(4, 2, 4.0, read("y", 3), write("y", 4))]),
                Session(0, [txn(2, 0, 0.5, read("x", 0), write("x", 2)),
                            txn(5, 0, 6.0, read("z", 0), write("z", 5))]),
                Session(1, [txn(3, 1, 2.0, read("y", 0), write("y", 3)),
                            txn(6, 1, 8.0, read("z", 5), write("z", 6))]),
            ],
            initial_transaction=make_initial_transaction(["x", "y", "z"]),
        )

    def test_dense_order_follows_session_list(self):
        history = self.unsorted_history()
        index = HistoryIndex.build(history)
        assert index.txn_ids == [t.txn_id for t in history.transactions()]
        assert index.txn_ids == [-1, 1, 4, 2, 5, 3, 6]

    def test_verdicts_and_labels_are_pinned(self):
        history = self.unsorted_history()
        cycle = (
            "  transactions involved: T1, T2\n"
            "  cycle: T1 --RW(x)--> T2  T2 --RW(x)--> T1"
        )
        expected = {
            IsolationLevel.SERIALIZABILITY: (
                "SER: VIOLATED (6 transactions)\n"
                "DependencyCycle: dependency cycle of length 2 over objects "
                "['x'] forbidden by SER\n" + cycle
            ),
            IsolationLevel.SNAPSHOT_ISOLATION: (
                "SI: VIOLATED (6 transactions)\n"
                "LostUpdate: DIVERGENCE pattern on object x: T1 and T2 both "
                "read value 0 written by T-1 and then wrote different values\n"
                "  transactions involved: T-1, T1, T2"
            ),
            IsolationLevel.STRICT_SERIALIZABILITY: (
                "SSER: VIOLATED (6 transactions)\n"
                "DependencyCycle: dependency cycle of length 2 over objects "
                "['x'] forbidden by SSER\n" + cycle
            ),
        }
        for level, text in expected.items():
            for dense in (True, False):
                assert MTChecker(dense=dense).verify(history, level).format() == text
