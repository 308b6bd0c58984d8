"""Tests for internal-consistency checking and read-provenance anomalies."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import HistoryIndex
from repro.core.intcheck import WriteIndex, build_write_index, check_internal_consistency
from repro.core.model import History, Transaction, TransactionStatus, read, write
from repro.core.result import AnomalyKind
from repro.history import ColumnarHistory


def txn(txn_id, *ops, status=TransactionStatus.COMMITTED):
    return Transaction(txn_id, list(ops), status=status)


def history_of(*session_lists, keys=("x",)):
    return History.from_transactions(list(session_lists), initial_keys=list(keys))


def kinds(history):
    return {v.kind for v in check_internal_consistency(history)}


class TestWriteIndex:
    def test_final_and_intermediate_writers(self):
        index = WriteIndex()
        t = txn(1, read("x", 0), write("x", 1), write("x", 2))
        index.add_transaction(t)
        assert index.final_writer("x", 2) is t
        assert index.final_writer("x", 1) is None
        assert index.intermediate_writer("x", 1) is t

    def test_build_write_index_includes_initial_and_aborted(self):
        aborted = txn(1, read("x", 0), write("x", 5), status=TransactionStatus.ABORTED)
        history = history_of([aborted])
        index = build_write_index(history)
        assert index.final_writer("x", 5) is aborted
        assert index.final_writer("x", 0).is_initial


class TestValidHistories:
    def test_clean_chain_has_no_violations(self):
        t1 = txn(1, read("x", 0), write("x", 1))
        t2 = txn(2, read("x", 1), write("x", 2))
        assert kinds(history_of([t1], [t2])) == set()

    def test_read_own_write_is_consistent(self):
        t1 = txn(1, read("x", 0), write("x", 1), read("x", 1))
        assert kinds(history_of([t1])) == set()

    def test_repeated_identical_reads_are_consistent(self):
        t1 = txn(1, read("x", 0), read("x", 0))
        assert kinds(history_of([t1])) == set()

    def test_aborted_transactions_are_not_themselves_checked(self):
        bad = txn(1, read("x", 99), status=TransactionStatus.ABORTED)
        assert kinds(history_of([bad])) == set()


class TestAnomalies:
    def test_thin_air_read(self):
        t1 = txn(1, read("x", 42))
        assert kinds(history_of([t1])) == {AnomalyKind.THIN_AIR_READ}

    def test_aborted_read(self):
        writer = txn(1, read("x", 0), write("x", 5), status=TransactionStatus.ABORTED)
        reader = txn(2, read("x", 5))
        assert kinds(history_of([writer], [reader])) == {AnomalyKind.ABORTED_READ}

    def test_future_read(self):
        t1 = txn(1, read("x", 9), write("x", 9))
        assert kinds(history_of([t1])) == {AnomalyKind.FUTURE_READ}

    def test_not_my_last_write(self):
        t1 = txn(1, read("x", 0), write("x", 1), write("x", 2), read("x", 1))
        assert kinds(history_of([t1])) == {AnomalyKind.NOT_MY_LAST_WRITE}

    def test_not_my_own_write(self):
        t1 = txn(1, read("x", 0), write("x", 2), read("x", 1))
        t2 = txn(2, read("x", 0), write("x", 1))
        assert AnomalyKind.NOT_MY_OWN_WRITE in kinds(history_of([t1], [t2]))

    def test_intermediate_read(self):
        t1 = txn(1, read("x", 1))
        t2 = txn(2, read("x", 0), write("x", 1), write("x", 2))
        assert kinds(history_of([t1], [t2])) == {AnomalyKind.INTERMEDIATE_READ}

    def test_non_repeatable_reads(self):
        t1 = txn(1, read("x", 0), read("x", 1))
        t2 = txn(2, read("x", 0), write("x", 1))
        assert AnomalyKind.NON_REPEATABLE_READS in kinds(history_of([t1], [t2]))

    def test_violation_reports_transaction_and_key(self):
        t1 = txn(7, read("x", 42))
        violations = check_internal_consistency(history_of([t1]))
        assert violations[0].txn_ids == [7]
        assert violations[0].key == "x"

    def test_multiple_violations_all_reported(self):
        t1 = txn(1, read("x", 42))
        t2 = txn(2, read("x", 0), read("x", 99))
        violations = check_internal_consistency(history_of([t1], [t2]))
        assert len(violations) >= 2

    def test_reusing_a_prebuilt_index(self):
        t1 = txn(1, read("x", 42))
        history = history_of([t1])
        index = build_write_index(history)
        violations = check_internal_consistency(history, write_index=index)
        assert violations and violations[0].kind is AnomalyKind.THIN_AIR_READ


# ----------------------------------------------------------------------
# Differential: the index's fused scan trigger vs the reference pre-pass
# ----------------------------------------------------------------------
INT_KEYS = ("x", "y", "z")
#: A tiny value domain (with ``None``) so that future reads, repeated and
#: intermediate writes, and reads of aborted writers all occur often.
INT_VALUES = (None, 0, 1, 2, 3, 4)


def random_int_history(rng):
    """A small history with every INT/provenance anomaly kind likely."""
    sessions = []
    txn_id = 1
    for _ in range(rng.randint(1, 3)):
        txns = []
        for _ in range(rng.randint(1, 4)):
            ops = []
            for _ in range(rng.randint(1, 5)):
                key = rng.choice(INT_KEYS)
                value = rng.choice(INT_VALUES)
                ops.append(read(key, value) if rng.random() < 0.55 else write(key, value))
            status = (
                TransactionStatus.ABORTED if rng.random() < 0.15
                else TransactionStatus.COMMITTED
            )
            txns.append(Transaction(txn_id, ops, status=status))
            txn_id += 1
        sessions.append(txns)
    initial_keys = INT_KEYS if rng.random() < 0.8 else None
    return History.from_transactions(sessions, initial_keys=initial_keys)


def violation_fingerprints(violations):
    return [(v.kind, tuple(v.txn_ids), v.key, v.description) for v in violations]


def assert_index_paths_match_reference(history):
    reference = violation_fingerprints(check_internal_consistency(history))
    built = HistoryIndex.build(history)
    columnar = HistoryIndex.from_columns(ColumnarHistory.from_history(history))
    assert violation_fingerprints(built.int_violations()) == reference
    assert violation_fingerprints(columnar.int_violations()) == reference
    return reference


class TestFusedTriggerDifferential:
    """``HistoryIndex.int_violations`` classifies only the rows its
    construction scan flagged; the index-free reference pass (its own
    :class:`WriteIndex`) checks every row.  They must agree exactly."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rng=st.randoms(use_true_random=False))
    def test_random_histories_match_reference(self, rng):
        assert_index_paths_match_reference(random_int_history(rng))

    def test_seeded_sweep_injects_every_kind(self):
        seen = set()
        for seed in range(400):
            reference = assert_index_paths_match_reference(
                random_int_history(random.Random(seed))
            )
            seen.update(kind for kind, _ids, _key, _desc in reference)
        assert {
            AnomalyKind.FUTURE_READ,
            AnomalyKind.NOT_MY_LAST_WRITE,
            AnomalyKind.NOT_MY_OWN_WRITE,
            AnomalyKind.NON_REPEATABLE_READS,
            AnomalyKind.THIN_AIR_READ,
            AnomalyKind.ABORTED_READ,
            AnomalyKind.INTERMEDIATE_READ,
        } <= seen

    def test_none_first_read_then_valued_read(self):
        # A valued read after only None reads is still the row's external
        # read of the key: its provenance is resolved as well.
        t1 = txn(1, read("x", None), read("x", 7), read("x", None), read("x", 8))
        t2 = txn(2, read("y", 0), write("y", 7))
        assert assert_index_paths_match_reference(history_of([t1], [t2], keys=("x", "y")))
