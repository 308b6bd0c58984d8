"""The shared :class:`HistoryIndex`: one scan, many consumers.

Historically every layer of the pipeline re-derived the same per-history
structures from the raw :class:`~repro.core.model.History`: the INT pre-pass
built a write index, ``CHECKSI`` built another for the DIVERGENCE scan,
``BUILDDEPENDENCY`` a third, and each solver baseline a fourth — plus as
many full passes over every transaction's operations.  The checkers are
linear-time on paper, but the constant factor was "number of consumers".

:class:`HistoryIndex` is built **once** per history and is the sole
history-scanning entry point for the batch pipeline:

* transaction ids and object keys are interned to dense integers
  (``txn_ids`` / ``key_names`` and their reverse maps), which is what the
  shard partitioner (:mod:`repro.parallel.partition`) and the dependency
  graph's integer fast path operate on;
* the write index — ``(key, value) -> final/intermediate writer`` — is
  API-compatible with :class:`~repro.core.intcheck.WriteIndex`, so the
  read-provenance classification runs against the shared index;
* every committed transaction's external reads are resolved to writer /
  RMW-flag / written-value tuples, which is all ``BUILDDEPENDENCY``, the
  DIVERGENCE scan, and the polygraph encoders need;
* session order, real-time order, per-key version chains, the INT verdict,
  and the MT-validation verdict are computed once and cached.

The index has **one construction scan**, over flat columns:

* :meth:`from_columns` scans a
  :class:`~repro.history.columnar.ColumnarHistory` segment directly —
  no ``Transaction`` or ``Operation`` is materialised on the accept path;
* :meth:`build` column-encodes a :class:`~repro.core.model.History` first
  and runs the same scan, keeping the caller's ``Transaction`` objects as
  the object layer.

The scan also flags the rows that can hold an INT or read-provenance
anomaly (the paper's footnote-1 pre-pass), so :meth:`int_violations` only
classifies those rows.  The index stores its resolved structures *densely*
(integer transaction positions, interned key ids, flat read tuples).  The
object-facing API — ``committed``, ``iter_read_records``, ``history``,
``final_writer`` returning a ``Transaction`` — materialises lazily and is
only paid for by consumers that actually need objects (the legacy
multigraph path, cycle labeling on the reject path, the solver baselines).
The dense kernel (:mod:`repro.core.csr`) consumes the integer accessors
(:meth:`committed_txn_ids <HistoryIndex>`, :meth:`iter_read_edges`,
:meth:`session_order_id_pairs`, :meth:`real_time_id_pairs`) exclusively.

The intended usage is one :meth:`build` (or :meth:`from_columns`) per
``MTChecker.verify`` call, threaded down through
:func:`~repro.core.checkers.check_ser` / ``check_si`` / ``check_sser`` via
their ``index=`` parameter; every checker also accepts a bare history and
builds the index itself, so standalone use keeps working.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
import zlib
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .. import obs
from . import intcheck
from .model import (
    INITIAL_TXN_ID,
    STATUS_CODES,
    History,
    Transaction,
    TransactionStatus,
    history_from_stream,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..history.columnar import ColumnarHistory

__all__ = [
    "ReadRecord",
    "VersionEntry",
    "HistoryIndex",
    "INDEX_WIRE_FORMAT",
    "INDEX_CACHE_MAGIC",
]

#: Version tag of the dense-index wire format (bumped on layout changes;
#: mismatching cache files are silently rebuilt, never misread).
INDEX_WIRE_FORMAT = "repro-history-index-v2"

#: File magic of the CRC-framed on-disk index cache.
INDEX_CACHE_MAGIC = b"REPROIDX1\n"

#: The flat buffers of the wire format, in serialization order.  Every
#: buffer is the raw bytes of an ``array`` with the given typecode; the
#: dict/list structures of the live index are flattened into parallel
#: columns (`*_has_value` marks entries whose value is ``None``).
_WIRE_BUFFERS: Tuple[Tuple[str, str], ...] = (
    ("txn_ids", "q"),
    ("session_of", "q"),
    ("status_of", "b"),
    ("committed_mask", "b"),
    ("txn_key_offsets", "q"),
    ("txn_key_ids", "i"),
    ("final_kid", "i"),
    ("final_value", "q"),
    ("final_has_value", "b"),
    ("final_pos", "q"),
    ("inter_kid", "i"),
    ("inter_value", "q"),
    ("inter_has_value", "b"),
    ("inter_pos", "q"),
    ("read_reader_pos", "q"),
    ("read_kid", "i"),
    ("read_value", "q"),
    ("read_writer_pos", "q"),
    ("read_writes_key", "b"),
    ("read_written_value", "q"),
    ("read_written_has", "b"),
    ("row_order", "q"),
    ("so_pairs", "q"),
    ("rt_pairs", "q"),
    ("int_candidates", "q"),
)
_WIRE_TYPECODES: Dict[str, str] = dict(_WIRE_BUFFERS)

#: Columnar ``statuses`` codes this module branches on (single source of
#: truth: :data:`repro.core.model.STATUS_CODES`).
_COMMITTED_CODE = STATUS_CODES[TransactionStatus.COMMITTED]
_ABORTED_CODE = STATUS_CODES[TransactionStatus.ABORTED]

#: "No operation on this key yet" marker of the construction scan (``None``
#: is a legitimate read/written value).
_UNSEEN = object()


class ReadRecord(NamedTuple):
    """One resolved external read of a committed transaction.

    Attributes:
        key: the object read.
        value: the value observed.
        writer: the transaction whose *final* write produced ``value`` on
            ``key``, or ``None`` (thin-air / intermediate / own value).
        writes_key: whether the reader also writes ``key`` (the RMW pattern
            that turns the WR edge into a WW edge).
        written_value: the reader's final write on ``key`` (``None`` unless
            ``writes_key``); used by the DIVERGENCE scan.
    """

    key: str
    value: Optional[int]
    writer: Optional[Transaction]
    writes_key: bool
    written_value: Optional[int]


class VersionEntry(NamedTuple):
    """One version of an object: its writer plus the observers of the version."""

    value: Optional[int]
    writer_id: int
    reader_ids: Tuple[int, ...]
    overwriter_ids: Tuple[int, ...]


class HistoryIndex:
    """Per-history shared index: dense interning + resolved provenance.

    Build with :meth:`build` (object histories) or :meth:`from_columns`
    (columnar segments); the class-level :attr:`builds` counter exists so
    tests can assert the "one construction per verify call" invariant.

    Example:
        >>> from repro.core.model import History, Transaction, read, write
        >>> t1 = Transaction(1, [read("x", 0), write("x", 1)])
        >>> index = HistoryIndex.build(
        ...     History.from_transactions([[t1]], initial_keys=["x"]))
        >>> index.key_names, index.num_committed
        (['x'], 1)
        >>> index.final_writer("x", 1).txn_id
        1
    """

    #: Total number of indexes constructed (test instrumentation).
    builds = 0
    #: Total number of indexes rehydrated from the wire format / cache files
    #: (kept separate from :attr:`builds` so tests can assert a cache hit
    #: skipped the construction scan entirely).
    wire_loads = 0

    def __init__(self, history: History) -> None:
        from ..history.columnar import ColumnarHistory  # deferred: columnar builds on core

        started = time.perf_counter()
        transactions = history.transactions(include_initial=True)
        self._init_core()
        # The caller's objects back the object layer; the column encoding is
        # private and scanned in the history's own order (sessions as listed,
        # not re-sorted by id), so dense numbering follows the history.
        self._history = history
        self._transactions = transactions
        self._from_history = True
        self._has_initial = history.initial_transaction is not None
        with _gc_paused():
            self._scan(
                ColumnarHistory.from_transactions(transactions),
                list(range(len(transactions))),
            )
        self._record_build("objects", started)

    @classmethod
    def build(cls, history: History) -> "HistoryIndex":
        """Construct the index for ``history``.

        The history is column-encoded first (rows in
        ``history.transactions()`` order) and indexed by the same single
        scan as :meth:`from_columns`; the caller's ``Transaction`` objects
        are kept as the object layer, so ``committed``, ``final_writer``
        and counterexamples hand back the caller's own objects.
        """
        return cls(history)

    @classmethod
    def from_columns(cls, columns: "ColumnarHistory") -> "HistoryIndex":
        """Construct the index straight from a columnar segment.

        One linear pass over the flat columns — no ``Transaction`` or
        ``Operation`` object is created.  The resulting index is
        structurally identical to ``HistoryIndex.build(columns.to_history())``
        (rows are scanned ``⊥T`` first, then grouped by ascending session
        id, matching :meth:`ColumnarHistory.to_history`); consumers that ask
        for objects (``committed``, ``history``, ``iter_read_records``)
        trigger lazy materialisation from the columns instead.
        """
        self = cls.__new__(cls)
        started = time.perf_counter()
        self._init_core()
        col_txn_ids = list(columns.txn_ids)
        col_sessions = list(columns.session_ids)
        initial_rows: List[int] = []
        session_rows: Dict[int, List[int]] = {}
        for row, txn_id in enumerate(col_txn_ids):
            if txn_id == INITIAL_TXN_ID:
                initial_rows.append(row)
            else:
                session_rows.setdefault(col_sessions[row], []).append(row)
        self._has_initial = bool(initial_rows)
        order = initial_rows
        for sid in sorted(session_rows):
            order.extend(session_rows[sid])
        with _gc_paused():
            self._scan(columns, order)
        self._record_build("columns", started)
        return self

    def _record_build(self, source: str, started: float) -> None:
        type(self).builds += 1
        obs.inc("repro_index_builds_total", source=source)
        obs.observe("repro_index_build_seconds", time.perf_counter() - started)

    def _init_core(self) -> None:
        self._history: Optional[History] = None
        self._columns: Optional["ColumnarHistory"] = None
        self._transactions: Optional[List[Transaction]] = None
        #: Built by :meth:`build`: the columns are a private encoding of the
        #: caller's history, whose own session lists define SO and RT.
        self._from_history = False

        #: Dense id per transaction position: ``txn_ids[dense] == txn_id``.
        self.txn_ids: List[int] = []
        self.txn_dense: Dict[int, int] = {}
        #: Dense id per object key: ``key_names[dense] == key``.
        self.key_names: List[str] = []
        self.key_dense: Dict[str, int] = {}
        #: Per dense transaction: sorted dense key ids it touches.
        self.txn_keys: List[List[int]] = []

        #: Transaction ids of committed transactions (``⊥T`` included),
        #: in scan order — the dense kernel's node universe.
        self.committed_txn_ids: List[int] = []
        self.committed_ids: Set[int] = set()

        # Dense core: positions index the scan order (same order as
        # ``transactions``); reads resolve to writer positions.
        self._committed_pos: List[int] = []
        self._committed_non_initial_pos: List[int] = []
        self._committed_mask = bytearray()
        self._status_of = bytearray()
        self._session_of: List[int] = []
        self._final_pos: Dict[Tuple[int, Optional[int]], int] = {}
        self._intermediate_pos: Dict[Tuple[int, Optional[int]], int] = {}
        #: position -> [(key_id, value, writer_pos | -1, writes_key, written_value)]
        self._reads_dense: Dict[
            int, List[Tuple[int, Optional[int], int, bool, Optional[int]]]
        ] = {}
        #: Ascending positions of committed rows the scan flagged as possibly
        #: holding an INT or read-provenance anomaly; every other row
        #: provably holds none.
        self._int_candidates: List[int] = []
        self._has_initial = False

        # Columnar backend state (lazy object materialisation).
        self._row_order: Optional[List[int]] = None
        self._txn_cache: Dict[int, Transaction] = {}

        # Lazy caches.
        self._committed_txns: Optional[List[Transaction]] = None
        self._committed_non_initial_txns: Optional[List[Transaction]] = None
        self._reads: Dict[int, List[ReadRecord]] = {}
        self._final_writes: Optional[Dict[int, Dict[str, int]]] = None
        self._session_pairs: Optional[List[Tuple[Transaction, Transaction]]] = None
        self._session_id_pairs: Optional[List[Tuple[int, int]]] = None
        self._rt_pairs: Dict[bool, List[Tuple[Transaction, Transaction]]] = {}
        self._rt_id_pairs: Dict[bool, List[Tuple[int, int]]] = {}
        self._int_violations: Optional[list] = None
        self._mt_problems: Optional[list] = None
        self._versions: Optional[Dict[str, List[VersionEntry]]] = None
        self._stream: Optional[List[Transaction]] = None

    # ------------------------------------------------------------------
    # Construction: the one column scan
    # ------------------------------------------------------------------
    def _scan(self, columns: "ColumnarHistory", order: List[int]) -> None:
        """Single pass over the flat columns in ``order``; no objects are
        allocated.

        Interns ids and keys, indexes final/intermediate writes, collects
        each committed row's external reads, and flags the rows that can
        hold an intra-transactional anomaly with the rules of
        :func:`~repro.core.intcheck.ops_int_candidate`: a read whose value
        differs from the last value seen on its key (NotMyLastWrite,
        NotMyOwnWrite, NonRepeatableReads), an own write equal to the
        key's first-read value (FutureRead), and — conservatively — a
        ``None`` first read, whose provenance the read resolution below
        does not cover.

        The ``array`` columns are expanded to plain lists up front —
        ``list(array)`` boxes every element once in C, where indexing the
        array inside the Python loop would box on every access — and the
        per-row op walk zips over list slices, which is the fastest pure-
        Python iteration shape available.
        """
        self._columns = columns
        self._row_order = order
        col_txn_ids = list(columns.txn_ids)
        col_sessions = list(columns.session_ids)
        col_statuses = columns.statuses
        offsets = list(columns.op_offsets)
        kinds = list(columns.op_kinds)
        op_keys = list(columns.op_keys)
        op_values = list(columns.op_values)
        op_has = list(columns.op_has_value)
        col_key_names = columns.key_names

        # Columnar key ids are re-interned in scan order, so key numbering
        # follows the scan, not the segment.
        remap = [-1] * len(col_key_names)
        key_dense = self.key_dense
        key_names = self.key_names
        txn_ids = self.txn_ids
        txn_dense = self.txn_dense
        txn_keys_out = self.txn_keys
        committed_txn_ids = self.committed_txn_ids
        committed_ids = self.committed_ids
        committed_pos = self._committed_pos
        committed_non_initial_pos = self._committed_non_initial_pos
        committed_mask = self._committed_mask
        status_of = self._status_of
        session_of = self._session_of
        intermediate_pos = self._intermediate_pos
        final_pos = self._final_pos
        raw: Dict[int, List[Tuple[int, Optional[int], bool, Optional[int]]]] = {}
        int_flagged: List[int] = []
        # Per-row scratch containers are reused across rows (cleared, not
        # reallocated): fresh containers per row would dominate the scan at
        # six-figure transaction counts.  ``seen`` holds the last value seen
        # per key (its keys are the row's key set), ``first_read`` the value
        # of each key whose first operation is a read.
        seen: Dict[int, Optional[int]] = {}
        last_write: Dict[int, Optional[int]] = {}
        first_read: Dict[int, Optional[int]] = {}
        pos = -1
        for row in order:
            txn_id = col_txn_ids[row]
            status = col_statuses[row]
            committed = status == _COMMITTED_CODE
            is_initial = txn_id == INITIAL_TXN_ID
            pos += 1
            txn_ids.append(txn_id)
            txn_dense[txn_id] = pos
            committed_mask.append(1 if committed else 0)
            status_of.append(status)
            session_of.append(col_sessions[row])
            if committed:
                committed_txn_ids.append(txn_id)
                committed_ids.add(txn_id)
                committed_pos.append(pos)
                if not is_initial:
                    committed_non_initial_pos.append(pos)

            seen.clear()
            last_write.clear()
            first_read.clear()
            flagged = False
            reads: Optional[List[Tuple[int, Optional[int]]]] = None
            lo, hi = offsets[row], offsets[row + 1]
            for kind, ckid, boxed, has in zip(
                kinds[lo:hi], op_keys[lo:hi], op_values[lo:hi], op_has[lo:hi]
            ):
                kid = remap[ckid]
                if kid < 0:
                    kid = len(key_names)
                    remap[ckid] = kid
                    key_dense[col_key_names[ckid]] = kid
                    key_names.append(col_key_names[ckid])
                value: Optional[int] = boxed if has else None
                if kind:  # write
                    if kid in last_write:
                        intermediate_pos[(kid, last_write[kid])] = pos
                    last_write[kid] = value
                    seen[kid] = value
                    if first_read and first_read.get(kid, _UNSEEN) == value:
                        flagged = True  # FutureRead
                    continue
                prev = seen.get(kid, _UNSEEN)
                seen[kid] = value
                if prev is _UNSEEN:
                    first_read[kid] = value
                    if value is None:
                        flagged = True
                    elif reads is None:
                        reads = [(kid, value)]
                    else:
                        reads.append((kid, value))
                elif prev != value:
                    flagged = True
                    # After only ``None`` reads of the key, the first valued
                    # read is still the row's external read of it (the row is
                    # flagged already, so ``first_read`` may be overwritten).
                    if (
                        value is not None
                        and kid not in last_write
                        and first_read[kid] is None
                    ):
                        first_read[kid] = value
                        if reads is None:
                            reads = [(kid, value)]
                        else:
                            reads.append((kid, value))
            for kid, value in last_write.items():
                final_pos[(kid, value)] = pos
            if committed and not is_initial:
                if flagged:
                    int_flagged.append(pos)
                if reads is not None:
                    raw[pos] = [
                        (kid, value, kid in last_write, last_write.get(kid))
                        for kid, value in reads
                    ]
            txn_keys_out.append(sorted(seen))
        provenance_flagged = self._resolve_reads(raw)
        self._int_candidates = sorted(set(int_flagged).union(provenance_flagged))

    def _resolve_reads(
        self, raw: Dict[int, List[Tuple[int, Optional[int], bool, Optional[int]]]]
    ) -> List[int]:
        """Attribute every external read to its writer position.

        Returns the positions of rows with a read that resolves to no final
        writer, to the reader itself, or to an aborted writer — the only
        rows that can hold a ThinAir, Intermediate or AbortedRead anomaly.
        """
        final_pos = self._final_pos
        status_of = self._status_of
        reads_dense = self._reads_dense
        flagged: List[int] = []
        for pos, entries in raw.items():
            resolved = [
                (kid, value, final_pos.get((kid, value), -1), writes_key, written)
                for kid, value, writes_key, written in entries
            ]
            reads_dense[pos] = resolved
            for entry in resolved:
                writer = entry[2]
                if writer < 0 or writer == pos or status_of[writer] == _ABORTED_CODE:
                    flagged.append(pos)
                    break
        return flagged

    # ------------------------------------------------------------------
    # Object layer (lazy for columnar-built indexes)
    # ------------------------------------------------------------------
    def _txn_at(self, pos: int) -> Transaction:
        """The transaction at dense position ``pos`` (materialised lazily)."""
        if self._transactions is not None:
            return self._transactions[pos]
        txn = self._txn_cache.get(pos)
        if txn is None:
            assert self._columns is not None and self._row_order is not None
            txn = self._columns.transaction_at(self._row_order[pos])
            self._txn_cache[pos] = txn
        return txn

    @property
    def transactions(self) -> List[Transaction]:
        """Every transaction, including ``⊥T`` and aborted ones (scan order)."""
        if self._transactions is None:
            self._transactions = [
                self._txn_at(pos) for pos in range(len(self.txn_ids))
            ]
        return self._transactions

    @property
    def history(self) -> History:
        """The indexed history (materialised from the columns on demand).

        Built with the canonical :func:`~repro.core.model.history_from_stream`
        grouping over the (cached) materialised transactions, so the result
        — and the identity of its ``Transaction`` objects — is consistent
        with every other accessor of this index.
        """
        if self._history is None:
            self._history = history_from_stream(self.transactions)
        return self._history

    @property
    def columns(self) -> Optional["ColumnarHistory"]:
        """The backing columnar segment, when built via :meth:`from_columns`."""
        return None if self._from_history else self._columns

    @property
    def committed(self) -> List[Transaction]:
        """All committed transactions including ``⊥T`` (scan order)."""
        if self._committed_txns is None:
            self._committed_txns = [self._txn_at(p) for p in self._committed_pos]
        return self._committed_txns

    @property
    def committed_non_initial(self) -> List[Transaction]:
        """Committed transactions excluding ``⊥T`` (scan order)."""
        if self._committed_non_initial_txns is None:
            self._committed_non_initial_txns = [
                self._txn_at(p) for p in self._committed_non_initial_pos
            ]
        return self._committed_non_initial_txns

    # ------------------------------------------------------------------
    # Write index (API-compatible with intcheck.WriteIndex)
    # ------------------------------------------------------------------
    def final_writer(self, key: str, value: Optional[int]) -> Optional[Transaction]:
        """The transaction whose final write on ``key`` has ``value``."""
        kid = self.key_dense.get(key)
        if kid is None:
            return None
        pos = self._final_pos.get((kid, value))
        return None if pos is None else self._txn_at(pos)

    def intermediate_writer(self, key: str, value: Optional[int]) -> Optional[Transaction]:
        """The transaction that wrote ``value`` to ``key`` as a non-final write."""
        kid = self.key_dense.get(key)
        if kid is None:
            return None
        pos = self._intermediate_pos.get((kid, value))
        return None if pos is None else self._txn_at(pos)

    # ------------------------------------------------------------------
    # Resolved provenance and version chains
    # ------------------------------------------------------------------
    def external_reads(self, txn_id: int) -> List[ReadRecord]:
        """The resolved external reads of a committed transaction."""
        records = self._reads.get(txn_id)
        if records is None:
            pos = self.txn_dense.get(txn_id)
            dense = None if pos is None else self._reads_dense.get(pos)
            if dense is None:
                return []
            key_names = self.key_names
            records = [
                ReadRecord(
                    key=key_names[kid],
                    value=value,
                    writer=self._txn_at(writer_pos) if writer_pos >= 0 else None,
                    writes_key=writes_key,
                    written_value=written_value,
                )
                for kid, value, writer_pos, writes_key, written_value in dense
            ]
            self._reads[txn_id] = records
        return records

    def final_writes(self, txn_id: int) -> Dict[str, int]:
        """The final ``{key: value}`` writes of a transaction."""
        return self._ensure_final_writes().get(txn_id, {})

    def _ensure_final_writes(self) -> Dict[int, Dict[str, int]]:
        if self._final_writes is None:
            cols = self._columns
            assert cols is not None and self._row_order is not None
            key_names = cols.key_names
            offsets = cols.op_offsets
            kinds = cols.op_kinds
            op_keys = cols.op_keys
            op_values = cols.op_values
            op_has = cols.op_has_value
            final_writes: Dict[int, Dict[str, int]] = {}
            for pos, row in enumerate(self._row_order):
                finals: Dict[str, int] = {}
                for op in range(offsets[row], offsets[row + 1]):
                    if kinds[op] and op_has[op]:
                        finals[key_names[op_keys[op]]] = op_values[op]
                final_writes[self.txn_ids[pos]] = finals
            self._final_writes = final_writes
        return self._final_writes

    def iter_read_records(self) -> Iterator[Tuple[Transaction, ReadRecord]]:
        """All resolved reads in (transaction, program) scan order.

        Materialises ``Transaction`` objects on a columnar-built index; the
        dense kernel uses :meth:`iter_read_edges` instead.
        """
        txn_ids = self.txn_ids
        for pos in self._committed_non_initial_pos:
            txn = self._txn_at(pos)
            for record in self.external_reads(txn_ids[pos]):
                yield txn, record

    def iter_read_edges(self) -> Iterator[Tuple[int, int, int, bool, bool]]:
        """Resolved reads as flat tuples — the dense kernel's input.

        Yields ``(reader_txn_id, key_id, writer_txn_id, writer_committed,
        reader_writes_key)`` for every read whose writer exists, in the same
        order as :meth:`iter_read_records`.  No objects are materialised.
        """
        txn_ids = self.txn_ids
        mask = self._committed_mask
        reads_dense = self._reads_dense
        for pos in self._committed_non_initial_pos:
            entries = reads_dense.get(pos)
            if not entries:
                continue
            reader = txn_ids[pos]
            for kid, _value, writer_pos, writes_key, _written in entries:
                if writer_pos < 0:
                    continue
                yield reader, kid, txn_ids[writer_pos], bool(mask[writer_pos]), writes_key

    def iter_read_tuples(
        self,
    ) -> Iterator[Tuple[int, str, Optional[int], Optional[int], bool, Optional[int]]]:
        """Resolved reads as plain tuples (object-free DIVERGENCE input).

        Yields ``(reader_txn_id, key, value, writer_txn_id_or_None,
        reader_writes_key, written_value)`` in scan order.
        """
        txn_ids = self.txn_ids
        key_names = self.key_names
        reads_dense = self._reads_dense
        for pos in self._committed_non_initial_pos:
            entries = reads_dense.get(pos)
            if not entries:
                continue
            reader = txn_ids[pos]
            for kid, value, writer_pos, writes_key, written_value in entries:
                yield (
                    reader,
                    key_names[kid],
                    value,
                    txn_ids[writer_pos] if writer_pos >= 0 else None,
                    writes_key,
                    written_value,
                )

    def version_chains(self) -> Dict[str, List[VersionEntry]]:
        """Per-key version chains: writer plus readers/overwriters per version.

        Versions appear in the order their committed writers were scanned;
        only committed writers anchor a version (reads of aborted or unborn
        values are provenance anomalies, not versions).
        """
        if self._versions is None:
            txn_ids = self.txn_ids
            key_names = self.key_names
            mask = self._committed_mask
            readers: Dict[Tuple[str, Optional[int]], List[int]] = {}
            overwriters: Dict[Tuple[str, Optional[int]], List[int]] = {}
            for pos in self._committed_non_initial_pos:
                for kid, value, writer_pos, writes_key, _written in self._reads_dense.get(
                    pos, ()
                ):
                    if writer_pos < 0 or not mask[writer_pos] or writer_pos == pos:
                        continue
                    slot = (key_names[kid], value)
                    readers.setdefault(slot, []).append(txn_ids[pos])
                    if writes_key:
                        overwriters.setdefault(slot, []).append(txn_ids[pos])
            final_writes = self._ensure_final_writes()
            chains: Dict[str, List[VersionEntry]] = {}
            for pos in self._committed_pos:
                txn_id = txn_ids[pos]
                for key, value in final_writes.get(txn_id, {}).items():
                    chains.setdefault(key, []).append(
                        VersionEntry(
                            value=value,
                            writer_id=txn_id,
                            reader_ids=tuple(readers.get((key, value), ())),
                            overwriter_ids=tuple(overwriters.get((key, value), ())),
                        )
                    )
            self._versions = chains
        return self._versions

    # ------------------------------------------------------------------
    # Orders
    # ------------------------------------------------------------------
    @property
    def session_order_pairs(self) -> List[Tuple[Transaction, Transaction]]:
        """Adjacent committed session-order pairs (cached)."""
        if self._session_pairs is None:
            if self._from_history:
                self._session_pairs = self.history.session_order()
            else:
                self._session_pairs = [
                    (self.transaction(a), self.transaction(b))
                    for a, b in self.session_order_id_pairs()
                ]
        return self._session_pairs

    def session_order_id_pairs(self) -> List[Tuple[int, int]]:
        """Adjacent committed session-order pairs as transaction ids (cached)."""
        if self._session_id_pairs is None:
            if self._from_history:
                self._session_id_pairs = [
                    (a.txn_id, b.txn_id) for a, b in self.session_order_pairs
                ]
            else:
                pairs: List[Tuple[int, int]] = []
                txn_ids = self.txn_ids
                session_of = self._session_of
                has_initial = self._has_initial
                last_in_session: Dict[int, int] = {}
                # Dense order groups sessions contiguously (ascending id),
                # so streaming the positions yields the same pair order as
                # History.session_order's session-by-session walk.
                for pos in self._committed_non_initial_pos:
                    sid = session_of[pos]
                    prev = last_in_session.get(sid)
                    if prev is None:
                        if has_initial:
                            pairs.append((INITIAL_TXN_ID, txn_ids[pos]))
                    else:
                        pairs.append((prev, txn_ids[pos]))
                    last_in_session[sid] = txn_ids[pos]
                self._session_id_pairs = pairs
        return self._session_id_pairs

    def real_time_pairs(self, reduced: bool = True) -> List[Tuple[Transaction, Transaction]]:
        """Committed real-time order pairs (cached per ``reduced`` flag)."""
        if reduced not in self._rt_pairs:
            if self._from_history:
                self._rt_pairs[reduced] = self.history.real_time_order(reduced=reduced)
            else:
                self._rt_pairs[reduced] = [
                    (self.transaction(a), self.transaction(b))
                    for a, b in self.real_time_id_pairs(reduced=reduced)
                ]
        return self._rt_pairs[reduced]

    def real_time_id_pairs(self, reduced: bool = True) -> List[Tuple[int, int]]:
        """Committed real-time order pairs as transaction ids (cached)."""
        if reduced not in self._rt_id_pairs:
            if self._from_history:
                self._rt_id_pairs[reduced] = [
                    (a.txn_id, b.txn_id)
                    for a, b in self.real_time_pairs(reduced=reduced)
                ]
            else:
                self._rt_id_pairs[reduced] = self._rt_id_pairs_from_columns(reduced)
        return self._rt_id_pairs[reduced]

    def _rt_id_pairs_from_columns(self, reduced: bool) -> List[Tuple[int, int]]:
        """Mirror ``History.real_time_order`` over the timestamp columns."""
        cols = self._columns
        assert cols is not None and self._row_order is not None
        txn_ids = self.txn_ids
        # (start, finish, txn_id) of committed, timestamped, non-initial
        # transactions in scan order — the same entry order the object path
        # feeds interval_order_reduction, so stable sorts tie-break alike.
        entries: List[Tuple[float, float, int]] = []
        for pos in self._committed_non_initial_pos:
            row = self._row_order[pos]
            start, finish = cols.timestamps_at(row)
            if start is None or finish is None:
                continue
            entries.append((start, finish, txn_ids[pos]))
        if reduced:
            pairs = _interval_reduction_ids(entries)
        else:
            pairs = [
                (a[2], b[2])
                for a in entries
                for b in entries
                if a is not b and a[1] < b[0]
            ]
        if self._has_initial and entries:
            first = min(entries, key=lambda e: e[0])
            pairs.append((INITIAL_TXN_ID, first[2]))
        return pairs

    def stream_order(self) -> List[Transaction]:
        """The canonical streaming arrival order (cached).

        Same contract as :func:`repro.core.incremental.stream_order`: ``⊥T``
        first, sessions merged by finish timestamp with a round-robin
        fallback, per-session order preserved.
        """
        if self._stream is None:
            from .incremental import stream_order  # local import: no cycle at module load

            self._stream = list(stream_order(self.history))
        return self._stream

    # ------------------------------------------------------------------
    # Cached verdict pre-passes
    # ------------------------------------------------------------------
    def int_violations(self) -> list:
        """The INT/read-provenance pre-pass verdict (cached).

        Only the rows the construction scan flagged are materialised and
        classified by :func:`repro.core.intcheck._check_transaction`; every
        other row provably holds no violation.  A clean history therefore
        costs nothing here, and the violations (kinds, transaction ids,
        keys, order) are exactly those of the reference pre-pass
        :func:`~repro.core.intcheck.check_internal_consistency`.
        """
        if self._int_violations is None:
            violations: list = []
            for pos in self._int_candidates:
                violations.extend(intcheck._check_transaction(self._txn_at(pos), self))
            self._int_violations = violations
        return self._int_violations

    def mt_problems(self) -> list:
        """The MT-history validation verdict (cached).

        Materialises the object history on a columnar-built index (strict
        MT validation is opt-in and not on the accept path).
        """
        if self._mt_problems is None:
            from .mini import validate_mt_history

            self._mt_problems = validate_mt_history(self.history)
        return self._mt_problems

    # ------------------------------------------------------------------
    # Wire format and on-disk cache
    # ------------------------------------------------------------------
    def to_wire(self) -> Dict[str, Any]:
        """Flatten the dense core into compact, picklable buffers.

        The result carries everything :meth:`from_columns` would have
        derived — interning, version-chain write slots, resolved read
        edges, the rows flagged for the INT pre-pass, plus the (forced) SO
        and reduced-RT pair caches, which are the expensive per-check
        passes worth shipping/caching.  The object layer is *not*
        serialized: a rehydrated index materialises objects lazily from the
        columns handed to :meth:`from_wire`.  An index made by :meth:`build`
        ships no row order — its columns are a private encoding — so its
        wire cannot have columns attached.
        """
        buffers: Dict[str, array] = {
            name: array(code) for name, code in _WIRE_BUFFERS
        }
        buffers["txn_ids"].extend(self.txn_ids)
        buffers["session_of"].extend(self._session_of)
        buffers["status_of"].frombytes(bytes(self._status_of))
        buffers["committed_mask"].frombytes(bytes(self._committed_mask))

        offsets = buffers["txn_key_offsets"]
        offsets.append(0)
        key_ids = buffers["txn_key_ids"]
        total = 0
        for kids in self.txn_keys:
            key_ids.extend(kids)
            total += len(kids)
            offsets.append(total)

        for prefix, slots in (
            ("final", self._final_pos),
            ("inter", self._intermediate_pos),
        ):
            kid_col = buffers[f"{prefix}_kid"]
            val_col = buffers[f"{prefix}_value"]
            has_col = buffers[f"{prefix}_has_value"]
            pos_col = buffers[f"{prefix}_pos"]
            for (kid, value), pos in slots.items():
                kid_col.append(kid)
                val_col.append(0 if value is None else value)
                has_col.append(0 if value is None else 1)
                pos_col.append(pos)

        reader_col = buffers["read_reader_pos"]
        rkid_col = buffers["read_kid"]
        rval_col = buffers["read_value"]
        writer_col = buffers["read_writer_pos"]
        rmw_col = buffers["read_writes_key"]
        written_col = buffers["read_written_value"]
        written_has = buffers["read_written_has"]
        for pos in sorted(self._reads_dense):
            for kid, value, writer_pos, writes_key, written in self._reads_dense[pos]:
                reader_col.append(pos)
                rkid_col.append(kid)
                rval_col.append(value)
                writer_col.append(writer_pos)
                rmw_col.append(1 if writes_key else 0)
                written_col.append(0 if written is None else written)
                written_has.append(0 if written is None else 1)

        has_row_order = self._row_order is not None and not self._from_history
        if has_row_order:
            buffers["row_order"].extend(self._row_order)
        for a, b in self.session_order_id_pairs():
            buffers["so_pairs"].append(a)
            buffers["so_pairs"].append(b)
        for a, b in self.real_time_id_pairs(reduced=True):
            buffers["rt_pairs"].append(a)
            buffers["rt_pairs"].append(b)
        buffers["int_candidates"].extend(self._int_candidates)
        return {
            "format": INDEX_WIRE_FORMAT,
            "key_names": list(self.key_names),
            "has_initial": self._has_initial,
            "has_row_order": has_row_order,
            "buffers": {name: buf.tobytes() for name, buf in buffers.items()},
        }

    @classmethod
    def from_wire(
        cls,
        wire: Dict[str, Any],
        columns: Optional["ColumnarHistory"] = None,
    ) -> "HistoryIndex":
        """Rehydrate an index from :meth:`to_wire` buffers — no history scan.

        ``columns`` re-attaches the backing segment so the lazy object
        layer (counterexample labeling, classifying flagged INT rows,
        strict MT validation) keeps working; it must be the exact segment
        the wire was derived from.  Without columns the dense accessors —
        which is all the CSR kernel and the SSER merger consume — remain
        available.
        """
        if wire.get("format") != INDEX_WIRE_FORMAT:
            raise ValueError(f"unsupported index wire format: {wire.get('format')!r}")
        if columns is not None and not wire["has_row_order"]:
            raise ValueError(
                "cannot attach columns: the wire index was built from an "
                "object history and carries no column row order"
            )
        with _gc_paused():
            return cls._decode_wire(wire, columns)

    @classmethod
    def _decode_wire(
        cls,
        wire: Dict[str, Any],
        columns: Optional["ColumnarHistory"],
    ) -> "HistoryIndex":
        cols: Dict[str, array] = {}
        for name, code in _WIRE_BUFFERS:
            buf = array(code)
            buf.frombytes(wire["buffers"][name])
            cols[name] = buf

        self = cls.__new__(cls)
        type(self).wire_loads += 1
        obs.inc("repro_index_wire_loads_total")
        self._init_core()
        self._columns = columns

        self.txn_ids = list(cols["txn_ids"])
        self.txn_dense = {txn_id: pos for pos, txn_id in enumerate(self.txn_ids)}
        self.key_names = list(wire["key_names"])
        self.key_dense = {name: kid for kid, name in enumerate(self.key_names)}
        self._session_of = list(cols["session_of"])
        self._status_of = bytearray(cols["status_of"].tobytes())
        self._committed_mask = bytearray(cols["committed_mask"].tobytes())
        self._has_initial = bool(wire["has_initial"])

        offsets = cols["txn_key_offsets"]
        key_ids = list(cols["txn_key_ids"])
        self.txn_keys = [
            key_ids[offsets[i]:offsets[i + 1]] for i in range(len(offsets) - 1)
        ]

        for pos, (txn_id, committed) in enumerate(
            zip(self.txn_ids, self._committed_mask)
        ):
            if committed:
                self.committed_txn_ids.append(txn_id)
                self.committed_ids.add(txn_id)
                self._committed_pos.append(pos)
                if txn_id != INITIAL_TXN_ID:
                    self._committed_non_initial_pos.append(pos)

        for prefix, slots in (
            ("final", self._final_pos),
            ("inter", self._intermediate_pos),
        ):
            for kid, value, has, pos in zip(
                cols[f"{prefix}_kid"],
                cols[f"{prefix}_value"],
                cols[f"{prefix}_has_value"],
                cols[f"{prefix}_pos"],
            ):
                slots[(kid, value if has else None)] = pos

        # ``to_wire`` emits read rows grouped by ascending reader position,
        # so one bucket lookup per run (not per row) suffices.
        reads_dense = self._reads_dense
        current_pos = -1
        bucket: List[Tuple[int, int, int, bool, Optional[int]]] = []
        for pos, kid, value, writer_pos, writes_key, written, has_written in zip(
            cols["read_reader_pos"],
            cols["read_kid"],
            cols["read_value"],
            cols["read_writer_pos"],
            cols["read_writes_key"],
            cols["read_written_value"],
            cols["read_written_has"],
        ):
            if pos != current_pos:
                bucket = reads_dense.setdefault(pos, [])
                current_pos = pos
            bucket.append(
                (kid, value, writer_pos, bool(writes_key), written if has_written else None)
            )

        if wire["has_row_order"]:
            self._row_order = list(cols["row_order"])
        self._int_candidates = list(cols["int_candidates"])
        so = list(cols["so_pairs"])
        self._session_id_pairs = list(zip(so[0::2], so[1::2]))
        rt = list(cols["rt_pairs"])
        self._rt_id_pairs[True] = list(zip(rt[0::2], rt[1::2]))
        return self

    def save_cache(self, path: Union[str, Path], *, fingerprint: Dict[str, Any]) -> Path:
        """Persist the wire form as a CRC-stamped cache file (atomic write).

        ``fingerprint`` identifies the history snapshot the index was built
        from (e.g. the epoch-log manifest's txn-id range and per-epoch
        CRCs); :meth:`load_cache` only returns an index when the
        fingerprint matches exactly, so a grown or rewritten history can
        never be served a stale index.
        """
        wire = self.to_wire()
        buffers = wire["buffers"]
        payload = b"".join(buffers[name] for name, _code in _WIRE_BUFFERS)
        header = json.dumps(
            {
                "format": INDEX_WIRE_FORMAT,
                "byteorder": sys.byteorder,
                "fingerprint": fingerprint,
                "key_names": wire["key_names"],
                "has_initial": wire["has_initial"],
                "has_row_order": wire["has_row_order"],
                "buffers": [
                    [name, code, len(buffers[name])] for name, code in _WIRE_BUFFERS
                ],
                "crc32": zlib.crc32(payload),
                "payload_bytes": len(payload),
            },
            separators=(",", ":"),
            sort_keys=True,
        ).encode("utf-8")
        path = Path(path)
        tmp = path.with_name(f".{path.name}.tmp")
        with open(tmp, "wb") as fh:
            fh.write(INDEX_CACHE_MAGIC + header + b"\n" + payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return path

    @classmethod
    def load_cache(
        cls,
        path: Union[str, Path],
        *,
        fingerprint: Dict[str, Any],
        columns: Optional["ColumnarHistory"] = None,
    ) -> Optional["HistoryIndex"]:
        """Load a :meth:`save_cache` file, or ``None`` when it cannot be used.

        Every failure mode — missing file, foreign byte order, truncated
        payload, CRC mismatch, or a fingerprint that no longer matches the
        history — invalidates the cache silently: the caller rebuilds from
        columns and (best-effort) rewrites the cache.
        """
        index = cls._load_cache(path, fingerprint=fingerprint, columns=columns)
        obs.inc(
            "repro_index_cache_requests_total",
            outcome="hit" if index is not None else "miss",
        )
        return index

    @classmethod
    def _load_cache(
        cls,
        path: Union[str, Path],
        *,
        fingerprint: Dict[str, Any],
        columns: Optional["ColumnarHistory"] = None,
    ) -> Optional["HistoryIndex"]:
        try:
            blob = Path(path).read_bytes()
        except OSError:
            return None
        if not blob.startswith(INDEX_CACHE_MAGIC):
            return None
        header_line, _, payload = blob[len(INDEX_CACHE_MAGIC):].partition(b"\n")
        try:
            header = json.loads(header_line)
        except ValueError:
            return None
        if (
            header.get("format") != INDEX_WIRE_FORMAT
            or header.get("byteorder") != sys.byteorder
            or header.get("fingerprint") != fingerprint
            or header.get("buffers") is None
            or len(payload) != header.get("payload_bytes")
            or zlib.crc32(payload) != header.get("crc32")
        ):
            return None
        expected = [[name, code] for name, code in _WIRE_BUFFERS]
        recorded = [entry[:2] for entry in header["buffers"]]
        if recorded != expected:
            return None
        view = memoryview(payload)
        buffers: Dict[str, Any] = {}
        offset = 0
        for name, _code, nbytes in header["buffers"]:
            buffers[name] = view[offset:offset + nbytes]
            offset += nbytes
        if offset != len(payload):
            return None
        try:
            return cls.from_wire(
                {
                    "format": INDEX_WIRE_FORMAT,
                    "key_names": header["key_names"],
                    "has_initial": header["has_initial"],
                    "has_row_order": header["has_row_order"],
                    "buffers": buffers,
                },
                columns=columns,
            )
        except (ValueError, KeyError):
            return None

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    @property
    def num_committed(self) -> int:
        """Committed transactions excluding ``⊥T``."""
        return len(self._committed_non_initial_pos)

    def transaction(self, txn_id: int) -> Transaction:
        return self._txn_at(self.txn_dense[txn_id])

    def session_of(self, pos: int) -> int:
        """The session id of the transaction at dense position ``pos``."""
        return self._session_of[pos]

    def column_row(self, pos: int) -> int:
        """The backing column row of dense position ``pos`` (columnar only)."""
        assert self._row_order is not None, "index was not built from columns"
        return self._row_order[pos]

    def is_committed_pos(self, pos: int) -> bool:
        """Whether the transaction at dense position ``pos`` committed."""
        return bool(self._committed_mask[pos])

    def keys_of(self, txn_id: int) -> List[str]:
        """The object keys a transaction touches (via the dense interning)."""
        return [self.key_names[k] for k in self.txn_keys[self.txn_dense[txn_id]]]

    def __repr__(self) -> str:
        return (
            f"HistoryIndex(transactions={len(self.txn_ids)}, "
            f"keys={len(self.key_names)}, committed={self.num_committed})"
        )


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause automatic garbage collection for one allocation burst.

    Index construction and rehydration allocate millions of small
    containers and create no garbage and no reference cycles, so automatic
    collection only re-walks the live heap: gen-2 passes over a large heap
    (a 100k-transaction segment alone is millions of objects) cost about a
    third of a construction scan at that scale.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _interval_reduction_ids(
    entries: Sequence[Tuple[float, float, int]],
) -> List[Tuple[int, int]]:
    """Transitive reduction of the interval order over ``(start, finish, id)``.

    The id-level mirror of :func:`repro.core.model.interval_order_reduction`
    — same algorithm, same stable tie-breaking (both sorts key on a single
    timestamp, so equal stamps keep their scan order), producing the same
    pair sequence the object path produces.
    """
    if not entries:
        return []
    by_finish = sorted(entries, key=lambda e: e[1])
    by_start = sorted(entries, key=lambda e: e[0])

    pairs: List[Tuple[int, int]] = []
    finish_idx = 0
    max_start_of_preds = float("-inf")
    preds: List[Tuple[float, float, int]] = []
    for b in by_start:
        while finish_idx < len(by_finish) and by_finish[finish_idx][1] < b[0]:
            cand = by_finish[finish_idx]
            preds.append(cand)
            if cand[0] > max_start_of_preds:
                max_start_of_preds = cand[0]
            finish_idx += 1
        if not preds:
            continue
        preds = [a for a in preds if a[1] >= max_start_of_preds]
        for a in preds:
            pairs.append((a[2], b[2]))
    return pairs
