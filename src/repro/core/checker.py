"""The MTChecker facade: the public entry point of the library.

``MTChecker`` bundles the three verification components of the paper's MTC
tool (MTC-SSER, MTC-SER, MTC-SI) plus the linear-time linearizability
checker for lightweight-transaction histories behind a single ``verify``
call, mirroring Step 4 of the black-box checking workflow (Figure 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Union

from .. import obs
from ..obs.report import VerifyReport
from .checkers import GRAPH_CHECKED_LEVELS, check_ser, check_si, check_sser
from .incremental import CheckerSession
from .index import HistoryIndex
from .lwt import LWTHistory, check_linearizability
from .mini import validate_mt_history
from .model import History
from .result import CheckResult, IsolationLevel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..history.columnar import ColumnarHistory

__all__ = ["MTChecker"]


class MTChecker:
    """End-to-end verifier for mini-transaction histories.

    Example:
        >>> from repro import MTChecker, IsolationLevel
        >>> from repro.core.anomalies import anomaly_history
        >>> checker = MTChecker()
        >>> result = checker.verify(anomaly_history("LostUpdate"),
        ...                         IsolationLevel.SNAPSHOT_ISOLATION)
        >>> result.satisfied
        False

    Args:
        strict_mt: reject inputs that are not valid mini-transaction
            histories (non-MT transactions or duplicate written values)
            instead of checking them on a best-effort basis.
        transitive_ww: use the unoptimized BUILDDEPENDENCY variant that
            materialises the transitive closure of the WW edges.
        workers: ``None`` (the default) runs the classic single-pass serial
            pipeline.  Any integer ``>= 1`` routes batch verification through
            the sharded pipeline of :mod:`repro.parallel`: the history is
            split into key-connected shards, each shard is checked
            independently (``workers`` OS processes when ``> 1``, inline when
            ``1``), and the verdicts are merged.  Sharded verdicts equal
            serial verdicts on every history, and ``workers=1`` vs
            ``workers=k`` produce *identical* results — only where the shard
            checks execute changes.
        dense: run batch graph construction and acyclicity on the
            array-native CSR kernel (:mod:`repro.core.csr`, the default).
            ``dense=False`` selects the legacy labeled-multigraph path;
            verdicts, anomaly kinds, and counterexample cycles are
            identical either way (enforced by ``tests/test_csr.py``).
    """

    def __init__(
        self,
        *,
        strict_mt: bool = False,
        transitive_ww: bool = False,
        workers: Optional[int] = None,
        dense: bool = True,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be a positive process count (or None)")
        self.strict_mt = strict_mt
        self.transitive_ww = transitive_ww
        self.workers = workers
        self.dense = dense

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(
        self,
        history: Union[History, LWTHistory, "ColumnarHistory"],
        level: IsolationLevel,
        *,
        report: bool = False,
    ) -> Union[CheckResult, VerifyReport]:
        """Verify ``history`` against ``level`` and return a :class:`CheckResult`.

        For plain histories the shared :class:`HistoryIndex` is built exactly
        once here and threaded through every stage of the chosen checker —
        MT validation, the INT pre-pass, the DIVERGENCE scan, and
        BUILDDEPENDENCY all consume the same index.

        A :class:`~repro.history.columnar.ColumnarHistory` segment is
        accepted in place of an object history: the index is then built
        column-natively (:meth:`HistoryIndex.from_columns`) and the accept
        path — pre-passes, BUILDDEPENDENCY, acyclicity, and parallel shard
        dispatch — runs without materialising ``Transaction`` objects.

        With ``report=True`` the check runs under a scoped telemetry
        registry and returns a :class:`~repro.obs.report.VerifyReport` —
        the same :class:`CheckResult` plus phase timings, graph sizes, and
        cache/executor counters recorded while producing it (rendered by
        ``repro check -v``).

        Raises:
            TypeError: ``history`` is not a ``History``, ``LWTHistory`` or
                ``ColumnarHistory``.
        """
        if report:
            with obs.scoped() as reg:
                result = self._verify(history, level)
            return VerifyReport(result=result, metrics=reg.snapshot())
        return self._verify(history, level)

    def _verify(
        self,
        history: Union[History, LWTHistory, "ColumnarHistory"],
        level: IsolationLevel,
    ) -> CheckResult:
        from ..history.columnar import ColumnarHistory  # deferred: avoids cycle

        if not isinstance(history, (History, LWTHistory, ColumnarHistory)):
            raise TypeError(
                f"MTChecker.verify expects a History, LWTHistory or "
                f"ColumnarHistory, got {type(history).__name__}"
            )
        if isinstance(history, LWTHistory):
            if level not in (
                IsolationLevel.LINEARIZABILITY,
                IsolationLevel.STRICT_SERIALIZABILITY,
            ):
                raise ValueError(
                    "lightweight-transaction histories are checked against "
                    "linearizability / strict serializability only"
                )
            return check_linearizability(history)

        if level not in GRAPH_CHECKED_LEVELS:
            raise ValueError(f"unsupported isolation level for MTC: {level}")

        columns: Optional[ColumnarHistory] = None
        plain_history: Optional[History]
        if isinstance(history, ColumnarHistory):
            columns = history
            plain_history = None
            with obs.phase("index_build"):
                index = HistoryIndex.from_columns(columns)
        else:
            plain_history = history
            with obs.phase("index_build"):
                index = HistoryIndex.build(history)
        if self.workers is not None:
            from ..parallel import check_parallel  # deferred: parallel builds on core

            return check_parallel(
                plain_history,
                level,
                workers=self.workers,
                strict_mt=self.strict_mt,
                transitive_ww=self.transitive_ww,
                index=index,
                dense=self.dense,
                columns=columns,
            )

        if level is IsolationLevel.SERIALIZABILITY:
            return check_ser(
                plain_history,
                transitive_ww=self.transitive_ww,
                strict_mt=self.strict_mt,
                index=index,
                dense=self.dense,
            )
        if level is IsolationLevel.SNAPSHOT_ISOLATION:
            return check_si(
                plain_history,
                transitive_ww=self.transitive_ww,
                strict_mt=self.strict_mt,
                index=index,
                dense=self.dense,
            )
        return check_sser(
            plain_history,
            transitive_ww=self.transitive_ww,
            strict_mt=self.strict_mt,
            index=index,
            dense=self.dense,
        )

    # Convenience aliases matching the paper's component names.
    def check_ser(self, history: History) -> CheckResult:
        """MTC-SER."""
        return self.verify(history, IsolationLevel.SERIALIZABILITY)

    def check_si(self, history: History) -> CheckResult:
        """MTC-SI."""
        return self.verify(history, IsolationLevel.SNAPSHOT_ISOLATION)

    def check_sser(self, history: History) -> CheckResult:
        """MTC-SSER (general MT histories with timestamps)."""
        return self.verify(history, IsolationLevel.STRICT_SERIALIZABILITY)

    def check_linearizability(self, history: LWTHistory) -> CheckResult:
        """MTC-SSER on lightweight-transaction histories (Algorithm 2)."""
        return self.verify(history, IsolationLevel.LINEARIZABILITY)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def session(
        self,
        level: IsolationLevel,
        *,
        initial_keys: Optional[Iterable[str]] = None,
        window: Optional[int] = None,
    ) -> CheckerSession:
        """Open a streaming verification session (incremental checking).

        Instead of re-verifying a growing history from scratch, a session
        ingests transactions one at a time (or in rounds), extends the
        dependency graph in place, and reports each violation at the exact
        transaction that introduced it — see
        :class:`repro.core.incremental.IncrementalChecker` for the
        algorithmic details and the batch-equivalence invariant.

        Example:
            >>> from repro import MTChecker, IsolationLevel, Transaction
            >>> from repro import read, write
            >>> session = MTChecker().session(IsolationLevel.SERIALIZABILITY,
            ...                               initial_keys=["x"])
            >>> session.ingest(Transaction(1, [read("x", 0), write("x", 1)]))
            []
            >>> session.result().satisfied
            True

        Args:
            level: SER, SI, or SSER (LWT histories are batch-only).
            initial_keys: keys of the synthesised initial transaction ``⊥T``;
                alternatively ingest an explicit initial transaction first.
            window: bounded-window mode — garbage-collect transactions once
                ``window`` newer ones have been ingested (see the module
                docstring of :mod:`repro.core.incremental` for the staleness
                contract).
        """
        return CheckerSession(
            level,
            initial_keys=initial_keys,
            window=window,
            strict_mt=self.strict_mt,
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    @staticmethod
    def is_mt_history(history: History) -> bool:
        """Whether ``history`` meets Definition 9 (MT history, unique values)."""
        return not validate_mt_history(history)
