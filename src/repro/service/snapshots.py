"""Durability: write-ahead activation log + engine checkpoints.

The service survives a ``kill -9`` with *exact* state reconstruction:

* every accepted activation is appended (and flushed) to a write-ahead
  log **before** it is acknowledged or enqueued for the writer;
* periodically the writer thread dumps a checkpoint: the pyramid index
  through :mod:`repro.index.persistence` plus the full metric state
  (decay clock, anchored activeness and similarity stores, node
  strengths) and engine counters;
* recovery = load the newest valid checkpoint + replay the WAL tail
  (entries past the checkpoint's activation count).

Because the whole pipeline is deterministic — seeded RNG, float state
restored bit-for-bit (``json`` round-trips ``repr`` exactly), updates
independent of dict iteration order — the recovered engine's
``clusters()`` output is byte-identical to the crashed process's, which
``tests/test_service.py`` and every ``perfbench`` run both assert.

Checkpoints are crash-safe without directory renames: a checkpoint dir
``checkpoint-<seq>/`` is complete only once its ``MANIFEST`` file exists;
recovery picks the highest-numbered complete checkpoint and ignores
torn ones.  A torn final WAL line (the append that was in flight when
the process died) is skipped on replay.

WAL records carry their own sequence number and a CRC32, so recovery can
tell the three corruption classes apart instead of replaying garbage:

* a torn/corrupt **final** record is the in-flight append a crash tore —
  repaired silently (the client never got the ack, so nothing is lost);
* a corrupt or checksum-failing record **mid-file** is real damage —
  :class:`WalCorruptError`, never a silent skip;
* a *missing* record (a lost page write: the append was acknowledged but
  the bytes never hit the platter) shows up as a sequence gap —
  :class:`WalCorruptError` again, because positional replay after a hole
  would silently diverge from the acknowledged stream.

Since the replication subsystem (:mod:`repro.replica`,
``docs/replication.md``) records additionally carry the **primary epoch**
under which they were written and the client **idempotency key** of the
keyed batch they belong to.  The epoch is the fencing token: a deposed
primary's appends are refused once :meth:`WriteAheadLog.fence` has been
called with a newer epoch, and followers refuse to apply records from an
epoch older than the newest they have seen.  The key lets a restarted
node (or a promoted follower) rebuild the exactly-once dedup map from
its own log, so a client resend straddling a failover never
double-applies an activation.  Both fields ride in the one checksummed
record format, ``seq u v t e<epoch> <key> crc32``; a line of any other
shape is damage.  The fence itself is durable: :meth:`WriteAheadLog.fence`
writes it to ``wal.fence`` beside the log before it returns, and opening
the log re-arms it, so a deposed primary that restarts stays deposed.

Both durability classes expose a ``faults`` attribute (``None`` by
default) consulted via the :mod:`repro.faults` hook contract: disarmed
costs one attribute check; the chaos matrix (``tests/chaos/``) arms it.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import zlib
from array import array
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from ..core.activation import Activation
from ..core.anc import ANCF, ANCO, ANCOR, ANCEngineBase, ANCParams
from ..graph.graph import Graph
from ..index.clustering import ClusterQueryEngine
from ..index.persistence import load_index, save_index
from .errors import Fenced

if TYPE_CHECKING:  # import cycle guard: faults hooks into service, not vice versa
    from ..faults.plan import FaultPlan

PathLike = Union[str, Path]

ENGINE_STATE_VERSION = 1

__all__ = [
    "WriteAheadLog",
    "WalCorruptError",
    "WalRecord",
    "CheckpointCorruptError",
    "CheckpointStore",
    "Recovery",
    "apply_activations",
    "dump_engine_state",
    "engine_signature",
    "restore_engine",
    "recover_to",
    "signature_digest",
]


class WalCorruptError(ValueError):
    """The WAL is damaged beyond a torn tail (mid-file corruption or a
    sequence gap).  Typed so operators/harnesses can distinguish "refuse
    to serve from damaged state" from a programming error."""


class CheckpointCorruptError(ValueError):
    """A checkpoint that claims completeness (MANIFEST present) does not
    deserialize — bit rot after the fsync, not a torn write."""


def apply_activations(engine: ANCEngineBase, acts: List[Activation]) -> None:
    """Feed activations to ``engine`` with *deterministic* batch hooks.

    The live host and crash recovery must drive the engine identically
    or ANCOR's periodic reinforcement (fired from ``on_batch_end``)
    would depend on wall-clock micro-batch boundaries.  This helper
    derives the boundaries from the data instead: ``on_batch_end(t)``
    fires exactly when the stream time advances past ``t``, so any
    partitioning of the same activation sequence produces bit-identical
    engine state.
    """
    for act in acts:
        if act.t > engine.now and engine.activations_processed > 0:
            engine.on_batch_end(engine.now)
        engine.process(act)


# ----------------------------------------------------------------------
# Write-ahead log
# ----------------------------------------------------------------------

def _file_crc(path: Path) -> int:
    """CRC32 of a file's bytes (checkpoint MANIFESTs record these)."""
    with open(path, "rb") as fh:
        return zlib.crc32(fh.read())


class WalRecord(NamedTuple):
    """One decoded WAL entry: the activation plus its replication context.

    ``epoch`` is the primary epoch the record was written under; ``key``
    is the idempotency key of the keyed client batch it belongs to
    (``None`` for un-keyed ingest).
    """

    seq: int
    act: Activation
    epoch: int
    key: Optional[str]


#: Placeholder for "no idempotency key" inside a record (keys themselves
#: are validated to be non-empty and whitespace-free at the protocol
#: boundary, so the bare dash can never collide with a real key).
_NO_KEY = "-"


def _wal_record(
    seq: int, act: Activation, *, epoch: int = 0, key: Optional[str] = None
) -> str:
    """Render one WAL record: ``seq u v t e<epoch> <key> crc32`` + newline."""
    body = f"{seq} {act.u} {act.v} {act.t!r} e{epoch} {key or _NO_KEY}"
    return f"{body} {zlib.crc32(body.encode()):08x}\n"


def _parse_wal_line(line: str) -> Optional[WalRecord]:
    """Decode one WAL line to a :class:`WalRecord`; ``None`` if damaged.

    "Damaged" covers any shape but the seven fields of
    :func:`_wal_record`, unparseable numbers and CRC mismatches — so a
    short write, which leaves only a record's leading fields, is damage
    too.  The *caller* decides whether damage means a benign torn tail
    or corruption, based on where the line sits.
    """
    parts = line.split()
    if len(parts) != 7 or not parts[4].startswith("e"):
        return None
    try:
        if int(parts[6], 16) != zlib.crc32(" ".join(parts[:6]).encode()):
            return None
        return WalRecord(
            int(parts[0]),
            Activation(int(parts[1]), int(parts[2]), float(parts[3])),
            int(parts[4][1:]),
            None if parts[5] == _NO_KEY else parts[5],
        )
    except ValueError:  # anclint: disable=service-exception-discipline — "damaged" is this parser's None return; the caller (replay) maps mid-file damage to WalCorruptError
        return None


class WriteAheadLog:
    """Append-only checksummed activation log with torn-tail tolerance.

    Entries are written in ingest order, which the single-writer host
    guarantees equals apply order, so "the first N entries" always means
    "the N activations the engine has absorbed".  Each record is
    ``seq u v t e<epoch> <key> crc32``; see the module docstring for how
    the three corruption classes are told apart on replay.

    The log owns its node's epoch and fence: :attr:`epoch` is stamped
    into every new record, and :attr:`fence_epoch` (kept durable in
    ``wal.fence`` beside the log) refuses appends from a deposed writer.
    """

    def __init__(self, path: PathLike, *, faults: "Optional[FaultPlan]" = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: Fault-injection hook (:mod:`repro.faults`); ``None`` = disarmed.
        self.faults = faults
        #: Primary epoch stamped into new records (owners bump on promote).
        self.epoch = 0
        self._fence_path = self.path.with_suffix(".fence")
        #: Appends are refused below this epoch once :meth:`fence` is
        #: called; re-armed from ``wal.fence`` when the log is reopened.
        self.fence_epoch = (
            int(self._fence_path.read_text(encoding="utf-8"))
            if self._fence_path.exists()
            else 0
        )
        #: Called with each durably appended :class:`WalRecord` (the
        #: replication tail buffer subscribes here); ``None`` = disarmed.
        self.on_append: Optional[Callable[[WalRecord], None]] = None
        #: Entries in the log (counted on open so appends continue the seq).
        self.entries = self._repair_tail()
        self._fh = open(self.path, "a", encoding="utf-8")

    def _repair_tail(self) -> int:
        """Truncate a torn final line left by a crash; return entry count.

        Without this, the first append after recovery would land *after*
        the torn fragment and turn a benign torn tail into mid-file
        corruption.  Also adopts the tail record's epoch so a restarted
        node keeps stamping the epoch it last wrote under.
        """
        if not self.path.exists():
            return 0
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines and _parse_wal_line(lines[-1]) is None:
            lines.pop()
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in lines))
        if not lines:
            return 0
        last = _parse_wal_line(lines[-1])
        if last is None:
            return len(lines)
        self.epoch = last.epoch
        # Continue from the last *recorded* seq: after a lost page write
        # the line count undercounts acknowledged appends, and reusing a
        # seq would mask the hole that replay must detect.
        return last.seq + 1

    def fence(self, epoch: int) -> None:
        """Refuse future appends below ``epoch`` (the deposed-primary fence).

        Idempotent and monotone: fencing at an older epoch than an
        existing fence is a no-op.  An in-flight handler that already
        passed the server's role check still cannot write — the refusal
        happens at the last possible moment, on the log itself.  The
        fence is on disk before this returns (temp file, fsync, rename),
        so it outlives a restart.
        """
        if epoch <= self.fence_epoch:
            return
        staged = self._fence_path.with_suffix(".fence-new")
        with open(staged, "w", encoding="utf-8") as fh:
            fh.write(f"{epoch}\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(staged, self._fence_path)
        directory = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
        self.fence_epoch = epoch

    def append(self, act: Activation, *, key: Optional[str] = None) -> int:
        """Durably append one activation; returns its sequence number.

        ``key`` is the idempotency key of the keyed batch the activation
        belongs to; it is persisted in the record so the exactly-once
        dedup map survives restarts and replicates to followers.
        """
        if self.epoch < self.fence_epoch:
            raise Fenced(
                f"WAL fenced at epoch {self.fence_epoch}; this writer is "
                f"still at epoch {self.epoch} (deposed primary)",
                epoch=self.epoch,
                fenced_by=self.fence_epoch,
            )
        seq = self.entries
        record = _wal_record(seq, act, epoch=self.epoch, key=key)
        if self.faults is not None:
            action = self.faults.hit("wal.append", seq=seq)
            if action is not None:
                return self._append_faulty(action.kind, seq, record)
        self._fh.write(record)
        self._fh.flush()
        self.entries = seq + 1
        if self.on_append is not None:
            self.on_append(WalRecord(seq, act, self.epoch, key))
        return seq

    def append_record(self, record: WalRecord) -> int:
        """Durably append a record copied *verbatim* from a primary.

        The follower apply path: seq, epoch and key are the primary's,
        so a follower's log is a byte-identical prefix of its primary's
        and a promoted follower continues the same sequence.  A seq that
        does not continue this log is a replication gap
        (:class:`WalCorruptError` — the link discards the chunk and
        refetches); a record from an epoch *older* than the newest this
        log has seen is a deposed primary's write
        (:class:`~repro.service.errors.Fenced` — split-brain protection).
        """
        if record.seq != self.entries:
            raise WalCorruptError(
                f"replication gap: expected seq {self.entries}, "
                f"got {record.seq}"
            )
        floor = max(self.epoch, self.fence_epoch)
        if record.epoch < floor:
            raise Fenced(
                f"replicated record seq {record.seq} carries epoch "
                f"{record.epoch} < {floor}; refusing a deposed primary's write",
                epoch=record.epoch,
                fenced_by=floor,
            )
        self._fh.write(
            _wal_record(record.seq, record.act, epoch=record.epoch, key=record.key)
        )
        self._fh.flush()
        self.epoch = record.epoch
        self.entries = record.seq + 1
        if self.on_append is not None:
            self.on_append(record)
        return record.seq

    def _append_faulty(self, kind: str, seq: int, record: str) -> int:
        """Apply a fired ``wal.append`` injector (see the catalog)."""
        from ..faults.injectors import corrupt_record
        from ..faults.plan import InjectedCrash

        data, crash = corrupt_record(kind, record)
        if data:
            self._fh.write(data)
            self._fh.flush()
        if crash:
            raise InjectedCrash("wal.append", kind, f"crashed appending seq {seq}")
        # fsync-loss: acknowledge as if durable; the hole surfaces on replay.
        self.entries = seq + 1
        return seq

    def close(self) -> None:
        self._fh.close()

    @staticmethod
    def replay_records(path: PathLike, *, skip: int = 0) -> Iterator[WalRecord]:
        """Yield full records with seq >= ``skip``, in order.

        A damaged *final* line (torn by a crash mid-append) is ignored; a
        damaged line elsewhere, or a gap in the sequence numbers (a lost
        page write under an acknowledged append), raises
        :class:`WalCorruptError` — replaying past either would silently
        diverge from the acknowledged stream.
        """
        path = Path(path)
        if not path.exists():
            return
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        expected: Optional[int] = None
        for i, line in enumerate(lines):
            decoded = _parse_wal_line(line)
            if decoded is None:
                if i == len(lines) - 1:
                    return  # torn tail
                raise WalCorruptError(f"corrupt WAL line {i}: {line!r}")
            if expected is not None and decoded.seq != expected:
                raise WalCorruptError(
                    f"WAL sequence gap at line {i}: expected seq {expected}, "
                    f"found {decoded.seq} (a lost write inside the "
                    f"acknowledged stream)"
                )
            expected = decoded.seq + 1
            if decoded.seq >= skip:
                yield decoded

    @staticmethod
    def replay(path: PathLike, *, skip: int = 0) -> Iterator[Activation]:
        """Yield activations with seq >= ``skip`` (see :meth:`replay_records`)."""
        for record in WriteAheadLog.replay_records(path, skip=skip):
            yield record.act


# ----------------------------------------------------------------------
# Engine state (de)hydration
# ----------------------------------------------------------------------

def dump_engine_state(engine: ANCEngineBase) -> Dict[str, object]:
    """Everything beyond the index needed to resurrect ``engine`` exactly.

    Must be called while no writer is mutating the engine (the host runs
    it on the writer thread).
    """
    metric = engine.metric
    clock = metric.clock
    doc: Dict[str, object] = {
        "format": ENGINE_STATE_VERSION,
        "engine": type(engine).__name__,
        "params": asdict(engine.params),
        "activations": engine.activations_processed,
        "clock": {
            "t": clock.now,
            "anchor": clock.anchor,
            "since_rescale": clock._since_rescale,
            "rescale_count": clock._rescale_count,
        },
        "activeness": [
            [u, v, value] for (u, v), value in metric.activeness.store.items_anchored()
        ],
        "similarity": [
            [u, v, value] for (u, v), value in metric.similarity.items_anchored()
        ],
        "strength": list(metric.sigma._strength),
    }
    if isinstance(engine, ANCOR):
        doc["reinforce"] = {
            "interval": engine.reinforce_interval,
            "last": engine._last_reinforce,
        }
    if isinstance(engine, ANCF):
        doc["dirty"] = engine._dirty
    return doc


def restore_engine(
    graph: Graph,
    doc: Dict[str, object],
    index_path: PathLike,
    *,
    faults: "Optional[FaultPlan]" = None,
) -> ANCEngineBase:
    """Rebuild an engine from :func:`dump_engine_state` + a saved index.

    No reinforcement sweep and no Dijkstra runs: the metric stores, node
    strengths and decay clock are restored verbatim and the index comes
    back through :func:`repro.index.persistence.load_index`.  The
    document is the same whether the array engine or the dict reference
    wrote it, so either one's checkpoint restores into the array engine
    (``tests/test_engine_parity.py`` checks both).
    """
    from ..core.metric import SimilarityFunction

    version = doc.get("format") if isinstance(doc, dict) else None
    if version != ENGINE_STATE_VERSION:
        raise ValueError(
            f"unsupported engine-state format {version!r}; this build "
            f"supports version {ENGINE_STATE_VERSION}"
        )
    engines = {"ANCF": ANCF, "ANCO": ANCO, "ANCOR": ANCOR}
    name = doc["engine"]
    if name not in engines:
        raise ValueError(f"unknown engine {name!r} in checkpoint")
    params = ANCParams(**doc["params"])  # type: ignore[arg-type]

    engine = engines[name].__new__(engines[name])  # type: ignore[assignment]
    engine.graph = graph
    engine.params = params
    metric = SimilarityFunction(
        graph,
        lam=params.lam,
        eps=params.eps,
        mu=params.mu,
        rep=params.rep,
        rescale_every=params.rescale_every,
        initialize=False,
    )
    clock_doc = doc["clock"]
    metric.clock._t = float(clock_doc["t"])  # type: ignore[index]
    metric.clock._anchor = float(clock_doc["anchor"])  # type: ignore[index]
    metric.clock._since_rescale = int(clock_doc["since_rescale"])  # type: ignore[index]
    metric.clock._rescale_count = int(clock_doc["rescale_count"])  # type: ignore[index]
    for u, v, value in doc["activeness"]:  # type: ignore[union-attr]
        metric.activeness.store.set_anchored(int(u), int(v), float(value))
    for u, v, value in doc["similarity"]:  # type: ignore[union-attr]
        metric.similarity.set_anchored(int(u), int(v), float(value))
    metric.sigma._strength = [float(s) for s in doc["strength"]]  # type: ignore[union-attr]
    metric._initialized = True
    engine.metric = metric

    engine.index = load_index(graph, index_path, faults=faults, space=metric.space)
    metric.clock.add_rescale_listener(engine.index.on_rescale)
    engine.queries = ClusterQueryEngine(engine.index, method=params.method)
    engine.activations_processed = int(doc["activations"])  # type: ignore[arg-type]
    # __new__ bypassed __init__, so the observability binding must be
    # re-created explicitly (the server re-attaches its bundle afterwards).
    engine._init_obs(None)

    if isinstance(engine, ANCO):
        engine._wire_updates()
    if isinstance(engine, ANCOR):
        reinforce = doc["reinforce"]
        engine.reinforce_interval = float(reinforce["interval"])  # type: ignore[index]
        engine._last_reinforce = float(reinforce["last"])  # type: ignore[index]
    if isinstance(engine, ANCF):
        engine._dirty = bool(doc.get("dirty", False))
    return engine


# ----------------------------------------------------------------------
# Checkpoint store
# ----------------------------------------------------------------------

class CheckpointStore:
    """Numbered checkpoints plus the WAL, under one data directory.

    Layout::

        data_dir/
          wal.log                  append-only activation log
          wal.fence                the fence epoch, once a fence was set
          checkpoint-<seq>/
            engine.json            dump_engine_state() output
            index.json             repro.index.persistence document
            MANIFEST               written last; marks the dir complete
    """

    def __init__(self, data_dir: PathLike, *, faults: "Optional[FaultPlan]" = None) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        #: Fault-injection hook (:mod:`repro.faults`); ``None`` = disarmed.
        self.faults = faults

    @property
    def wal_path(self) -> Path:
        return self.data_dir / "wal.log"

    # -- writing -----------------------------------------------------------
    def write_checkpoint(self, engine: ANCEngineBase, *, epoch: int = 0) -> Path:
        """Dump ``engine`` as checkpoint ``<activations_processed>``.

        Call from the writer thread only (needs a quiescent engine).
        Older checkpoints are pruned after the new one is complete.
        The seq is the directory name and ``engine.json``'s
        ``activations``; ``epoch``, the primary epoch the node is
        serving under, is recorded in the MANIFEST.  So a restart (or a
        follower bootstrapping from this directory) knows both the WAL
        resume point and the fencing token without re-scanning the log.

        Re-cutting a checkpoint at the same seq (a restart followed by a
        clean stop, or a second ``snapshot``, with no writes in between)
        first drops the complete one's MANIFEST: a crash mid-re-cut then
        leaves a torn directory that recovery ignores (the WAL, never
        truncated, replays instead), not a MANIFEST over files it no
        longer matches.
        """
        seq = engine.activations_processed
        target = self.data_dir / f"checkpoint-{seq}"
        target.mkdir(parents=True, exist_ok=True)
        (target / "MANIFEST").unlink(missing_ok=True)
        doc = dump_engine_state(engine)
        payload = json.dumps(doc)
        action = (
            self.faults.hit("checkpoint.write", seq=seq)
            if self.faults is not None
            else None
        )
        # ``written`` is what reaches the disk; ``payload`` is what the
        # MANIFEST checksums.  They differ only under the corrupt-engine
        # injector, which models bit rot *after* a successful write — the
        # exact case the checksum exists to catch.
        written = payload
        if action is not None:
            from ..faults.injectors import corrupt_payload
            from ..faults.plan import InjectedCrash

            if action.kind == "truncate-engine":
                with open(target / "engine.json", "w", encoding="utf-8") as fh:
                    fh.write(payload[: len(payload) // 2])
                raise InjectedCrash(
                    "checkpoint.write", action.kind,
                    "crashed mid-write of engine.json",
                )
            if action.kind == "corrupt-engine":
                written = corrupt_payload(payload)
        with open(target / "engine.json", "w", encoding="utf-8") as fh:
            fh.write(written)
            fh.flush()
            os.fsync(fh.fileno())
        save_index(engine.index, target / "index.json", faults=self.faults)
        if action is not None and action.kind == "skip-manifest":
            from ..faults.plan import InjectedCrash

            raise InjectedCrash(
                "checkpoint.write", action.kind,
                f"crashed before MANIFEST of checkpoint {seq}",
            )
        manifest = {
            "epoch": epoch,
            "engine_crc": zlib.crc32(payload.encode()),
            "index_crc": _file_crc(target / "index.json"),
        }
        with open(target / "MANIFEST", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
            fh.flush()
            os.fsync(fh.fileno())
        if action is not None and action.kind == "crash":
            from ..faults.plan import InjectedCrash

            raise InjectedCrash(
                "checkpoint.write", action.kind,
                f"crashed after completing checkpoint {seq}",
            )
        self._prune(keep=seq)
        return target

    def _prune(self, *, keep: int) -> None:
        for path, seq in self._checkpoint_dirs():
            if seq != keep:
                for child in path.iterdir():
                    child.unlink()
                path.rmdir()

    # -- reading -----------------------------------------------------------
    def _checkpoint_dirs(self) -> List[Tuple[Path, int]]:
        out: List[Tuple[Path, int]] = []
        for path in self.data_dir.glob("checkpoint-*"):
            try:
                seq = int(path.name.split("-", 1)[1])
            except ValueError:  # anclint: disable=service-exception-discipline — a stray non-checkpoint directory is not ours to judge; recovery only trusts MANIFESTed dirs
                continue
            out.append((path, seq))
        return sorted(out, key=lambda item: item[1])

    def latest_checkpoint(self) -> Optional[Tuple[Path, int]]:
        """Newest *complete* checkpoint (has a MANIFEST), or ``None``."""
        complete = [
            (path, seq)
            for path, seq in self._checkpoint_dirs()
            if (path / "MANIFEST").exists()
        ]
        return complete[-1] if complete else None


@dataclass
class Recovery:
    """Everything :func:`recover_to` reconstructed from one data directory.

    ``epoch`` is the highest primary epoch seen across the checkpoint
    MANIFEST and the replayed WAL tail — the fencing token a restarted
    node must resume under.  ``dedup`` maps idempotency keys (newest
    last) to ``(done, last_seq)`` progress, rebuilt from the keyed WAL
    records, so a client resend that straddles the restart resumes
    exactly-once instead of double-applying.
    """

    engine: ANCEngineBase
    #: WAL records applied on top of the checkpoint.
    replayed: int = 0
    #: Highest epoch found in the MANIFEST or the WAL.
    epoch: int = 0
    #: key -> (items applied under the key, last WAL seq of the key).
    dedup: "OrderedDict[str, Tuple[int, int]]" = field(default_factory=OrderedDict)


def recover_to(
    graph: Graph,
    store: CheckpointStore,
    *,
    params: Optional[ANCParams] = None,
    engine_name: str = "ANCO",
    upto_seq: Optional[int] = None,
) -> Recovery:
    """Build the serving engine from whatever ``store`` holds.

    * complete checkpoint found → restore it, then replay the WAL tail;
    * no checkpoint but a WAL → fresh engine, replay the whole WAL;
    * empty directory → fresh engine.

    The single recovery path shared by server restart and follower
    bootstrap (:mod:`repro.replica`): the checkpoint's resume seq comes
    from its ``engine.json`` and its epoch from its MANIFEST, so no
    caller ever re-scans the WAL to find its own resume point.  ``upto_seq`` bounds
    the replay (exclusive) for point-in-time recovery; the default
    replays the whole tail.

    ``params``/``engine_name`` configure the fresh-start path and are
    ignored when a checkpoint dictates them.  A checkpoint whose
    MANIFEST lacks its checksums or epoch, whose contents fail the
    checksums, which does not deserialize, or whose index fails its
    consistency check raises :class:`CheckpointCorruptError`; a damaged WAL raises
    :class:`WalCorruptError` (see :meth:`WriteAheadLog.replay_records`).
    Serving silently-wrong clusters is never an option.
    """
    from ..core.anc import make_engine

    epoch = 0
    latest = store.latest_checkpoint()
    if latest is not None:
        path, _ = latest
        try:
            with open(path / "MANIFEST", "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
            with open(path / "engine.json", "r", encoding="utf-8") as fh:
                raw = fh.read()
            if zlib.crc32(raw.encode()) != manifest["engine_crc"]:
                raise CheckpointCorruptError(
                    f"checkpoint {path.name}: engine.json fails its "
                    f"MANIFEST checksum (bit rot after completion)"
                )
            if _file_crc(path / "index.json") != manifest["index_crc"]:
                raise CheckpointCorruptError(
                    f"checkpoint {path.name}: index.json fails its "
                    f"MANIFEST checksum (bit rot after completion)"
                )
            doc = json.loads(raw)
            engine = restore_engine(
                graph, doc, path / "index.json", faults=store.faults
            )
            epoch = int(manifest["epoch"])
        except CheckpointCorruptError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointCorruptError(
                f"checkpoint {path.name} does not deserialize: {exc}"
            ) from exc
    else:
        engine = make_engine(engine_name, graph, params)
    skip = engine.activations_processed
    # One pass over the log rebuilds both the engine tail and the
    # exactly-once dedup map.  The dedup scan starts at seq 0 (not the
    # checkpoint) because a keyed batch completed *before* the checkpoint
    # may still be resent by a client that never saw its ack.
    dedup: "OrderedDict[str, Tuple[int, int]]" = OrderedDict()
    tail: List[Activation] = []
    replayed = 0
    for record in WriteAheadLog.replay_records(store.wal_path):
        if upto_seq is not None and record.seq >= upto_seq:
            break
        epoch = max(epoch, record.epoch)
        if record.key is not None:
            done, _ = dedup.get(record.key, (0, -1))
            dedup[record.key] = (done + 1, record.seq)
            dedup.move_to_end(record.key)
        if record.seq >= skip:
            tail.append(record.act)
            replayed += 1
    apply_activations(engine, tail)
    return Recovery(engine=engine, replayed=replayed, epoch=epoch, dedup=dedup)


# ----------------------------------------------------------------------
# State fingerprinting (the divergence oracle)
# ----------------------------------------------------------------------

def engine_signature(engine: ANCEngineBase) -> Dict[str, object]:
    """Exact state fingerprint: equal signatures ⇒ byte-identical engines.

    Floats go through ``repr`` so 1e-16 drift is a mismatch, and clusters
    are captured at the bottom, √n and top levels of the pyramid.  The
    chaos matrix compares faulted runs against a fault-free oracle with
    it; the replication auditor (:mod:`repro.replica`) compares primary
    and followers continuously through the cheaper
    :func:`signature_digest`.
    """
    metric = engine.metric
    levels = sorted(
        {1, engine.queries.sqrt_n_level(), engine.queries.num_levels}
    )
    return {
        "activations": engine.activations_processed,
        "t": repr(engine.now),
        "anchor": repr(metric.clock.anchor),
        "similarity": sorted(
            (u, v, repr(value))
            for (u, v), value in metric.similarity.items_anchored()
        ),
        "clusters": {
            str(level): engine.clusters(level) for level in levels
        },
    }


def _le_bytes(typecode: str, values: Iterable[Union[int, float]]) -> bytes:
    """``values`` as little-endian ``q`` (int64) or ``d`` (float64) items."""
    packed = array(typecode, values)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tobytes()


def signature_digest(engine: ANCEngineBase) -> str:
    """SHA-256 over the engine state packed as little-endian bytes.

    Hashed in order: the activation and similarity counts (int64),
    ``now`` and the clock anchor (float64), the anchored similarities
    sorted by edge (int64 endpoints, then float64 values), and every
    partition's seed array at every level (int64).  Equal floats pack
    to equal bytes, and the seeds fix the clusters at every level, so
    this covers more than :func:`engine_signature`.  Both engines pack
    identically.  Each call hashes the live state (nothing is cached),
    so in-place corruption shows at the next audit.
    """
    metric = engine.metric
    n = engine.graph.n
    # u·n + v orders the canonical edges (u < v < n) as the tuples do,
    # and int keys sort about twice as fast as tuple keys.
    items = sorted(
        metric.similarity.items_anchored(),
        key=lambda item: item[0][0] * n + item[0][1],
    )
    digest = hashlib.sha256(
        struct.pack(
            "<qqdd",
            engine.activations_processed,
            len(items),
            engine.now,
            metric.clock.anchor,
        )
    )
    digest.update(_le_bytes("q", [x for edge, _ in items for x in edge]))
    digest.update(_le_bytes("d", [value for _, value in items]))
    for pyramid in engine.index.pyramids:
        for level in sorted(pyramid.levels):
            digest.update(_le_bytes("q", pyramid.levels[level].seed))
    return digest.hexdigest()
