"""Per-block commitment sets and the append-only run ledger.

The ledger binary form is canonical: a magic header, a length-prefixed
canonical-JSON manifest, then length-prefixed block entries in append
order. The run's key schedule (``BlockGrid.committed_keys``: which keys a
block commits, and in what order) is the entry format: an entry is its
block ``(i, j)`` and then one 32-byte digest per key of the block's
schedule, in the manifest's ``hash_algo``. Every entry, appended or
loaded, passes one rule (``RunLedger._file``).

A recording writes the file in the same order: the header (magic and
manifest) atomically with ``RunLedger.save`` before its first step, then
each sealed step-block row appended with ``RunLedger.append_row``, so
every entry is encoded and written once. ``save`` stays the full atomic
rewrite, for ledgers loaded and changed after the fact.

Loading walks the file's frames once and checks each entry under the
entry rule, but decodes an entry only when it is read, so a command pays
for the blocks it touches.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property

from .grid import BlockGrid, BlockId, BoundaryKey
from .hashing import Digest, hash_bytes
from .verifier import check_run_spec

MAGIC = b"AFTL2\x00"
SCHEMA_VERSION = 3
DIGEST_BYTES = 32

_BLOCK = struct.Struct("<II")  # an entry's (i, j)


class LedgerError(Exception):
    pass


def _frame(blob: bytes) -> bytes:
    """One length-prefixed part of the ledger file: the manifest or an
    entry."""
    return struct.pack("<I", len(blob)) + blob


def _file_stamp(fd: int) -> tuple[int, int, int, int]:
    """What identifies a ledger file and where it ends."""
    st = os.fstat(fd)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class OrderError(LedgerError):
    """Row-completeness append ordering violated."""


@dataclass
class CommitmentSet:
    """The hash record of one block cell: a digest per key of the
    block's schedule."""

    block: BlockId
    entries: dict[BoundaryKey, Digest] = field(default_factory=dict)

    def encode(self, keys: list[BoundaryKey], algo: str) -> bytes:
        """``(i, j)``, then the digest of each of ``keys``, the block's
        key schedule, in order. Raises LedgerError unless the set holds
        exactly those keys, each digested with ``algo``, so nothing is
        dropped or reordered silently."""
        digests = [self.entries.get(k) for k in keys]
        if len(self.entries) != len(keys) or None in digests \
                or any(d.algo != algo for d in digests):
            raise LedgerError(f"commitment set of block {self.block} does "
                              f"not hold its key schedule's {len(keys)} "
                              f"{algo} digests")
        return _BLOCK.pack(self.block.i, self.block.j) \
            + b"".join(d.value for d in digests)

    @classmethod
    def decode(cls, data: bytes, keys: list[BoundaryKey],
               algo: str) -> "CommitmentSet":
        """The set ``encode`` wrote as ``data`` for a block whose schedule
        is ``keys``; the entry rule has checked its size."""
        i, j = _BLOCK.unpack_from(data)
        return cls(BlockId(i, j), {
            k: Digest(data[off:off + DIGEST_BYTES], algo)
            for k, off in zip(keys, range(_BLOCK.size, len(data),
                                          DIGEST_BYTES))})


def seal_block(grid: BlockGrid, bid: BlockId,
               digests: dict[BoundaryKey, Digest],
               mode: str = "training") -> CommitmentSet:
    """Build the commitment set for one block from a key->digest map
    (typically the recorder's running hash table)."""
    wanted = grid.committed_keys(bid, mode)
    missing = [str(k) for k in wanted if k not in digests]
    if missing:
        raise LedgerError(f"missing boundary digests for block {bid}: {missing}")
    return CommitmentSet(bid, {k: digests[k] for k in wanted})


class RunLedger:
    """Append-only evidence: manifest plus sealed commitment sets.

    Appends must respect row completeness: every block of step-block row
    j is present before any block of row j+1.

    On disk the file only grows while a run records: ``save`` writes the
    header, and ``append_row`` adds one sealed row at a time with one
    fsync. A recording killed midway leaves the header and its sealed
    rows, which decode as a ledger of those rows. A write torn inside
    its last row leaves a truncated entry, which ``decode`` rejects with
    LedgerError like any other truncation.
    """

    def __init__(self, manifest: dict):
        manifest.setdefault("schema_version", SCHEMA_VERSION)
        self.manifest = manifest
        # block -> its entry, in file order: the commitment set once
        # decoded, and until then the entry's checked bytes
        self._entries: dict[BlockId, CommitmentSet | bytes] = {}
        self._stamp: tuple | None = None  # the file this ledger last wrote

    # -- structure -------------------------------------------------------

    @cached_property
    def grid(self) -> BlockGrid:
        """The grid of the manifest's run facts, which must pass
        ``check_run_spec`` (ValueError otherwise)."""
        return BlockGrid(check_run_spec(self.manifest))

    def _keys(self, bid: BlockId) -> list[BoundaryKey]:
        """``bid``'s key schedule: what its entry commits, in order."""
        return self.grid.committed_keys(bid, self.manifest["mode"])

    def append(self, cs: CommitmentSet) -> bytes:
        """File ``cs`` under the entry rule; returns its encoding."""
        return self._file(cs.block, cs)

    def _file(self, bid: BlockId, entry: CommitmentSet | bytes) -> bytes:
        """The one entry rule, for every entry appended or loaded: ``bid``
        lies in the grid, has no entry yet, and every row before its own
        is complete; and the entry, a set or its bytes, is exactly
        ``(i, j)`` and one digest per key of ``bid``'s schedule. Files
        ``entry`` and returns its bytes; raises LedgerError (OrderError
        for the order) and files nothing otherwise."""
        grid = self.grid
        if not grid.contains(bid):
            raise LedgerError(f"ledger entry for block {bid} lies outside "
                              f"the manifest's grid")
        # every entry filed lies in the grid and is the only one of its
        # block, so the rows before j are complete iff j rows' worth of
        # entries are filed
        filed = len(self._entries)
        if filed < bid.j * grid.n_layer_blocks:
            raise OrderError(f"entry for block {bid} before row "
                             f"{filed // grid.n_layer_blocks} is complete")
        raw = entry if isinstance(entry, bytes) else \
            entry.encode(self._keys(bid), self.manifest["hash_algo"])
        n = grid.n_committed_keys(bid, self.manifest["mode"])
        if len(raw) != _BLOCK.size + DIGEST_BYTES * n:
            raise LedgerError(f"ledger entry for block {bid} is {len(raw)} "
                              f"bytes, not (i, j) and its {n} digests")
        if self._entries.setdefault(bid, entry) is not entry:
            raise OrderError(f"duplicate entry for block {bid}")
        return raw

    def _entry(self, bid: BlockId) -> CommitmentSet:
        """``bid``'s entry, decoded on first read."""
        e = self._entries[bid]
        if isinstance(e, bytes):
            e = self._entries[bid] = CommitmentSet.decode(
                e, self._keys(bid), self.manifest["hash_algo"])
        return e

    @property
    def blocks(self) -> list[BlockId]:
        """The block of each entry, in file order; decodes nothing."""
        return list(self._entries)

    @property
    def entries(self) -> list[CommitmentSet]:
        """Every entry in file order, decoding those not yet read. The
        sets are the ledger's own: what is changed in them is what
        ``encode`` and ``save`` write."""
        return [self._entry(b) for b in self._entries]

    def __contains__(self, bid) -> bool:
        """Whether some entry commits ``bid``; decodes nothing."""
        return bid in self._entries

    def entry_for(self, bid: BlockId) -> CommitmentSet | None:
        """``bid``'s entry, decoded on first read; None if none."""
        return self._entry(bid) if bid in self._entries else None

    def entries_in(self, blocks: set[BlockId]) -> list[CommitmentSet]:
        """The entries of ``blocks``, in file order, decoding only
        those."""
        return [self._entry(b) for b in self._entries if b in blocks]

    def all_digests(self) -> dict[BoundaryKey, Digest]:
        out: dict[BoundaryKey, Digest] = {}
        for e in self.entries:
            for k, d in e.entries.items():
                if k in out and out[k].value != d.value:
                    raise LedgerError(f"conflicting digests committed for {k}")
                out[k] = d
        return out

    # -- serialization ---------------------------------------------------

    def encode(self) -> bytes:
        """The ledger's bytes. An entry not decoded since it was loaded
        is written as it was read."""
        manifest_json = json.dumps(self.manifest, sort_keys=True,
                                   separators=(",", ":")).encode()
        algo = self.manifest["hash_algo"]
        return b"".join([MAGIC, _frame(manifest_json)] + [
            _frame(e if isinstance(e, bytes)
                   else e.encode(self._keys(b), algo))
            for b, e in self._entries.items()])

    @classmethod
    def decode(cls, data: bytes) -> "RunLedger":
        """Parse ledger bytes; every length must match exactly, and any
        malformation raises LedgerError."""
        if data[:len(MAGIC)] != MAGIC:
            raise LedgerError("bad ledger magic: not an AFTL2 ledger")
        try:
            return cls._decode(data)
        except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as e:
            raise LedgerError(f"malformed ledger: {e}") from e

    @classmethod
    def _decode(cls, data: bytes) -> "RunLedger":
        """One walk over the frames: the manifest, which must be of this
        SCHEMA_VERSION, then each entry's bytes, filed under the entry
        rule; they decode on first read."""
        off = len(MAGIC)
        (mlen,) = struct.unpack_from("<I", data, off)
        off += 4
        if off + mlen > len(data):
            raise LedgerError(f"manifest of {mlen} bytes overruns the "
                              f"{len(data)}-byte ledger")
        manifest = json.loads(data[off:off + mlen])
        if not isinstance(manifest, dict):
            raise LedgerError("ledger manifest is not a JSON object")
        version = manifest.get("schema_version")
        if version != SCHEMA_VERSION:
            raise LedgerError(f"ledger schema version {version!r} is not the "
                              f"supported {SCHEMA_VERSION}")
        off += mlen
        ledger = cls(manifest)
        try:
            ledger.grid  # the schedule every entry is read by
        except ValueError as e:
            raise LedgerError(f"manifest {e}") from None
        while off < len(data):
            (elen,) = struct.unpack_from("<I", data, off)
            off += 4
            if off + elen > len(data):
                raise LedgerError(f"entry of {elen} bytes at offset {off} "
                                  f"overruns the {len(data)}-byte ledger")
            raw = data[off:off + elen]
            i, j = _BLOCK.unpack_from(raw)
            ledger._file(BlockId(i, j), raw)
            off += elen
        return ledger

    def save(self, path) -> None:
        """Write the whole ledger to ``path`` atomically: the header of a
        run about to record, or a full rewrite of a loaded ledger."""
        tmp = str(path) + ".tmp"
        with open(tmp, "wb") as f:
            f.write(self.encode())
            f.flush()
            os.fsync(f.fileno())  # commitment must land before any audit
            stamp = _file_stamp(f.fileno())
        os.replace(tmp, path)
        self._stamp = stamp

    def append_row(self, sets: list[CommitmentSet], path) -> None:
        """Append ``sets`` (a step-block row) under the entry rule, then
        write their entries to the end of ``path`` with one fsync.
        ``path`` must be the file this ledger last saved or appended to,
        unchanged since; anything else raises LedgerError and the file is
        left as it is."""
        try:
            f = open(path, "r+b")
        except FileNotFoundError:
            raise LedgerError(f"no ledger file at {path} to append "
                              f"to") from None
        with f:
            if self._stamp is None or _file_stamp(f.fileno()) != self._stamp:
                raise LedgerError(f"{path} is not the file this ledger last "
                                  f"wrote; refusing to append")
            self._stamp = None  # until the whole row is on disk
            rows = b"".join(_frame(self.append(cs)) for cs in sets)
            f.seek(0, os.SEEK_END)
            f.write(rows)
            f.flush()
            os.fsync(f.fileno())
            self._stamp = _file_stamp(f.fileno())

    @classmethod
    def load(cls, path) -> "RunLedger":
        with open(path, "rb") as f:
            return cls.decode(f.read())


def ledger_digest(path, algo: str) -> str:
    """The ledger digest: the hex digest, in the run's algorithm
    ``algo``, of the ledger file's bytes, which equal ``encode()`` for a
    recorded run, so no entry is encoded again."""
    with open(path, "rb") as f:
        return hash_bytes(f.read(), algo).hex
