"""Per-block commitment sets and the append-only run ledger.

The ledger binary form is canonical: a magic header, a length-prefixed
canonical-JSON manifest, then one length-prefixed frame per step-block
row, in row order. A row's frame is one 32-byte digest, in the
manifest's ``hash_algo``, per key of ``BlockGrid.row_keys(j, mode)``:
the keys row j commits first (row 0 also holds the step-0 state; an
inference run is one row). So the ledger commits each key once, and
blocks that share a key (a boundary between layer blocks, or the state
one block exits with and the block below enters with) share one digest
by construction. Every row, appended or loaded, passes one rule
(``RunLedger._file``).

A recording writes the file in the same order: the header (magic and
manifest) atomically with ``RunLedger.save`` before its first step, then
each row appended with ``RunLedger.append_row`` once its tensors are
hashed, so every row is encoded and written once. ``save`` stays the
full atomic rewrite, for ledgers loaded and changed after the fact.

Loading walks the file's frames once and checks each row under the row
rule, but decodes a row only when a block that commits its keys is
read, so a command pays for the rows it touches. Each block read gets
its own ``CommitmentSet``, decoded from row j and, for its entry state,
row j-1.
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

MAGIC = b"AFTL3\x00"
SCHEMA_VERSION = 4
DIGEST_BYTES = 32


class LedgerError(Exception):
    pass


def _frame(blob: bytes) -> bytes:
    """One length-prefixed part of the ledger file: the manifest or a
    row."""
    return struct.pack("<I", len(blob)) + blob


def _file_stamp(fd: int) -> tuple[int, int, int, int]:
    """What identifies a ledger file and where it ends."""
    st = os.fstat(fd)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


@dataclass
class CommitmentSet:
    """The hash record of one block cell: a digest per key of the
    block's schedule."""

    block: BlockId
    entries: dict[BoundaryKey, Digest] = field(default_factory=dict)


class RunLedger:
    """Append-only evidence: the manifest plus one frame per sealed
    step-block row.

    On disk the file only grows while a run records: ``save`` writes the
    header, and ``append_row`` adds one row at a time with one fsync. A
    recording killed midway leaves the header and its sealed rows, which
    decode as a ledger of those rows. A write torn inside its last row
    leaves a short frame, which ``decode`` rejects with LedgerError like
    any other truncation.
    """

    def __init__(self, manifest: dict):
        manifest.setdefault("schema_version", SCHEMA_VERSION)
        self.manifest = manifest
        self._rows: list[bytes] = []  # each filed row's frame, in order
        # decoded on first read: rows by index, and the blocks' own sets
        self._decoded: dict[int, dict[BoundaryKey, Digest]] = {}
        self._sets: dict[BlockId, CommitmentSet] = {}
        self._stamp: tuple | None = None  # the file this ledger last wrote

    # -- structure -------------------------------------------------------

    @cached_property
    def grid(self) -> BlockGrid:
        """The grid of the manifest's run facts, which must pass
        ``check_run_spec`` (ValueError otherwise)."""
        return BlockGrid(check_run_spec(self.manifest))

    def _keys(self, bid: BlockId) -> list[BoundaryKey]:
        """``bid``'s key schedule: what its set commits, in order."""
        return self.grid.committed_keys(bid, self.manifest["mode"])

    def _row_keys(self, j: int) -> list[BoundaryKey]:
        return self.grid.row_keys(j, self.manifest["mode"])

    def append(self, digests: dict[BoundaryKey, Digest]) -> bytes:
        """File the next row from ``digests``, which must hold exactly
        that row's keys, each digested with the manifest's algorithm;
        returns the row's frame bytes. Raises LedgerError and files
        nothing otherwise."""
        j, algo = self._next_row(), self.manifest["hash_algo"]
        keys = self._row_keys(j)
        wrong = [str(k) for k in keys
                 if k not in digests or digests[k].algo != algo]
        if wrong or len(digests) != len(keys):
            raise LedgerError(
                f"digests for ledger row {j} are not its key schedule's "
                f"{len(keys)} {algo} digests"
                + (f" (first missing or of another algorithm: {wrong[0]})"
                   if wrong else ""))
        return self._file(b"".join(digests[k].value for k in keys))

    def _next_row(self) -> int:
        """The row filed next; LedgerError past the run's last row (an
        inference run has one)."""
        j = len(self._rows)
        n = self.grid.n_step_blocks if self.manifest["mode"] == "training" \
            else 1
        if j >= n:
            raise LedgerError(f"ledger row {j} lies outside the manifest's "
                              f"grid of {n} rows")
        return j

    def _file(self, raw: bytes) -> bytes:
        """The one row rule, for every row appended or loaded: a frame is
        the next row of the grid, and exactly one digest per key of that
        row's schedule. Files ``raw`` and returns it; raises LedgerError
        and files nothing otherwise."""
        j = self._next_row()
        n = self.grid.n_row_keys(j, self.manifest["mode"])
        if len(raw) != DIGEST_BYTES * n:
            raise LedgerError(f"ledger row {j} is {len(raw)} bytes, not "
                              f"its {n} digests")
        self._rows.append(raw)
        return raw

    def _row(self, j: int) -> dict[BoundaryKey, Digest]:
        """Row j's digests by key, as filed; decoded on first read."""
        if j not in self._decoded:
            self._decoded[j] = self._decode_row(j)
        return self._decoded[j]

    def _decode_row(self, j: int) -> dict[BoundaryKey, Digest]:
        """Row j's frame read as one digest per key of its schedule; the
        row rule has checked its size."""
        raw, algo = self._rows[j], self.manifest["hash_algo"]
        return {k: Digest(raw[off:off + DIGEST_BYTES], algo)
                for k, off in zip(self._row_keys(j),
                                  range(0, len(raw), DIGEST_BYTES))}

    def _entry(self, bid: BlockId) -> CommitmentSet:
        """``bid``'s own set, decoded on first read from row j and, for
        its entry state, row j-1."""
        cs = self._sets.get(bid)
        if cs is None:
            row = self._row(bid.j)
            above = self._row(bid.j - 1) if bid.j else row
            cs = self._sets[bid] = CommitmentSet(
                bid, {k: row.get(k) or above[k] for k in self._keys(bid)})
        return cs

    @property
    def blocks(self) -> list[BlockId]:
        """The blocks of the filed rows, row by row; decodes nothing."""
        return [BlockId(i, j) for j in range(len(self._rows))
                for i in range(self.grid.n_layer_blocks)]

    @property
    def entries(self) -> list[CommitmentSet]:
        """Every block's set in row order, decoding those not yet read.
        The sets are the ledger's own: what is changed in them is what
        ``encode`` and ``save`` write."""
        return [self._entry(b) for b in self.blocks]

    def __contains__(self, bid) -> bool:
        """Whether a filed row commits ``bid``; decodes nothing."""
        return bid.j < len(self._rows) and self.grid.contains(bid)

    def entry_for(self, bid: BlockId) -> CommitmentSet | None:
        """``bid``'s set, decoded on first read; None if none."""
        return self._entry(bid) if bid in self else None

    def all_digests(self) -> dict[BoundaryKey, Digest]:
        out: dict[BoundaryKey, Digest] = {}
        for e in self.entries:
            for k, d in e.entries.items():
                if k in out and out[k].value != d.value:
                    raise LedgerError(f"conflicting digests committed for {k}")
                out[k] = d
        return out

    # -- serialization ---------------------------------------------------

    def _row_bytes(self, j: int) -> bytes:
        """Row j's frame as the sets hold it: the digest of each key of
        its schedule, once. A row none of whose holders (the blocks of
        rows j and j+1) was read is written as it was filed. Raises
        LedgerError unless each holder's set holds exactly its block's
        schedule in the manifest's algorithm, and every set that holds a
        key holds the same digest for it."""
        n_lb, algo = self.grid.n_layer_blocks, self.manifest["hash_algo"]
        holders = [BlockId(i, r) for r in (j, j + 1) if r < len(self._rows)
                   for i in range(n_lb)]
        if not any(b in self._sets for b in holders):
            return self._rows[j]
        row = dict.fromkeys(self._row_keys(j))
        for bid in holders:
            cs, keys = self._entry(bid), self._keys(bid)
            if set(cs.entries) != set(keys) \
                    or any(d.algo != algo for d in cs.entries.values()):
                raise LedgerError(f"commitment set of block {bid} does not "
                                  f"hold its key schedule's {len(keys)} "
                                  f"{algo} digests")
            for k, d in cs.entries.items():
                if k not in row:
                    continue  # committed by another row
                if row[k] is not None and row[k].value != d.value:
                    raise LedgerError(f"conflicting digests committed for "
                                      f"{k}")
                row[k] = d
        return b"".join(d.value for d in row.values())

    def encode(self) -> bytes:
        """The ledger's bytes. A row no read block commits keys of is
        written as it was read."""
        manifest_json = json.dumps(self.manifest, sort_keys=True,
                                   separators=(",", ":")).encode()
        return b"".join([MAGIC, _frame(manifest_json)] + [
            _frame(self._row_bytes(j)) for j in range(len(self._rows))])

    @classmethod
    def decode(cls, data: bytes) -> "RunLedger":
        """Parse ledger bytes; every length must match exactly, and any
        malformation raises LedgerError."""
        if data[:len(MAGIC)] != MAGIC:
            raise LedgerError("bad ledger magic: not an AFTL3 ledger")
        try:
            return cls._decode(data)
        except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as e:
            raise LedgerError(f"malformed ledger: {e}") from e

    @classmethod
    def _decode(cls, data: bytes) -> "RunLedger":
        """One walk over the frames: the manifest, which must be of this
        SCHEMA_VERSION, then each row's bytes, filed under the row rule;
        they decode on first read."""
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
            ledger.grid  # the schedule every row is read by
        except ValueError as e:
            raise LedgerError(f"manifest {e}") from None
        while off < len(data):
            (rlen,) = struct.unpack_from("<I", data, off)
            off += 4
            if off + rlen > len(data):
                raise LedgerError(f"row of {rlen} bytes at offset {off} "
                                  f"overruns the {len(data)}-byte ledger")
            ledger._file(data[off:off + rlen])
            off += rlen
        return ledger

    def save(self, path) -> None:
        """Write the whole ledger to ``path`` atomically: the header of a
        run about to record, or a full rewrite of a loaded ledger. A
        ledger ``encode`` refuses leaves ``path`` as it was."""
        data = self.encode()
        tmp = str(path) + ".tmp"
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())  # commitment must land before any audit
            stamp = _file_stamp(f.fileno())
        os.replace(tmp, path)
        self._stamp = stamp

    def append_row(self, digests: dict[BoundaryKey, Digest], path) -> None:
        """File the next row from ``digests`` (``append``), then write its
        frame to the end of ``path`` with one fsync. ``path`` must be the
        file this ledger last saved or appended to, unchanged since;
        anything else raises LedgerError and the file is left as it
        is."""
        try:
            f = open(path, "r+b")
        except FileNotFoundError:
            raise LedgerError(f"no ledger file at {path} to append "
                              f"to") from None
        with f:
            if self._stamp is None or _file_stamp(f.fileno()) != self._stamp:
                raise LedgerError(f"{path} is not the file this ledger last "
                                  f"wrote; refusing to append")
            row = _frame(self.append(digests))
            self._stamp = None  # until the row is on disk
            f.seek(0, os.SEEK_END)
            f.write(row)
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
    recorded run, so no row is encoded again."""
    with open(path, "rb") as f:
        return hash_bytes(f.read(), algo).hex
