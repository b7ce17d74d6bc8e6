"""Per-block commitment sets and the append-only run ledger.

The ledger binary form is canonical: a magic header, a length-prefixed
canonical-JSON manifest, then length-prefixed block entries in append
order. Each entry carries a reserved (currently empty) signature slot.

A recording writes the file in the same order: the header (magic and
manifest) atomically with ``RunLedger.save`` before its first step, then
each sealed step-block row appended with ``RunLedger.append_row``, so
every entry is encoded and written once. ``save`` stays the full atomic
rewrite, for ledgers loaded and changed after the fact.

Loading walks the file's frames once and checks each entry's bytes as
strictly as decoding it would, but decodes an entry only when it is
read, so a command pays for the blocks it touches.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property

from .grid import BlockGrid, BlockId, BoundaryKey, GridConfig
from .hashing import ALGORITHMS, Digest, hash_bytes

MAGIC = b"AFTL1\x00"
SCHEMA_VERSION = 1
SIGNATURE_SLOT_BYTES = 64

_KIND_CODE = {"activation": 0, "gradient": 1, "parameter": 2, "optimizer-state": 3}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


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


class SealedError(LedgerError):
    pass


class OrderError(LedgerError):
    """Row-completeness append ordering violated."""


@dataclass
class CommitmentSet:
    """The hash record of one block cell."""

    block: BlockId
    entries: dict[BoundaryKey, Digest] = field(default_factory=dict)
    sealed: bool = False
    signature: bytes = b""  # reserved, unfilled

    def add(self, key: BoundaryKey, digest: Digest) -> None:
        if self.sealed:
            raise SealedError(f"commitment set {self.block} is sealed")
        self.entries[key] = digest

    def seal(self) -> None:
        if self.sealed:
            raise SealedError(f"commitment set {self.block} already sealed")
        self.sealed = True

    def encode(self) -> bytes:
        parts = [struct.pack("<IIH", self.block.i, self.block.j, len(self.entries))]
        for key in sorted(self.entries):
            d = self.entries[key]
            parts.append(struct.pack("<BIIB", _KIND_CODE[key.kind], key.index,
                                     key.step, ALGORITHMS.index(d.algo)))
            parts.append(d.value)
        sig = self.signature.ljust(SIGNATURE_SLOT_BYTES, b"\x00")
        parts.append(struct.pack("<B", 1 if self.signature else 0))
        parts.append(sig[:SIGNATURE_SLOT_BYTES])
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "CommitmentSet":
        i, j, n = _entry_header(data)
        entries = {BoundaryKey(_CODE_KIND[kind_c], index, step):
                   Digest(value, ALGORITHMS[algo_c])
                   for kind_c, index, step, algo_c, value
                   in struct.iter_unpack("<BIIB32s", data[10:10 + 42 * n])}
        has_sig, sig = data[-SIGNATURE_SLOT_BYTES - 1], \
            data[-SIGNATURE_SLOT_BYTES:]
        return cls(BlockId(i, j), entries, sealed=True,
                   signature=sig.rstrip(b"\x00") if has_sig else b"")


_KIND_CODES = bytes(sorted(_CODE_KIND))
_ALGO_CODES = bytes(range(len(ALGORITHMS)))


def _entry_header(data: bytes) -> tuple[int, int, int]:
    """Block ``(i, j)`` and key count of one encoded commitment set,
    after every check its decoding needs: the exact size, each kind and
    algorithm code, and the signature slot. Raises LedgerError, so bytes
    that pass decode without error."""
    if len(data) < 10:
        raise LedgerError(f"commitment set of {len(data)} bytes is "
                          f"shorter than its header")
    i, j, n = struct.unpack_from("<IIH", data, 0)
    end = 10 + 42 * n  # the keys end, and the signature slot starts
    if len(data) != end + 1 + SIGNATURE_SLOT_BYTES:
        raise LedgerError(f"commitment set of {len(data)} bytes; {n} "
                          f"entries take {end + 1 + SIGNATURE_SLOT_BYTES}")
    if data[10:end:42].strip(_KIND_CODES) \
            or data[19:end:42].strip(_ALGO_CODES):
        raise LedgerError(f"unknown kind or algorithm code in block {i},{j}")
    has_sig = data[end]
    if has_sig not in (0, 1) or (not has_sig and data[end + 1:].strip(b"\x00")):
        raise LedgerError(f"malformed signature slot in block {i},{j}")
    return i, j, n


def seal_block(grid: BlockGrid, bid: BlockId,
               digests: dict[BoundaryKey, Digest],
               mode: str = "training") -> CommitmentSet:
    """Build and seal the commitment set for one block from a key->digest
    map (typically the recorder's running hash table)."""
    if mode == "training":
        wanted = grid.commitment_keys(bid)
    else:
        wanted = grid.inference_commitment_keys(bid)
    missing = [str(k) for k in wanted if k not in digests]
    if missing:
        raise LedgerError(f"missing boundary digests for block {bid}: {missing}")
    cs = CommitmentSet(bid)
    for k in wanted:
        cs.add(k, digests[k])
    cs.seal()
    return cs


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
        # per entry in file order: its block, its commitment set once
        # decoded, and until then its checked bytes
        self.blocks: list[BlockId] = []
        self._sets: list[CommitmentSet | None] = []
        self._raw: list[bytes | None] = []
        self._undecoded = 0
        self._first: dict[BlockId, int] = {}  # block -> its first entry
        self._row_sizes: dict[int, int] = {}  # sealed blocks per row
        self._last_row = -1
        self._complete_rows = 0  # rows 0..n-1 known to hold every block
        self._stamp: tuple | None = None  # the file this ledger last wrote

    # -- structure -------------------------------------------------------

    @cached_property
    def grid(self) -> BlockGrid:
        # built on first use: decoding must not depend on a valid grid
        return BlockGrid(GridConfig.from_dict(self.manifest["grid"]))

    def append(self, cs: CommitmentSet) -> None:
        if not cs.sealed:
            raise LedgerError("only sealed commitment sets may be appended")
        if not self.grid.contains(cs.block):
            raise LedgerError(f"block {cs.block} lies outside the grid")
        if cs.block in self._first:
            raise OrderError(f"duplicate entry for block {cs.block}")
        # a row stops growing once a later one starts, so a row found
        # complete stays complete
        n_lb = self.grid.n_layer_blocks
        while self._complete_rows < cs.block.j:
            if self._row_sizes.get(self._complete_rows, 0) != n_lb:
                raise OrderError(f"cannot append block {cs.block}: row "
                                 f"{self._complete_rows} incomplete")
            self._complete_rows += 1
        if self._last_row > cs.block.j:
            raise OrderError(
                f"cannot append block {cs.block}: a later row already sealed")
        self._add(cs.block, cs)

    def _add(self, bid: BlockId, cs: CommitmentSet | None,
             raw: bytes | None = None) -> None:
        """File an entry for ``bid``: decoded ``cs``, or checked ``raw``
        bytes that decode on first read."""
        if bid not in self._first:
            self._first[bid] = len(self.blocks)
            self._row_sizes[bid.j] = self._row_sizes.get(bid.j, 0) + 1
            self._last_row = max(self._last_row, bid.j)
        self.blocks.append(bid)
        self._sets.append(cs)
        self._raw.append(raw)
        self._undecoded += cs is None

    def _entry_at(self, p: int) -> CommitmentSet:
        cs = self._sets[p]
        if cs is None:
            cs = self._sets[p] = CommitmentSet.decode(self._raw[p])
            self._raw[p] = None
            self._undecoded -= 1
        return cs

    @property
    def entries(self) -> list[CommitmentSet]:
        """Every entry in file order, duplicates included, decoding those
        not yet read. The list and its sets are the ledger's own: what is
        changed in them is what ``encode`` and ``save`` write."""
        if self._undecoded:
            for p in range(len(self._sets)):
                self._entry_at(p)
        return self._sets

    def __contains__(self, bid) -> bool:
        """Whether some entry commits ``bid``; decodes nothing."""
        return bid in self._first

    def entry_for(self, bid: BlockId) -> CommitmentSet | None:
        """``bid``'s first entry, decoded on first read; None if none."""
        p = self._first.get(bid)
        return None if p is None else self._entry_at(p)

    def entries_in(self, blocks: set[BlockId]) -> list[CommitmentSet]:
        """Every entry for a block of ``blocks``, in file order, decoding
        only those."""
        return [self._entry_at(p) for p, b in enumerate(self.blocks)
                if b in blocks]

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
        manifest_json = json.dumps(self.manifest, sort_keys=True,
                                   separators=(",", ":")).encode()
        return b"".join([MAGIC, _frame(manifest_json)]
                        + [_frame(e.encode()) for e in self.entries])

    @classmethod
    def decode(cls, data: bytes) -> "RunLedger":
        """Parse ledger bytes; every length must match exactly, and any
        malformation raises LedgerError."""
        if data[:len(MAGIC)] != MAGIC:
            raise LedgerError("bad ledger magic")
        try:
            return cls._decode(data)
        except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as e:
            raise LedgerError(f"malformed ledger: {e}") from e

    @classmethod
    def _decode(cls, data: bytes) -> "RunLedger":
        """One walk over the frames. Each entry's bytes get every check
        ``CommitmentSet.decode`` relies on, and decode on first read."""
        off = len(MAGIC)
        (mlen,) = struct.unpack_from("<I", data, off)
        off += 4
        if off + mlen > len(data):
            raise LedgerError(f"manifest of {mlen} bytes overruns the "
                              f"{len(data)}-byte ledger")
        manifest = json.loads(data[off:off + mlen])
        if not isinstance(manifest, dict):
            raise LedgerError("ledger manifest is not a JSON object")
        off += mlen
        ledger = cls(manifest)
        while off < len(data):
            (elen,) = struct.unpack_from("<I", data, off)
            off += 4
            if off + elen > len(data):
                raise LedgerError(f"entry of {elen} bytes at offset {off} "
                                  f"overruns the {len(data)}-byte ledger")
            raw = data[off:off + elen]
            i, j, _ = _entry_header(raw)
            ledger._add(BlockId(i, j), None, raw)
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
        """Append sealed ``sets`` (a step-block row) through ``append``'s
        order checks, then write their entries to the end of ``path`` with
        one fsync. ``path`` must be the file this ledger last saved or
        appended to, unchanged since; anything else raises LedgerError
        and the file is left as it is."""
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
            for cs in sets:
                self.append(cs)
            f.seek(0, os.SEEK_END)
            f.write(b"".join(_frame(cs.encode()) for cs in sets))
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
