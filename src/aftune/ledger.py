"""Per-block commitment sets and the append-only run ledger.

The ledger binary form is canonical: a magic header, a length-prefixed
canonical-JSON manifest, then length-prefixed block entries in append
order. Each entry carries a reserved (currently empty) signature slot.
A JSON export with hex digests is available for humans.

A recording writes the file in the same order: the header (magic and
manifest) atomically with ``RunLedger.save`` before its first step, then
each sealed step-block row appended with ``RunLedger.append_row``, so
every entry is encoded and written once. ``save`` stays the full atomic
rewrite, for ledgers loaded and changed after the fact.
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
        if len(data) < 10:
            raise LedgerError(f"commitment set of {len(data)} bytes is "
                              f"shorter than its header")
        i, j, n = struct.unpack_from("<IIH", data, 0)
        size = 10 + 42 * n + 1 + SIGNATURE_SLOT_BYTES
        if len(data) != size:
            raise LedgerError(f"commitment set of {len(data)} bytes; "
                              f"{n} entries take {size}")
        off = 10
        entries = {}
        for _ in range(n):
            kind_c, index, step, algo_c = struct.unpack_from("<BIIB", data, off)
            if kind_c not in _CODE_KIND or algo_c >= len(ALGORITHMS):
                raise LedgerError(f"unknown kind or algorithm code at "
                                  f"offset {off} of block {i},{j}")
            off += 10
            value = data[off:off + 32]
            off += 32
            entries[BoundaryKey(_CODE_KIND[kind_c], index, step)] = \
                Digest(value, ALGORITHMS[algo_c])
        has_sig, sig = data[off], data[off + 1:]
        if has_sig not in (0, 1) or (not has_sig and sig.strip(b"\x00")):
            raise LedgerError(f"malformed signature slot in block {i},{j}")
        return cls(BlockId(i, j), entries, sealed=True,
                   signature=sig.rstrip(b"\x00") if has_sig else b"")


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
        self.entries: list[CommitmentSet] = []
        # block -> its (first) commitment set, and sealed blocks per row
        self.by_block: dict[BlockId, CommitmentSet] = {}
        self._row_sizes: dict[int, int] = {}
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
        if cs.block in self.by_block:
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
        self._add(cs)

    def _add(self, cs: CommitmentSet) -> None:
        self.entries.append(cs)
        if cs.block not in self.by_block:
            self.by_block[cs.block] = cs
            self._row_sizes[cs.block.j] = self._row_sizes.get(cs.block.j, 0) + 1
            self._last_row = max(self._last_row, cs.block.j)

    def entry_for(self, bid: BlockId) -> CommitmentSet | None:
        return self.by_block.get(bid)

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
            ledger._add(CommitmentSet.decode(data[off:off + elen]))
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

    def digest(self) -> Digest:
        algo = self.manifest.get("hash_algo", "blake3")
        return hash_bytes(self.encode(), algo)

    def export_json(self) -> dict:
        return {
            "manifest": self.manifest,
            "entries": [
                {
                    "block": str(e.block),
                    "digests": {str(k): f"{d.algo}:{d.hex}"
                                for k, d in sorted(e.entries.items())},
                }
                for e in self.entries
            ],
            "ledger_digest": self.digest().hex,
        }
