"""Per-block commitment sets and the append-only run ledger.

The ledger binary form is canonical: a magic header, a length-prefixed
canonical-JSON manifest, then length-prefixed block entries in append
order. Each entry carries a reserved (currently empty) signature slot.
A JSON export with hex digests is available for humans.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

from .grid import BlockGrid, BlockId, BoundaryKey, GridConfig
from .hashing import ALGORITHMS, Digest, hash_bytes

MAGIC = b"AFTL1\x00"
SCHEMA_VERSION = 1
SIGNATURE_SLOT_BYTES = 64

_KIND_CODE = {"activation": 0, "gradient": 1, "parameter": 2, "optimizer-state": 3}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


class LedgerError(Exception):
    pass


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
    """

    def __init__(self, manifest: dict):
        manifest.setdefault("schema_version", SCHEMA_VERSION)
        self.manifest = manifest
        self.entries: list[CommitmentSet] = []
        # block -> its (first) commitment set, and sealed blocks per row
        self.by_block: dict[BlockId, CommitmentSet] = {}
        self._row_sizes: dict[int, int] = {}

    # -- structure -------------------------------------------------------

    @property
    def grid(self) -> BlockGrid:
        return BlockGrid(GridConfig.from_dict(self.manifest["grid"]))

    def append(self, cs: CommitmentSet) -> None:
        if not cs.sealed:
            raise LedgerError("only sealed commitment sets may be appended")
        n_lb = self.grid.n_layer_blocks
        if cs.block in self.by_block:
            raise OrderError(f"duplicate entry for block {cs.block}")
        for j in range(cs.block.j):
            if self._row_sizes.get(j, 0) != n_lb:
                raise OrderError(
                    f"cannot append block {cs.block}: row {j} incomplete")
        if self._row_sizes and max(self._row_sizes) > cs.block.j:
            raise OrderError(
                f"cannot append block {cs.block}: a later row already sealed")
        self._add(cs)

    def _add(self, cs: CommitmentSet) -> None:
        self.entries.append(cs)
        if cs.block not in self.by_block:
            self.by_block[cs.block] = cs
            self._row_sizes[cs.block.j] = self._row_sizes.get(cs.block.j, 0) + 1

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
        parts = [MAGIC, struct.pack("<I", len(manifest_json)), manifest_json]
        for e in self.entries:
            blob = e.encode()
            parts.append(struct.pack("<I", len(blob)))
            parts.append(blob)
        return b"".join(parts)

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
        tmp = str(path) + ".tmp"
        with open(tmp, "wb") as f:
            f.write(self.encode())
            f.flush()
            os.fsync(f.fileno())  # commitment must land before any audit
        os.replace(tmp, path)

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
