"""Commitment sets, append ordering, and the binary ledger format."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aftune.grid import BlockGrid, BlockId, BoundaryKey, GridConfig
from aftune.hashing import ALGORITHMS, Digest
from aftune.ledger import (MAGIC, SCHEMA_VERSION, SIGNATURE_SLOT_BYTES,
                           CommitmentSet, LedgerError, OrderError, RunLedger,
                           SealedError, seal_block)
from aftune.recorder import LEDGER_FILE


def _digest(n: int) -> Digest:
    return Digest(bytes([n % 256]) * 32)


def _manifest(n_layers=4, n_steps=4, bl=2, bs=2):
    return {"mode": "training", "hash_algo": "blake3",
            "grid": GridConfig(n_layers=n_layers, n_steps=n_steps,
                               bl=bl, bs=bs).to_dict()}


def _sealed(i, j, n_entries=3):
    cs = CommitmentSet(BlockId(i, j))
    for k in range(n_entries):
        cs.add(BoundaryKey("activation", k, j), _digest(i * 16 + j * 4 + k))
    cs.seal()
    return cs


def _fill_row(ledger, j, n_lb):
    for i in range(n_lb):
        ledger.append(_sealed(i, j))


def test_sealing_freezes_the_set():
    cs = CommitmentSet(BlockId(0, 0))
    cs.add(BoundaryKey("activation", 0, 0), _digest(1))
    cs.seal()
    with pytest.raises(SealedError):
        cs.add(BoundaryKey("activation", 1, 0), _digest(2))
    with pytest.raises(SealedError):
        cs.seal()


def test_commitment_set_binary_roundtrip():
    rng = np.random.default_rng(0)
    cs = CommitmentSet(BlockId(3, 7))
    for kind in ("activation", "gradient", "parameter", "optimizer-state"):
        cs.add(BoundaryKey(kind, int(rng.integers(0, 100)),
                           int(rng.integers(0, 1000))),
               Digest(rng.bytes(32), "sha256"))
    cs.seal()
    back = CommitmentSet.decode(cs.encode())
    assert back.block == cs.block
    assert back.entries == cs.entries
    assert back.sealed
    assert back.signature == b""


def test_signature_slot_roundtrip():
    cs = _sealed(0, 0)
    cs.signature = b"reserved-for-provider-key"
    back = CommitmentSet.decode(cs.encode())
    assert back.signature == b"reserved-for-provider-key"


def test_seal_block_reports_missing_keys():
    grid = BlockGrid(GridConfig(n_layers=4, n_steps=4, bl=2, bs=2))
    with pytest.raises(LedgerError) as exc:
        seal_block(grid, BlockId(0, 0), {})
    assert "activation:0@0" in str(exc.value)


def test_only_sealed_sets_may_be_appended():
    ledger = RunLedger(_manifest())
    cs = CommitmentSet(BlockId(0, 0))
    with pytest.raises(LedgerError):
        ledger.append(cs)


def test_append_rejects_duplicates():
    ledger = RunLedger(_manifest())
    ledger.append(_sealed(0, 0))
    with pytest.raises(OrderError):
        ledger.append(_sealed(0, 0))


def test_append_requires_complete_rows():
    ledger = RunLedger(_manifest())  # 2 layer blocks per row
    ledger.append(_sealed(0, 0))
    with pytest.raises(OrderError):
        ledger.append(_sealed(0, 1))  # row 0 incomplete
    ledger.append(_sealed(1, 0))
    ledger.append(_sealed(0, 1))  # now fine


def test_append_rejects_backfilling_earlier_rows():
    ledger = RunLedger(_manifest(n_steps=6, bs=2))
    _fill_row(ledger, 0, 2)
    _fill_row(ledger, 1, 2)
    with pytest.raises(OrderError):
        ledger.append(_sealed(0, 0))
    # appending into row 1 after row... row 2 not yet started is fine,
    # but a row-0 style rewrite is what the duplicate check catches; an
    # out-of-order row 2 -> row 1 append must fail too
    ledger2 = RunLedger(_manifest(n_steps=6, bs=2))
    _fill_row(ledger2, 0, 2)
    with pytest.raises(OrderError):
        ledger2.append(_sealed(0, 2))  # row 1 skipped


def test_ledger_binary_roundtrip_is_byte_identical():
    ledger = RunLedger(_manifest())
    _fill_row(ledger, 0, 2)
    _fill_row(ledger, 1, 2)
    encoded = ledger.encode()
    assert encoded.startswith(MAGIC)
    back = RunLedger.decode(encoded)
    assert back.encode() == encoded
    assert back.manifest == ledger.manifest
    assert [e.block for e in back.entries] == [e.block for e in ledger.entries]


def test_ledger_save_load(tmp_path):
    ledger = RunLedger(_manifest())
    _fill_row(ledger, 0, 2)
    path = tmp_path / "ledger.bin"
    ledger.save(path)
    assert RunLedger.load(path).encode() == ledger.encode()


def test_append_row_writes_what_encode_does(tmp_path):
    path = tmp_path / LEDGER_FILE
    ledger = RunLedger(_manifest())
    ledger.save(path)
    for j in range(2):
        ledger.append_row([_sealed(0, j), _sealed(1, j)], path)
        assert path.read_bytes() == ledger.encode()
    with pytest.raises(LedgerError):
        ledger.append_row([_sealed(2, 0)], path)  # outside the grid
    assert path.read_bytes() == ledger.encode()


@pytest.mark.parametrize("tamper", ["truncated", "rewritten", "copied-over",
                                    "never-written"])
def test_append_row_refuses_a_file_it_did_not_write(tmp_path, tamper):
    path = tmp_path / LEDGER_FILE
    ledger = RunLedger(_manifest())
    ledger.save(path)
    ledger.append_row([_sealed(0, 0), _sealed(1, 0)], path)
    data = path.read_bytes()
    if tamper == "truncated":
        path.write_bytes(data[:-7])
    elif tamper == "rewritten":
        RunLedger(_manifest()).save(path)
    elif tamper == "copied-over":  # the same bytes in another file
        (tmp_path / "copy").write_bytes(data)
        (tmp_path / "copy").replace(path)
    else:
        ledger = RunLedger.load(path)
    before = path.read_bytes()
    with pytest.raises(LedgerError):
        ledger.append_row([_sealed(0, 1), _sealed(1, 1)], path)
    assert path.read_bytes() == before


def test_decode_rejects_bad_magic():
    with pytest.raises(LedgerError):
        RunLedger.decode(b"NOTLEDGER")


def test_all_digests_detects_conflicts():
    ledger = RunLedger(_manifest())
    key = BoundaryKey("activation", 0, 0)
    a = CommitmentSet(BlockId(0, 0), {key: _digest(1)}, sealed=True)
    b = CommitmentSet(BlockId(1, 0), {key: _digest(2)}, sealed=True)
    ledger.append(a)
    ledger.append(b)
    with pytest.raises(LedgerError):
        ledger.all_digests()


def test_entry_for():
    ledger = RunLedger(_manifest())
    cs = _sealed(0, 0)
    ledger.append(cs)
    assert ledger.entry_for(BlockId(0, 0)) is cs
    assert ledger.entry_for(BlockId(5, 5)) is None


def test_decoded_ledger_keeps_its_block_index():
    ledger = RunLedger(_manifest())
    _fill_row(ledger, 0, 2)
    back = RunLedger.decode(ledger.encode())
    for e in back.entries:
        assert back.entry_for(e.block) is e
    # the ordering checks see decoded rows too
    with pytest.raises(OrderError):
        back.append(_sealed(0, 0))
    back.append(_sealed(0, 1))
    assert back.entry_for(BlockId(0, 1)) is back.entries[-1]


# -- malformed ledgers -------------------------------------------------------


@pytest.fixture(scope="module")
def ledger_bytes(mlp_run):
    return (mlp_run["dir"] / LEDGER_FILE).read_bytes()


@pytest.mark.parametrize("cut", [1, 3, 7, 64, 100, 5000])
def test_truncated_ledger_is_rejected(ledger_bytes, cut):
    with pytest.raises(LedgerError):
        RunLedger.decode(ledger_bytes[:-cut])


def test_trailing_bytes_are_rejected(ledger_bytes):
    for extra in (b"\x00", b"\x00" * 4, b"\x01\x00\x00\x00\x00"):
        with pytest.raises(LedgerError):
            RunLedger.decode(ledger_bytes + extra)


def test_commitment_set_sizes_are_exact():
    blob = _sealed(1, 2).encode()
    assert len(blob) == 10 + 42 * 3 + 1 + SIGNATURE_SLOT_BYTES
    for bad in (blob[:-1], blob + b"\x00", blob[:-7]):
        with pytest.raises(LedgerError):
            CommitmentSet.decode(bad)
    padded = bytearray(blob)
    padded[-1] = 1  # padding of an absent signature
    with pytest.raises(LedgerError):
        CommitmentSet.decode(bytes(padded))


def _eager_decode(data: bytes):
    """Oracle: the ledger decoder that parses every entry at load, as
    ``RunLedger.decode`` did before entries were decoded on first read.
    Returns the manifest and every entry in file order, or raises
    LedgerError."""
    if data[:len(MAGIC)] != MAGIC:
        raise LedgerError("bad ledger magic")
    try:
        off = len(MAGIC)
        (mlen,) = struct.unpack_from("<I", data, off)
        off += 4
        if off + mlen > len(data):
            raise LedgerError("manifest overruns the ledger")
        manifest = json.loads(data[off:off + mlen])
        if not isinstance(manifest, dict):
            raise LedgerError("ledger manifest is not a JSON object")
        manifest.setdefault("schema_version", SCHEMA_VERSION)
        off += mlen
        sets = []
        while off < len(data):
            (elen,) = struct.unpack_from("<I", data, off)
            off += 4
            if off + elen > len(data):
                raise LedgerError("entry overruns the ledger")
            sets.append(_eager_entry(data[off:off + elen]))
            off += elen
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise LedgerError(str(e)) from e
    return manifest, sets


def _eager_entry(data: bytes) -> CommitmentSet:
    if len(data) < 10:
        raise LedgerError("shorter than its header")
    i, j, n = struct.unpack_from("<IIH", data, 0)
    if len(data) != 10 + 42 * n + 1 + SIGNATURE_SLOT_BYTES:
        raise LedgerError("wrong size")
    off, entries = 10, {}
    kinds = ("activation", "gradient", "parameter", "optimizer-state")
    for _ in range(n):
        kind_c, index, step, algo_c = struct.unpack_from("<BIIB", data, off)
        if kind_c >= len(kinds) or algo_c >= len(ALGORITHMS):
            raise LedgerError("unknown kind or algorithm code")
        off += 10
        entries[BoundaryKey(kinds[kind_c], index, step)] = \
            Digest(data[off:off + 32], ALGORITHMS[algo_c])
        off += 32
    has_sig, sig = data[off], data[off + 1:]
    if has_sig not in (0, 1) or (not has_sig and sig.strip(b"\x00")):
        raise LedgerError("malformed signature slot")
    return CommitmentSet(BlockId(i, j), entries, sealed=True,
                         signature=sig.rstrip(b"\x00") if has_sig else b"")


def _oracle_encode(manifest, sets) -> bytes:
    frames = [json.dumps(manifest, sort_keys=True,
                         separators=(",", ":")).encode()]
    frames += [s.encode() for s in sets]
    return MAGIC + b"".join(struct.pack("<I", len(f)) + f for f in frames)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_damaged_ledger_bytes_decode_or_raise_ledger_error(ledger_bytes,
                                                           data):
    raw = bytearray(ledger_bytes)
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1),
                                      min_size=1, max_size=8), label="bits"):
            raw[bit // 8] ^= 1 << (bit % 8)
    try:
        want = _eager_decode(bytes(raw))
    except LedgerError:
        want = None
    try:
        ledger = RunLedger.decode(bytes(raw))
    except LedgerError:
        assert want is None
        return
    assert want is not None, "the scan accepts what the eager decoder rejects"
    manifest, sets = want
    assert ledger.manifest == manifest
    assert ledger.blocks == [s.block for s in sets]
    # looked up before any full decode: the first entry of a block wins
    first = {}
    for s in sets:
        first.setdefault(s.block, s)
    for bid, s in first.items():
        got = ledger.entry_for(bid)
        assert (got.block, got.entries, got.signature) == \
            (s.block, s.entries, s.signature)
        assert bid in ledger and ledger.entry_for(bid) is got
    assert [(e.block, e.entries, e.signature) for e in ledger.entries] == \
        [(s.block, s.entries, s.signature) for s in sets]
    assert ledger.encode() == _oracle_encode(manifest, sets)


def test_repeated_block_resolves_to_its_first_entry():
    ledger = RunLedger(_manifest())
    _fill_row(ledger, 0, 2)
    data = ledger.encode()
    again = _sealed(0, 0, n_entries=1).encode()
    back = RunLedger.decode(data + struct.pack("<I", len(again)) + again)
    assert back.blocks == [BlockId(0, 0), BlockId(1, 0), BlockId(0, 0)]
    assert BlockId(0, 0) in back and BlockId(1, 0) in back
    assert BlockId(0, 1) not in back
    first, _, later = back.entries
    assert back.entry_for(BlockId(0, 0)) is first
    assert back.entries_in({BlockId(0, 0)}) == [first, later]
    assert len(later.entries) == 1


def test_entries_decode_when_read(monkeypatch):
    ledger = RunLedger(_manifest())
    _fill_row(ledger, 0, 2)
    _fill_row(ledger, 1, 2)
    decoded = []
    decode = CommitmentSet.decode.__func__

    def counted(cls, data):
        cs = decode(cls, data)
        decoded.append(cs.block)
        return cs

    monkeypatch.setattr(CommitmentSet, "decode", classmethod(counted))
    back = RunLedger.decode(ledger.encode())
    assert decoded == []
    assert BlockId(1, 1) in back
    assert back.entry_for(BlockId(1, 1)) is back.entry_for(BlockId(1, 1))
    assert decoded == [BlockId(1, 1)]
    back.entries
    assert decoded == [BlockId(1, 1), BlockId(0, 0), BlockId(1, 0),
                       BlockId(0, 1)]
    # a change made to a decoded set is what the ledger writes back
    key = BoundaryKey("activation", 0, 1)
    back.entry_for(BlockId(1, 1)).entries[key] = _digest(99)
    assert RunLedger.decode(back.encode()).entry_for(
        BlockId(1, 1)).entries[key] == _digest(99)
