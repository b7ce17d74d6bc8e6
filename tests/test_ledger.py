"""Commitment sets, the one entry rule, and the binary ledger format."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aftune.grid import BlockGrid, BlockId, BoundaryKey, GridConfig
from aftune.hashing import Digest
from aftune.ledger import (MAGIC, SCHEMA_VERSION, CommitmentSet, LedgerError,
                           OrderError, RunLedger, seal_block)
from aftune.presets import default_optimizer
from aftune.recorder import LEDGER_FILE
from aftune.verifier import check_run_spec

# the key schedule of every block the ledgers below hold: rows of two
# steps, so a block's keys are the same at 4 steps as at 6
GRID = BlockGrid(GridConfig(n_layers=4, n_steps=6, bl=2, bs=2))


def _digest(n: int) -> Digest:
    return Digest(bytes([n % 256]) * 32)


def _manifest(n_layers=4, n_steps=4, bl=2, bs=2):
    return {"mode": "training", "hash_algo": "blake3",
            "grid": GridConfig(n_layers=n_layers, n_steps=n_steps,
                               bl=bl, bs=bs).to_dict(),
            "model": {"seed": 7, "layers": [{"kind": "relu"}] * n_layers},
            "optimizer": default_optimizer()}


def _sealed(i, j):
    """Block (i, j)'s set: a distinct digest for each key of its
    schedule."""
    return CommitmentSet(BlockId(i, j), {
        k: _digest(i * 64 + j * 16 + n)
        for n, k in enumerate(GRID.commitment_keys(BlockId(i, j)))})


def _fill_row(ledger, j, n_lb):
    for i in range(n_lb):
        ledger.append(_sealed(i, j))


def test_commitment_set_binary_roundtrip():
    rng = np.random.default_rng(0)
    keys = GRID.commitment_keys(BlockId(1, 2))
    cs = CommitmentSet(BlockId(1, 2), {k: Digest(rng.bytes(32), "sha256")
                                       for k in keys})
    data = cs.encode(keys, "sha256")
    assert data == struct.pack("<II", 1, 2) + b"".join(
        cs.entries[k].value for k in keys)
    back = CommitmentSet.decode(data, keys, "sha256")
    assert back.block == cs.block
    assert back.entries == cs.entries
    assert list(back.entries) == keys


def test_seal_block_reports_missing_keys():
    grid = BlockGrid(GridConfig(n_layers=4, n_steps=4, bl=2, bs=2))
    with pytest.raises(LedgerError) as exc:
        seal_block(grid, BlockId(0, 0), {})
    assert "activation:0@0" in str(exc.value)


@pytest.mark.parametrize("edit", ["empty", "omitted", "extra",
                                  "other-algorithm"])
def test_only_sets_of_the_key_schedule_may_be_appended(edit):
    ledger = RunLedger(_manifest())
    cs = _sealed(0, 0)
    key = BoundaryKey("activation", 1, 0)
    if edit == "empty":
        cs.entries.clear()
    elif edit == "omitted":
        del cs.entries[key]
    elif edit == "extra":
        cs.entries[BoundaryKey("activation", 2, 0)] = _digest(1)
    else:
        cs.entries[key] = Digest(cs.entries[key].value, "sha256")
    with pytest.raises(LedgerError, match="key schedule's 16 blake3 digests"):
        ledger.append(cs)
    assert BlockId(0, 0) not in ledger
    ledger.append(_sealed(0, 0))


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
        ledger.append_row([CommitmentSet(BlockId(2, 0),  # outside the grid
                                         _sealed(1, 0).entries)], path)
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
    # blocks 0,0 and 1,0 both commit boundary 1, with distinct digests
    ledger = RunLedger(_manifest())
    _fill_row(ledger, 0, 2)
    with pytest.raises(LedgerError, match="conflicting digests"):
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


def _framed(ledger: RunLedger, last: bytes) -> bytes:
    """``ledger``'s bytes with ``last`` framed as one more entry."""
    return ledger.encode() + struct.pack("<I", len(last)) + last


def test_commitment_set_sizes_are_exact():
    # block 0,1 after a complete row 0: (i, j) and 16 digests, no more
    ledger = RunLedger(_manifest())
    _fill_row(ledger, 0, 2)
    blob = _sealed(0, 1).encode(GRID.commitment_keys(BlockId(0, 1)),
                                "blake3")
    assert len(blob) == 8 + 32 * 16
    assert RunLedger.decode(_framed(ledger, blob)).blocks[-1] == BlockId(0, 1)
    for bad in (blob[:-1], blob + b"\x00", blob[:-32], blob + blob[-32:],
                blob[:8], blob[:7]):
        with pytest.raises(LedgerError):
            RunLedger.decode(_framed(ledger, bad))


def _eager_decode(data: bytes):
    """Oracle: a ledger decoder that parses and checks every entry at
    load, each against the key schedule of its block, and tracks row
    completeness by counting each row's blocks. Returns the manifest and
    every entry in file order, or raises LedgerError."""
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
        try:
            grid = BlockGrid(check_run_spec(manifest))
        except ValueError as e:
            raise LedgerError(str(e)) from None
        if manifest.get("schema_version") != SCHEMA_VERSION:
            raise LedgerError("unsupported schema version")
        off += mlen
        sets, rows = [], {}
        while off < len(data):
            (elen,) = struct.unpack_from("<I", data, off)
            off += 4
            if off + elen > len(data):
                raise LedgerError("entry overruns the ledger")
            cs = _eager_entry(data[off:off + elen], grid, manifest, sets)
            rows.setdefault(cs.block.j, set()).add(cs.block.i)
            if any(len(rows.get(r, ())) < grid.n_layer_blocks
                   for r in range(cs.block.j)):
                raise LedgerError("a row before the entry's is incomplete")
            sets.append(cs)
            off += elen
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise LedgerError(str(e)) from e
    return manifest, sets


def _eager_entry(data: bytes, grid, manifest, sets) -> CommitmentSet:
    i, j = struct.unpack_from("<II", data, 0)
    bid = BlockId(i, j)
    if not grid.contains(bid):
        raise LedgerError("outside the grid")
    if any(s.block == bid for s in sets):
        raise LedgerError("duplicate")
    keys = grid.committed_keys(bid, manifest["mode"])
    if len(data) != 8 + 32 * len(keys):
        raise LedgerError("wrong size")
    return CommitmentSet(bid, {k: Digest(data[8 + 32 * n:40 + 32 * n],
                                         manifest["hash_algo"])
                               for n, k in enumerate(keys)})


def _oracle_encode(manifest, sets) -> bytes:
    frames = [json.dumps(manifest, sort_keys=True,
                         separators=(",", ":")).encode()]
    frames += [struct.pack("<II", s.block.i, s.block.j)
               + b"".join(d.value for d in s.entries.values()) for s in sets]
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
    # looked up in reverse file order before any full decode
    for s in reversed(sets):
        got = ledger.entry_for(s.block)
        assert (got.block, got.entries) == (s.block, s.entries)
        assert s.block in ledger and ledger.entry_for(s.block) is got
    assert [(e.block, e.entries) for e in ledger.entries] == \
        [(s.block, s.entries) for s in sets]
    assert ledger.encode() == _oracle_encode(manifest, sets)


def test_repeated_block_entry_is_refused_at_load():
    ledger = RunLedger(_manifest())
    _fill_row(ledger, 0, 2)
    again = _sealed(0, 0).encode(GRID.commitment_keys(BlockId(0, 0)),
                                 "blake3")
    with pytest.raises(OrderError, match="duplicate entry for block 0,0"):
        RunLedger.decode(_framed(ledger, again))


def test_entries_decode_when_read(monkeypatch):
    ledger = RunLedger(_manifest())
    _fill_row(ledger, 0, 2)
    _fill_row(ledger, 1, 2)
    decoded = []
    decode = CommitmentSet.decode.__func__

    def counted(cls, *args):
        cs = decode(cls, *args)
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
    key = BoundaryKey("activation", 1, 2)
    back.entry_for(BlockId(1, 1)).entries[key] = _digest(99)
    assert RunLedger.decode(back.encode()).entry_for(
        BlockId(1, 1)).entries[key] == _digest(99)
