"""Commitment sets, the one row rule, and the binary ledger format."""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aftune.grid import BlockGrid, BlockId, BoundaryKey, GridConfig
from aftune.hashing import Digest
from aftune.ledger import (MAGIC, SCHEMA_VERSION, CommitmentSet, LedgerError,
                           RunLedger)
from aftune.presets import default_optimizer
from aftune.recorder import LEDGER_FILE
from aftune.verifier import check_run_spec

from conftest import copy_run

# the key schedule of every row the ledgers below hold: rows of two
# steps, so a row's keys are the same at 4 steps as at 6
GRID = BlockGrid(GridConfig(n_layers=4, n_steps=6, bl=2, bs=2))


def _digest(n: int) -> Digest:
    return Digest(bytes([n % 256]) * 32)


def _manifest(n_layers=4, n_steps=4, bl=2, bs=2):
    return {"mode": "training", "hash_algo": "blake3",
            "grid": GridConfig(n_layers=n_layers, n_steps=n_steps,
                               bl=bl, bs=bs).to_dict(),
            "model": {"seed": 7, "layers": [{"kind": "relu"}] * n_layers},
            "optimizer": default_optimizer()}


def _row(j):
    """Row j's digests: a distinct one for each key of its schedule, in
    its order."""
    return {k: _digest(j * 64 + n)
            for n, k in enumerate(GRID.row_keys(j, "training"))}


def _row_bytes(j) -> bytes:
    return b"".join(d.value for d in _row(j).values())


def _filled(rows, **kw) -> RunLedger:
    ledger = RunLedger(_manifest(**kw))
    for j in range(rows):
        ledger.append(_row(j))
    return ledger


def test_commitment_set_binary_roundtrip():
    # a block's set, read back from the ledger's bytes, holds the digest
    # of each key of its schedule: from its own row, and its entry state
    # from the row above
    back = RunLedger.decode(_filled(2).encode())
    committed = {**_row(0), **_row(1)}
    for bid in back.blocks:
        keys = GRID.commitment_keys(bid)
        cs = back.entry_for(bid)
        assert cs.block == bid and list(cs.entries) == keys
        assert cs.entries == {k: committed[k] for k in keys}


def test_append_reports_missing_keys():
    row = _row(0)
    del row[BoundaryKey("activation", 0, 0)]
    with pytest.raises(LedgerError) as exc:
        RunLedger(_manifest()).append(row)
    assert "activation:0@0" in str(exc.value)


@pytest.mark.parametrize("edit", ["empty", "omitted", "extra",
                                  "other-algorithm"])
def test_only_sets_of_the_key_schedule_may_be_appended(edit):
    ledger = RunLedger(_manifest())
    row = _row(0)
    key = BoundaryKey("activation", 1, 0)
    if edit == "empty":
        row.clear()
    elif edit == "omitted":
        del row[key]
    elif edit == "extra":
        row[BoundaryKey("activation", 2, 2)] = _digest(1)
    else:
        row[key] = Digest(row[key].value, "sha256")
    with pytest.raises(LedgerError, match="key schedule's 28 blake3 digests"):
        ledger.append(row)
    assert BlockId(0, 0) not in ledger
    ledger.append(_row(0))


def test_append_rejects_duplicates():
    # a row's digests filed again are not the next row's
    ledger = _filled(1)
    with pytest.raises(LedgerError, match="ledger row 1"):
        ledger.append(_row(0))
    assert ledger.blocks == [BlockId(0, 0), BlockId(1, 0)]


def test_append_requires_complete_rows():
    # the digests of layer block 0 alone are not a row
    ledger = RunLedger(_manifest())
    left = set(GRID.commitment_keys(BlockId(0, 0)))
    with pytest.raises(LedgerError):
        ledger.append({k: d for k, d in _row(0).items() if k in left})
    assert ledger.blocks == []
    ledger.append(_row(0))
    ledger.append(_row(1))


def test_append_rejects_backfilling_earlier_rows():
    ledger = _filled(2, n_steps=6)
    for j in (0, 1):
        with pytest.raises(LedgerError):
            ledger.append(_row(j))
    ledger.append(_row(2))
    with pytest.raises(LedgerError, match="outside the manifest's grid"):
        ledger.append(_row(2))
    skipped = _filled(1, n_steps=6)
    with pytest.raises(LedgerError):
        skipped.append(_row(2))  # row 1 skipped


def test_ledger_binary_roundtrip_is_byte_identical():
    ledger = _filled(2)
    encoded = ledger.encode()
    frames = [json.dumps(ledger.manifest, sort_keys=True,
                         separators=(",", ":")).encode(),
              _row_bytes(0), _row_bytes(1)]
    assert encoded == MAGIC + b"".join(struct.pack("<I", len(f)) + f
                                       for f in frames)
    back = RunLedger.decode(encoded)
    assert back.encode() == encoded
    assert back.manifest == ledger.manifest
    assert back.blocks == ledger.blocks == GRID.block_ids()[:4]


def test_ledger_save_load(tmp_path):
    ledger = _filled(1)
    path = tmp_path / "ledger.bin"
    ledger.save(path)
    assert RunLedger.load(path).encode() == ledger.encode()


def test_append_row_writes_what_encode_does(tmp_path):
    path = tmp_path / LEDGER_FILE
    ledger = RunLedger(_manifest())
    ledger.save(path)
    for j in range(2):
        ledger.append_row(_row(j), path)
        assert path.read_bytes() == ledger.encode()
    with pytest.raises(LedgerError):
        ledger.append_row(_row(2), path)  # outside the grid
    assert path.read_bytes() == ledger.encode()


@pytest.mark.parametrize("tamper", ["truncated", "rewritten", "copied-over",
                                    "never-written"])
def test_append_row_refuses_a_file_it_did_not_write(tmp_path, tamper):
    path = tmp_path / LEDGER_FILE
    ledger = RunLedger(_manifest())
    ledger.save(path)
    ledger.append_row(_row(0), path)
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
        ledger.append_row(_row(1), path)
    assert path.read_bytes() == before


def test_decode_rejects_bad_magic():
    with pytest.raises(LedgerError):
        RunLedger.decode(b"NOTLEDGER")


def test_all_digests_detects_conflicts():
    # blocks 0,0 and 1,0 both commit boundary 1; one set's copy changed
    ledger = RunLedger.decode(_filled(1).encode())
    ledger.entry_for(BlockId(1, 0)).entries[
        BoundaryKey("activation", 1, 0)] = _digest(200)
    with pytest.raises(LedgerError, match="conflicting digests committed "
                                          "for activation:1@0"):
        ledger.all_digests()


def test_entry_for():
    ledger = _filled(1)
    cs = ledger.entry_for(BlockId(0, 0))
    assert cs.block == BlockId(0, 0)
    assert ledger.entry_for(BlockId(0, 0)) is cs
    assert ledger.entry_for(BlockId(0, 1)) is None  # row 1 not filed
    assert ledger.entry_for(BlockId(5, 5)) is None


def test_decoded_ledger_keeps_its_block_index():
    back = RunLedger.decode(_filled(1).encode())
    for e in back.entries:
        assert back.entry_for(e.block) is e
    # the row rule sees decoded rows too
    with pytest.raises(LedgerError):
        back.append(_row(0))
    back.append(_row(1))
    assert back.entry_for(BlockId(1, 1)) is back.entries[-1]


def test_save_refuses_a_conflicting_copy_of_a_shared_key(mlp_run, tmp_path):
    # the ledger commits each key once: a change to one set's copy of a
    # key that another block also commits (a boundary between layer
    # blocks, or the state one row exits with and the next enters with)
    # cannot be written, and the file stays as it was
    run = copy_run(mlp_run["dir"], tmp_path / "run")
    path = run / LEDGER_FILE
    before = path.read_bytes()
    for bid, key in ((BlockId(1, 0), BoundaryKey("activation", 1, 0)),
                     (BlockId(0, 2), BoundaryKey("gradient", 1, 4)),
                     (BlockId(0, 1), BoundaryKey("parameter", 0, 2)),
                     (BlockId(0, 0), BoundaryKey("optimizer-state", 1, 2))):
        ledger = RunLedger.load(path)
        ledger.entry_for(bid).entries[key] = Digest(bytes(32), "blake3")
        with pytest.raises(LedgerError, match=f"conflicting digests "
                                              f"committed for {key}$"):
            ledger.save(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in run.iterdir()) == \
            sorted(p.name for p in mlp_run["dir"].iterdir())
        # every copy changed alike is one digest, and it is written
        for e in ledger.entries:
            if key in e.entries:
                e.entries[key] = Digest(bytes(32), "blake3")
        ledger.save(tmp_path / "forged.bin")
        assert RunLedger.load(tmp_path / "forged.bin").all_digests()[key] \
            == Digest(bytes(32), "blake3")


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
    """``ledger``'s bytes with ``last`` framed as one more row."""
    return ledger.encode() + struct.pack("<I", len(last)) + last


def test_commitment_set_sizes_are_exact():
    # row 1 after row 0: one digest per key of its schedule, no more
    ledger = _filled(1)
    blob = _row_bytes(1)
    assert len(blob) == 32 * 20
    assert RunLedger.decode(_framed(ledger, blob)).blocks[-1] == BlockId(1, 1)
    for bad in (blob[:-1], blob + b"\x00", blob[:-32], blob + blob[-32:],
                blob[:8], b""):
        with pytest.raises(LedgerError, match="ledger row 1 is"):
            RunLedger.decode(_framed(ledger, bad))


def _eager_decode(data: bytes):
    """Oracle: a ledger decoder that parses every row at load into one
    map of every committed key (no key may appear twice), then builds
    each block's set from that map. Returns the manifest and every
    block's set in row order, or raises LedgerError."""
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
        mode, algo = manifest["mode"], manifest["hash_algo"]
        n_rows = grid.n_step_blocks if mode == "training" else 1
        off += mlen
        committed, rows = {}, 0
        while off < len(data):
            (rlen,) = struct.unpack_from("<I", data, off)
            off += 4
            if off + rlen > len(data):
                raise LedgerError("row overruns the ledger")
            if rows >= n_rows:
                raise LedgerError("outside the grid")
            keys = grid.row_keys(rows, mode)
            if rlen != 32 * len(keys):
                raise LedgerError("wrong size")
            for n, k in enumerate(keys):
                assert k not in committed, f"{k} in two rows"
                committed[k] = Digest(data[off + 32 * n:off + 32 * n + 32],
                                      algo)
            rows += 1
            off += rlen
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise LedgerError(str(e)) from e
    sets = [CommitmentSet(bid, {k: committed[k]
                                for k in grid.committed_keys(bid, mode)})
            for bid in grid.block_ids() if bid.j < rows]
    return manifest, sets


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
    # looked up in reverse row order before any full decode
    for s in reversed(sets):
        got = ledger.entry_for(s.block)
        assert (got.block, got.entries) == (s.block, s.entries)
        assert s.block in ledger and ledger.entry_for(s.block) is got
    assert [(e.block, e.entries) for e in ledger.entries] == \
        [(s.block, s.entries) for s in sets]
    # the manifest is written back in canonical JSON, every row as read
    off = len(MAGIC) + 4 + struct.unpack_from("<I", raw, len(MAGIC))[0]
    canonical = json.dumps(manifest, sort_keys=True,
                           separators=(",", ":")).encode()
    assert ledger.encode() == MAGIC + struct.pack("<I", len(canonical)) \
        + canonical + bytes(raw[off:])


def test_repeated_block_entry_is_refused_at_load():
    # a row framed again past the grid's last row
    with pytest.raises(LedgerError, match="ledger row 2 lies outside the "
                                          "manifest's grid of 2 rows"):
        RunLedger.decode(_framed(_filled(2), _row_bytes(1)))


def test_entries_decode_when_read(monkeypatch):
    ledger = _filled(2)
    decoded = []
    decode = RunLedger._decode_row

    def counted(self, j):
        decoded.append(j)
        return decode(self, j)

    monkeypatch.setattr(RunLedger, "_decode_row", counted)
    back = RunLedger.decode(ledger.encode())
    assert decoded == []
    assert BlockId(1, 1) in back
    assert back.entry_for(BlockId(1, 1)) is back.entry_for(BlockId(1, 1))
    assert decoded == [1, 0]  # its own row, then its entry state's
    back.entries
    assert decoded == [1, 0]
    # a change made alike to every set that holds a key is what the
    # ledger writes back
    key = BoundaryKey("activation", 1, 2)
    for bid in (BlockId(0, 1), BlockId(1, 1)):
        back.entry_for(bid).entries[key] = _digest(99)
    assert RunLedger.decode(back.encode()).entry_for(
        BlockId(1, 1)).entries[key] == _digest(99)
