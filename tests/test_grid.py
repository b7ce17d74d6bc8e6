"""Block grid partitioning, schedules, and the storage formula."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftune.grid import (BlockGrid, BlockId, BoundaryKey, GridConfig,
                         storage_estimate)


@st.composite
def config_strategy(draw):
    n_layers = draw(st.integers(1, 40))
    n_steps = draw(st.integers(1, 50))
    return GridConfig(
        n_layers=n_layers, n_steps=n_steps,
        bl=draw(st.integers(1, n_layers)),
        bs=draw(st.integers(1, n_steps)),
        ic=draw(st.one_of(st.none(), st.integers(1, 8))),
    )


@settings(max_examples=120, deadline=None)
@given(config_strategy())
def test_partition_covers_layers_exactly_once(config):
    grid = BlockGrid(config)
    covered = [l for i in range(grid.n_layer_blocks)
               for l in grid.block_layers(i)]
    assert covered == list(range(config.n_layers))
    assert all(len(grid.block_layers(i)) <= config.bl
               for i in range(grid.n_layer_blocks))
    covered_steps = [t for j in range(grid.n_step_blocks)
                     for t in grid.block_steps(j)]
    assert covered_steps == list(range(config.n_steps))


@settings(max_examples=120, deadline=None)
@given(config_strategy())
def test_block_counts_match_ceiling_formulas(config):
    grid = BlockGrid(config)
    assert grid.n_layer_blocks == math.ceil(config.n_layers / config.bl)
    assert grid.n_step_blocks == math.ceil(config.n_steps / config.bs)
    assert grid.n_blocks == grid.n_layer_blocks * grid.n_step_blocks
    assert grid.n_boundaries == grid.n_layer_blocks + 1
    assert len(grid.block_ids()) == grid.n_blocks


@settings(max_examples=80, deadline=None)
@given(config_strategy(), st.lists(st.integers(0, 39), max_size=3),
       st.integers(1, 8))
def test_committed_keys_are_the_mode_schedule_and_its_count(config, isolate,
                                                            ia):
    # the ledger's rows hold every committed key once: block (i, j)'s in
    # row j, or its entry state in row j-1; a row's size is counted
    # without building its keys
    config = replace(config, ia=ia, isolate_layers=tuple(
        sorted({l for l in isolate if l < config.n_layers})))
    grid = BlockGrid(config)
    for mode, n_rows in (("training", grid.n_step_blocks), ("inference", 1)):
        rows = [grid.row_keys(j, mode) for j in range(n_rows)]
        row_of = {k: j for j, keys in enumerate(rows) for k in keys}
        assert len(row_of) == sum(map(len, rows))
        assert [grid.n_row_keys(j, mode) for j in range(n_rows)] == \
            list(map(len, rows))
        committed = set()
        for bid in grid.block_ids()[:n_rows * grid.n_layer_blocks]:
            keys = grid.committed_keys(bid, mode)
            assert len(set(keys)) == len(keys)
            assert {row_of[k] for k in keys} <= {bid.j, bid.j - 1}
            committed.update(keys)
        assert committed == set(row_of)
    for bid in grid.block_ids():
        assert grid.committed_keys(bid, "training") == \
            grid.commitment_keys(bid)
        assert grid.committed_keys(bid, "inference") == \
            grid.inference_commitment_keys(bid)


@settings(max_examples=80, deadline=None)
@given(config_strategy(), st.data())
def test_block_of_inverts_partition(config, data):
    grid = BlockGrid(config)
    layer = data.draw(st.integers(0, config.n_layers - 1))
    step = data.draw(st.integers(0, config.n_steps - 1))
    bid = grid.block_of(layer, step)
    assert layer in grid.block_layers(bid.i)
    assert step in grid.block_steps(bid.j)


def test_boundary_dedup_shared_keys_between_neighbors():
    grid = BlockGrid(GridConfig(n_layers=6, n_steps=4, bl=2, bs=2))
    left = set(grid.commitment_keys(BlockId(0, 0)))
    right = set(grid.commitment_keys(BlockId(1, 0)))
    shared = {k for k in left & right if k.kind == "activation"}
    # the shared boundary (index 1) at both steps of the block
    assert shared == {BoundaryKey("activation", 1, 0),
                      BoundaryKey("activation", 1, 1)}


@settings(max_examples=60, deadline=None)
@given(config_strategy())
def test_distinct_activation_keys_per_step_is_boundary_count(config):
    grid = BlockGrid(config)
    keys = set()
    for j in range(grid.n_step_blocks):
        for i in range(grid.n_layer_blocks):
            keys.update(k for k in grid.commitment_keys(BlockId(i, j))
                        if k.kind == "activation")
    per_step = {t: sum(1 for k in keys if k.step == t)
                for t in range(config.n_steps)}
    assert all(v == grid.n_boundaries for v in per_step.values())


def test_boundary_layer_maps_to_layer_indices():
    grid = BlockGrid(GridConfig(n_layers=7, n_steps=2, bl=3, bs=1))
    assert grid.layer_blocks == [(0, 3), (3, 6), (6, 7)]
    assert [grid.boundary_layer(b) for b in range(grid.n_boundaries)] \
        == [0, 3, 6, 7]


def test_checkpoint_steps_schedule():
    config = GridConfig(n_layers=4, n_steps=12, bl=2, bs=2, ic=3)
    grid = BlockGrid(config)
    # step blocks start at 0,2,4,6,8,10; every 3rd start but step 0, which
    # the manifest derives, plus the final step
    assert grid.checkpoint_steps(0) == [6, 12]
    assert BlockGrid(replace(config, ic=None)).checkpoint_steps(0) == [12]
    assert BlockGrid(replace(config, ic=1)).checkpoint_steps(0) \
        == [2, 4, 6, 8, 10, 12]
    assert BlockGrid(replace(config, zero_storage=True)) \
        .checkpoint_steps(0) == []


def test_isolated_layers_become_singleton_blocks():
    config = GridConfig(n_layers=5, n_steps=4, bl=2, bs=2, ic=4,
                        isolate_layers=(2,))
    grid = BlockGrid(config)
    assert grid.layer_blocks == [(0, 2), (2, 3), (3, 5)]
    assert grid.is_isolated(1) and not grid.is_isolated(0)
    # the isolated block checkpoints at every step block
    assert grid.checkpoint_interval(1) == 1
    assert grid.checkpoint_steps(1) == [2, 4]
    assert grid.checkpoint_steps(0) == [4]


def test_commitment_keys_shape():
    grid = BlockGrid(GridConfig(n_layers=6, n_steps=8, bl=2, bs=2, ic=2))
    keys = grid.commitment_keys(BlockId(1, 1))
    steps = list(grid.block_steps(1))
    layers = list(grid.block_layers(1))
    acts = [k for k in keys if k.kind == "activation"]
    params = [k for k in keys if k.kind == "parameter"]
    assert {(k.index, k.step) for k in acts} \
        == {(b, t) for t in steps for b in (1, 2)}
    # parameters committed at block entry and exit for each owned layer
    assert {(k.index, k.step) for k in params} \
        == {(l, t) for l in layers for t in (2, 4)}
    assert len(keys) == 4 * len(steps) + 4 * len(layers)


def test_inference_boundaries_and_keys():
    grid = BlockGrid(GridConfig(n_layers=8, n_steps=1, bl=1, bs=1, ia=3))
    assert grid.inference_boundaries() == [0, 3, 6, 8]
    # a block between recorded edges commits its enclosing pair
    keys = grid.inference_commitment_keys(BlockId(4, 0))
    assert [str(k) for k in keys] == ["activation:3@0", "activation:6@0"]


SCHEDULE_GRIDS = {
    "ic1": GridConfig(n_layers=5, n_steps=9, bl=2, bs=2, ic=1),
    "ic2": GridConfig(n_layers=5, n_steps=9, bl=2, bs=2, ic=2),
    "icinf": GridConfig(n_layers=5, n_steps=9, bl=2, bs=2, ic=None),
    "isolated": GridConfig(n_layers=5, n_steps=9, bl=2, bs=2, ic=None,
                           isolate_layers=(2,)),
    "zero-storage": GridConfig(n_layers=5, n_steps=9, bl=2, bs=2, ic=2,
                               zero_storage=True),
}


@pytest.mark.parametrize("name", sorted(SCHEDULE_GRIDS))
def test_commitment_keys_are_the_key_schedule(name):
    grid = BlockGrid(SCHEDULE_GRIDS[name])
    for bid in grid.block_ids():
        entry, exit_ = grid.commitment_boundary_steps(bid.j)
        assert grid.commitment_keys(bid) == grid.boundary_keys(bid) \
            + grid.state_keys(bid.i, entry) + grid.state_keys(bid.i, exit_)
        for t in grid.block_steps(bid.j):
            assert [str(k) for k in grid.replay_inputs(bid.i, t)] == \
                [f"activation:{bid.i}@{t}", f"gradient:{bid.i + 1}@{t}"]
            assert [str(k) for k in grid.replay_outputs(bid.i, t)] == \
                [f"activation:{bid.i + 1}@{t}", f"gradient:{bid.i}@{t}"]
            assert set(grid.replay_inputs(bid.i, t)) \
                | set(grid.replay_outputs(bid.i, t)) \
                == {k for k in grid.boundary_keys(bid) if k.step == t}


@pytest.mark.parametrize("name", sorted(SCHEDULE_GRIDS))
def test_replay_origin_is_the_last_checkpoint_at_or_before(name):
    config = SCHEDULE_GRIDS[name]
    grid = BlockGrid(config)
    for i in range(grid.n_layer_blocks):
        ic = grid.checkpoint_interval(i)
        for t in range(config.n_steps + 1):
            if config.zero_storage:
                want = None
            elif t == config.n_steps:
                want = t  # the delivered final state is stored
            elif ic is None:
                want = None  # only the step-0 init, derived from the manifest
            else:
                j = next(j for j, (a, b) in enumerate(grid.step_blocks)
                         if a <= t < b)
                # the step-0 state is derived, never stored
                want = grid.step_blocks[j // ic * ic][0] or None
            assert grid.replay_origin(i, t) == want, (i, t)


@pytest.mark.parametrize("name", sorted(SCHEDULE_GRIDS))
def test_checkpoint_steps_are_the_schedule(name):
    config = SCHEDULE_GRIDS[name]
    grid = BlockGrid(config)
    for i in range(grid.n_layer_blocks):
        ic = grid.checkpoint_interval(i)
        want = [] if config.zero_storage else sorted(
            {a for j, (a, _) in enumerate(grid.step_blocks)
             if ic is not None and j % ic == 0 and j} | {config.n_steps})
        got = grid.checkpoint_steps(i)
        assert got == want
        got.append(-1)  # each call hands out its own list
        assert grid.checkpoint_steps(i) == want


def test_config_validation():
    with pytest.raises(ValueError):
        GridConfig(n_layers=4, n_steps=4, bl=5, bs=2)
    with pytest.raises(ValueError):
        GridConfig(n_layers=4, n_steps=4, bl=2, bs=0)
    with pytest.raises(ValueError):
        GridConfig(n_layers=4, n_steps=4, bl=2, bs=2, ic=0)
    for isolated in ((4,), (-1,), (1, 1)):  # outside [0, n_layers), repeated
        with pytest.raises(ValueError, match="isolate_layers"):
            GridConfig(n_layers=4, n_steps=4, bl=2, bs=2,
                       isolate_layers=isolated)


def test_config_dict_roundtrip():
    config = GridConfig(n_layers=5, n_steps=6, bl=2, bs=3, ic=None, ia=2,
                        isolate_layers=(1,), zero_storage=True)
    assert GridConfig.from_dict(config.to_dict()) == config


def test_key_string_roundtrip():
    key = BoundaryKey("optimizer-state", 3, 17)
    assert BoundaryKey.parse(str(key)) == key
    bid = BlockId(4, 9)
    assert BlockId.parse(str(bid)) == bid


def test_keys_hash_compare_and_order_as_their_fields():
    # a key is the tuple of its fields: hash, order and iteration order of
    # a set stay those the keys always had, so nothing written moves
    keys = [BoundaryKey(kind, index, step)
            for kind in ("parameter", "gradient", "optimizer-state",
                         "activation")
            for index in (3, 0, 12) for step in (7, 0, 100)]
    bids = [BlockId(i, j) for i in (2, 0, 11) for j in (5, 1, 0)]
    for k in keys + bids:
        assert hash(k) == hash(tuple(k))
        assert type(k).parse(str(k)) == k and f"{k}" == str(k)
    assert sorted(keys) == sorted(keys, key=lambda k: (k.kind, k.index,
                                                       k.step))
    assert sorted(bids) == sorted(bids, key=lambda b: (b.i, b.j))
    assert [tuple(k) for k in set(keys)] == list({tuple(k) for k in keys})
    assert [str(k) for k in sorted(keys)[:2]] == \
        ["activation:0@0", "activation:0@7"]
    assert repr(BlockId(1, 2)) == "BlockId(i=1, j=2)"
    with pytest.raises(AttributeError):
        keys[0].step = 1


@pytest.mark.parametrize("name", sorted(SCHEDULE_GRIDS))
def test_a_replay_reads_its_inputs_but_the_loss_seed(name):
    grid = BlockGrid(SCHEDULE_GRIDS[name])
    last = grid.n_layer_blocks - 1
    for i in range(grid.n_layer_blocks):
        for t in range(grid.config.n_steps):
            x, upstream = grid.replay_inputs(i, t)
            assert grid.replay_reads(i, t) == \
                ((x,) if i == last else (x, upstream))


def test_derived_keys_are_the_model_inputs_and_the_step_0_state():
    derived = {"activation:0@0", "activation:0@5", "parameter:3@0",
               "optimizer-state:0@0"}
    stored = {"activation:1@0", "gradient:0@0", "gradient:0@5",
              "parameter:3@2", "optimizer-state:0@5"}
    for s in derived | stored:
        assert BoundaryKey.parse(s).derived == (s in derived), s


def test_storage_estimate_matches_hand_formula():
    config = GridConfig(n_layers=6, n_steps=8, bl=2, bs=2, ic=2)
    sizes = [64, 256, 256, 12]  # one per boundary
    est = storage_estimate(config, param_bytes=1000, opt_bytes=2000,
                           boundary_bytes=sizes)
    # checkpoints at steps 4, 8 (step 0 is derived): 2 * (1000 + 2000)
    assert est["checkpoint_bytes"] == 2 * 3000
    # activations + gradients at every boundary, every step, but the
    # derived model input
    assert est["boundary_bytes"] == 2 * 8 * sum(sizes) - 8 * 64
    assert est["total_bytes"] == est["checkpoint_bytes"] + est["boundary_bytes"]
    uniform = storage_estimate(config, 1000, 2000, 100)
    assert uniform["boundary_bytes"] == (2 * 4 - 1) * 8 * 100


def test_storage_estimate_zero_storage_and_errors():
    config = GridConfig(n_layers=6, n_steps=8, bl=2, bs=2, ic=None,
                        zero_storage=True)
    est = storage_estimate(config, 1000, 2000, 100)
    assert est == {"checkpoint_bytes": 0, "boundary_bytes": 0,
                   "total_bytes": 0}
    with pytest.raises(ValueError):
        storage_estimate(replace(config, zero_storage=False,
                                 isolate_layers=(1,)), 1000, 2000, 100)
    with pytest.raises(ValueError):
        storage_estimate(replace(config, zero_storage=False), 1000, 2000,
                         [1, 2])  # wrong per-boundary count
