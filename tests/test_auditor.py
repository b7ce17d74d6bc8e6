"""Spot-check sampling: closed-form detection odds against brute-force
rational oracles, committed plans, and audit/campaign behavior."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from aftune.auditor import (AuditError, AuditPlan, audit_run,
                            p_detect_approx, p_detect_binomial,
                            p_detect_exact, p_detect_poisson, p_evade_exact,
                            run_campaign, sample_blocks, wilson_interval)
from aftune.grid import BlockGrid, BlockId, GridConfig
from aftune.orchestrate import Run

GRID = BlockGrid(GridConfig(n_layers=8, n_steps=12, bl=2, bs=3))  # 4 x 4


def evade_product_oracle(n, k, m) -> Fraction:
    """Sequential without-replacement product, evaluated exactly."""
    p = Fraction(1)
    for i in range(m):
        if n - i <= 0:
            return Fraction(0)
        p *= Fraction(n - k - i, n - i)
        if p < 0:
            return Fraction(0)
    return p


def test_evasion_matches_product_oracle_exhaustively():
    for n in range(0, 31):
        for k in range(0, n + 1):
            for m in range(0, n + 1):
                want = evade_product_oracle(n, k, m)
                want = max(want, Fraction(0))
                if m > n - k:
                    want = Fraction(0)
                got = p_evade_exact(n, k, m)
                assert got == pytest.approx(float(want), abs=1e-15), (n, k, m)


def test_detection_edge_cases():
    assert p_detect_exact(10, 0, 5) == 0.0      # nothing to find
    assert p_detect_exact(10, 3, 0) == 0.0      # no samples
    assert p_detect_exact(10, 3, 8) == 1.0      # cannot avoid all tampered
    assert p_evade_exact(10, 10, 1) == 0.0
    with pytest.raises(ValueError):
        p_evade_exact(10, 11, 1)
    with pytest.raises(ValueError):
        p_evade_exact(10, 1, 11)


def test_large_grid_detection_value():
    # 1000 blocks, 100 tampered, 10 samples: about a 65% catch rate
    exact = p_detect_exact(1000, 100, 10)
    assert exact == pytest.approx(0.653072285207994, abs=1e-12)
    approx = p_detect_approx(0.1, 10, n_blocks=1000)
    assert approx["binomial"] == pytest.approx(1 - 0.9 ** 10, rel=1e-12)
    assert approx["poisson"] == pytest.approx(1 - np.exp(-1.0), rel=1e-12)
    assert approx["exact"] == pytest.approx(exact, rel=1e-12)
    # without replacement detects slightly more often than with
    assert approx["exact"] > approx["binomial"] > approx["poisson"]


def test_approximations_validate_inputs():
    with pytest.raises(ValueError):
        p_detect_approx(1.5, 3)
    with pytest.raises(ValueError):
        p_detect_approx(0.5, -1)
    assert p_detect_binomial(0.0, 10) == 0.0
    assert p_detect_poisson(0.0, 10) == 0.0


def test_wilson_interval_frozen_values():
    # textbook value for 5 successes out of 10 at z = 1.96
    lo, hi = wilson_interval(5, 10)
    assert (lo, hi) == pytest.approx((0.2366, 0.7634), abs=5e-4)
    assert wilson_interval(0, 20)[0] == 0.0
    assert wilson_interval(20, 20)[1] == 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_plan_commitment_is_binding():
    a = AuditPlan(m=3, strategy="uniform", seed=1)
    b = AuditPlan(m=3, strategy="uniform", seed=1)
    c = AuditPlan(m=3, strategy="uniform", seed=2)
    assert a.commitment() == b.commitment()
    assert a.commitment() != c.commitment()
    with pytest.raises(AuditError):
        AuditPlan(m=0)
    with pytest.raises(AuditError):
        AuditPlan(m=3, strategy="adaptive")


def test_uniform_sampling_shape_and_determinism():
    plan = AuditPlan(m=5, strategy="uniform", seed=7)
    got = sample_blocks(plan, GRID)
    assert len(got) == len(set(got)) == 5
    assert all(b in set(GRID.block_ids()) for b in got)
    assert sample_blocks(plan, GRID) == got           # same trial, same draw
    assert sample_blocks(plan, GRID, trial=1) != got  # fresh per trial
    with pytest.raises(AuditError):
        sample_blocks(AuditPlan(m=99, seed=0), GRID)


def test_input_row_and_column_strategies():
    row = sample_blocks(AuditPlan(m=1, strategy="input-row", seed=0), GRID)
    assert row == [BlockId(0, j) for j in range(GRID.n_step_blocks)]
    col = sample_blocks(AuditPlan(m=1, strategy="per-step-column", seed=3),
                        GRID)
    assert [b.j for b in col] == list(range(GRID.n_step_blocks))
    assert all(0 <= b.i < GRID.n_layer_blocks for b in col)
    explicit = sample_blocks(AuditPlan(m=0, strategy="explicit",
                                       blocks=["1,2", "0,0"]), GRID)
    assert explicit == [BlockId(1, 2), BlockId(0, 0)]


def test_uniform_sampling_frequencies_are_uniform():
    plan = AuditPlan(m=4, strategy="uniform", seed=13)
    counts = {b: 0 for b in GRID.block_ids()}
    trials = 4000
    for r in range(trials):
        for b in sample_blocks(plan, GRID, trial=r):
            counts[b] += 1
    expect = plan.m / GRID.n_blocks  # 0.25
    freqs = np.array(list(counts.values())) / trials
    assert abs(freqs.mean() - expect) < 1e-12  # m draws split over N blocks
    assert np.all(np.abs(freqs - expect) < 0.03)


def test_audit_run_on_honest_run(mlp_run):
    plan = AuditPlan(m=4, strategy="uniform", seed=5)
    report = audit_run(Run.open(mlp_run["dir"]), plan)
    assert report.ok
    assert report.plan_commitment == plan.commitment()
    assert len(report.sampled) == 4
    assert set(report.verdicts.values()) == {"pass"}


def test_audit_rejects_uncommitted_explicit_blocks(mlp_run):
    plan = AuditPlan(m=0, strategy="explicit", blocks=["9,9"])
    with pytest.raises(AuditError):
        audit_run(Run.open(mlp_run["dir"]), plan)


def test_campaign_on_honest_run_never_detects(mlp_run):
    plan = AuditPlan(m=2, strategy="uniform", seed=3)
    result = run_campaign(Run.open(mlp_run["dir"]), plan, trials=50)
    assert result.failing_blocks == []
    assert result.detections == 0
    assert result.exact_rate == 0.0


def test_per_step_column_exact_rate_formula():
    # oracle: independent column picks; evade = prod_j (1 - k_j / n_lb)
    from aftune.auditor import _exact_campaign_rate
    failing = {BlockId(0, 0), BlockId(1, 0), BlockId(2, 3)}
    plan = AuditPlan(m=1, strategy="per-step-column", seed=0)
    got = _exact_campaign_rate(plan, GRID, failing)
    want = 1.0 - (1 - 2 / 4) * (1 - 0 / 4) * (1 - 0 / 4) * (1 - 1 / 4)
    assert got == pytest.approx(want, rel=1e-12)
