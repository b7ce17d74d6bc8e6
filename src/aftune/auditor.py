"""Randomized spot-check audits over the block grid.

An audit samples m of the N grid blocks (without replacement),
verifies each, and fails the run on any non-pass verdict. The sampling
seed is committed (hashed) before block choice is revealed, so a
provider cannot steer the auditor away from tampered cells. Closed
forms for evasion/detection probabilities accompany the empirical
campaign driver.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, exp, sqrt

from .grid import BlockGrid, BlockId
from .orchestrate import Run
from .rng import rng_for
from .verifier import PASS

STRATEGIES = ("uniform", "input-row", "per-step-column", "explicit")


class AuditError(Exception):
    pass


# -- probability of catching tampering ----------------------------------


def p_evade_exact(n_blocks: int, k_tampered: int, m_samples: int) -> float:
    """Probability that m uniform draws without replacement all miss the
    k tampered blocks: prod_{i<m} (N-k-i)/(N-i) = C(N-k,m)/C(N,m)."""
    if not 0 <= k_tampered <= n_blocks:
        raise ValueError("k must be in [0, N]")
    if not 0 <= m_samples <= n_blocks:
        raise ValueError("m must be in [0, N]")
    if m_samples > n_blocks - k_tampered:
        return 0.0
    return float(Fraction(comb(n_blocks - k_tampered, m_samples),
                          comb(n_blocks, m_samples)))


def p_detect_exact(n_blocks: int, k_tampered: int, m_samples: int) -> float:
    return 1.0 - p_evade_exact(n_blocks, k_tampered, m_samples)


def p_detect_binomial(rho: float, m_samples: int) -> float:
    """With-replacement approximation 1-(1-rho)^m for tamper rate rho."""
    return 1.0 - (1.0 - rho) ** m_samples


def p_detect_poisson(rho: float, m_samples: int) -> float:
    """Rare-event approximation 1-exp(-rho*m)."""
    return 1.0 - exp(-rho * m_samples)


def p_detect_approx(rho: float, m_samples: int,
                    n_blocks: int | None = None) -> dict:
    """Both closed-form approximations, with the exact value alongside
    when N is known (k is then rho*N rounded)."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must be in [0, 1]")
    if m_samples < 0:
        raise ValueError("m must be >= 0")
    out = {"binomial": p_detect_binomial(rho, m_samples),
           "poisson": p_detect_poisson(rho, m_samples)}
    if n_blocks is not None:
        out["exact"] = p_detect_exact(n_blocks, round(rho * n_blocks),
                                      m_samples)
    return out


def wilson_interval(hits: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        return (0.0, 1.0)
    p = hits / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# -- sampling plans ------------------------------------------------------


@dataclass
class AuditPlan:
    m: int                       # blocks to verify (uniform strategy)
    strategy: str = "uniform"
    seed: int = 0
    blocks: list[str] = field(default_factory=list)  # explicit

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise AuditError(f"unknown strategy {self.strategy!r}")
        if self.m < 1 and self.strategy != "explicit":
            raise AuditError("m must be >= 1")
        if self.strategy == "explicit" and not self.blocks:
            raise AuditError("the explicit strategy needs at least one block")

    def commitment(self) -> str:
        """Hash of the plan (seed included): publish before sampling so
        the choice of blocks is provably not adaptive."""
        payload = json.dumps({
            "m": self.m, "strategy": self.strategy, "seed": self.seed,
            "blocks": self.blocks,
        }, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def _explicit_blocks(plan: AuditPlan, grid: BlockGrid) -> list[BlockId]:
    """The explicit plan's blocks, each required to parse and to lie in
    ``grid``."""
    out = []
    for s in plan.blocks:
        try:
            bid = BlockId.parse(s)
        except ValueError:
            raise AuditError(f"block must look like 'i,j', got {s!r}") \
                from None
        if not grid.contains(bid):
            raise AuditError(f"block {bid} lies outside the "
                             f"{grid.n_layer_blocks}x{grid.n_step_blocks} "
                             f"grid")
        out.append(bid)
    return out


def sample_blocks(plan: AuditPlan, grid: BlockGrid,
                  trial: int = 0) -> list[BlockId]:
    """The blocks one audit verifies.

    uniform: m distinct draws from the whole grid. input-row: every
    first-layer-block cell (deterministic coverage of the data path,
    the anti-poisoning strategy). per-step-column: one randomly chosen
    layer block per step block (the anti-substitution strategy).
    explicit: exactly the listed blocks.
    """
    if plan.strategy == "explicit":
        return _explicit_blocks(plan, grid)
    if plan.strategy == "input-row":
        return [BlockId(0, j) for j in range(grid.n_step_blocks)]
    rng = rng_for(plan.seed, "audit-sample", step=trial)
    if plan.strategy == "per-step-column":
        return [BlockId(int(rng.integers(0, grid.n_layer_blocks)), j)
                for j in range(grid.n_step_blocks)]
    # the uniform pool is grid.block_ids(): position k is block
    # (k mod n_layer_blocks, k div n_layer_blocks)
    if plan.m > grid.n_blocks:
        raise AuditError(
            f"m={plan.m} exceeds the {plan.strategy} pool of {grid.n_blocks}")
    idx = rng.choice(grid.n_blocks, size=plan.m, replace=False)
    n_lb = grid.n_layer_blocks
    return [BlockId(int(k) % n_lb, int(k) // n_lb) for k in sorted(idx)]


# -- running audits ------------------------------------------------------


@dataclass
class AuditReport:
    plan_commitment: str
    sampled: list[str]
    verdicts: dict[str, str]
    ok: bool
    reports: list[dict] = field(default_factory=list)
    wall_time: float = 0.0


def audit_run(run: Run, plan: AuditPlan, **verify_kw) -> AuditReport:
    """One audit of an open ``run``: sample per the committed plan and
    take each sampled block's verdict from ``Run.verify``."""
    t0 = time.perf_counter()
    chosen = sample_blocks(plan, run.grid)
    reports = run.verify(chosen, **verify_kw)
    verdicts = {str(r.block): r.verdict for r in reports}
    return AuditReport(
        plan_commitment=plan.commitment(),
        sampled=[str(b) for b in chosen],
        verdicts=verdicts,
        ok=all(v == PASS for v in verdicts.values()),
        reports=[r.to_json() for r in reports],
        wall_time=time.perf_counter() - t0,
    )


@dataclass
class CampaignResult:
    trials: int
    detections: int
    empirical_rate: float
    ci95: tuple[float, float]
    exact_rate: float
    failing_blocks: list[str]
    per_trial: list[bool] = field(default_factory=list)


def _exact_campaign_rate(plan: AuditPlan, grid: BlockGrid,
                         failing: set[BlockId]) -> float:
    """Closed-form detection probability of one audit of ``plan``."""
    if plan.strategy == "uniform":
        pool = grid.block_ids()
        k = sum(1 for b in pool if b in failing)
        return p_detect_exact(len(pool), k, min(plan.m, len(pool)))
    if plan.strategy in ("input-row", "explicit"):  # no sampling
        fixed = sample_blocks(plan, grid)
        return 1.0 if any(b in failing for b in fixed) else 0.0
    # per-step-column: independent uniform pick per step-block row
    evade = 1.0
    for j in range(grid.n_step_blocks):
        k_j = sum(1 for b in failing if b.j == j)
        evade *= 1.0 - k_j / grid.n_layer_blocks
    return 1.0 - evade


def run_campaign(run: Run, plan: AuditPlan, trials: int,
                 **verify_kw) -> CampaignResult:
    """Estimate the detection rate of ``plan`` against an open, possibly
    tampered ``run``: verify every grid block once to find the failing
    set, then resample the plan many times and count samples that
    intersect it."""
    grid = run.grid
    blocks = grid.block_ids()
    failing = {bid for bid, rep in zip(blocks, run.verify(blocks, **verify_kw))
               if not rep.passed}
    per_trial = []
    for r in range(trials):
        sampled = sample_blocks(plan, grid, trial=r)
        per_trial.append(any(b in failing for b in sampled))
    hits = sum(per_trial)
    return CampaignResult(
        trials=trials, detections=hits,
        empirical_rate=hits / trials if trials else 0.0,
        ci95=wilson_interval(hits, trials),
        exact_rate=_exact_campaign_rate(plan, grid, failing),
        failing_blocks=sorted(str(b) for b in failing),
        per_trial=per_trial,
    )
