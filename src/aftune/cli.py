"""Operator command surface.

Exit codes: 0 all requested checks pass, 1 a verification/audit check
failed, 2 usage or malformed-artifact errors. Every command that
produces findings writes a machine-readable JSON report into the run
directory next to a plain-text summary on stdout.
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import click

from . import __version__
from .adversary import (SCENARIOS, apply_inference_scenario, apply_scenario,
                        boundary_attack_profile, parameter_poison_attack)
from .auditor import (STRATEGIES, AuditError, AuditPlan, audit_run,
                      p_detect_approx, p_detect_exact, run_campaign,
                      sample_blocks)
from .data import make_dataset
from .grid import BlockId, GridConfig, check_tau
from .hashing import ALGORITHMS, hash_bytes
from .ledger import LedgerError
from .model import build_model
from .optim import check_optimizer_spec
from .orchestrate import Run
from .presets import (ATTACK_SAMPLE, PRESETS, dataset_for, default_optimizer,
                      grid_for, model_for, trained_attack_classifier)
from .recorder import (LEDGER_FILE, build_inference_manifest,
                       build_manifest, record_inference, record_training)
from .store import StoreError
from .tensors import NonFiniteError

RUN_ROOT_ENV = "AFTUNE_RUN_ROOT"


def _run_dir(path: str) -> Path:
    root = Path(click.get_current_context().obj.get("root", "."))
    p = Path(path)
    return p if p.is_absolute() else root / p


def _open_run(run_dir: Path) -> Run:
    try:
        return Run.open(run_dir)
    except (FileNotFoundError, LedgerError, StoreError) as e:
        raise click.UsageError(str(e))


@contextmanager
def _usage_errors():
    """Report a ValueError from checking option values (a grid config,
    an optimizer spec or the detection-odds inputs) as a usage error."""
    try:
        yield
    except ValueError as e:
        raise click.UsageError(str(e)) from None


def _finite(obj):
    """``obj`` with every non-finite float replaced by None, so reports
    are strict JSON."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_report(run_dir: Path, name: str, payload: dict) -> None:
    (run_dir / name).write_text(json.dumps(_finite(payload), indent=2,
                                           default=str, allow_nan=False))


@click.group()
@click.version_option(__version__)
@click.option("--root", envvar=RUN_ROOT_ENV, default=".",
              help="Base directory that relative run paths resolve against.")
@click.pass_context
def main(ctx, root):
    """Auditable fine-tuning and inference at desk scale."""
    ctx.obj = {"root": root}


# -- recording -----------------------------------------------------------


def _grid_options(*names):
    """Add the grid options ``names`` to a command, every one when none
    is named."""
    options = {
        "n_steps": click.option("--n-steps", default=8, show_default=True),
        "bl": click.option("--bl", default=2, show_default=True,
                           help="Layer-block size."),
        "bs": click.option("--bs", default=2, show_default=True,
                           help="Step-block size."),
        "ic": click.option("--ic", default="2", show_default=True,
                           help="Checkpoint interval in step blocks; 'inf' "
                                "for the zero-storage strategy."),
        "ia": click.option("--ia", default=1, show_default=True,
                           help="Recorded-boundary interval (inference)."),
        "chunk_size": click.option("--chunk-size", default=4096,
                                   show_default=True,
                                   help="Hash chunk size in elements."),
        "algo": click.option("--algo", type=click.Choice(ALGORITHMS),
                             default="blake3", show_default=True),
        "tau": click.option("--tau", default=1e-5, show_default=True,
                            help="Verification tolerance (relative L2)."),
    }

    def add(f):
        for name in reversed(names or list(options)):
            f = options[name](f)
        return f
    return add


def _tau_option(ctx, param, tau):
    """``--tau`` unless it breaks the tolerance rule GridConfig applies."""
    if tau is not None:
        try:
            check_tau(tau)
        except ValueError as e:
            raise click.BadParameter(str(e))
    return tau


def _ledger_digest(run_dir: Path, algo: str) -> str:
    """The digest of the recorded ledger's bytes on disk, which equal
    ``ledger.encode()``, so no entry is encoded again."""
    return hash_bytes((run_dir / LEDGER_FILE).read_bytes(), algo).hex


def _parse_ic(ic: str):
    if ic in ("inf", "none", "zero-storage"):
        return None
    try:
        return int(ic)
    except ValueError:
        raise click.UsageError(f"--ic must be an integer or 'inf', got {ic!r}")


@main.command("record-train")
@click.argument("out_dir")
@click.option("--preset", type=click.Choice(PRESETS), default="mlp",
              show_default=True)
@_grid_options("n_steps", "bl", "bs", "ic", "chunk_size", "algo", "tau")
@click.option("--optimizer", type=click.Choice(("adamw", "sgd-momentum")),
              default="adamw", show_default=True)
@click.option("--lr", default=0.01, show_default=True)
@click.option("--seed", default=11, show_default=True,
              help="Run seed (batch order).")
@click.option("--model-seed", default=7, show_default=True)
@click.option("--batch-size", default=16, show_default=True,
              type=click.IntRange(min=1))
@click.option("--zero-storage", is_flag=True,
              help="Commit hashes only; store no blobs (implies --ic inf).")
def record_train(out_dir, preset, n_steps, bl, bs, ic, chunk_size, algo, tau,
                 optimizer, lr, seed, model_seed, batch_size, zero_storage):
    """Run instrumented training into OUT_DIR."""
    ic_val = None if zero_storage else _parse_ic(ic)
    opt_spec = default_optimizer(optimizer, lr)
    with _usage_errors():
        config = grid_for(preset, n_steps=n_steps, bl=bl, bs=bs, ic=ic_val,
                          chunk_size=chunk_size, tau=tau,
                          zero_storage=zero_storage)
        check_optimizer_spec(opt_spec)
    manifest = build_manifest(model_for(preset, model_seed), opt_spec,
                              dataset_for(preset), config, seed,
                              batch_size, algo)
    out = _run_dir(out_dir)
    t0 = time.perf_counter()
    try:
        result = record_training(manifest, out)
    except NonFiniteError as e:
        raise click.UsageError(f"training diverged at {e}; the rows sealed "
                               f"before it stay verifiable") from None
    elapsed = time.perf_counter() - t0
    summary = {
        "run_dir": str(out), "mode": "training", "preset": preset,
        "blocks": len(result.ledger.entries),
        "bytes_written": result.bytes_written,
        "final_loss": result.losses[-1] if result.losses else None,
        "ledger_digest": _ledger_digest(out, algo),
        "seconds": round(elapsed, 3),
    }
    _write_report(out, "record_report.json", summary)
    click.echo(f"recorded {summary['blocks']} block commitments, "
               f"{summary['bytes_written']} bytes of evidence in "
               f"{summary['seconds']}s")
    click.echo(f"ledger digest {summary['ledger_digest']}")


def _served_pass(preset, bl, ia, chunk_size, algo, tau, model_seed=7,
                 input_seed=0):
    """Manifest, served layers and input of one forward pass of
    ``preset``'s model without its loss head."""
    spec = model_for(preset, model_seed)
    model_spec = {"seed": spec["seed"], "layers": spec["layers"][:-1]}
    with _usage_errors():
        config = GridConfig(n_layers=len(model_spec["layers"]), n_steps=1,
                            bl=bl, bs=1, ia=ia, chunk_size=chunk_size,
                            tau=tau)
    layers = build_model(model_spec)
    ds = make_dataset(dataset_for(preset))
    x = ds.inputs[input_seed % ds.n][None, ...]
    return build_inference_manifest(model_spec, config, algo, layers), layers, x


@main.command("record-infer")
@click.argument("out_dir")
@click.option("--preset", type=click.Choice(PRESETS), default="mlp",
              show_default=True)
@_grid_options("bl", "ia", "chunk_size", "algo", "tau")
@click.option("--model-seed", default=7, show_default=True)
@click.option("--input-seed", default=0, show_default=True,
              help="Which dataset sample to run.")
def record_infer(out_dir, preset, bl, ia, chunk_size, algo, tau, model_seed,
                 input_seed):
    """Record one verified forward pass into OUT_DIR."""
    manifest, layers, x = _served_pass(preset, bl, ia, chunk_size, algo, tau,
                                       model_seed, input_seed)
    out = _run_dir(out_dir)
    result = record_inference(manifest, layers, x, out)
    summary = {"run_dir": str(out), "mode": "inference",
               "blocks": len(result.ledger.entries),
               "bytes_written": result.bytes_written,
               "ledger_digest": _ledger_digest(out, algo)}
    _write_report(out, "record_report.json", summary)
    click.echo(f"recorded inference: {summary['blocks']} blocks, "
               f"{summary['bytes_written']} bytes")


# -- verification --------------------------------------------------------


@main.command()
@click.argument("run_dir")
@click.option("--block", "block_id", default=None,
              help="Block to verify as 'i,j'; default verifies all.")
@click.option("--full-scan", is_flag=True,
              help="Report all failures instead of stopping at the first.")
@click.option("--precision", type=click.Choice(("f32", "f64")), default=None)
@click.option("--tau", type=float, default=None, callback=_tau_option,
              help="Override the run's verification tolerance.")
@click.option("--isolated", is_flag=True,
              help="Check in a separate verifier process that serves the "
                   "whole command and receives only request bytes.")
@click.option("--jobs", default=1, show_default=True,
              type=click.IntRange(min=1),
              help="Number of isolated verifier processes checking blocks "
                   "at once (implies --isolated when above 1).")
def verify(run_dir, block_id, full_scan, precision, tau, isolated, jobs):
    """Replay and check one block or the whole grid."""
    run = _open_run(_run_dir(run_dir))
    if block_id is not None:
        try:
            bid = BlockId.parse(block_id)
        except (ValueError, IndexError):
            raise click.UsageError(f"--block must look like 'i,j', got {block_id!r}")
        if not run.grid.contains(bid):
            raise click.UsageError(f"block {bid} lies outside the grid")
        targets = [bid]
    else:
        targets = run.grid.block_ids()

    reports = run.verify(targets, isolated=isolated, jobs=jobs,
                         full_scan=full_scan, precision=precision, tau=tau)
    chain = run.chain
    ok = all(r.passed for r in reports)
    payload = {"reports": [r.to_json() for r in reports],
               "trust_chain": asdict(chain) if chain else None,
               "ok": ok}
    _write_report(run.dir, "verify_report.json", payload)
    for r in reports:
        line = f"block {r.block}: {r.verdict}"
        if r.cause:
            at = f" at {r.failed_key}" if r.failed_key else ""
            line += f" ({r.cause}{at}"
            if r.measured_error is not None:
                line += f", err {r.measured_error:.3e} vs tau {r.tau:.1e}"
            line += ")"
        click.echo(line)
    if chain is not None:
        click.echo(f"trust chain: {'ok' if chain.ok else 'BROKEN'}"
                   + (f" — {chain.problems[0]}" if chain.problems else ""))
    click.echo("PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


@main.command()
@click.argument("run_dir")
@click.option("--strategy", type=click.Choice(STRATEGIES), default="uniform",
              show_default=True)
@click.option("--m", "m_samples", default=3, show_default=True,
              help="Blocks sampled per audit.")
@click.option("--seed", default=0, show_default=True)
@click.option("--trials", default=0, show_default=True,
              type=click.IntRange(min=0),
              help="If > 0, run a Monte-Carlo detection campaign instead "
                   "of a single audit.")
@click.option("--block", "explicit_blocks", multiple=True,
              help="Explicit block 'i,j' (with --strategy explicit).")
@click.option("--isolated", is_flag=True)
def audit(run_dir, strategy, m_samples, seed, trials, explicit_blocks,
          isolated):
    """Spot-check randomly sampled blocks of a recorded run."""
    run = _open_run(_run_dir(run_dir))
    try:
        plan = AuditPlan(m=m_samples, strategy=strategy, seed=seed,
                         blocks=list(explicit_blocks))
        # a plan the grid cannot serve is a usage error, found before
        # any block is checked
        sample_blocks(plan, run.grid)
    except AuditError as e:
        raise click.UsageError(str(e))
    click.echo(f"plan commitment {plan.commitment()}")
    if trials > 0:
        result = run_campaign(run, plan, trials, isolated=isolated)
        _write_report(run.dir, "audit_report.json", asdict(result))
        click.echo(f"tampered blocks found: {result.failing_blocks or 'none'}")
        click.echo(f"empirical detection {result.empirical_rate:.4f} "
                   f"(95% CI {result.ci95[0]:.4f}-{result.ci95[1]:.4f}) "
                   f"vs exact {result.exact_rate:.4f} over {trials} trials")
        sys.exit(0)
    report = audit_run(run, plan, isolated=isolated)
    _write_report(run.dir, "audit_report.json", asdict(report))
    for b, v in report.verdicts.items():
        click.echo(f"block {b}: {v}")
    click.echo("AUDIT PASS" if report.ok else "AUDIT FAIL")
    sys.exit(0 if report.ok else 1)


# -- adversary -----------------------------------------------------------


@main.command()
@click.argument("out_dir")
@click.option("--scenario", type=click.Choice(SCENARIOS), required=True)
@click.option("--preset", type=click.Choice(PRESETS), default="mlp",
              show_default=True)
@_grid_options()
@click.option("--seed", default=0, show_default=True)
def attack(out_dir, scenario, preset, n_steps, bl, bs, ic, ia, chunk_size,
           algo, tau, seed):
    """Produce a tampered run directory for later verify/audit."""
    out = _run_dir(out_dir)
    if scenario in ("serve-wrong-model", "fabricate-output"):
        manifest, layers, x = _served_pass(preset, bl, ia, chunk_size, algo,
                                           tau)
        result = apply_inference_scenario(scenario, manifest, layers, x, out,
                                          seed=seed)
    else:
        with _usage_errors():
            config = grid_for(preset, n_steps=n_steps, bl=bl, bs=bs,
                              ic=_parse_ic(ic), ia=ia, chunk_size=chunk_size,
                              tau=tau)
        manifest = build_manifest(model_for(preset), default_optimizer(),
                                  dataset_for(preset), config, 11, 16, algo)
        result = apply_scenario(scenario, manifest, out, seed=seed)
    _write_report(out, "scenario.json", asdict(result))
    click.echo(f"applied {scenario}; tampered blocks "
               f"{result.tampered_blocks} (detectable by "
               f"{result.detectable_by})")


@main.command("attack-stats")
@click.option("--bl-values", default="1,2,4", show_default=True,
              help="Layer-block sizes to sweep for the PGD attack.")
@click.option("--steps", default=400, show_default=True,
              help="PGD iterations per boundary.")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_file", default=None,
              help="Write the JSON table here as well.")
def attack_stats(bl_values, steps, seed, out_file):
    """Minimum-perturbation tables for the shipped toy classifier.

    Per-boundary minimal activation perturbations across bl (the max
    falls and the min rises as blocks grow, because the recorded
    boundaries shift), plus the minimal parameter-poisoning edit."""
    layers, ds = trained_attack_classifier()
    x = ds.inputs[ATTACK_SAMPLE:ATTACK_SAMPLE + 1]
    rows = []
    click.echo(f"{'B_L':>4} {'boundaries':>11} {'min rel':>12} {'max rel':>12}")
    for bl in (int(v) for v in bl_values.split(",")):
        with _usage_errors():
            config = GridConfig(n_layers=len(layers), n_steps=1, bl=bl, bs=1)
        profile = boundary_attack_profile(layers, config, x, steps=steps,
                                          seed=seed)
        rows.append({"bl": bl,
                     "profile": {str(k): v for k, v in profile.items()},
                     "min_rel_norm": min(profile.values()),
                     "max_rel_norm": max(profile.values())})
        click.echo(f"{bl:>4} {len(profile):>11} "
                   f"{min(profile.values()):>12.3e} "
                   f"{max(profile.values()):>12.3e}")
    target = (int(ds.labels[ATTACK_SAMPLE]) + 1) % 3
    poison = parameter_poison_attack(layers, x, target=target,
                                     clean_x=ds.inputs[:32],
                                     clean_y=ds.labels[:32])
    click.echo(f"parameter poisoning: success={poison.success} "
               f"rel |dTheta| {poison.rel_delta_norm:.3e} "
               f"(clean acc {poison.clean_accuracy_before:.2f} -> "
               f"{poison.clean_accuracy_after:.2f})")
    table = {"pgd": rows, "parameter_poison": asdict(poison)}
    if out_file:
        Path(out_file).write_text(json.dumps(table, indent=2))


# -- maintenance and odds -----------------------------------------------


@main.command()
@click.argument("run_dir")
@click.option("--keep", "keep_blocks", multiple=True, required=True,
              help="Block 'i,j' whose evidence must stay verifiable; "
                   "repeatable.")
def prune(run_dir, keep_blocks):
    """Release evidence not needed to re-verify the kept blocks."""
    run = _open_run(_run_dir(run_dir))
    try:
        bids = [BlockId.parse(s) for s in keep_blocks]
    except (ValueError, IndexError):
        raise click.UsageError("--keep values must look like 'i,j'")
    try:
        removed = run.prune(bids)
    except ValueError as e:
        raise click.UsageError(str(e))
    click.echo(f"released {removed} blobs; ledger unchanged")


@main.command("detection-odds")
@click.option("--n", "n_blocks", default=1000, show_default=True,
              type=click.IntRange(min=1))
@click.option("--k", "k_tampered", default=100, show_default=True)
@click.option("--m", "m_samples", default=10, show_default=True)
def detection_odds(n_blocks, k_tampered, m_samples):
    """Closed-form detection probabilities for a sampling plan."""
    with _usage_errors():
        exact = p_detect_exact(n_blocks, k_tampered, m_samples)
        approx = p_detect_approx(k_tampered / n_blocks, m_samples)
    click.echo(f"exact P_detect      {exact:.6f}")
    click.echo(f"binomial approx     {approx['binomial']:.6f}")
    click.echo(f"exponential approx  {approx['poisson']:.6f}")


if __name__ == "__main__":
    main()
