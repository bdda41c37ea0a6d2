"""Denoising loop: scheduler steps, variant dispatch, traces, batch runs.

One loop serves every caller: it steps the trajectories of one item together
as one (N, *latent_shape) array, and a single trajectory is its N=1 case.
The loop makes T guidance evaluations at step indices i = 0..T-1 (noisiest
first, t = T-1-i). The first T-1 evaluations each feed a scheduler
transition; the last one, at t=0, contributes only its trace record so that
every trace carries exactly T diagnostic records spanning pi in [0, 1].
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, TrajectoryError, ValidationError
from .guidance import (GuidanceConfig, StepPosition, dcr_guided_rows,
                       schedule_alpha)
# Not called here: perfbench/layers.py wraps these guidance functions under
# their dcr.sampling names, so the names stay importable from this module.
from .guidance import (attractor_drift_expanded, cfg_update,  # noqa: F401
                       corrected_update, repulsion_coefficient, target_prediction)
from .toy import ATTRACTOR, TARGET, UNCOND, NoiseScheduleSpec

TRACE_SCHEMA = "dcr-trace@1"
# Documented per-step record field order, stable across versions:
TRACE_FIELDS = ("trajectory_id", "step", "alpha_t", "lambda_t", "s_t", "residual")


class SchedulerKind(str, enum.Enum):
    ANCESTRAL_DDPM = "ancestral-ddpm"
    DETERMINISTIC_DDIM = "deterministic-ddim"


class Variant(str, enum.Enum):
    FULL_DCR = "full-dcr"
    PLAIN_CFG = "plain-cfg"
    NEGATIVE_PROMPT = "negative-prompt"
    NO_ATTRACTOR_PROMPT = "no-attractor-prompt"
    NO_REPULSION = "no-repulsion"
    NO_SCHEDULE = "no-schedule"


@dataclass(frozen=True)
class SamplerConfig:
    T: int
    guidance: GuidanceConfig
    variant: Variant = Variant.FULL_DCR
    scheduler_kind: SchedulerKind = SchedulerKind.ANCESTRAL_DDPM
    seed: int = 0

    def __post_init__(self):
        if self.T < 2:
            raise ValidationError(f"T must be >= 2, got {self.T}")
        object.__setattr__(self, "variant", Variant(self.variant))
        object.__setattr__(self, "scheduler_kind", SchedulerKind(self.scheduler_kind))


@dataclass(frozen=True)
class TraceRecord:
    step: int
    t: int
    x_mean: float
    x_rms: float
    alpha_t: float
    lambda_t: float
    s_t: float
    residual: float


@dataclass
class TrajectoryTrace:
    trajectory_id: str
    records: list[TraceRecord] = field(default_factory=list)
    final: np.ndarray | None = None


def scheduler_step(eps: np.ndarray, t: int, x_t: np.ndarray,
                   sched: NoiseScheduleSpec, kind: SchedulerKind,
                   noise: np.ndarray | None = None) -> np.ndarray:
    """One reverse transition x_t -> x_{t-1}, elementwise, so x_t may stack
    any number of latents along leading axes; ``eps`` is the guided
    prediction with x_t's size.

    Ancestral: posterior mean from the prediction plus scheduled Gaussian
    noise, where ``noise`` is a standard-normal draw of x_t's shape; the
    final t=1 -> 0 transition adds none and takes no draw. Deterministic:
    x0_hat = (x_t - sqrt(1-ab_t)*eps)/sqrt(ab_t), then
    x_{t-1} = sqrt(ab_{t-1})*x0_hat + sqrt(1-ab_{t-1})*eps.
    """
    if t < 1:
        raise ValidationError(f"scheduler_step requires t >= 1, got {t}")
    if t >= sched.T:
        raise ValidationError(f"t={t} out of range for T={sched.T}")
    x = np.asarray(x_t, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64).reshape(x.shape)
    ab_t = sched.alpha_bar[t]
    ab_prev = sched.alpha_bar[t - 1]
    kind = SchedulerKind(kind)
    if kind is SchedulerKind.DETERMINISTIC_DDIM:
        x0_hat = (x - np.sqrt(1.0 - ab_t) * eps) / np.sqrt(ab_t)
        return np.sqrt(ab_prev) * x0_hat + np.sqrt(1.0 - ab_prev) * eps
    alpha_t = ab_t / ab_prev
    beta_t = 1.0 - alpha_t
    mean = (x - beta_t / np.sqrt(1.0 - ab_t) * eps) / np.sqrt(alpha_t)
    if t == 1:
        return mean
    if noise is None or np.shape(noise) != x.shape:
        raise ValidationError(
            f"ancestral step at t={t} needs a noise draw of shape {x.shape}")
    var = (1.0 - ab_prev) / (1.0 - ab_t) * beta_t
    return mean + np.sqrt(var) * noise


@dataclass(frozen=True)
class _Parts:
    """One variant as the DCR step with parts switched off."""

    negative: str          # CFG negative branch: UNCOND or ATTRACTOR
    probe: str | None      # probe branch: ATTRACTOR, TARGET (the prompt itself) or None
    alpha: float | None    # fixed alpha_t; None means schedule_alpha
    repel: bool            # whether lambda_t is applied


_VARIANT_PARTS = {
    Variant.FULL_DCR: _Parts(UNCOND, ATTRACTOR, None, True),
    Variant.PLAIN_CFG: _Parts(UNCOND, None, 0.0, False),
    Variant.NEGATIVE_PROMPT: _Parts(ATTRACTOR, None, 0.0, False),
    Variant.NO_ATTRACTOR_PROMPT: _Parts(UNCOND, TARGET, None, True),
    Variant.NO_REPULSION: _Parts(UNCOND, ATTRACTOR, None, False),
    Variant.NO_SCHEDULE: _Parts(UNCOND, ATTRACTOR, 1.0, True),
}


def _branch_rows(backend, x: np.ndarray, t: int, channels
                 ) -> tuple[list[np.ndarray], dict[int, Exception]]:
    """Each channel's prediction at the rows of x as an (m, D) array, and
    the rows whose backend call failed, with the exception.

    One call per channel takes all rows. If any of them raises, the step is
    retried row by row at latent_shape, so only the rows that fail alone
    leave the batch.
    """
    m, size = x.shape[0], x[0].size
    try:
        return [backend.epsilon(x, t, ch).values.reshape(m, size)
                for ch in channels], {}
    except Exception:  # any failure: retried row by row below
        pass
    out = [np.empty((m, size)) for _ in channels]
    failed: dict[int, Exception] = {}
    for j in range(m):
        try:
            for k, ch in enumerate(channels):
                out[k][j] = backend.epsilon(x[j], t, ch).values.reshape(size)
        except Exception as exc:  # fails this row only; reported in its result
            failed[j] = exc
    return out, failed


def _sample_rows(backend, prompts: tuple[str, str], cfg: SamplerConfig,
                 rngs, trajectory_ids) -> list[TrajectoryTrace | TrajectoryError]:
    """The sampling loop: steps the live rows of one item together as one
    (N, *latent_shape) array and returns, per row, its trace or its error.

    Row r draws from rngs[r] what a lone trajectory draws, in the same
    order: one standard_normal((T-1, *latent_shape)) draw under the
    ancestral scheduler (the initial latent, then the noise of every
    transition but the last, bitwise equal to drawing them one by one), or
    the initial latent alone under the deterministic one. A row whose
    backend call raises (non-finite output included, which NoisePrediction
    rejects) or whose latent goes non-finite leaves the batch with a
    TrajectoryError at that step; the other rows go on.
    """
    sched: NoiseScheduleSpec = backend.schedule
    if sched.T != cfg.T:
        raise ConfigurationError(
            f"sampler T={cfg.T} does not match backend schedule T={sched.T}")
    T, n = cfg.T, len(rngs)
    ancestral = cfg.scheduler_kind is SchedulerKind.ANCESTRAL_DDPM
    draw_shape = (T - 1 if ancestral else 1, *backend.latent_shape)
    draws = np.stack([rng.standard_normal(draw_shape) for rng in rngs])
    x = draws[:, 0].copy()
    parts = _VARIANT_PARTS[cfg.variant]
    p_channel, attr_channel = prompts
    channels = [attr_channel if parts.negative == ATTRACTOR else UNCOND, p_channel]
    if parts.probe == ATTRACTOR:
        channels.append(attr_channel)
    probe = {None: None, TARGET: 1, ATTRACTOR: 2}[parts.probe]  # index in channels
    # per step and row: x_mean, x_rms, alpha_t, lambda_t, s_t, residual
    cols = np.zeros((T, n, 6))
    errors: dict[int, TrajectoryError] = {}
    live = np.arange(n)
    for i in range(T):
        if not live.size:
            break
        t = T - 1 - i
        xl = x[live]
        branches, failed = _branch_rows(backend, xl, t, channels)
        if failed:
            for j, exc in failed.items():
                err = TrajectoryError(f"backend failure: {exc}", step=i)
                err.__cause__ = exc
                errors[int(live[j])] = err
            keep = np.ones(len(live), dtype=bool)
            keep[list(failed)] = False
            live, xl, branches = live[keep], xl[keep], [b[keep] for b in branches]
            if not live.size:
                break
        e_a = None if probe is None else branches[probe]
        alpha_t = schedule_alpha(StepPosition(index=i, total=T), cfg.guidance) \
            if parts.alpha is None else parts.alpha
        step = dcr_guided_rows(branches[0], branches[1], e_a, alpha_t, cfg.guidance,
                               repel=parts.repel)
        flat = xl.reshape(len(live), -1)
        cols[i, live] = np.stack(
            [flat.mean(axis=1), np.sqrt(np.mean(flat * flat, axis=1)),
             np.full(len(live), alpha_t), step.lambda_t, step.s_t, step.residual],
            axis=1)
        if t >= 1:
            noise = draws[live, i + 1] if ancestral and t > 1 else None
            xl = scheduler_step(step.eps_star, t, xl, sched, cfg.scheduler_kind, noise)
            ok = np.isfinite(xl.reshape(len(live), -1)).all(axis=1)
            for r in live[~ok].tolist():
                errors[r] = TrajectoryError("non-finite latent", step=i)
            live = live[ok]
            x[live] = xl[ok]
    out: list[TrajectoryTrace | TrajectoryError] = []
    for r in range(n):
        if r in errors:
            out.append(errors[r])
            continue
        records = [TraceRecord(i, T - 1 - i, *vals)
                   for i, vals in enumerate(cols[:, r].tolist())]
        out.append(TrajectoryTrace(trajectory_ids[r], records, x[r].copy()))
    return out


def run_sampling(backend, prompts: tuple[str, str], cfg: SamplerConfig,
                 rng: np.random.Generator | None = None,
                 trajectory_id: str = "0") -> tuple[np.ndarray, TrajectoryTrace]:
    """Run one trajectory from pure noise down to the clean step: the
    one-row case of the sampling loop.

    The backend supplies the branches the variant uses at each step. A
    backend failure or a non-finite latent raises TrajectoryError with the
    step index attached.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    [out] = _sample_rows(backend, prompts, cfg, [rng], [trajectory_id])
    if isinstance(out, TrajectoryError):
        raise out
    return out.final.copy(), out


@dataclass(frozen=True)
class BatchItem:
    item_id: str
    prompt_channel: str = TARGET
    attractor_channel: str = ATTRACTOR


@dataclass
class BatchResult:
    item_id: str
    replicate: int
    final: np.ndarray | None
    trace: TrajectoryTrace | None
    error: str | None = None


def derive_seed(base_seed: int, item_id: str, replicate: int) -> int:
    """Deterministic per-trajectory seed, independent of execution order."""
    digest = hashlib.blake2b(f"{item_id}|{replicate}".encode("utf-8"),
                             digest_size=8).digest()
    return (int(base_seed) ^ int.from_bytes(digest, "big")) & (2 ** 63 - 1)


def run_batch(backend, items, cfg: SamplerConfig, n_per_item: int
              ) -> list[BatchResult]:
    """Run n_per_item trajectories per item, the item's rows as one batch
    seeded by derive_seed; per-trajectory failures are collected instead of
    aborting the batch."""
    if n_per_item < 1:
        raise ValidationError(f"n_per_item must be >= 1, got {n_per_item}")
    results: list[BatchResult] = []
    for item in items:
        reps = range(n_per_item)
        outs = _sample_rows(
            backend, (item.prompt_channel, item.attractor_channel), cfg,
            [np.random.default_rng(derive_seed(cfg.seed, item.item_id, rep))
             for rep in reps],
            [f"{item.item_id}/{rep}" for rep in reps])
        for rep, out in zip(reps, outs):
            if isinstance(out, TrajectoryError):
                results.append(BatchResult(item.item_id, rep, None, None,
                                           error=str(out)))
            else:
                results.append(BatchResult(item.item_id, rep, out.final.copy(), out))
    return results


def write_traces_jsonl(traces, path, manifest_ref: str | None = None) -> None:
    """Line-delimited trace export.

    Line 1 is a header record {"schema", "manifest"}. Then, per trace, one
    record per step with fields in the documented order
    (trajectory_id, step, alpha_t, lambda_t, s_t, residual) followed by a
    final-sample record {"trajectory_id", "final"}.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        header = {"schema": TRACE_SCHEMA, "manifest": manifest_ref}
        fh.write(json.dumps(header) + "\n")
        for trace in traces:
            for rec in trace.records:
                row = {"trajectory_id": trace.trajectory_id, "step": rec.step,
                       "alpha_t": rec.alpha_t, "lambda_t": rec.lambda_t,
                       "s_t": rec.s_t, "residual": rec.residual}
                fh.write(json.dumps(row) + "\n")
            fh.write(json.dumps({"trajectory_id": trace.trajectory_id,
                                 "final": np.asarray(trace.final).tolist()}) + "\n")


def read_traces_jsonl(path) -> tuple[dict, list[dict]]:
    """Returns (header, records) for a trace file written by write_traces_jsonl."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    return header, [json.loads(line) for line in lines[1:]]
