"""Denoising loop: scheduler steps, variant dispatch, traces, batch runs.

The loop makes T guidance evaluations at step indices i = 0..T-1 (noisiest
first, t = T-1-i). The first T-1 evaluations each feed a scheduler
transition; the last one, at t=0, contributes only its trace record so that
every trace carries exactly T diagnostic records spanning pi in [0, 1].
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, TrajectoryError, ValidationError
from .guidance import (GuidanceConfig, NoisePrediction, RepulsionDiagnostics,
                       StepPosition, attractor_drift_expanded, cfg_update,
                       corrected_update, repulsion_coefficient, schedule_alpha,
                       target_prediction)
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

    def validate(self, T: int) -> None:
        if len(self.records) != T:
            raise ValidationError(
                f"trace must hold exactly {T} records, got {len(self.records)}")
        if self.final is None:
            raise ValidationError("trace is missing the final sample")


def scheduler_step(eps_star: NoisePrediction, t: int, x_t: np.ndarray,
                   sched: NoiseScheduleSpec, kind: SchedulerKind,
                   rng: np.random.Generator) -> np.ndarray:
    """One reverse transition x_t -> x_{t-1}.

    Ancestral: posterior mean from the prediction plus scheduled Gaussian
    noise, zero noise on the final t=1 -> 0 transition. Deterministic:
    x0_hat = (x_t - sqrt(1-ab_t)*eps)/sqrt(ab_t), then
    x_{t-1} = sqrt(ab_{t-1})*x0_hat + sqrt(1-ab_{t-1})*eps.
    """
    if t < 1:
        raise ValidationError(f"scheduler_step requires t >= 1, got {t}")
    if t >= sched.T:
        raise ValidationError(f"t={t} out of range for T={sched.T}")
    x = np.asarray(x_t, dtype=np.float64)
    eps = eps_star.values.reshape(x.shape)
    if not np.all(np.isfinite(eps)):
        raise ValidationError("non-finite prediction passed to scheduler_step")
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
    var = (1.0 - ab_prev) / (1.0 - ab_t) * beta_t
    return mean + np.sqrt(var) * rng.standard_normal(x.shape)


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


def _guided_step(backend, x, t, pos, prompts, cfg: SamplerConfig
                 ) -> tuple[NoisePrediction, RepulsionDiagnostics]:
    """One guided step of cfg.variant: returns (prediction, diagnostics)."""
    p_channel, attr_channel = prompts
    g = cfg.guidance
    parts = _VARIANT_PARTS[cfg.variant]
    e_neg = backend.epsilon(x, t, attr_channel if parts.negative == ATTRACTOR else UNCOND)
    e_t = backend.epsilon(x, t, p_channel)
    delta_ref = cfg_update(e_neg, e_t, g.w)
    if parts.probe is None:
        # no probe branch: the diagnostics of a zero drift
        diag = RepulsionDiagnostics(s_t=0.0, n_t=g.eps_stab, alpha_t=parts.alpha,
                                    lambda_t=0.0, collinearity_residual=0.0)
        return target_prediction(e_neg, delta_ref), diag
    e_a = e_t if parts.probe == TARGET else backend.epsilon(x, t, attr_channel)
    drift = attractor_drift_expanded(e_neg, e_t, e_a, g.w, g.w_attr)
    alpha_t = schedule_alpha(pos, g) if parts.alpha is None else parts.alpha
    diag = repulsion_coefficient(drift, delta_ref, alpha_t, g)
    if not parts.repel and diag.lambda_t != 0.0:
        diag = replace(diag, lambda_t=0.0)
    delta_star = corrected_update(delta_ref, diag.lambda_t, drift)
    eps_star = NoisePrediction(values=e_neg.values + delta_star.values, shape=e_neg.shape)
    return eps_star, diag


def run_sampling(backend, prompts: tuple[str, str], cfg: SamplerConfig,
                 rng: np.random.Generator | None = None,
                 trajectory_id: str = "0") -> tuple[np.ndarray, TrajectoryTrace]:
    """Run one trajectory from pure noise down to the clean step.

    The backend supplies the branches the variant uses at each step. Any
    backend failure aborts the trajectory with the step index attached.
    """
    sched: NoiseScheduleSpec = backend.schedule
    if sched.T != cfg.T:
        raise ConfigurationError(
            f"sampler T={cfg.T} does not match backend schedule T={sched.T}")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal(backend.latent_shape)
    trace = TrajectoryTrace(trajectory_id=trajectory_id)
    T = cfg.T
    for i in range(T):
        t = T - 1 - i
        pos = StepPosition(index=i, total=T)
        try:
            eps_star, diag = _guided_step(backend, x, t, pos, prompts, cfg)
        except TrajectoryError:
            raise
        except Exception as exc:
            raise TrajectoryError(f"backend failure: {exc}", step=i) from exc
        flat = x.reshape(-1)
        trace.records.append(TraceRecord(
            step=i, t=t,
            x_mean=float(flat.mean()),
            x_rms=float(np.sqrt(np.mean(flat * flat))),
            alpha_t=diag.alpha_t, lambda_t=diag.lambda_t,
            s_t=diag.s_t, residual=diag.collinearity_residual))
        if t >= 1:
            x = scheduler_step(eps_star, t, x, sched, cfg.scheduler_kind, rng)
            if not np.all(np.isfinite(x)):
                raise TrajectoryError("non-finite latent", step=i)
    trace.final = x.copy()
    trace.validate(T)
    return x, trace


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
    """Run n_per_item trajectories per item; per-trajectory failures are
    collected instead of aborting the batch."""
    if n_per_item < 1:
        raise ValidationError(f"n_per_item must be >= 1, got {n_per_item}")
    results: list[BatchResult] = []
    for item in items:
        for rep in range(n_per_item):
            seed = derive_seed(cfg.seed, item.item_id, rep)
            rng = np.random.default_rng(seed)
            tid = f"{item.item_id}/{rep}"
            try:
                final, trace = run_sampling(
                    backend, (item.prompt_channel, item.attractor_channel),
                    cfg, rng=rng, trajectory_id=tid)
                results.append(BatchResult(item.item_id, rep, final, trace))
            except TrajectoryError as exc:
                results.append(BatchResult(item.item_id, rep, None, None,
                                           error=str(exc)))
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
