"""Denoising loop: scheduler steps, variant dispatch, traces, batch runs.

One loop serves every caller: it steps all trajectories of a run together as
one (N, *latent_shape) array, each row carrying its own item channels and its
own variant, and a single trajectory is its N=1 case.
The loop makes T guidance evaluations at step indices i = 0..T-1 (noisiest
first, t = T-1-i). The first T-1 evaluations each feed a scheduler
transition; the last one, at t=0, contributes only its trace record so that
every trace carries exactly T diagnostic records spanning pi in [0, 1].
"""

from __future__ import annotations

import enum
import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, TrajectoryError, ValidationError
from .guidance import GuidanceConfig, StepPosition, _guided_rows, schedule_alpha
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
    """One run's sampler settings. ``trace`` says whether the run records
    each row's per-step diagnostics (x_mean, x_rms, alpha_t, lambda_t, s_t,
    residual); a run without it returns the same finals, failures and
    failure steps, but no trace."""

    T: int
    guidance: GuidanceConfig
    variant: Variant = Variant.FULL_DCR
    scheduler_kind: SchedulerKind = SchedulerKind.ANCESTRAL_DDPM
    seed: int = 0
    trace: bool = True

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


class TraceRecords(Sequence):
    """One trajectory's per-step records, built on access from its batch's
    (T, N, 6) diagnostics columns, so a batch holds one array rather than T
    record objects per trajectory."""

    __slots__ = ("_cols", "_row")

    def __init__(self, cols: np.ndarray, row: int):
        self._cols, self._row = cols, row

    def __len__(self) -> int:
        return self._cols.shape[0]

    def __getitem__(self, index):
        steps, vals = range(len(self))[index], self._cols[index, self._row].tolist()
        if isinstance(steps, int):
            return TraceRecord(steps, len(self) - 1 - steps, *vals)
        return [TraceRecord(i, len(self) - 1 - i, *v) for i, v in zip(steps, vals)]

    def __iter__(self):
        return iter(self[:])

    def exported(self) -> np.ndarray:
        """(T, 4): the alpha_t, lambda_t, s_t and residual columns that
        dcr-trace@1 exports, one row per step."""
        return self._cols[:, self._row, 2:]


@dataclass
class TrajectoryTrace:
    trajectory_id: str
    records: TraceRecords
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
    x_{t-1} = sqrt(ab_{t-1})*x0_hat + sqrt(1-ab_{t-1})*eps. The scalars
    come from ``sched.reverse_coefficients``.
    """
    if t < 1:
        raise ValidationError(f"scheduler_step requires t >= 1, got {t}")
    if t >= sched.T:
        raise ValidationError(f"t={t} out of range for T={sched.T}")
    x = np.asarray(x_t, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64).reshape(x.shape)
    deterministic = SchedulerKind(kind) is SchedulerKind.DETERMINISTIC_DDIM
    c1, c2, c3, c4 = sched.reverse_coefficients[int(deterministic), t].tolist()
    if deterministic:
        return c3 * ((x - c1 * eps) / c2) + c4 * eps
    mean = (x - c1 * eps) / c2
    if t == 1:
        return mean
    if noise is None or np.shape(noise) != x.shape:
        raise ValidationError(
            f"ancestral step at t={t} needs a noise draw of shape {x.shape}")
    return mean + c3 * noise


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


@dataclass(frozen=True)
class BatchItem:
    """One prompt of a batch: its channels, and the variant its rows run
    (None: the sampler config's variant)."""

    item_id: str
    prompt_channel: str = TARGET
    attractor_channel: str = ATTRACTOR
    variant: Variant | None = None

    def __post_init__(self):
        if self.variant is not None:
            object.__setattr__(self, "variant", Variant(self.variant))


class _Live(NamedTuple):
    """The rows still in the batch; every array is indexed by live row."""

    ids: np.ndarray     # the row's index in the batch
    x: np.ndarray       # its latent
    code: np.ndarray    # (m, 3): label index of its negative, text and probe branch
    needs: np.ndarray   # (m, n_labels): whether it needs each label's prediction
    scheduled: np.ndarray  # whether its alpha_t is schedule_alpha's
    alpha: np.ndarray   # its variant's fixed alpha_t where it is not
    repel: np.ndarray
    probe: np.ndarray
    draws: np.ndarray   # its standard-normal draws

    def keep(self, mask: np.ndarray) -> "_Live":
        return _Live(*(a[mask] for a in self))


def _branch_rows(backend, x: np.ndarray, t: int, labels: list[str],
                 needs: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
    """Each channel's prediction at the rows of x that need it, as an
    (n_labels, m, D) array (rows that do not need a channel may hold any
    value there), and the rows whose backend call failed, with the exception.

    ``needs[j, k]`` says whether row j needs channel labels[k]. A backend
    with ``epsilon_channels`` evaluates every label on every row in one call;
    otherwise one ``epsilon`` call per channel takes all rows that need it.
    If any call raises, the step is retried row by row at latent_shape,
    through ``epsilon`` and for the channels the row needs only, so only the
    rows that fail alone leave the batch. A non-finite value in the stack
    ``epsilon_channels`` returns counts as a raise, whatever the backend.
    """
    m, size = x.shape[0], x[0].size
    channels = getattr(backend, "epsilon_channels", None)
    try:
        if channels is not None:
            stack = np.asarray(channels(x, t, labels), dtype=np.float64)
            if not np.isfinite(stack).all():
                raise ValidationError("latent values must be finite (no NaN/Inf)")
            return stack.reshape(len(labels), m, size), {}
        preds = np.empty((len(labels), m, size))
        for k, label in enumerate(labels):
            rows = needs[:, k]
            if rows.all():
                preds[k] = backend.epsilon(x, t, label).values.reshape(m, size)
            elif rows.any():
                xk = x[rows]
                preds[k, rows] = backend.epsilon(xk, t, label).values.reshape(
                    len(xk), size)
        return preds, {}
    except Exception:  # any failure: retried row by row below
        pass
    preds = np.empty((len(labels), m, size))
    failed: dict[int, Exception] = {}
    for j in range(m):
        try:
            for k, label in enumerate(labels):
                if needs[j, k]:
                    preds[k, j] = backend.epsilon(x[j], t, label).values.reshape(size)
        except Exception as exc:  # fails this row only; reported in its result
            failed[j] = exc
    return preds, failed


def _sample_rows(backend, rows: list[tuple[BatchItem, int]], cfg: SamplerConfig,
                 rngs, trajectory_ids) -> "Batch":
    """The sampling loop: steps the live rows together as one
    (N, *latent_shape) array and returns their results as one columnar Batch.

    Row r is replicate rows[r][1] of item rows[r][0] and runs the item's
    channels under its variant (cfg.variant when the item names none); the
    rows share cfg's T, scheduler and guidance. Each
    step evaluates the channels of the live rows in one backend call (or one
    call per channel, on the rows that need it, for a backend without
    ``epsilon_channels``) and builds every row's negative, text and probe
    branches from them, so a row's result is bitwise that of a batch of its
    own.

    Row r draws from rngs[r] what a lone trajectory draws, in the same
    order: one standard_normal((T-1, *latent_shape)) draw under the
    ancestral scheduler (the initial latent, then the noise of every
    transition but the last, bitwise equal to drawing them one by one), or
    the initial latent alone under the deterministic one. Rows given the
    same Generator object share its one draw. Everything that does not
    depend on the step (channels, per-row alpha_t and their range check,
    the draws) is set up once, before the loop. A row whose
    backend call raises or returns non-finite output, or whose latent goes
    non-finite, leaves the batch with a TrajectoryError at that step; the
    other rows go on. Without cfg.trace the loop computes and keeps no
    per-step diagnostics, and the Batch has none.
    """
    sched: NoiseScheduleSpec = backend.schedule
    if sched.T != cfg.T:
        raise ConfigurationError(
            f"sampler T={cfg.T} does not match backend schedule T={sched.T}")
    T, n = cfg.T, len(rngs)
    ancestral = cfg.scheduler_kind is SchedulerKind.ANCESTRAL_DDPM
    draw_shape = (T - 1 if ancestral else 1, *backend.latent_shape)
    ids = np.arange(n)
    draws = np.empty((n, *draw_shape))
    first: dict[int, int] = {}  # id of each distinct generator -> its first row
    source = np.array([first.setdefault(id(rng), r) for r, rng in enumerate(rngs)])
    for r in first.values():
        rngs[r].standard_normal(out=draws[r])
    if len(first) < n:
        shared = source != ids
        draws[shared] = draws[source[shared]]
    items = [item for item, _ in rows]
    parts = [_VARIANT_PARTS[item.variant or cfg.variant] for item in items]
    # per row, the channel of its negative, text and probe branch; a row
    # without a probe reads its text channel there, which the step ignores
    branch_labels = [
        (item.attractor_channel if p.negative == ATTRACTOR else UNCOND,
         item.prompt_channel,
         item.attractor_channel if p.probe == ATTRACTOR else item.prompt_channel)
        for item, p in zip(items, parts)]
    labels = list(dict.fromkeys(label for row in branch_labels for label in row))
    code = np.array([[labels.index(label) for label in row] for row in branch_labels])
    probe = np.array([p.probe is not None for p in parts])
    needs = np.zeros((n, len(labels)), dtype=bool)
    needs[ids, code[:, 0]] = needs[ids, code[:, 1]] = True
    needs[ids[probe], code[probe, 2]] = True
    scheduled = np.array([p.alpha is None for p in parts])
    fixed = np.array([0.0 if p.alpha is None else p.alpha for p in parts])
    schedule = np.array([schedule_alpha(StepPosition(index=i, total=T), cfg.guidance)
                         for i in range(T)])
    for a in (schedule, fixed):
        if not ((0.0 <= a) & (a <= 1.0)).all():
            raise ValidationError(f"alpha_t must lie in [0,1], got {a}")
    live = _Live(ids, draws[:, 0].copy(), code, needs, scheduled, fixed,
                 np.array([p.repel for p in parts]), probe, draws)
    size = draws[0, 0].size
    # per step and row: x_mean, x_rms, alpha_t, lambda_t, s_t, residual
    cols = np.zeros((T, n, 6)) if cfg.trace else None
    errors: dict[int, TrajectoryError] = {}
    for i in range(T):
        if not live.ids.size:
            break
        t = T - 1 - i
        preds, failed = _branch_rows(backend, live.x, t, labels, live.needs)
        if failed:
            for j, exc in failed.items():
                err = TrajectoryError(f"backend failure: {exc}", step=i)
                err.__cause__ = exc
                errors[int(live.ids[j])] = err
            keep = np.ones(live.ids.size, dtype=bool)
            keep[list(failed)] = False
            live, preds = live.keep(keep), preds[:, keep]
            if not live.ids.size:
                break
        m = live.ids.size
        e_neg, e_text, e_attr = preds[live.code.T, np.arange(m)]
        alpha_t = np.where(live.scheduled, schedule[i], live.alpha)
        step = _guided_rows(e_neg, e_text, e_attr, alpha_t, cfg.guidance,
                            live.repel, live.probe, cfg.trace)
        if cols is not None:
            flat = live.x.reshape(m, size)
            # np.add.reduce(...) / size is what .mean computes
            for k, col in enumerate((np.add.reduce(flat, axis=1) / size,
                                     np.sqrt(np.add.reduce(flat * flat, axis=1) / size),
                                     alpha_t, step.lambda_t, step.s_t, step.residual)):
                cols[i, live.ids, k] = col
        if t >= 1:
            noise = live.draws[:, i + 1] if ancestral and t > 1 else None
            live = live._replace(x=scheduler_step(step.eps_star, t, live.x, sched,
                                                  cfg.scheduler_kind, noise))
            ok = np.isfinite(live.x.reshape(m, size)).all(axis=1)
            if not ok.all():
                for r in live.ids[~ok].tolist():
                    errors[r] = TrajectoryError("non-finite latent", step=i)
                live = live.keep(ok)
    finals = np.full((n, *backend.latent_shape), np.nan)
    finals[live.ids] = live.x
    return Batch([(item.item_id, rep) for item, rep in rows], list(trajectory_ids),
                 finals, errors, cols)


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
    batch = _sample_rows(backend, [(BatchItem(trajectory_id, *prompts), 0)], cfg,
                         [rng], [trajectory_id])
    if batch.errors:
        raise batch.errors[0]
    [out] = batch
    return out.final.copy(), out.trace


@dataclass
class BatchResult:
    item_id: str
    replicate: int
    final: np.ndarray | None
    trace: TrajectoryTrace | None
    error: str | None = None


class Batch(Sequence):
    """A batch's results as columns: row r is replicate keys[r][1] of item
    keys[r][0], traced as trajectory_ids[r], with its final latent finals[r]
    (NaN if it failed), its errors[r] if it failed and its (T, 6)
    diagnostics[:, r]; the arrays are read-only. Row views (BatchResult) are
    built on access. A batch run without ``SamplerConfig.trace`` has
    ``diagnostics`` None and its row views have ``trace`` None; its finals
    and errors, with their step indices, are those of a traced run."""

    def __init__(self, keys: list[tuple[str, int]], trajectory_ids: list[str],
                 finals: np.ndarray, errors: dict[int, TrajectoryError],
                 diagnostics: np.ndarray | None):
        self.keys, self.trajectory_ids, self.errors = keys, trajectory_ids, errors
        self.finals, self.diagnostics = finals, diagnostics
        finals.flags.writeable = False
        if diagnostics is not None:
            diagnostics.flags.writeable = False

    @property
    def ok(self) -> np.ndarray:
        """Per row, whether it ran to the clean step."""
        return ~np.isin(np.arange(len(self)), list(self.errors))

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index: int) -> BatchResult:
        r = range(len(self))[index]
        item_id, rep = self.keys[r]
        if r in self.errors:
            return BatchResult(item_id, rep, None, None, error=str(self.errors[r]))
        final = self.finals[r]
        if self.diagnostics is None:
            return BatchResult(item_id, rep, final, None)
        return BatchResult(item_id, rep, final, TrajectoryTrace(
            self.trajectory_ids[r], TraceRecords(self.diagnostics, r), final))


def derive_seed(base_seed: int, item_id: str, replicate: int) -> int:
    """Deterministic per-trajectory seed, independent of execution order."""
    digest = hashlib.blake2b(f"{item_id}|{replicate}".encode("utf-8"),
                             digest_size=8).digest()
    return (int(base_seed) ^ int.from_bytes(digest, "big")) & (2 ** 63 - 1)


def run_batch(backend, items, cfg: SamplerConfig, n_per_item: int) -> Batch:
    """Run n_per_item trajectories per item, all rows of all items as one
    batch, each seeded by derive_seed, so items of one id share seeds across
    variants: rows of one (item_id, replicate) share one Generator and its
    draws. Rows come in item order, then replicate order;
    per-trajectory failures are collected instead of aborting the batch.
    With cfg.trace False the batch records no diagnostics and its rows
    carry no trace (see Batch)."""
    if n_per_item < 1:
        raise ValidationError(f"n_per_item must be >= 1, got {n_per_item}")
    rows = [(item, rep) for item in items for rep in range(n_per_item)]
    if not rows:
        return Batch([], [], np.empty((0, *backend.latent_shape)), {},
                     np.empty((cfg.T, 0, 6)) if cfg.trace else None)
    keys = [(item.item_id, rep) for item, rep in rows]
    rngs = {key: np.random.default_rng(derive_seed(cfg.seed, *key))
            for key in dict.fromkeys(keys)}
    return _sample_rows(backend, rows, cfg, [rngs[key] for key in keys],
                        [f"{item_id}/{rep}" for item_id, rep in keys])


def write_traces_jsonl(traces, path, manifest_ref: str | None = None) -> None:
    """Line-delimited trace export.

    Line 1 is a header record {"schema", "manifest"}. Then, per trace, one
    record per step with fields in the documented order
    (trajectory_id, step, alpha_t, lambda_t, s_t, residual) followed by a
    final-sample record {"trajectory_id", "final"}. Step records are
    formatted from the diagnostics columns as json.dumps spells them; a
    column bitwise equal to the previous trace's (alpha_t, mostly) is
    formatted once.
    """
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema": TRACE_SCHEMA, "manifest": manifest_ref}) + "\n")
        last = [(b"", [])] * 4  # per column: the previous trace's bytes and text
        for trace in traces:
            cols = trace.records.exported().T
            spell = float.__repr__ if np.isfinite(cols).all() else json.dumps
            for j, col in enumerate(cols):
                if last[j][0] != (key := col.tobytes()):
                    last[j] = key, list(map(spell, col.tolist()))
            head = '{"trajectory_id": ' + json.dumps(trace.trajectory_id) + ', "step": '
            fh.writelines(
                f'{head}{i}, "alpha_t": {a}, "lambda_t": {lam}, "s_t": {s_t}, '
                f'"residual": {res}}}\n'
                for i, (a, lam, s_t, res) in enumerate(zip(*(text for _, text in last))))
            fh.write(json.dumps({"trajectory_id": trace.trajectory_id,
                                 "final": np.asarray(trace.final).tolist()}) + "\n")


def read_traces_jsonl(path) -> tuple[dict, list[dict]]:
    """Returns (header, records) for a trace file written by write_traces_jsonl;
    ValidationError if it does not start with a dcr-trace@1 header."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    try:
        header = json.loads(lines[0]) if lines else None
        if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
            first = lines[0][:80] if lines else ""
            raise ValidationError(
                f"trace file {path}: first line {first!r} is not a {TRACE_SCHEMA} header")
        return header, json.loads("[" + ",".join(lines[1:]) + "]")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"trace file {path}: not JSON lines: {exc}") from exc
