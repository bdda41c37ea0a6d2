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

import numpy as np

from .errors import ConfigurationError, TrajectoryError, ValidationError
from .guidance import (GuidanceConfig, StepPosition, _finite, _guided_rows,
                       _step_diagnostics, schedule_alpha)
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
    residual). Each step of a traced run keeps, per row, what it computed
    anyway: the pre-step latent, drift and delta_ref (D values each) and
    alpha_t, lambda_t and s_t; one pass after the last step computes the
    rest. A run without it returns the same finals, failures and failure
    steps, but no trace."""

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


def _draw_shape(backend, cfg: SamplerConfig) -> tuple[int, ...]:
    """The shape of one row's standard-normal draws, entry 0 its initial
    latent: (T-1, *latent_shape) under the ancestral scheduler, whose step i
    adds entry i + 1 as its noise (the last transition, t=1 -> 0, adds
    none), and (1, *latent_shape) under the deterministic one."""
    ancestral = cfg.scheduler_kind is SchedulerKind.ANCESTRAL_DDPM
    return (cfg.T - 1 if ancestral else 1, *backend.latent_shape)


def _branch_rows(channels, x: np.ndarray, t: int, labels: list[str],
                 code: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
    """Each label's prediction at the rows of x, as an (n_labels, m, D)
    array, and the rows whose backend call failed, with the exception.

    ``channels`` is the backend's ``epsilon_channels``: one call evaluates
    every label on every row, and a non-finite value in the stack it returns
    counts as a raise. If that call fails, the step is retried row by row
    through the same method, on the one-row slice x[j:j+1] and for the labels
    in code[j] alone, so only the rows that fail alone leave the batch. After
    a retry, a row's entries at labels it does not need, and a failed row's
    entries, hold any value.
    """
    m, size = x.shape[0], x[0].size
    try:
        return _finite(channels(x, t, labels)).reshape(len(labels), m, size), {}
    except Exception:  # any failure: retried row by row below
        pass
    preds = np.empty((len(labels), m, size))
    failed: dict[int, Exception] = {}
    for j in range(m):
        ks = np.unique(code[j])
        try:
            stack = _finite(channels(x[j:j + 1], t, [labels[k] for k in ks]))
            preds[ks, j] = stack.reshape(len(ks), size)
        except Exception as exc:  # fails this row only; reported in its result
            failed[j] = exc
    return preds, failed


# the loop turns every non-finite value into a per-row failure, so numpy's
# floating-point warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _sample_rows(backend, rows: list[tuple[BatchItem, int]], cfg: SamplerConfig,
                 draws: np.ndarray, trajectory_ids) -> "Batch":
    """The sampling loop: steps the live rows together as one
    (N, *latent_shape) array and returns their results as one columnar Batch.

    Row r is replicate rows[r][1] of item rows[r][0] and runs the item's
    channels under its variant (cfg.variant when the item names none); the
    rows share cfg's T, scheduler and guidance. Each step evaluates the
    channels of the live rows in one ``epsilon_channels`` call, the one
    backend method the loop calls, looked up once before the first step,
    and builds every row's negative, text and probe branches from them, so a
    row's result is bitwise that of a batch of its own.

    ``draws`` holds each row's standard-normal draws, float64 of shape
    (N, *_draw_shape(backend, cfg)): row r starts from draws[r, 0] and,
    under the ancestral scheduler, step i adds draws[r, i + 1] as its noise.
    Everything that does not depend on the step (channels, the (T, k) table
    of alpha_t with one column per distinct source, the schedule or a fixed
    value, each row's column) is set up once, before the loop, and what
    depends only on which rows are live (their repel and probe switches,
    where their branches lie) once each time that set changes. ``ids``
    holds the live rows and ``sel`` indexes their entries of the per-row
    arrays: slice(None) until a row fails, then ``ids``. A row whose backend
    call raises or returns non-finite output, or whose latent goes
    non-finite, leaves the batch with a TrajectoryError at that step; the
    other rows go on.

    With cfg.trace a step writes the live rows' pre-step latents, drifts
    and delta_refs into (T, N, D) float64 histories, and their alpha_t,
    lambda_t and unmasked s_t into the (T, 6, N) diagnostics columns; after
    the last step ``_fill_diagnostics`` computes the rest in one pass. A
    failed row's histories and columns stay zero from its failure step on.
    Without cfg.trace the loop keeps none of this, and the Batch has no
    diagnostics.
    """
    sched: NoiseScheduleSpec = backend.schedule
    channels = backend.epsilon_channels
    if sched.T != cfg.T:
        raise ConfigurationError(
            f"sampler T={cfg.T} does not match backend schedule T={sched.T}")
    T, n = cfg.T, len(draws)
    ancestral = cfg.scheduler_kind is SchedulerKind.ANCESTRAL_DDPM
    items = [item for item, _ in rows]
    parts = [_VARIANT_PARTS[item.variant or cfg.variant] for item in items]
    # per row, the channel of its negative, text and probe branch; a row
    # without a probe reads its text channel there, which the step ignores,
    # so a row's codes name exactly the channels it needs
    branch_labels = [
        (item.attractor_channel if p.negative == ATTRACTOR else UNCOND,
         item.prompt_channel,
         item.attractor_channel if p.probe == ATTRACTOR else item.prompt_channel)
        for item, p in zip(items, parts)]
    labels = list(dict.fromkeys(label for row in branch_labels for label in row))
    code = np.array([[labels.index(label) for label in row] for row in branch_labels])
    repel = np.array([p.repel for p in parts])
    probe = np.array([p.probe is not None for p in parts])
    # one alpha_t column per distinct source, None standing for the schedule,
    # and per row the index of its column
    sources = list(dict.fromkeys(p.alpha for p in parts))
    schedule = np.array([schedule_alpha(StepPosition(index=i, total=T), cfg.guidance)
                         for i in range(T)])
    alpha = np.column_stack([schedule if a is None else np.full(T, a) for a in sources])
    column = np.array([sources.index(p.alpha) for p in parts])
    ids, sel = np.arange(n), slice(None)
    x = draws[:, 0].copy()  # the live rows' latents
    size = x[0].size
    if cfg.trace:
        # per step: x_mean, x_rms, alpha_t, lambda_t, s_t and residual of each
        # row, and the pre-step latent, drift and delta_ref they come from
        cols = np.zeros((T, 6, n))
        latents, drifts, deltas = np.zeros((3, T, n, size))
    else:
        cols = None
    errors: dict[int, TrajectoryError] = {}
    changed = True  # whether the live rows changed since the gates were set
    for i in range(T):
        if not ids.size:
            break
        t = T - 1 - i
        preds, failed = _branch_rows(channels, x, t, labels, code[sel])
        if failed:
            for j, exc in failed.items():
                err = TrajectoryError(f"backend failure: {exc}", step=i)
                err.__cause__ = exc
                errors[int(ids[j])] = err
            keep = np.ones(ids.size, dtype=bool)
            keep[list(failed)] = False
            ids = sel = ids[keep]
            x, preds, changed = x[keep], preds[:, keep], True
            if not ids.size:
                break
        if changed:
            m = ids.size
            # (3, m): where each row's branches lie in the (n_labels * m) rows
            # of the flattened preds
            branch = code[sel].T * m + np.arange(m)
            gates = repel[sel], probe[sel]
            live_column = column[sel]
            changed = False
        e_neg, e_text, e_attr = preds.reshape(-1, size).take(branch, axis=0)
        alpha_t = alpha[i].take(live_column)
        eps_star, lambda_t, s_t, drift, delta_ref = _guided_rows(
            e_neg, e_text, e_attr, alpha_t, cfg.guidance, *gates)
        if cols is not None:
            latents[i, sel] = x.reshape(m, size)
            drifts[i, sel], deltas[i, sel] = drift, delta_ref
            cols[i, 2:5][:, sel] = alpha_t, lambda_t, s_t
        if t >= 1:
            noise = draws[sel, i + 1] if ancestral and t > 1 else None
            x = scheduler_step(eps_star, t, x, sched, cfg.scheduler_kind, noise)
            if not np.isfinite(x).all():
                ok = np.isfinite(x.reshape(m, size)).all(axis=1)
                for r in ids[~ok].tolist():
                    errors[r] = TrajectoryError("non-finite latent", step=i)
                ids = sel = ids[ok]
                x, changed = x[ok], True
    if cols is not None:
        _fill_diagnostics(cols, latents, drifts, deltas, probe, cfg.guidance)
    finals = np.full((n, *backend.latent_shape), np.nan)
    finals[ids] = x
    return Batch([(item.item_id, rep) for item, rep in rows], list(trajectory_ids),
                 finals, errors, None if cols is None else cols.transpose(0, 2, 1))


# latent values per block of the post-loop diagnostics pass, so none of its
# temporaries holds more than 512 KiB
_BLOCK_VALUES = 1 << 16


def _fill_diagnostics(cols: np.ndarray, latents: np.ndarray, drifts: np.ndarray,
                      deltas: np.ndarray, probe: np.ndarray,
                      g: GuidanceConfig) -> None:
    """Completes a traced run's (T, 6, N) diagnostics columns, in which the
    loop wrote alpha_t, lambda_t and the unmasked s_t: fills x_mean, x_rms
    and the residual from the (T, N, D) histories of the pre-step latent,
    the drift and delta_ref, and masks s_t of the rows without a probe
    (``probe`` the boolean (N,) array of the rows that probe). Works over
    blocks of as many steps as hold ``_BLOCK_VALUES`` latent values, so its
    temporaries stay small. A row's histories are zero from its failure
    step on, and so are its diagnostics."""
    size = latents.shape[-1]
    block_steps = max(1, _BLOCK_VALUES // max(1, latents[0].size))
    for i in range(0, len(cols), block_steps):
        steps = slice(i, i + block_steps)
        block, flat = cols[steps], latents[steps]
        # np.add.reduce(...) / size is what .mean computes
        block[:, 0] = np.add.reduce(flat, axis=2) / size
        block[:, 1] = np.sqrt(np.add.reduce(flat * flat, axis=2) / size)
        block[:, 4], _, block[:, 5] = _step_diagnostics(
            drifts[steps], deltas[steps], block[:, 4], probe, g)


def run_sampling(backend, prompts: tuple[str, str], cfg: SamplerConfig,
                 rng: np.random.Generator | None = None,
                 trajectory_id: str = "0") -> tuple[np.ndarray, TrajectoryTrace]:
    """Run one trajectory from pure noise down to the clean step: the
    one-row case of the sampling loop.

    Its draws are one rng.standard_normal(_draw_shape(backend, cfg)) call
    (rng defaults to default_rng(cfg.seed)). The backend supplies the
    branches the variant uses at each step. A backend failure or a
    non-finite latent raises TrajectoryError with the step index attached.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    draws = np.empty((1, *_draw_shape(backend, cfg)))
    rng.standard_normal(out=draws[0])
    batch = _sample_rows(backend, [(BatchItem(trajectory_id, *prompts), 0)], cfg,
                         draws, [trajectory_id])
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
    batch. Each (item_id, replicate) gets one Generator, seeded by
    derive_seed, and one standard_normal draw from it, which every row of
    that key is given, so items of one id share draws across variants. Rows
    come in item order, then replicate order; per-trajectory failures are
    collected instead of aborting the batch. With cfg.trace False the batch
    records no diagnostics and its rows carry no trace (see Batch)."""
    if n_per_item < 1:
        raise ValidationError(f"n_per_item must be >= 1, got {n_per_item}")
    rows = [(item, rep) for item in items for rep in range(n_per_item)]
    if not rows:
        return Batch([], [], np.empty((0, *backend.latent_shape)), {},
                     np.empty((cfg.T, 0, 6)) if cfg.trace else None)
    keys = [(item.item_id, rep) for item, rep in rows]
    first: dict[tuple[str, int], int] = {}  # each key -> its first row
    source = np.array([first.setdefault(key, r) for r, key in enumerate(keys)])
    draws = np.empty((len(rows), *_draw_shape(backend, cfg)))
    for key, r in first.items():
        np.random.default_rng(derive_seed(cfg.seed, *key)).standard_normal(out=draws[r])
    shared = source != np.arange(len(rows))
    draws[shared] = draws[source[shared]]
    return _sample_rows(backend, rows, cfg, draws,
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


# characters of trace lines per json.loads call of read_traces_jsonl: beyond
# the records it returns, the reader holds about two chunks of text (the lines
# and their joined copy), however large the file
_READ_CHARS = 1 << 16


def _load_line(path, number: int, line: str):
    """json.loads of line ``number`` of a trace file; ValidationError naming
    the file and the line if it is not one JSON value."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"trace file {path}: line {number} is not one JSON record: {exc.msg}") from exc


def read_traces_jsonl(path) -> tuple[dict, list[dict]]:
    """Returns (header, records) for a trace file written by write_traces_jsonl;
    ValidationError naming the file if it does not start with a dcr-trace@1
    header or a later line is not one JSON record. Records are split on "\\n"
    only, as JSON Lines separates them, and parsed in chunks of whole lines of
    about ``_READ_CHARS`` characters, so the file is never held whole."""
    with Path(path).open(encoding="utf-8", newline="\n") as fh:
        first = fh.readline()
        header = _load_line(path, 1, first) if first else None
        if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
            shown = first.rstrip("\r\n")[:80]
            raise ValidationError(
                f"trace file {path}: first line {shown!r} is not a {TRACE_SCHEMA} header")
        records, number = [], 2  # number: the line number of chunk[0] in the file
        while chunk := fh.readlines(_READ_CHARS):
            try:
                parsed = json.loads("[" + ",".join(chunk) + "]")
            except json.JSONDecodeError:
                parsed = None
            if parsed is None or len(parsed) != len(chunk):
                # a line is not one JSON value: parse line by line to name it
                parsed = [_load_line(path, n, line) for n, line in enumerate(chunk, number)]
            records += parsed
            number += len(chunk)
        return header, records
