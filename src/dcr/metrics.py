"""Evaluation metrics over pluggable embedding/caption providers, the toy
collapse fraction, and mean +/- SD aggregation with per-category grouping.

Aggregation keeps every item: no thresholding, no exclusion of ambiguous
judge scores, no post-hoc correction. Provider failures surface as
MetricError and are counted by the callers rather than imputed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .bench import Category
from .errors import MetricError, TransportError, ValidationError
from .judge import post_json, service_endpoint, string_field
from .toy import BiasScenario, mode_assignment

log = logging.getLogger(__name__)

Z_95 = 1.959963984540054

# External reference values for the full-scale video benchmark (method,
# CLIPScore, CLIP-attr, caption alignment, CCS, CVR). Carried for report
# context only; never recomputed at desk scale.
EXTERNAL_REFERENCE_ROWS = {
    "mochi": (0.3040, 0.2718, 0.7807, 3.8375, 0.4725),
    "hunyuanvideo": (0.3067, 0.2725, 0.7819, 3.9750, 0.3750),
    "cogvideox": (0.2858, 0.2644, 0.7290, 3.1925, 0.5175),
    "ours": (0.3131, 0.2558, 0.8075, 4.1300, 0.3100),
    "negative-prompt": (0.2735, 0.2610, 0.7065, 3.0375, 0.4375),
    "no-attractor-prompt": (0.3088, 0.2709, 0.7794, 3.9275, 0.3400),
    "no-repulsion": (0.3088, 0.2732, 0.7729, 3.9500, 0.3475),
    "no-schedule": (0.3115, 0.2740, 0.7819, 3.9675, 0.3550),
}


def _frame_content(frame) -> str:
    """A frame as an external service receives it: a string as is, anything
    else as the JSON of its nested lists, which keeps every value and the
    shape (``repr`` elides the middle of large arrays)."""
    return frame if isinstance(frame, str) else json.dumps(np.asarray(frame).tolist())


def _unit_or_fail(vec, what: str) -> np.ndarray:
    v = np.asarray(vec, dtype=np.float64).reshape(-1)
    if v.size == 0 or not np.all(np.isfinite(v)):
        raise MetricError(f"{what} returned a non-finite or empty vector")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise MetricError(f"{what} returned a zero vector")
    return v / norm


def cosine(u, v) -> float:
    a = _unit_or_fail(u, "embedding")
    b = _unit_or_fail(v, "embedding")
    if a.size != b.size:
        raise MetricError(f"embedding dimensions differ: {a.size} vs {b.size}")
    return float(np.clip(a @ b, -1.0, 1.0))


class HashEmbeddingProvider:
    """Deterministic stub provider: hashes content to a seeded unit vector.
    Identical content maps to identical embeddings, so fixtures can pin exact
    cosines without any pretrained model."""

    def __init__(self, dim: int = 64):
        if dim < 2:
            raise ValidationError("embedding dim must be >= 2")
        self.dim = dim

    def _embed(self, payload: bytes) -> np.ndarray:
        seed = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(self.dim)
        return v / np.linalg.norm(v)

    def embed_text(self, text: str) -> np.ndarray:
        return self._embed(b"text:" + text.encode("utf-8"))

    def embed_frame(self, frame) -> np.ndarray:
        if isinstance(frame, (bytes, bytearray)):
            payload = bytes(frame)
        elif isinstance(frame, str):
            payload = frame.encode("utf-8")
        else:
            payload = np.ascontiguousarray(np.asarray(frame, dtype=np.float64)).tobytes()
        return self._embed(b"frame:" + payload)


class ExternalEmbeddingClient:
    """JSON-over-HTTP embedding service client. Wire contract: POST
    {"kind": "text"|"frame", "content": str} -> {"embedding": [...]}.
    Endpoint via ``endpoint=`` or its ``dcr.judge.SERVICES`` variable."""

    def __init__(self, endpoint: str | None = None):
        self.endpoint = service_endpoint("embeddings", endpoint)

    def _post(self, kind: str, content: str) -> np.ndarray:
        try:
            body = post_json("embeddings", self.endpoint,
                             {"kind": kind, "content": content})
            return np.asarray(body["embedding"], dtype=np.float64)
        except (TransportError, ValueError, KeyError, TypeError) as exc:
            raise MetricError(f"embedding request failed: {exc}") from exc

    def embed_text(self, text: str) -> np.ndarray:
        return self._post("text", text)

    def embed_frame(self, frame) -> np.ndarray:
        return self._post("frame", _frame_content(frame))


class CallableCaptionProvider:
    """Caption provider wrapping any frame -> text callable (test stub)."""

    def __init__(self, fn):
        self.fn = fn

    def caption(self, frame) -> str:
        text = self.fn(frame)
        if not text:
            raise MetricError("caption provider returned an empty caption")
        return text


class ExternalCaptionClient:
    """JSON-over-HTTP captioning service client. Wire contract: POST
    {"frame": str} -> {"caption": str}. Endpoint via ``endpoint=`` or its
    ``dcr.judge.SERVICES`` variable."""

    def __init__(self, endpoint: str | None = None):
        self.endpoint = service_endpoint("caption", endpoint)

    def caption(self, frame) -> str:
        try:
            body = post_json("caption", self.endpoint, {"frame": _frame_content(frame)})
            text = string_field("caption", body, "caption")
        except TransportError as exc:
            raise MetricError(f"caption request failed: {exc}") from exc
        if not text:
            raise MetricError("caption service returned an empty caption")
        return text


def clip_alignment(frames, text: str, provider) -> float:
    """Mean cosine between each frame embedding and the text embedding.
    Used with the target prompt for the alignment score and with the
    attractor prompt for the suppression score."""
    frames = list(frames)
    if not frames:
        raise ValidationError("need at least one frame")
    t = provider.embed_text(text)
    return math.fsum(cosine(provider.embed_frame(f), t) for f in frames) / len(frames)


def caption_alignment(frames, prompt: str, captioner, provider) -> float:
    """Mean cosine between caption embeddings and the prompt embedding.
    Frames whose caption fails are skipped (with a warning); the item fails
    only when every frame fails."""
    frames = list(frames)
    if not frames:
        raise ValidationError("need at least one frame")
    p = provider.embed_text(prompt)
    sims = []
    failed = 0
    for f in frames:
        try:
            cap = captioner.caption(f)
        except MetricError as exc:
            failed += 1
            log.warning("caption failed for one frame: %s", exc)
            continue
        sims.append(cosine(provider.embed_text(cap), p))
    if not sims:
        raise MetricError(f"caption failed for all {failed} frames")
    if failed:
        log.warning("caption alignment computed over %d/%d frames", len(sims), len(frames))
    return math.fsum(sims) / len(sims)


def ccs(scores) -> float:
    """Mean judge compliance score; every score must be an integer in 1..5."""
    scores = list(scores)
    if not scores:
        raise ValidationError("need at least one score")
    for s in scores:
        if not isinstance(s, (int, np.integer)) or isinstance(s, bool) or not (1 <= s <= 5):
            raise ValidationError(f"compliance scores must be integers in 1..5, got {s!r}")
    return math.fsum(float(s) for s in scores) / len(scores)


def cvr(flags) -> float:
    """Fraction of judge-flagged collapses."""
    flags = list(flags)
    if not flags:
        raise ValidationError("need at least one flag")
    return math.fsum(1.0 if f else 0.0 for f in flags) / len(flags)


def toy_collapse_fraction(finals, scenario: BiasScenario) -> float:
    """Fraction of final latents whose nearest mode is the dominant one."""
    finals = np.asarray(list(finals), dtype=np.float64)
    if finals.size == 0:
        raise ValidationError("need at least one final latent")
    modes = mode_assignment(finals, scenario)
    return float(np.mean(modes == scenario.dominant_index))


def wilson_interval(successes: int, n: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not (0 <= successes <= n):
        raise ValidationError("successes must lie in [0, n]")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class ItemRow:
    """Per-item metric row; absent metrics stay None and are skipped by the
    aggregator (with visible counts)."""

    item_id: str
    category: str | None = None
    clip_score: float | None = None
    clip_attr: float | None = None
    caption_alignment: float | None = None
    judge_score: int | None = None
    collapsed: bool | None = None


# report column -> the ItemRow field it averages (a collapse flag as 0/1)
_METRICS = {"clip_score": "clip_score", "clip_attr": "clip_attr",
            "caption_alignment": "caption_alignment", "ccs": "judge_score",
            "cvr": "collapsed"}


@dataclass(frozen=True)
class GroupStats:
    n: int
    mean: dict[str, float]
    sd: dict[str, float]


@dataclass
class ScoreReport:
    method: str
    n: int
    overall: GroupStats
    by_category: dict[str, GroupStats] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def _mean_sd(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def _group_stats(rows: list[ItemRow]) -> GroupStats:
    mean, sd = {}, {}
    for column, name in _METRICS.items():
        values = [float(v) for r in rows if (v := getattr(r, name)) is not None]
        if values:
            mean[column], sd[column] = _mean_sd(values)
    return GroupStats(n=len(rows), mean=mean, sd=sd)


def aggregate_report(rows, by_category: bool = False, method: str = "") -> ScoreReport:
    """Means and sample standard deviations per metric, overall and (when
    requested) per category. Score-3 items are never dropped; empty
    categories are omitted with a note."""
    rows = list(rows)
    if not rows:
        raise ValidationError("need at least one row to aggregate")
    for r in rows:
        if r.judge_score is not None and not (1 <= r.judge_score <= 5):
            raise ValidationError(f"judge score out of range: {r.judge_score}")
    report = ScoreReport(method=method, n=len(rows), overall=_group_stats(rows))
    if by_category:
        cats = sorted({r.category for r in rows if r.category is not None})
        for cat in cats:
            members = [r for r in rows if r.category == cat]
            report.by_category[cat] = _group_stats(members)
        missing = sorted(c.value for c in Category if c.value not in report.by_category)
        if missing:
            report.notes.append(f"empty categories omitted: {', '.join(missing)}")
    return report


def report_to_csv(report: ScoreReport) -> str:
    """Delimiter-separated table: one overall row plus one row per category,
    with the standard column set."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["method", "group", "n"] +
                    [c for m in _METRICS for c in (m, f"{m}_sd")])
    def row(group: str, stats: GroupStats):
        cells = [report.method, group, stats.n]
        for m in _METRICS:
            cells.append(f"{stats.mean[m]:.6f}" if m in stats.mean else "")
            cells.append(f"{stats.sd[m]:.6f}" if m in stats.sd else "")
        writer.writerow(cells)
    row("overall", report.overall)
    for cat, stats in report.by_category.items():
        row(cat, stats)
    return buf.getvalue()


def report_to_json(report: ScoreReport) -> str:
    doc = {
        "method": report.method,
        "n": report.n,
        "overall": {"n": report.overall.n, "mean": report.overall.mean,
                    "sd": report.overall.sd},
        "by_category": {cat: {"n": s.n, "mean": s.mean, "sd": s.sd}
                        for cat, s in report.by_category.items()},
        "notes": report.notes,
    }
    return json.dumps(doc, indent=2)
