"""Evaluation metrics: the judge's CCS and CVR, the toy collapse fraction
with its Wilson interval, and mean +/- SD aggregation with per-category
grouping.

Aggregation keeps every item: no thresholding, no exclusion of ambiguous
judge scores, no post-hoc correction. Items without a verdict stay None and
are counted by the callers rather than imputed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bench import Category
from .errors import ValidationError
from .toy import BiasScenario, mode_assignment

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
    judge_score: int | None = None
    collapsed: bool | None = None


# report column -> the ItemRow field it reads and the metric that averages it
_METRICS = {"ccs": ("judge_score", ccs), "cvr": ("collapsed", cvr)}


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


def _sd(values: list, mean: float) -> float:
    """Sample standard deviation of ``values`` about their ``mean``; 0 for
    one value."""
    n = len(values)
    if n < 2:
        return 0.0
    return math.sqrt(math.fsum((float(v) - mean) ** 2 for v in values) / (n - 1))


def _group_stats(rows: list[ItemRow]) -> GroupStats:
    mean, sd = {}, {}
    for column, (name, metric) in _METRICS.items():
        values = [v for r in rows if (v := getattr(r, name)) is not None]
        if values:
            mean[column] = metric(values)
            sd[column] = _sd(values, mean[column])
    return GroupStats(n=len(rows), mean=mean, sd=sd)


def aggregate_report(rows, by_category: bool = False, method: str = "") -> ScoreReport:
    """Means and sample standard deviations per metric, overall and (when
    requested) per category. Each mean is ``ccs`` or ``cvr`` of the rows that
    carry the value, so a judge score that is not an integer in 1..5 raises
    ValidationError. Score-3 items are never dropped; empty categories are
    omitted with a note."""
    rows = list(rows)
    if not rows:
        raise ValidationError("need at least one row to aggregate")
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
