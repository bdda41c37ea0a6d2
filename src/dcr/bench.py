"""Benchmark data model: 8-category prompt suite and compositional-constraint
evaluation.

Each suite item carries its ``attractor_prompt`` as data. ``REWRITE_TEMPLATE``
is the paper's instruction for deriving one from a rare prompt with a text
model; ``render_attractor_template`` fills it in for suite authors.
"""

from __future__ import annotations

import enum
import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigurationError, SuiteFormatError, ValidationError

CANONICAL_PER_CATEGORY = 50
CANONICAL_TOTAL = 400

REWRITE_TEMPLATE = (
    "Given the following text prompt describing a rare but plausible visual "
    "composition, generate a single alternative prompt that represents the "
    "most common or frequently occurring version of the same scene. Remove "
    "or replace only the rare compositional factor (e.g., unusual attribute, "
    "atypical environment, or unlikely object placement) while preserving "
    "all other scene elements. Output only the rewritten prompt, with no "
    "explanation.\n\nInput prompt: {p}"
)


class Category(str, enum.Enum):
    ENV = "ENV"
    TEMP = "TEMP"
    OBJ = "OBJ"
    ATTR = "ATTR"
    SCALE = "SCALE"
    CTX = "CTX"
    MAT = "MAT"
    DENS = "DENS"


@dataclass(frozen=True)
class FactorConstraint:
    """One semantic-factor constraint: either a nonempty discrete allowed set
    or, for density factors only, an upper threshold. ``attractor_set`` is
    the attractor's preferred set used for the collapse flag, beside an
    allowed set only; it is declared explicitly per item, never inferred from
    text."""

    name: str
    allowed: frozenset | None = None
    threshold: float | None = None
    attractor_set: frozenset | None = None

    def __post_init__(self):
        if not self.name:
            raise ValidationError("factor name must be nonempty")
        if (self.allowed is None) == (self.threshold is None):
            raise ValidationError(
                f"factor '{self.name}' needs exactly one of an allowed set or a threshold")
        if self.allowed is not None:
            object.__setattr__(self, "allowed", frozenset(self.allowed))
            if not self.allowed:
                raise ValidationError(f"factor '{self.name}': allowed must be nonempty")
        if self.attractor_set is not None:
            if self.is_threshold:
                raise ValidationError(
                    f"factor '{self.name}': attractor_set is never read beside a "
                    "threshold (max)")
            object.__setattr__(self, "attractor_set", frozenset(self.attractor_set))

    @property
    def is_threshold(self) -> bool:
        return self.threshold is not None


@dataclass(frozen=True)
class BenchPrompt:
    id: str
    category: Category
    prompt: str
    attractor_prompt: str
    factors: tuple[FactorConstraint, ...]

    def __post_init__(self):
        if not self.id:
            raise ValidationError("item id must be nonempty")
        object.__setattr__(self, "category", Category(self.category))
        if not self.prompt or not self.attractor_prompt:
            raise ValidationError(f"item '{self.id}' needs both prompts")
        if self.prompt == self.attractor_prompt:
            raise ValidationError(
                f"item '{self.id}': prompt and attractor prompt must differ")
        if len(self.factors) < 1:
            raise ValidationError(f"item '{self.id}' needs at least one factor")
        names = [fc.name for fc in self.factors]
        for i, fc in enumerate(self.factors):
            if fc.is_threshold and self.category is not Category.DENS:
                raise ValidationError(
                    f"item '{self.id}': threshold factors are only permitted for DENS")
            if fc.name in names[:i]:
                # extractors are bound by name, so both would read one value
                raise ValidationError(
                    f"item '{self.id}': factors[{i}].name repeats the name "
                    f"'{fc.name}' of factors[{names.index(fc.name)}]")
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True)
class BenchSuite:
    items: tuple[BenchPrompt, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))

    def counts_by_category(self) -> dict[Category, int]:
        counts = {c: 0 for c in Category}
        for item in self.items:
            counts[item.category] += 1
        return counts

    def validate_canonical(self) -> None:
        counts = self.counts_by_category()
        total = sum(counts.values())
        if total != CANONICAL_TOTAL:
            raise ValidationError(
                f"canonical suite must hold {CANONICAL_TOTAL} items, got {total}")
        for cat, n in counts.items():
            if n != CANONICAL_PER_CATEGORY:
                raise ValidationError(
                    f"canonical suite needs {CANONICAL_PER_CATEGORY} items in "
                    f"{cat.value}, got {n}")


_ITEM_FIELDS = {"id", "category", "prompt", "attractor_prompt", "factors"}


def _string_set(raw, key, item_id, field) -> frozenset | None:
    """``raw[key]`` as a frozenset, None when absent; SuiteFormatError unless
    it is an array of strings."""
    value = raw.get(key)
    if value is None:
        return None
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SuiteFormatError(f"{key} must be an array of strings", item=item_id,
                               field=field)
    return frozenset(value)


def _parse_factor(raw, item_id, idx) -> FactorConstraint:
    if not isinstance(raw, dict):
        raise SuiteFormatError("factor must be an object", item=item_id, field="factors")
    field = f"factors[{idx}]"
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise SuiteFormatError("factor needs a nonempty name", item=item_id,
                               field=f"{field}.name")
    extra = set(raw) - {"name", "allowed", "max", "attractor_set"}
    if extra:
        raise SuiteFormatError(f"unknown factor keys {sorted(extra)}", item=item_id,
                               field=field)
    threshold = raw.get("max")
    # the bound refuses NaN, the infinities and integers beyond float range
    if threshold is not None and (isinstance(threshold, bool)
                                  or not isinstance(threshold, (int, float))
                                  or not abs(threshold) <= sys.float_info.max):
        raise SuiteFormatError(f"max must be a finite number, got {threshold!r}",
                               item=item_id, field=f"{field}.max")
    allowed = _string_set(raw, "allowed", item_id, f"{field}.allowed")
    attractor_set = _string_set(raw, "attractor_set", item_id, f"{field}.attractor_set")
    try:
        return FactorConstraint(
            name=name, allowed=allowed,
            threshold=None if threshold is None else float(threshold),
            attractor_set=attractor_set)
    except ValidationError as exc:
        raise SuiteFormatError(str(exc), item=item_id, field=field) from exc


def load_suite(path, canonical: bool = False) -> BenchSuite:
    """Parse and validate a suite file: a JSON array of items carrying exactly
    the five BenchPrompt fields. ``id``, ``prompt`` and ``attractor_prompt``
    are nonempty strings, a factor's ``allowed`` and ``attractor_set`` arrays
    of strings and its ``max`` a finite number; any other type or value, like
    a duplicate id, raises SuiteFormatError naming the item and field. With
    ``canonical`` the 50-per-category / 400-total rule is enforced."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SuiteFormatError(f"not valid JSON: {exc.msg} (line {exc.lineno})") from exc
    if not isinstance(raw, list) or not raw:
        raise SuiteFormatError("suite must be a nonempty JSON array of items")
    items = []
    seen = set()
    for pos, rec in enumerate(raw):
        if not isinstance(rec, dict):
            raise SuiteFormatError("item must be an object", item=pos)
        missing = _ITEM_FIELDS - set(rec)
        extra = set(rec) - _ITEM_FIELDS
        if missing:
            raise SuiteFormatError(f"missing fields {sorted(missing)}",
                                   item=rec.get("id", pos))
        if extra:
            raise SuiteFormatError(f"unknown fields {sorted(extra)}",
                                   item=rec.get("id", pos))
        for key in ("id", "prompt", "attractor_prompt"):
            if not isinstance(rec[key], str) or not rec[key]:
                raise SuiteFormatError(f"{key} must be a nonempty string, got {rec[key]!r}",
                                       item=pos if key == "id" else rec["id"], field=key)
        item_id = rec["id"]
        if item_id in seen:
            raise SuiteFormatError("duplicate item id", item=item_id, field="id")
        seen.add(item_id)
        try:
            category = Category(rec["category"])
        except ValueError:
            raise SuiteFormatError(
                f"category must be one of {[c.value for c in Category]}, "
                f"got {rec['category']!r}", item=item_id, field="category") from None
        if not isinstance(rec["factors"], list) or not rec["factors"]:
            raise SuiteFormatError("factors must be a nonempty array",
                                   item=item_id, field="factors")
        factors = tuple(_parse_factor(f, item_id, i) for i, f in enumerate(rec["factors"]))
        try:
            items.append(BenchPrompt(id=item_id, category=category,
                                     prompt=rec["prompt"],
                                     attractor_prompt=rec["attractor_prompt"],
                                     factors=factors))
        except ValidationError as exc:
            raise SuiteFormatError(str(exc), item=item_id) from exc
    suite = BenchSuite(items=tuple(items))
    if canonical:
        suite.validate_canonical()
    return suite


def fixture_suite_path() -> Path:
    """Path of the bundled 16-pair fixture suite (two items per category)."""
    return Path(resources.files("dcr").joinpath("data/fixture_suite.json"))


def load_fixture_suite() -> BenchSuite:
    return load_suite(fixture_suite_path())


@dataclass(frozen=True)
class ConstraintResult:
    satisfied: bool
    collapsed: bool


def eval_constraint(x0, item: BenchPrompt, extractors) -> ConstraintResult:
    """Conjunction over the item's factors: set membership for discrete
    factors, value <= threshold for density factors. The collapse flag is
    raised when any extracted value lies in a factor's declared attractor set.
    Every factor's value is extracted; only the two flags are kept.
    """
    missing = sorted({f.name for f in item.factors} - set(extractors))
    if missing:
        raise ConfigurationError(
            f"no extractor for factor(s) {missing} of item '{item.id}'")
    satisfied = True
    collapsed = False
    for fc in item.factors:
        value = extractors[fc.name](x0)
        if fc.is_threshold:
            ok = float(value) <= fc.threshold
            hit = False
        else:
            ok = value in fc.allowed
            hit = fc.attractor_set is not None and value in fc.attractor_set
        satisfied = satisfied and ok
        collapsed = collapsed or hit
    return ConstraintResult(satisfied=satisfied, collapsed=collapsed)


def render_attractor_template(p: str) -> str:
    """The fixed rewriting instruction with the prompt substituted verbatim;
    byte-stable across calls."""
    if not p:
        raise ValidationError("prompt must be nonempty")
    return REWRITE_TEMPLATE.format(p=p)

