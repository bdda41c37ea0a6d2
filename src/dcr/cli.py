"""Command-line surface: sampling runs, ablations, hyperparameter sweeps, and
benchmark evaluation, all emitting manifest-linked, plot-ready tables.

Configuration precedence: flags > config file > scenario preset > the
``GuidanceConfig`` defaults; sweeps skip the scenario preset and hold the axes
they do not sweep at those defaults. No setting comes from the environment:
only ``dcr.judge`` reads it, for the judge's endpoint and key, and the
manifest records that endpoint only for ``bench --with-judge``. Exit codes:
0 success, 1 usage/configuration error, 2 runtime failure under --strict.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import csv
import dataclasses
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bench import BenchPrompt
from .errors import (ConfigurationError, SuiteFormatError, TransportError,
                     ValidationError, VerdictError)
from .guidance import GuidanceConfig
from .judge import EncodedFrame, JudgeClientConfig, JudgeRequest, judge_endpoint
from .metrics import (GroupStats, ItemRow, ScoreReport, aggregate_report,
                      report_to_csv, report_to_json, toy_collapse_fraction,
                      wilson_interval)
from .sampling import (BatchItem, SamplerConfig, SchedulerKind, Variant,
                       run_batch, write_traces_jsonl)
from .toy import (BiasScenario, ToyDenoiser, cosine_schedule, default_scenario,
                  load_scenario, mode_assignment, scenario_doc)

class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the documented contract
    is 1 for usage/config problems."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# the settings a config file may hold; any other key is refused, so that a
# misspelt one is not silently ignored
_CONFIG_KEYS = {f.name for f in dataclasses.fields(GuidanceConfig)} | {
    "steps", "seed", "scheduler"}


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError("config file must hold a JSON object")
    if unknown := doc.keys() - _CONFIG_KEYS:
        raise ConfigurationError(f"config file: unknown keys {sorted(unknown)}")
    return doc


def _resolve_scenario(arg: str | None) -> BiasScenario:
    if arg in (None, "default"):
        return default_scenario()
    return load_scenario(arg)


def _parse_interval(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise ConfigurationError(
            f"interval must look like '0.2:0.8', got {text!r}") from None


def _count(text: str) -> int:
    """argparse type of --n and --n-per-item: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


SCHEDULERS = [k.value for k in SchedulerKind]


def _config_value(key: str, value):
    """A config-file setting, checked against the type its flag parses to."""
    if key == "scheduler":
        if value not in SCHEDULERS:
            raise ConfigurationError(
                f"config file: scheduler must be one of {SCHEDULERS}, got {value!r}")
        return value
    integer = key in ("steps", "seed")
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigurationError(
            f"config file: {key} must be {'an integer' if integer else 'a number'}, "
            f"got {value!r}")
    return value


def _sampler_config(args, cfg_file, scenario, variant) -> SamplerConfig:
    """flags > config file > scenario preset > ``GuidanceConfig`` defaults
    (the environment sets none of them)."""
    if scenario.guidance is not None:
        settings = dataclasses.asdict(scenario.guidance)
    else:
        settings = {f.name: None if f.default is dataclasses.MISSING else f.default
                    for f in dataclasses.fields(GuidanceConfig)}
    settings |= {"steps": scenario.steps, "seed": SamplerConfig.seed,
                 "scheduler": SamplerConfig.scheduler_kind.value}
    settings |= {k: _config_value(k, v) for k, v in cfg_file.items()}
    settings |= {k: v for k in ("w", "w_attr", "eta", "gamma", "steps", "seed",
                                "scheduler") if (v := getattr(args, k)) is not None}
    if settings["w"] is None:
        raise ConfigurationError(
            "guidance scale w is required (no default): pass --w or use a "
            "scenario with a guidance preset")
    if args.interval is not None:
        settings["r_s"], settings["r_e"] = _parse_interval(args.interval)
    T, seed, scheduler = (settings.pop(k) for k in ("steps", "seed", "scheduler"))
    guidance = GuidanceConfig(**{k: float(v) for k, v in settings.items()})
    return SamplerConfig(T=int(T), guidance=guidance, variant=Variant(variant),
                         scheduler_kind=SchedulerKind(scheduler), seed=int(seed))


# Every artifact names the manifest, which is written last: its presence
# means the run's artifacts are complete.
MANIFEST = "manifest.json"


def _out_dir(args) -> Path:
    """The output directory, without an earlier run's manifest."""
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / MANIFEST).unlink(missing_ok=True)
    return outdir


@contextlib.contextmanager
def _artifact(path: Path):
    """A temporary path beside ``path``, moved onto it if the block succeeds
    and removed if it raises, so an artifact is whole or absent."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path: Path, doc: dict) -> None:
    with _artifact(path) as tmp:
        tmp.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with _artifact(path) as tmp, tmp.open("w", encoding="utf-8", newline="") as fh:
        fh.write(f"# manifest: {MANIFEST}\n")
        csv.writer(fh).writerows([header, *rows])


def _write_manifest(outdir: Path, command: str, args, cfg_file: dict,
                    cfg: SamplerConfig, scenario: BiasScenario, extra: dict,
                    endpoint: str | None = None) -> None:
    """The run's manifest; ``endpoint`` is the judge's endpoint for a run
    that judged, None for any other run."""
    args_dict = {k: v for k, v in (vars(args) | {"config_file": cfg_file}).items()
                 if k != "func" and isinstance(v, (str, int, float, bool, dict,
                                                   list, type(None)))}
    doc = {
        "tool": "dcr",
        "version": __version__,
        "command": command,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "args": args_dict,
        "endpoints": {"judge": endpoint},
        "sampler": dataclasses.asdict(cfg),
        "scenario": scenario_doc(scenario),
    } | extra
    _write_json(outdir / MANIFEST, doc)


def _run_toy_batch(scenario, cfg: SamplerConfig, items, n: int):
    """n trajectories per batch item on the scenario's toy denoiser, as one
    batch with shared seeds."""
    return run_batch(ToyDenoiser(scenario, cosine_schedule(cfg.T)), items, cfg, n)


def cmd_sample(args) -> int:
    cfg_file = _load_config_file(args.config)
    scenario = _resolve_scenario(args.scenario)
    cfg = _sampler_config(args, cfg_file, scenario, args.variant)
    outdir = _out_dir(args)
    batch = _run_toy_batch(scenario, cfg, [BatchItem("scenario")], args.n)
    good = np.flatnonzero(batch.ok).tolist()
    failures = len(batch) - len(good)
    with _artifact(outdir / "traces.jsonl") as tmp:
        write_traces_jsonl((batch[r].trace for r in good), tmp, manifest_ref=MANIFEST)
    finals = batch.finals[good]
    modes = mode_assignment(finals, scenario).tolist()
    _write_csv(outdir / "samples.csv",
               ["trajectory_id", "replicate"]
               + [f"x{i}" for i in range(scenario.dim)] + ["mode", "collapsed"],
               ([batch.trajectory_ids[r], batch.keys[r][1]] + [repr(v) for v in x]
                + [mode, mode == scenario.dominant_index]
                for r, x, mode in zip(good, finals.tolist(), modes)))
    _write_manifest(outdir, "sample", args, cfg_file, cfg, scenario,
                    {"n": args.n, "failures": failures})
    print(f"wrote {len(good)} trajectories to {outdir} ({failures} failures)")
    if failures and args.strict:
        return 2
    return 0


ALL_VARIANTS = [v.value for v in Variant]


def _collapse_report(name: str, args, cfg_file: dict, scenario: BiasScenario,
                     runs: list[tuple[dict, SamplerConfig]], manifest_extra: dict,
                     report_extra: dict) -> list[dict]:
    """Sample each ``(label, cfg)`` run, write the manifest (recording the
    first run's sampler) and ``<name>_report.{csv,json}``, one row per run:
    the label's columns, then n, failures and the collapse fraction with its
    Wilson interval, all three None (null, an empty cell) for a run whose
    every trajectory failed. Runs whose configs differ only in the variant
    are sampled as one batch. The reports read finals only, so the runs
    record no trace."""
    outdir = _out_dir(args)
    runs = [(label, dataclasses.replace(cfg, trace=False)) for label, cfg in runs]
    groups: dict[SamplerConfig, list[int]] = {}
    for k, (_, cfg) in enumerate(runs):
        groups.setdefault(dataclasses.replace(cfg, variant=Variant.FULL_DCR),
                          []).append(k)
    rows = [None] * len(runs)
    n = args.n
    for cfg, ks in groups.items():
        items = [BatchItem("scenario", variant=runs[k][1].variant) for k in ks]
        batch = _run_toy_batch(scenario, cfg, items, n)
        ok = batch.ok
        for j, k in enumerate(ks):
            span = slice(j * n, (j + 1) * n)
            finals = batch.finals[span][ok[span]]
            frac = lo = hi = None
            if len(finals):
                frac = toy_collapse_fraction(finals, scenario)
                lo, hi = wilson_interval(int(round(frac * len(finals))), len(finals))
            rows[k] = runs[k][0] | {"n": len(finals), "failures": n - len(finals),
                                    "collapse_fraction": frac, "wilson_lo": lo,
                                    "wilson_hi": hi}
    _write_csv(outdir / f"{name}_report.csv", list(rows[0]),
               (row.values() for row in rows))
    _write_json(outdir / f"{name}_report.json",
                {"manifest": MANIFEST, "rows": rows} | report_extra)
    _write_manifest(outdir, name, args, cfg_file, runs[0][1], scenario, manifest_extra)
    return rows


def _no_collapse(row: dict) -> str:
    """The stdout text of a report row whose every trajectory failed."""
    return f"collapse=n/a (all {row['failures']} trajectories failed)"


def cmd_ablate(args) -> int:
    cfg_file = _load_config_file(args.config)
    scenario = _resolve_scenario(args.scenario)
    if args.variants is None:
        variants = ALL_VARIANTS
    else:
        variants = [v for v in args.variants.split(",") if v]
        if not variants:
            raise ConfigurationError("variant list must be nonempty")
    for v in variants:
        if v not in ALL_VARIANTS:
            raise ConfigurationError(f"unknown variant '{v}' (choose from {ALL_VARIANTS})")
    base = _sampler_config(args, cfg_file, scenario, variants[0])
    runs = [({"variant": v}, dataclasses.replace(base, variant=v)) for v in variants]
    notes = ["collapse fractions only: ablate calls no judge"]
    rows = _collapse_report("ablate", args, cfg_file, scenario, runs,
                            {"variants": variants, "n": args.n}, {"notes": notes})
    for row in rows:
        print(f"{row['variant']}: " + (
            f"collapse={row['collapse_fraction']:.4f} "
            f"[{row['wilson_lo']:.4f}, {row['wilson_hi']:.4f}]" if row["n"]
            else _no_collapse(row)))
    return 0


SWEEP_AXES = ("w-attr", "eta", "interval")


def cmd_sweep(args) -> int:
    cfg_file = _load_config_file(args.config)
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise ConfigurationError("sweep needs a nonempty --values list")
    scenario = _resolve_scenario(args.scenario)
    if args.w is None and "w" not in cfg_file:
        raise ConfigurationError("sweeps require an explicit --w")
    # each swept value is applied as its flag; the base is the reference
    # guidance, not the scenario preset
    dest = args.axis.replace("-", "_")
    reference = dataclasses.replace(scenario, guidance=None)
    runs = []
    for value in values:
        try:
            value = value if dest == "interval" else float(value)
        except ValueError:
            raise ConfigurationError(
                f"sweep value for {args.axis} must be a number, got {value!r}") from None
        cfg = _sampler_config(argparse.Namespace(**(vars(args) | {dest: value})),
                              cfg_file, reference, Variant.FULL_DCR)
        g = cfg.guidance
        resolved = f"{g.r_s}:{g.r_e}" if dest == "interval" else getattr(g, dest)
        runs.append(({"axis": args.axis, "value": resolved}, cfg))
    rows = _collapse_report("sweep", args, cfg_file, scenario, runs,
                            {"axis": args.axis, "values": values,
                             "w": runs[0][1].guidance.w}, {})
    for row in rows:
        print(f"{row['axis']}={row['value']}: " + (
            f"collapse={row['collapse_fraction']:.4f}" if row["n"] else _no_collapse(row)))
    return 0


def _toy_extractors(item: BenchPrompt, scenario: BiasScenario):
    """Toy-backend extractors: per factor, ``dict.get`` of a table from a
    sample's mode (``mode_assignment`` of its final latent) to a value. A
    discrete factor reads its first allowed value on the rare mode, its first
    attractor value, if any, on the dominant mode and None, which no suite
    file can hold, on others; a threshold factor 0.0 on the rare, 1.0 on others."""
    rare, dominant = scenario.rare_index, scenario.dominant_index
    tables = {}
    for fc in item.factors:
        if fc.is_threshold:
            table = {m: float(m != rare) for m in range(len(scenario.base.weights))}
        else:
            table = {rare: min(fc.allowed)}
            if fc.attractor_set:
                table[dominant] = min(fc.attractor_set)
        tables[fc.name] = table.get
    return tables


def _latent_frame(latent) -> EncodedFrame:
    payload = json.dumps([float(v) for v in np.asarray(latent).reshape(-1)])
    d = int(np.asarray(latent).size)
    return EncodedFrame(data_b64=base64.b64encode(payload.encode()).decode(),
                        width=d, height=1, source_width=d, source_height=1)


AUDIT_LOG = "judge_audit.jsonl"


def _bench_rows(batch, suite, scenario: BiasScenario,
                judge_cfg: JudgeClientConfig | None) -> tuple[list[ItemRow], int]:
    """One report row per finished trajectory of ``batch``, and the number
    of judge verdicts missing. With ``judge_cfg`` None no row is judged and
    the toy sets each collapse flag; otherwise only a verdict sets it."""
    good = np.flatnonzero(batch.ok).tolist()
    modes = mode_assignment(batch.finals[good], scenario).tolist()
    by_id = {item.id: item for item in suite.items}
    extractors = {item.id: _toy_extractors(item, scenario) for item in suite.items}
    judge_failures = 0
    rows = []
    # looked up per call, not at import, so that wrappers set on the modules apply
    from .bench import eval_constraint
    from .judge import judge
    for r, mode in zip(good, modes):
        item_id, replicate = batch.keys[r]
        item = by_id[item_id]
        outcome = eval_constraint(mode, item, extractors[item_id])
        judge_score = collapsed = None
        if judge_cfg is None:
            collapsed = (mode == scenario.dominant_index) or outcome.collapsed
        else:
            req = JudgeRequest(item.prompt, tuple(fc.name for fc in item.factors),
                               item.attractor_prompt, (_latent_frame(batch.finals[r]),))
            try:
                verdict = judge(req, judge_cfg)
                judge_score, collapsed = verdict.score, verdict.collapsed
            except (TransportError, VerdictError):
                judge_failures += 1  # excluded with a visible count, never imputed
        rows.append(ItemRow(item_id=f"{item_id}/{replicate}",
                            category=item.category.value,
                            judge_score=judge_score, collapsed=collapsed))
    return rows, judge_failures


def cmd_bench(args) -> int:
    cfg_file = _load_config_file(args.config)
    endpoint = judge_endpoint() if args.with_judge else None
    # looked up per call, not at import, so that a wrapper set on the module applies
    from .bench import fixture_suite_path, load_suite
    suite = load_suite(args.suite or fixture_suite_path(), canonical=args.canonical)
    scenario = _resolve_scenario(args.scenario)
    # the report reads finals only, so the run records no trace
    cfg = dataclasses.replace(_sampler_config(args, cfg_file, scenario, args.variant),
                              trace=False)
    outdir = _out_dir(args)
    # an earlier run's log goes, as its manifest does; this run's log is
    # moved into place when the judging loop ends, missing verdicts included,
    # so only an uncaught exception leaves no log
    (outdir / AUDIT_LOG).unlink(missing_ok=True)
    batch = _run_toy_batch(scenario, cfg, [BatchItem(item.id) for item in suite.items],
                           args.n_per_item)
    with contextlib.ExitStack() as audit:
        judge_cfg = None
        if endpoint is not None:
            tmp = audit.enter_context(_artifact(outdir / AUDIT_LOG))
            log = audit.enter_context(tmp.open("w", encoding="utf-8"))
            judge_cfg = JudgeClientConfig(endpoint=endpoint, audit_log=log)
        rows, judge_failures = _bench_rows(batch, suite, scenario, judge_cfg)
    failures = len(batch) - len(rows)
    all_failed = f"all {len(batch)} trajectories failed"
    if rows:
        report = aggregate_report(rows, by_category=True, method=cfg.variant.value)
        if failures:
            report.notes.append(f"{failures} of {len(batch)} trajectories failed")
    else:  # no row to aggregate: a report with n 0 and no means
        report = ScoreReport(cfg.variant.value, 0, GroupStats(0, {}, {}),
                             notes=[all_failed])
    if judge_failures:
        report.notes.append(f"judge verdicts missing for {judge_failures} items")
    header, *table = report_to_csv(report)
    _write_csv(outdir / "bench_report.csv", header, table)
    _write_json(outdir / "bench_report.json",
                report_to_json(report) | {"manifest": MANIFEST})
    _write_manifest(outdir, "bench", args, cfg_file, cfg, scenario,
                    {"suite_items": len(suite.items), "n_per_item": args.n_per_item,
                     "failures": failures}, endpoint)
    cvr = report.overall.mean.get("cvr")
    print(f"evaluated {len(rows)} trajectories over {len(suite.items)} items; " + (
        f"cvr={cvr:.4f}" if cvr is not None
        else f"cvr=n/a ({'no judge verdict' if rows else all_failed})"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dcr", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_variant=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--scenario", default=None,
                       help="'default' or a scenario JSON path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--scheduler", default=None,
                       choices=SCHEDULERS)
        p.add_argument("--w", type=float, default=None)
        p.add_argument("--w-attr", dest="w_attr", type=float, default=None)
        p.add_argument("--eta", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--interval", default=None, help="r_s:r_e")
        if with_variant:
            p.add_argument("--variant", default=SamplerConfig.variant.value,
                           choices=ALL_VARIANTS)
        p.add_argument("--out", required=True)

    p = sub.add_parser("sample", help="run a batch of trajectories")
    add_common(p)
    p.add_argument("--n", type=_count, default=100)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("ablate", help="run the ablation variants with shared seeds")
    add_common(p, with_variant=False)
    p.add_argument("--variants", default=None,
                   help=f"comma list from {ALL_VARIANTS} (default: all)")
    p.add_argument("--n", type=_count, default=500)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="sweep one guidance axis")
    add_common(p, with_variant=False)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True,
                   help="comma list, e.g. '0,0.5,1' or '0.2:0.8,0.5:1.0'")
    p.add_argument("--n", type=_count, default=500)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="evaluate a prompt suite on the toy backend")
    add_common(p)
    p.add_argument("--suite", default=None, help="suite JSON (default: fixture suite)")
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--n-per-item", dest="n_per_item", type=_count, default=8)
    p.add_argument("--with-judge", dest="with_judge", action="store_true")
    p.set_defaults(func=cmd_bench)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on first use and reused: it reads no
    environment, and parse_args leaves it as it found it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigurationError, ValidationError, SuiteFormatError, OSError) as exc:
        print(f"dcr: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
