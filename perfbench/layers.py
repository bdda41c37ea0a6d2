"""Per-layer timing for the traced run.

Wrappers are installed from outside the program, around the names through
which ``dcr`` calls each layer at this commit:

- ``toy``:      a ``ToyDenoiser`` subclass put in ``dcr.cli``'s namespace;
- ``guidance``: the guidance functions as ``dcr.sampling`` looks them up;
- ``sampling``: ``run_batch`` and ``write_traces_jsonl`` as ``dcr.cli`` looks
  them up, ``scheduler_step`` and ``read_traces_jsonl`` in ``dcr.sampling``;
- ``bench``:    ``eval_constraint`` and ``load_suite`` in ``dcr.bench``;
- ``metrics``:  the ``dcr.metrics`` functions ``dcr.cli`` calls;
- ``judge``:    ``dcr.judge.judge``.

A layer whose wrapper never fires is reported as absent rather than as 0 s,
so a refactor that routes around a wrapped name shows up as a missing layer,
not as a speed-up. Every value is per operation.

Some layers are reached by only some workloads (``PARTIAL``). Their times are
reported in the details of a traced run; the result line carries their share
of the operation instead, so that none of its time metrics reads a constant
0 s on a workload that never reaches the layer.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import dcr.bench
import dcr.cli
import dcr.judge
import dcr.sampling
from dcr.sampling import SchedulerKind
from dcr.toy import ToyDenoiser

GUIDANCE_FUNCS = ("cfg_update", "target_prediction", "attractor_drift_expanded",
                  "schedule_alpha", "repulsion_coefficient", "corrected_update")
METRICS_FUNCS = ("toy_collapse_fraction", "wilson_interval", "aggregate_report",
                 "report_to_csv", "report_to_json")

# (name, unit, wrapped call that must have fired for the value to be present)
PER_LAYER = (
    ("toy.epsilon.calls", "count", "toy.epsilon"),
    ("toy.epsilon.rows", "count", "toy.epsilon"),
    ("toy.epsilon.busy_s", "s", "toy.epsilon"),
    ("toy.epsilon.us_per_row", "us", "toy.epsilon"),
    ("toy.epsilon.uncond.calls", "count", "toy.epsilon"),
    ("toy.epsilon.target.calls", "count", "toy.epsilon"),
    ("toy.epsilon.attractor.calls", "count", "toy.epsilon"),
    ("guidance.calls", "count", "guidance"),
    ("guidance.busy_s", "s", "guidance"),
    ("guidance.repulsion_active_frac", "fraction", "guidance.repulsion_coefficient"),
    ("sampling.run_batch.busy_s", "s", "sampling.run_batch"),
    ("sampling.scheduler_step.calls", "count", "sampling.scheduler_step"),
    ("sampling.scheduler_step.busy_s", "s", "sampling.scheduler_step"),
    ("sampling.loop_self_s", "s", "sampling.run_batch"),
    ("sampling.rng_draws", "count.computed", "sampling.run_batch"),
    ("sampling.trace_records", "count", "sampling.run_batch"),
    ("sampling.write_traces.busy_s", "s", "sampling.write_traces"),
    ("sampling.write_traces.bytes", "bytes", "sampling.write_traces"),
    ("sampling.read_traces.busy_s", "s", "sampling.read_traces"),
    ("sampling.read_traces.records", "count", "sampling.read_traces"),
    ("bench.load_suite.busy_s", "s", "bench.load_suite"),
    ("bench.eval_constraint.calls", "count", "bench.eval_constraint"),
    ("bench.eval_constraint.busy_s", "s", "bench.eval_constraint"),
    ("metrics.calls", "count", "metrics"),
    ("metrics.busy_s", "s", "metrics"),
    ("judge.requests", "count", "judge"),
    ("judge.http_requests", "count", "judge"),
    ("judge.retries", "count", "judge"),
    ("judge.failures", "count", "judge"),
    ("judge.busy_s", "s", "judge"),
    ("judge.latency_ms_p50", "ms", "judge"),
    ("judge.latency_ms_p95", "ms", "judge"),
    ("judge.request_bytes", "bytes", "judge"),
    ("judge.audit_bytes", "bytes", "judge"),
    ("cli.self_s", "s", None),
    ("cli.files_written", "count", None),
    ("cli.bytes_written", "bytes", None),
    ("sampling.write_traces.share", "fraction", "sampling.write_traces"),
    ("sampling.read_traces.share", "fraction", "sampling.read_traces"),
    ("bench.load_suite.share", "fraction", "bench.load_suite"),
    ("bench.eval_constraint.share", "fraction", "bench.eval_constraint"),
    ("metrics.share", "fraction", "metrics"),
    ("judge.share", "fraction", "judge"),
    ("layers_absent", "count", None),
    ("traced_op_s", "s", None),
    ("trace_overhead_frac", "fraction", None),
)
PARTIAL = ("sampling.write_traces", "sampling.read_traces", "bench.load_suite",
           "bench.eval_constraint", "metrics", "judge")
# What the result line of a traced run reports (see the module docstring).
RESULT_METRICS = tuple((name, unit) for name, unit, src in PER_LAYER
                       if not (src in PARTIAL and unit in ("s", "ms")))
POOLED = ("judge.latency_ms_p50", "judge.latency_ms_p95", "layers_absent",
          "guidance.repulsion_active_frac", "traced_op_s", "trace_overhead_frac")

# Layer time that blocks the operation directly (no nesting among these).
TOP_LEVEL = ("sampling.run_batch", "sampling.write_traces", "sampling.read_traces",
             "bench.load_suite", "bench.eval_constraint", "metrics", "judge")


def rng_draws(n_traj: int, T: int, dim: int, kind) -> int:
    """Normal draws the sampler makes, computed, not counted: the initial
    latent, plus for ancestral sampling one latent of noise on every
    transition except the last (t=1 -> 0)."""
    per_traj = dim if SchedulerKind(kind) is SchedulerKind.DETERMINISTIC_DDIM \
        else dim * (T - 1)
    return n_traj * per_traj


class OpRecorder:
    """Counts and busy time of one traced operation."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.extra = defaultdict(int)
        self.latency_ms: list[float] = []
        self.finals: list[np.ndarray] = []

    def add(self, name: str, dt: float) -> None:
        self.calls[name] += 1
        self.busy[name] += dt


def _timed(rec_ref, name, fn):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec_ref[0].add(name, perf_counter() - t0)
    return wrapper


def _repulsion(rec_ref, fn):
    def wrapper(drift, delta_ref, alpha_t, cfg):
        t0 = perf_counter()
        try:
            diag = fn(drift, delta_ref, alpha_t, cfg)
        finally:
            rec_ref[0].add("guidance", perf_counter() - t0)
        rec = rec_ref[0]
        rec.calls["guidance.repulsion_coefficient"] += 1
        rec.extra["repulsion_active"] += diag.lambda_t > 0.0
        return diag
    return wrapper


def _run_batch(rec_ref, fn):
    def wrapper(backend, items, cfg, n_per_item):
        t0 = perf_counter()
        try:
            results = fn(backend, items, cfg, n_per_item)
        finally:
            rec_ref[0].add("sampling.run_batch", perf_counter() - t0)
        rec = rec_ref[0]
        rec.extra["trace_records"] += sum(len(r.trace.records) for r in results
                                          if r.trace is not None)
        rec.extra["rng_draws"] += rng_draws(len(results), cfg.T,
                                            int(np.prod(backend.latent_shape)),
                                            cfg.scheduler_kind)
        rec.finals.extend(r.final for r in results if r.final is not None)
        return results
    return wrapper


def _write_traces(rec_ref, fn):
    def wrapper(traces, path, manifest_ref=None):
        t0 = perf_counter()
        try:
            fn(traces, path, manifest_ref=manifest_ref)
        finally:
            rec_ref[0].add("sampling.write_traces", perf_counter() - t0)
        rec_ref[0].extra["write_bytes"] += Path(path).stat().st_size
    return wrapper


def _read_traces(rec_ref, fn):
    def wrapper(path):
        t0 = perf_counter()
        try:
            header, records = fn(path)
        finally:
            rec_ref[0].add("sampling.read_traces", perf_counter() - t0)
        rec_ref[0].extra["read_records"] += len(records)
        return header, records
    return wrapper


def _judge(rec_ref, fn):
    def wrapper(req, config):
        t0 = perf_counter()
        try:
            return fn(req, config)
        except Exception:
            rec_ref[0].extra["judge_failures"] += 1
            raise
        finally:
            dt = perf_counter() - t0
            rec_ref[0].add("judge", dt)
            rec_ref[0].latency_ms.append(dt * 1e3)
    return wrapper


def _toy_class(rec_ref):
    class TimedToyDenoiser(ToyDenoiser):
        def epsilon(self, x_t, t, channel_label):
            t0 = perf_counter()
            try:
                return super().epsilon(x_t, t, channel_label)
            finally:
                rec = rec_ref[0]
                rec.add("toy.epsilon", perf_counter() - t0)
                rec.calls[f"toy.epsilon.{channel_label}"] += 1
                rec.extra["toy_rows"] += np.size(x_t) // self.scenario.dim
    return TimedToyDenoiser


class Tracer:
    """Installs the layer wrappers while active and records one
    ``OpRecorder`` per operation."""

    def __init__(self):
        self._ref = [OpRecorder()]
        ref = self._ref
        self._patches = [(dcr.cli, "ToyDenoiser", _toy_class(ref)),
                         (dcr.cli, "run_batch", _run_batch(ref, dcr.cli.run_batch)),
                         (dcr.cli, "write_traces_jsonl",
                          _write_traces(ref, dcr.cli.write_traces_jsonl)),
                         (dcr.sampling, "read_traces_jsonl",
                          _read_traces(ref, dcr.sampling.read_traces_jsonl)),
                         (dcr.sampling, "scheduler_step",
                          _timed(ref, "sampling.scheduler_step",
                                 dcr.sampling.scheduler_step)),
                         (dcr.bench, "eval_constraint",
                          _timed(ref, "bench.eval_constraint", dcr.bench.eval_constraint)),
                         (dcr.bench, "load_suite",
                          _timed(ref, "bench.load_suite", dcr.bench.load_suite)),
                         (dcr.judge, "judge", _judge(ref, dcr.judge.judge))]
        for name in GUIDANCE_FUNCS:
            fn = getattr(dcr.sampling, name)
            wrapped = _repulsion(ref, fn) if name == "repulsion_coefficient" \
                else _timed(ref, "guidance", fn)
            self._patches.append((dcr.sampling, name, wrapped))
        for name in METRICS_FUNCS:
            self._patches.append((dcr.cli, name,
                                  _timed(ref, "metrics", getattr(dcr.cli, name))))

    @contextmanager
    def op(self):
        """Wrap the layers for one operation; yields its recorder."""
        rec = OpRecorder()
        self._ref[0] = rec
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in self._patches]
        for mod, name, wrapped in self._patches:
            setattr(mod, name, wrapped)
        try:
            yield rec
        finally:
            for mod, name, orig in saved:
                setattr(mod, name, orig)


def op_values(rec: OpRecorder, op_s: float, outdir: Path, judge_http: int,
              judge_bytes: int) -> dict[str, float]:
    """Per-layer values of one traced operation, keyed by metric name."""
    c, b, x = rec.calls, rec.busy, rec.extra
    files = [p for p in outdir.rglob("*") if p.is_file()]
    audit = outdir / "judge_audit.jsonl"
    v = {
        "toy.epsilon.calls": c["toy.epsilon"],
        "toy.epsilon.rows": x["toy_rows"],
        "toy.epsilon.busy_s": b["toy.epsilon"],
        "toy.epsilon.us_per_row": b["toy.epsilon"] / max(x["toy_rows"], 1) * 1e6,
        "toy.epsilon.uncond.calls": c["toy.epsilon.uncond"],
        "toy.epsilon.target.calls": c["toy.epsilon.target"],
        "toy.epsilon.attractor.calls": c["toy.epsilon.attractor"],
        "guidance.calls": c["guidance"],
        "guidance.busy_s": b["guidance"],
        "sampling.run_batch.busy_s": b["sampling.run_batch"],
        "sampling.scheduler_step.calls": c["sampling.scheduler_step"],
        "sampling.scheduler_step.busy_s": b["sampling.scheduler_step"],
        "sampling.loop_self_s": b["sampling.run_batch"] - b["toy.epsilon"]
        - b["guidance"] - b["sampling.scheduler_step"],
        "sampling.rng_draws": x["rng_draws"],
        "sampling.trace_records": x["trace_records"],
        "sampling.write_traces.busy_s": b["sampling.write_traces"],
        "sampling.write_traces.bytes": x["write_bytes"],
        "sampling.read_traces.busy_s": b["sampling.read_traces"],
        "sampling.read_traces.records": x["read_records"],
        "bench.load_suite.busy_s": b["bench.load_suite"],
        "bench.eval_constraint.calls": c["bench.eval_constraint"],
        "bench.eval_constraint.busy_s": b["bench.eval_constraint"],
        "metrics.calls": c["metrics"],
        "metrics.busy_s": b["metrics"],
        "judge.requests": c["judge"],
        "judge.http_requests": judge_http,
        "judge.retries": judge_http - c["judge"],
        "judge.failures": x["judge_failures"],
        "judge.busy_s": b["judge"],
        "judge.request_bytes": judge_bytes,
        "judge.audit_bytes": audit.stat().st_size if audit.is_file() else 0,
        "cli.self_s": op_s - sum(b[k] for k in TOP_LEVEL),
        "cli.files_written": len(files),
        "cli.bytes_written": sum(p.stat().st_size for p in files),
    }
    v.update({f"{src}.share": b[src] / op_s for src in PARTIAL})
    return v


def summarize(recs: list[OpRecorder], values: list[dict], op_s: list[float],
              untraced_s: list[float]) -> tuple[dict, list[str]]:
    """Median per-operation value of every per-layer metric over the traced
    operations, the pooled judge latency percentiles and repulsion fraction,
    and the list of wrapped calls that never fired."""
    fired = defaultdict(int)
    for rec in recs:
        for name, n in rec.calls.items():
            fired[name] += n
    absent = sorted({src for _, _, src in PER_LAYER
                     if src is not None and fired[src] == 0})
    out = {name: statistics.median(v[name] for v in values)
           for name, _, _ in PER_LAYER if name not in POOLED}
    lat = [ms for rec in recs for ms in rec.latency_ms]
    out["judge.latency_ms_p50"] = float(np.percentile(lat, 50)) if lat else 0.0
    out["judge.latency_ms_p95"] = float(np.percentile(lat, 95)) if lat else 0.0
    coef = fired["guidance.repulsion_coefficient"]
    active = sum(rec.extra["repulsion_active"] for rec in recs)
    out["guidance.repulsion_active_frac"] = active / coef if coef else 0.0
    out["layers_absent"] = len(absent)
    traced = statistics.median(op_s)
    out["traced_op_s"] = traced
    out["trace_overhead_frac"] = traced / statistics.median(untraced_s) - 1.0
    return out, absent
