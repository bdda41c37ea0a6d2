"""The three workloads: the CLI call each operation makes, what it reads back
from the operation's output directory, and the check against the values
pinned in ``golden.json``.

Each operation runs one pinned program seed, ``PROGRAM_SEEDS[(seed + k) %
len(PROGRAM_SEEDS)]`` for the k-th operation of a run, so the benchmark's
``--seed`` fixes the inputs and every input has pinned outputs.

Counts (collapse counts, mode counts, trace records, judged count, ``cvr``)
must match exactly. Final latents must match within ``LATENT_ATOL``, so a
reordering of floating-point sums passes and a change in behaviour fails.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import dcr.cli
import dcr.sampling
from dcr.metrics import toy_collapse_fraction
from dcr.toy import default_scenario

PROGRAM_SEEDS = tuple(range(8))
LATENT_ATOL = 1e-6
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

FIXTURE_ITEMS = 16  # items in dcr's bundled fixture suite


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: int            # --n (ablate: per variant, bench: per item)
    traj_per_op: int

    def argv(self, seed: int, out: Path, size: int | None = None) -> list[str]:
        n = str(self.size if size is None else size)
        common = ["--seed", str(seed), "--out", str(out)]
        if self.name == "ablate":
            return ["ablate", "--scenario", "default", "--scheduler", "ancestral-ddpm",
                    "--steps", "100", "--n", n] + common
        if self.name == "sample-traces":
            return ["sample", "--scenario", "default", "--variant", "full-dcr",
                    "--scheduler", "deterministic-ddim", "--steps", "100",
                    "--n", n] + common
        return ["bench", "--with-judge", "--steps", "10",
                "--scheduler", "deterministic-ddim", "--n-per-item", n] + common


N_ABLATE, N_SAMPLE, N_PER_ITEM = 8, 32, 8
WORKLOADS = {
    "ablate": Workload(
        "ablate",
        "dcr ablate, all six variants at T=100 with DDPM: the paper's headline "
        "experiment, dominated by the toy denoiser and guidance math",
        N_ABLATE, 6 * N_ABLATE),
    "sample-traces": Workload(
        "sample-traces",
        "dcr sample full-dcr with DDIM, then read traces.jsonl back: the only "
        "workload that exports and reads traces",
        N_SAMPLE, N_SAMPLE),
    "bench-judge": Workload(
        "bench-judge",
        "dcr bench --with-judge on the fixture suite at 10 DDIM steps against a "
        "loopback judge: the only workload through judge, bench and reports",
        N_PER_ITEM, FIXTURE_ITEMS * N_PER_ITEM),
}


@dataclass
class OpResult:
    exit_code: int
    wall_s: float
    records: list | None = None


def run_op(wl: Workload, seed: int, out: Path, size: int | None = None) -> OpResult:
    """One closed-loop operation: the CLI call in-process, plus the trace read
    for ``sample-traces``. ``out`` must not exist yet."""
    sink = io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(sink):
        rc = dcr.cli.main(wl.argv(seed, out, size))
    records = None
    if wl.name == "sample-traces" and rc == 0:
        _, records = dcr.sampling.read_traces_jsonl(out / "traces.jsonl")
    return OpResult(rc, perf_counter() - t0, records)


def _finals(rows) -> list[list[float]]:
    return [[float(v) for v in np.asarray(r).reshape(-1)] for r in rows]


_MISSING = re.compile(r"judge verdicts missing for (\d+) items")


def observe(wl: Workload, out: Path, op: OpResult, finals=None,
            stub_latents=None) -> dict:
    """What the operation produced, in the layout of ``golden.json``, plus
    ``failures``: trajectory errors and missing judge verdicts.

    ``finals`` are the final latents captured in the traced run (``ablate``
    writes none of its own); ``stub_latents`` are what the judge stub
    received (``bench-judge``)."""
    if wl.name == "ablate":
        rows = json.loads((out / "ablate_report.json").read_text())["rows"]
        obs = {"collapse_counts": {r["variant"]: round(r["collapse_fraction"] * r["n"])
                                   for r in rows},
               "n": {r["variant"]: r["n"] for r in rows},
               "failures": sum(r["failures"] for r in rows)}
        if finals is not None:
            obs["finals"] = _finals(finals)
        return obs
    if wl.name == "sample-traces":
        manifest = json.loads((out / "manifest.json").read_text())
        lines = (out / "samples.csv").read_text().splitlines()[1:]  # skip "# manifest"
        rows = list(csv.DictReader(lines))
        samples = [[float(r["x0"]), float(r["x1"])] for r in rows]
        modes = Counter(r["mode"] for r in rows)
        trace_finals = [r["final"] for r in op.records if "final" in r]
        return {"mode_counts": dict(sorted(modes.items())),
                "trace_records": sum(1 for r in op.records if "step" in r),
                "trace_finals_match_samples": trace_finals == samples,
                "finals": samples,
                "failures": manifest["failures"]}
    doc = json.loads((out / "bench_report.json").read_text())
    missing = sum(int(m.group(1)) for note in doc["notes"]
                  for m in [_MISSING.search(note)] if m)
    latents = list(stub_latents or [])
    cvr = doc["overall"]["mean"].get("cvr")
    toy_cvr = toy_collapse_fraction(latents, default_scenario()) if latents else None
    return {"n": doc["n"],
            "judged": len(latents),
            "cvr": cvr,
            "cvr_matches_toy": cvr == toy_cvr,
            "finals": sorted(_finals(latents)),
            "failures": wl.traj_per_op - doc["n"] + missing}


def check(obs: dict, golden: dict) -> list[str]:
    """Mismatches between an observation and its pinned values; empty when
    the operation is correct. ``finals`` are compared when both sides have
    them, within ``LATENT_ATOL``; every other key must be equal."""
    bad = []
    for key, want in golden.items():
        if key == "finals":
            if "finals" not in obs:
                continue
            got = np.asarray(obs["finals"], dtype=np.float64)
            ref = np.asarray(want, dtype=np.float64)
            if got.shape != ref.shape:
                bad.append(f"finals: shape {got.shape} != pinned {ref.shape}")
            elif not np.allclose(got, ref, rtol=0.0, atol=LATENT_ATOL):
                worst = float(np.max(np.abs(got - ref)))
                bad.append(f"finals: max |diff| {worst:.3g} > {LATENT_ATOL:g}")
        elif obs.get(key) != want:
            bad.append(f"{key}: {obs.get(key)!r} != pinned {want!r}")
    return bad


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
