"""Tests of the benchmark itself (not of dcr). Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dcr.cli import _latent_frame
from dcr.judge import JudgeClientConfig, JudgeRequest, judge, parse_verdict
from dcr.toy import default_scenario
from judge_stub import JudgeStub, nearest_mode, verdict_text
from layers import PARTIAL, PER_LAYER, RESULT_METRICS, OpRecorder, summarize
from workloads import LATENT_ATOL, check, load_golden

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = {"traj_per_s", "setup_s", "peak_rss_mb"}
PER_LAYER_NAMED = {
    "toy.epsilon.calls", "toy.epsilon.rows", "toy.epsilon.busy_s",
    "toy.epsilon.us_per_row", "toy.epsilon.uncond.calls",
    "toy.epsilon.target.calls", "toy.epsilon.attractor.calls",
    "guidance.calls", "guidance.busy_s", "guidance.repulsion_active_frac",
    "sampling.run_batch.busy_s", "sampling.scheduler_step.calls",
    "sampling.scheduler_step.busy_s", "sampling.loop_self_s", "sampling.rng_draws",
    "sampling.trace_records", "sampling.write_traces.busy_s",
    "sampling.write_traces.bytes", "sampling.read_traces.busy_s",
    "sampling.read_traces.records", "bench.load_suite.busy_s",
    "bench.eval_constraint.calls", "bench.eval_constraint.busy_s",
    "metrics.calls", "metrics.busy_s", "judge.requests", "judge.http_requests",
    "judge.retries", "judge.failures", "judge.busy_s", "judge.latency_ms_p50",
    "judge.latency_ms_p95", "judge.request_bytes", "judge.audit_bytes",
    "cli.self_s", "cli.files_written", "cli.bytes_written", "trace_overhead_frac",
}


def _run(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture(scope="module")
def untraced():
    proc = _run("--workload", "bench-judge", "--seed", "3", "--seconds", "0.1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced():
    proc = _run("--workload", "bench-judge", "--seed", "3", "--seconds", "0.1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_lists_every_named_metric():
    assert END_TO_END <= set(_units("end_to_end"))
    assert PER_LAYER_NAMED <= {name for name, _, _ in PER_LAYER}
    assert dict(RESULT_METRICS) == _units("per_layer")
    # times of layers some workloads never reach are in the details only
    for name, unit, src in PER_LAYER:
        assert (name in _units("per_layer")) == (src not in PARTIAL or unit not in ("s", "ms"))


def test_untraced_run_emits_end_to_end_metrics_with_units(untraced):
    detail, result = untraced
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["failed_frac"] == 0.0
    assert detail["samples"]["setup_s"] == len(detail["setup_s_probes"]) > 1
    scale = detail["host_slowdown"]
    assert scale > 0 and len(detail["calibration_s"]) > len(detail["setup_s_probes"])
    assert result["metrics"]["traj_per_s"]["value"] == pytest.approx(
        detail["traj_per_s_unscaled"] * scale)
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(
        detail["setup_s_unscaled"] / scale)
    assert set(detail["environment"]) >= {"python", "numpy", "nproc", "git_revision"}


def test_traced_run_emits_per_layer_metrics_with_units(traced):
    detail, result = traced
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    m = result["metrics"]
    layers = detail["layers"]
    assert PER_LAYER_NAMED <= set(layers)
    # bench-judge goes through the judge and bench layers but writes no traces
    assert "judge" not in detail["absent"]
    assert m["judge.requests"]["value"] == m["judge.http_requests"]["value"] == 128
    assert m["judge.retries"]["value"] == 0
    assert m["bench.eval_constraint.calls"]["value"] == 128
    assert layers["judge.busy_s"]["value"] > 0 and m["judge.share"]["value"] > 0
    assert {"sampling.write_traces", "sampling.read_traces"} <= set(detail["absent"])
    assert layers["sampling.write_traces.busy_s"] == "absent"
    assert m["layers_absent"]["value"] == len(detail["absent"])


def test_layer_that_never_fired_is_absent_not_zero():
    rec = OpRecorder()
    rec.add("toy.epsilon", 0.5)
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    out, absent = summarize([rec], [values], [1.0], [0.9])
    assert "judge" in absent and "toy.epsilon" not in absent
    assert out["trace_overhead_frac"] == pytest.approx(1.0 / 0.9 - 1.0)


def test_golden_accepts_pinned_and_rounding_level_changes():
    golden = load_golden()
    for workload, by_seed in golden.items():
        for pinned in by_seed.values():
            assert check(copy.deepcopy(pinned), pinned) == []
    pinned = golden["sample-traces"]["0"]
    obs = copy.deepcopy(pinned)
    obs["finals"][0][0] += LATENT_ATOL / 10
    assert check(obs, pinned) == []


@pytest.mark.parametrize("workload,key", [("ablate", "collapse_counts"),
                                          ("sample-traces", "mode_counts")])
def test_golden_rejects_a_count_changed_by_one(workload, key):
    pinned = load_golden()[workload]["1"]
    obs = copy.deepcopy(pinned)
    first = next(iter(obs[key]))
    obs[key][first] += 1
    assert any(p.startswith(key) for p in check(obs, pinned))


def test_golden_rejects_moved_latent_and_changed_cvr():
    pinned = load_golden()["bench-judge"]["2"]
    obs = copy.deepcopy(pinned)
    obs["finals"][5][1] += 10 * LATENT_ATOL
    obs["cvr"] += 1.0 / 128
    problems = check(obs, pinned)
    assert any(p.startswith("finals") for p in problems)
    assert any(p.startswith("cvr") for p in problems)


def test_golden_rejects_operation_failures():
    pinned = load_golden()["ablate"]["0"]
    obs = copy.deepcopy(pinned)
    obs["failures"] = 1
    assert check(obs, pinned) == ["failures: 1 != pinned 0"]


def test_stub_verdicts_round_trip_through_parse_verdict():
    sc = default_scenario()
    expected = {sc.dominant_index: (1, True), sc.rare_index: (5, False), 2: (3, False)}
    for mode, (score, collapsed) in expected.items():
        assert nearest_mode(sc.base.means[mode], sc.base.means) == mode
        verdict = parse_verdict(verdict_text(mode, sc.dominant_index, sc.rare_index))
        assert (verdict.score, verdict.collapsed) == (score, collapsed)


def test_stub_serves_the_judge_client_over_loopback(tmp_path):
    sc = default_scenario()
    with JudgeStub(sc.base.means, sc.dominant_index, sc.rare_index) as stub:
        cfg = JudgeClientConfig(endpoint=stub.endpoint, audit_log=tmp_path / "a.jsonl")
        verdicts = []
        for mode in (sc.dominant_index, sc.rare_index):
            latent = sc.base.means[mode] + 0.01
            req = JudgeRequest(prompt_p="p", factors=("f",), attractor="a",
                               frames=(_latent_frame(latent),))
            verdicts.append(judge(req, cfg))
        http, nbytes = stub.counters()
        latents = stub.take_latents()
    assert [(v.score, v.collapsed) for v in verdicts] == [(1, True), (5, False)]
    assert http == 2 and nbytes > 0
    np.testing.assert_array_equal(latents[1], sc.base.means[sc.rare_index] + 0.01)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "ablate", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
