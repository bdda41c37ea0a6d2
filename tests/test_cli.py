import csv
import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest
from faults import CountingBackend, NaNRows, NaNWhere

import dcr.cli
import dcr.judge
from dcr.cli import main
from dcr.toy import default_scenario, scenario_doc


def run(*argv):
    return main(list(argv))


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# manifest:")
    return list(csv.DictReader(lines[1:]))


FAST = ["--steps", "12", "--scheduler", "deterministic-ddim"]
NAN, INF = float("nan"), float("inf")
# a guidance weight this large overflows every trajectory
ALL_FAIL = ["--n", "4", "--steps", "20", "--w", "1e300", "--w-attr", "1"]
STATS = ("n", "failures", "collapse_fraction", "wilson_lo", "wilson_hi")


def assert_every_run_failed(out, name, runs, stdout):
    """The reports give each of ``runs`` rows no collapse statistics, the
    manifest is written, and stdout says why."""
    rows = json.loads((out / f"{name}_report.json").read_text())["rows"]
    assert [tuple(r[k] for k in STATS) for r in rows] == [(0, 4, None, None, None)] * runs
    assert [tuple(r[k] for k in STATS) for r in read_csv(out / f"{name}_report.csv")] == \
        [("0", "4", "", "", "")] * runs
    assert json.loads((out / "manifest.json").read_text())["command"] == name
    lines = stdout.splitlines()
    assert len(lines) == runs
    assert all(line.endswith(": collapse=n/a (all 4 trajectories failed)") for line in lines)


class TestSample:
    def test_writes_artifacts_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["sample", "--variant", "full-dcr", "--n", "6", "--seed", "7",
                *FAST]
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        for name in ("traces.jsonl", "samples.csv", "manifest.json"):
            assert (out1 / name).exists()
        assert (out1 / "traces.jsonl").read_bytes() == (out2 / "traces.jsonl").read_bytes()
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["command"] == "sample"
        assert manifest["sampler"]["seed"] == 7

    def test_unknown_variant_is_usage_error(self, tmp_path):
        assert run("sample", "--variant", "bogus", "--out", str(tmp_path)) == 1

    def test_plain_cfg_equals_no_repulsion(self, tmp_path):
        outs = {}
        for variant in ("plain-cfg", "no-repulsion"):
            out = tmp_path / variant
            assert run("sample", "--variant", variant, "--n", "5", "--seed", "3",
                       *FAST, "--out", str(out)) == 0
            rows = read_csv(out / "samples.csv")
            outs[variant] = [(r["x0"], r["x1"], r["mode"]) for r in rows]
        assert outs["plain-cfg"] == outs["no-repulsion"]

    def test_strict_exits_2_when_a_trajectory_fails(self, tmp_path, monkeypatch):
        # replicate 1 of 4 gets a NaN prediction from step 3 on
        monkeypatch.setattr(dcr.cli, "ToyDenoiser",
                            lambda scenario, sched: NaNRows(scenario, sched, {1}, 3))
        args = ["sample", "--n", "4", "--seed", "1", *FAST]
        assert run(*args, "--out", str(tmp_path / "lax")) == 0
        out = tmp_path / "strict"
        assert run(*args, "--strict", "--out", str(out)) == 2
        assert json.loads((out / "manifest.json").read_text())["failures"] == 1
        assert [r["replicate"] for r in read_csv(out / "samples.csv")] == ["0", "2", "3"]

    def test_modes_come_from_one_assignment_call(self, tmp_path, monkeypatch):
        shapes = []
        real = dcr.cli.mode_assignment

        def counting(x, scenario):
            shapes.append(np.shape(x))
            return real(x, scenario)

        monkeypatch.setattr(dcr.cli, "mode_assignment", counting)
        assert run("sample", "--n", "6", *FAST, "--out", str(tmp_path / "m")) == 0
        assert shapes == [(6, 2)]

    def test_scenario_file_roundtrip(self, tmp_path):
        from dcr.toy import default_scenario, save_scenario
        path = tmp_path / "scenario.json"
        save_scenario(default_scenario(), path)
        assert run("sample", "--scenario", str(path), "--n", "2", *FAST,
                   "--out", str(tmp_path / "o")) == 0

    @pytest.mark.parametrize("text, detail", [
        ("{}", "missing key 'means'"),
        ("not json", "Expecting value"),
        (json.dumps(scenario_doc(default_scenario()) | {"sigma0": "wide"}),
         "sigma0: 'wide' is not a number"),
        (json.dumps(scenario_doc(default_scenario()) | {"weights": [NAN, 0.02, 0.08]}),
         "base weights must lie in (0, 1]"),
        (json.dumps(scenario_doc(default_scenario()) | {"sigma0": INF}),
         "sigma0 must be positive and finite"),
    ], ids=["empty-object", "not-json", "non-numeric", "nan-weight", "inf-sigma0"])
    def test_malformed_scenario_file_is_usage_error(self, tmp_path, capsys, text,
                                                    detail):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        out = tmp_path / "o"
        assert run("sample", "--scenario", str(path), "--n", "1", *FAST,
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"dcr: error: scenario file {path}: " in err and detail in err
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [("--eta", "nan"), ("--w", "inf")])
    def test_a_non_finite_guidance_value_is_usage_error(self, tmp_path, capsys,
                                                        option, value):
        out = tmp_path / "o"
        assert run("sample", option, value, "--n", "2", *FAST, "--out", str(out)) == 1
        assert f"{option[2:]} must be finite, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_records_every_service_endpoint(self, tmp_path, monkeypatch):
        # the judge is the one external service
        out = tmp_path / "o"
        monkeypatch.delenv("DCR_JUDGE_ENDPOINT", raising=False)
        assert run("sample", "--n", "1", *FAST, "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["endpoints"] == {"judge": None}
        monkeypatch.setenv("DCR_JUDGE_ENDPOINT", "http://127.0.0.1:9/judge")
        assert run("sample", "--n", "1", *FAST, "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["endpoints"] == {"judge": "http://127.0.0.1:9/judge"}

    def test_manifest_scenario_reloads_and_reproduces_the_run(self, tmp_path):
        from dcr.toy import (TARGET, PromptChannel, default_scenario, load_scenario,
                             save_scenario)
        base = default_scenario()
        scenario = dataclasses.replace(
            base,
            channels=base.channels | {TARGET: PromptChannel(TARGET,
                                                            np.array([0.3, 0.7, 0.0]))},
            guidance=dataclasses.replace(base.guidance, eta=32.0), steps=40)
        saved = tmp_path / "scenario.json"
        save_scenario(scenario, saved)
        argv = ["sample", "--n", "6", "--seed", "4", "--scheduler", "ancestral-ddpm"]
        assert run(*argv, "--scenario", str(saved), "--out", str(tmp_path / "a")) == 0
        block = json.loads((tmp_path / "a" / "manifest.json").read_text())["scenario"]
        from_manifest = tmp_path / "from-manifest.json"
        from_manifest.write_text(json.dumps(block))
        loaded = load_scenario(from_manifest)
        for field in ("dominant_index", "rare_index", "pi_major", "leakage_beta",
                      "guidance", "steps"):
            assert getattr(loaded, field) == getattr(scenario, field), field
        assert loaded.base.sigma0 == scenario.base.sigma0
        assert np.array_equal(loaded.base.means, scenario.base.means)
        assert np.array_equal(loaded.base.weights, scenario.base.weights)
        assert loaded.channels.keys() == scenario.channels.keys()
        for label, channel in scenario.channels.items():
            got = loaded.channels[label].weights_override
            want = channel.weights_override
            assert (got is None and want is None) or np.array_equal(got, want), label
        assert run(*argv, "--scenario", str(from_manifest),
                   "--out", str(tmp_path / "b")) == 0
        assert (tmp_path / "b" / "samples.csv").read_bytes() == \
            (tmp_path / "a" / "samples.csv").read_bytes()


class TestAblate:
    def test_full_report_has_six_rows(self, tmp_path):
        out = tmp_path / "a"
        assert run("ablate", "--n", "20", "--seed", "3", *FAST,
                   "--out", str(out)) == 0
        rows = read_csv(out / "ablate_report.csv")
        assert len(rows) == 6
        by_variant = {r["variant"]: r for r in rows}
        # shared seeds make the bitwise-equivalent variants agree exactly
        assert by_variant["plain-cfg"]["collapse_fraction"] == \
            by_variant["no-repulsion"]["collapse_fraction"]
        assert by_variant["plain-cfg"]["collapse_fraction"] == \
            by_variant["no-attractor-prompt"]["collapse_fraction"]

    def test_variant_filtering(self, tmp_path):
        out = tmp_path / "two"
        assert run("ablate", "--variants", "full-dcr,plain-cfg", "--n", "8",
                   *FAST, "--out", str(out)) == 0
        rows = read_csv(out / "ablate_report.csv")
        assert [r["variant"] for r in rows] == ["full-dcr", "plain-cfg"]

    def test_empty_variant_list_is_usage_error(self, tmp_path):
        assert run("ablate", "--variants", "", "--n", "4", "--out",
                   str(tmp_path / "e")) == 1

    def test_unknown_variant_rejected(self, tmp_path):
        assert run("ablate", "--variants", "full-dcr,wat", "--n", "4", "--out",
                   str(tmp_path / "w")) == 1

    def test_report_does_not_depend_on_provider_endpoints(self, tmp_path,
                                                          monkeypatch):
        # ablate calls no judge, so its report reads the same whether or not
        # the judge's endpoint is set
        reports = []
        for endpoint in (None, "http://127.0.0.1:9/"):
            if endpoint is None:
                monkeypatch.delenv("DCR_JUDGE_ENDPOINT", raising=False)
            else:
                monkeypatch.setenv("DCR_JUDGE_ENDPOINT", endpoint)
            out = tmp_path / f"r{len(reports)}"
            assert run("ablate", "--n", "4", "--seed", "3", *FAST,
                       "--out", str(out)) == 0
            reports.append((out / "ablate_report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["notes"] == [
            "collapse fractions only: ablate calls no judge"]

    def test_one_backend_call_per_channel_and_step(self, tmp_path, monkeypatch):
        # all six variants step as one batch: 3 calls per step, not 15
        backends = []

        def counting(scenario, sched):
            backends.append(CountingBackend(scenario, sched))
            return backends[-1]

        monkeypatch.setattr(dcr.cli, "ToyDenoiser", counting)
        assert run("ablate", "--n", "3", *FAST, "--out", str(tmp_path / "c")) == 0
        assert [be.calls for be in backends] == [
            {"uncond": 12, "target": 12, "attractor": 12}]

    def test_a_variant_whose_every_trajectory_fails_still_reports(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run("ablate", *ALL_FAIL, "--out", str(out)) == 0
        assert_every_run_failed(out, "ablate", 6, capsys.readouterr().out)


class TestSweep:
    def test_eta_zero_row_equals_plain_cfg(self, tmp_path):
        out_sweep = tmp_path / "sweep"
        assert run("sweep", "--axis", "eta", "--values", "0,0.5,1.0",
                   "--w", "3.5", "--n", "25", "--seed", "9", *FAST,
                   "--out", str(out_sweep)) == 0
        rows = read_csv(out_sweep / "sweep_report.csv")
        assert len(rows) == 3
        out_plain = tmp_path / "plain"
        assert run("ablate", "--variants", "plain-cfg", "--n", "25", "--seed", "9",
                   "--w", "3.5", "--w-attr", "3.0", "--eta", "0.0",
                   "--gamma", "2.0", "--interval", "0.2:0.8", *FAST,
                   "--out", str(out_plain)) == 0
        plain_rows = read_csv(out_plain / "ablate_report.csv")
        assert rows[0]["collapse_fraction"] == plain_rows[0]["collapse_fraction"]

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_unswept_axes_honour_flags_and_config(self, tmp_path, source):
        settings = {"w": 3.5, "w_attr": 1.0, "gamma": 5.0, "r_s": 0.3, "r_e": 0.6}
        if source == "flags":
            given = ["--w", "3.5", "--w-attr", "1.0", "--gamma", "5",
                     "--interval", "0.3:0.6"]
        else:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps(settings))
            given = ["--config", str(config)]
        out = tmp_path / "s"
        assert run("sweep", "--axis", "eta", "--values", "0.5", *given,
                   "--n", "4", *FAST, "--out", str(out)) == 0
        sampler = json.loads((out / "manifest.json").read_text())["sampler"]
        assert sampler["variant"] == "full-dcr"
        assert sampler["guidance"] == settings | {"eta": 0.5, "eps_stab": 1e-8}
        out_ablate = tmp_path / "a"
        assert run("ablate", "--variants", "full-dcr", *given, "--eta", "0.5",
                   "--n", "4", *FAST, "--out", str(out_ablate)) == 0
        ablate = json.loads((out_ablate / "manifest.json").read_text())["sampler"]
        assert ablate == sampler

    def test_interval_sweep_named_configurations(self, tmp_path):
        out = tmp_path / "iv"
        assert run("sweep", "--axis", "interval", "--values", "0.2:0.8,0.5:1.0",
                   "--w", "3.5", "--n", "6", *FAST, "--out", str(out)) == 0
        rows = read_csv(out / "sweep_report.csv")
        assert [r["value"] for r in rows] == ["0.2:0.8", "0.5:1.0"]

    def test_single_value_sweep(self, tmp_path):
        out = tmp_path / "one"
        assert run("sweep", "--axis", "w-attr", "--values", "3.0", "--w", "3.5",
                   "--n", "5", *FAST, "--out", str(out)) == 0
        assert len(read_csv(out / "sweep_report.csv")) == 1

    def test_invalid_axis_is_usage_error(self, tmp_path):
        assert run("sweep", "--axis", "banana", "--values", "1", "--w", "3.5",
                   "--out", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("axis", ["eta", "w-attr"])
    def test_non_numeric_value_is_usage_error(self, tmp_path, capsys, axis):
        out = tmp_path / "x"
        assert run("sweep", "--axis", axis, "--values", "1,abc", "--w", "3.5",
                   "--out", str(out)) == 1
        assert f"dcr: error: sweep value for {axis} must be a number, got 'abc'" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_w_required(self, tmp_path):
        assert run("sweep", "--axis", "eta", "--values", "1", "--out",
                   str(tmp_path / "now")) == 1

    def test_a_value_whose_every_trajectory_fails_still_reports(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run("sweep", "--axis", "eta", "--values", "0,1", *ALL_FAIL,
                   "--out", str(out)) == 0
        assert_every_run_failed(out, "sweep", 2, capsys.readouterr().out)


class TestBench:
    def test_fixture_suite_report_has_eight_categories(self, tmp_path):
        out = tmp_path / "b"
        assert run("bench", "--n-per-item", "2", "--seed", "5", *FAST,
                   "--out", str(out)) == 0
        doc = json.loads((out / "bench_report.json").read_text())
        assert len(doc["by_category"]) == 8
        assert doc["overall"]["n"] == 32
        assert doc["notes"] == []
        assert json.loads((out / "manifest.json").read_text())["failures"] == 0
        csv_lines = (out / "bench_report.csv").read_text().splitlines()
        assert csv_lines[0].startswith("# manifest:")

    def test_canonical_flag_on_short_suite_fails(self, tmp_path):
        items = []
        cats = ["ENV", "TEMP", "OBJ", "ATTR", "SCALE", "CTX", "MAT", "DENS"]
        for cat in cats:
            for i in range(50):
                items.append({"id": f"{cat}-{i}", "category": cat,
                              "prompt": f"p{i}", "attractor_prompt": f"q{i}",
                              "factors": [{"name": "f", "allowed": ["a"]}]})
        items.pop()  # 399 items
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(items))
        assert run("bench", "--suite", str(path), "--canonical",
                   "--out", str(tmp_path / "o")) == 1

    def test_with_judge_requires_endpoint(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DCR_JUDGE_ENDPOINT", raising=False)
        assert run("bench", "--with-judge", "--out", str(tmp_path / "j")) == 1

    @pytest.mark.parametrize("with_judge", [False, True])
    def test_a_run_whose_every_trajectory_fails_still_reports(
            self, tmp_path, monkeypatch, capsys, with_judge):
        calls = judge_in_process(monkeypatch)
        out = tmp_path / "b"
        judged = ["--with-judge"] if with_judge else []
        assert run("bench", *judged, "--n-per-item", "2", *ALL_FAIL[2:],
                   "--out", str(out)) == 0
        assert calls == []
        doc = json.loads((out / "bench_report.json").read_text())
        assert (doc["n"], doc["overall"], doc["by_category"]) == \
            (0, {"n": 0, "mean": {}, "sd": {}}, {})
        assert doc["notes"] == ["all 32 trajectories failed"]
        assert read_csv(out / "bench_report.csv") == [
            {"method": "full-dcr", "group": "overall", "n": "0", "ccs": "", "ccs_sd": "",
             "cvr": "", "cvr_sd": ""}]
        assert json.loads((out / "manifest.json").read_text())["command"] == "bench"
        assert capsys.readouterr().out == "evaluated 0 trajectories over 16 items; " \
            "cvr=n/a (all 32 trajectories failed)\n"
        audit = out / "judge_audit.jsonl"
        assert audit.is_file() == with_judge
        assert not with_judge or audit.read_text() == ""

    def test_a_run_with_some_failed_trajectories_counts_them(self, tmp_path, monkeypatch,
                                                             capsys):
        # NaN at t=5 for every row whose latent has a positive first coordinate
        monkeypatch.setattr(dcr.cli, "ToyDenoiser",
                            lambda scenario, sched: NaNWhere(scenario, sched, sched.T - 6))
        out = tmp_path / "b"
        assert run("bench", "--n-per-item", "2", "--steps", "10", "--out", str(out)) == 0
        doc = json.loads((out / "bench_report.json").read_text())
        assert (doc["n"], doc["notes"]) == (24, ["8 of 32 trajectories failed"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["failures"], manifest["n_per_item"]) == (8, 2)
        assert capsys.readouterr().out.startswith("evaluated 24 trajectories over 16 items")


class TestConfigPrecedence:
    def test_flags_beat_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "steps": 12,
                                   "scheduler": "deterministic-ddim"}))
        out_cfgfile = tmp_path / "from-file"
        assert run("sample", "--config", str(cfg), "--n", "3",
                   "--out", str(out_cfgfile)) == 0
        m1 = json.loads((out_cfgfile / "manifest.json").read_text())
        assert m1["sampler"]["seed"] == 5 and m1["sampler"]["T"] == 12
        out_flag = tmp_path / "from-flag"
        assert run("sample", "--config", str(cfg), "--seed", "9", "--n", "3",
                   "--out", str(out_flag)) == 0
        m2 = json.loads((out_flag / "manifest.json").read_text())
        assert m2["sampler"]["seed"] == 9 and m2["sampler"]["T"] == 12

    def test_unreadable_config_is_usage_error(self, tmp_path):
        assert run("sample", "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("doc", [{"scheduler": "bogus"}, {"eta": "lots"},
                                     {"seed": "x"}, {"steps": 50.7}, {"w": None},
                                     {"seed": True}])
    def test_mistyped_config_value_is_usage_error(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run("sample", "--config", str(cfg), "--n", "1", "--out", str(out)) == 1
        assert f"dcr: error: config file: {next(iter(doc))} must be" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["sample"], ["ablate"], ["sweep", "--axis", "eta", "--values", "1", "--w", "3.5"],
        ["bench"]])
    @pytest.mark.parametrize("key, value", [("etaa", 5), ("interval", "0.2:0.8"),
                                            ("variant", "plain-cfg")])
    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys, command, key,
                                               value):
        # a key outside the settings used to be dropped without a word
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value, "eta": 5.0}))
        out = tmp_path / "o"
        assert run(*command, "--config", str(cfg), "--out", str(out)) == 1
        assert f"dcr: error: config file: unknown keys ['{key}']" in \
            capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "0"],
    ["ablate", "--n", "0"],
    ["sweep", "--axis", "eta", "--values", "1", "--w", "3.5", "--n", "-2"],
    ["bench", "--n-per-item", "0"],
])
def test_count_below_one_is_rejected_before_the_output_directory(tmp_path, argv):
    out = tmp_path / "never"
    assert run(*argv, *FAST, "--out", str(out)) == 1
    assert not out.exists()


class TestBenchWithJudge:
    def test_judge_verdicts_flow_into_report(self, tmp_path, monkeypatch):
        import http.server
        import threading

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                body = json.dumps({"completion": "score: 4, collapsed: false"})
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.end_headers()
                self.wfile.write(body.encode())

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            monkeypatch.setenv("DCR_JUDGE_ENDPOINT",
                               f"http://127.0.0.1:{server.server_port}/judge")
            out = tmp_path / "wj"
            assert run("bench", "--with-judge", "--n-per-item", "1",
                       "--seed", "2", *FAST, "--out", str(out)) == 0
            doc = json.loads((out / "bench_report.json").read_text())
            assert doc["overall"]["mean"]["ccs"] == 4.0
            assert doc["overall"]["mean"]["cvr"] == 0.0
            audit = (out / "judge_audit.jsonl").read_text().splitlines()
            assert len(audit) == 16  # one exchange per item
        finally:
            server.shutdown()
            server.server_close()


def judge_in_process(monkeypatch, fail_at=None, untrailed_at=None):
    """Answer ``dcr.judge.judge`` in process, through the real judge and its
    audit; raise RuntimeError on request number ``fail_at`` and reply without
    a verdict trailer to request number ``untrailed_at``. Returns the list of
    requests made."""
    real = dcr.judge.judge
    calls = []

    def fake(req, config):
        calls.append(req)
        if len(calls) == fail_at:
            raise RuntimeError("judge crashed")
        reply = "no verdict" if len(calls) == untrailed_at \
            else "score: 4, collapsed: false"
        return real(req, dataclasses.replace(config, transport=lambda payload: reply))

    monkeypatch.setenv("DCR_JUDGE_ENDPOINT", "http://127.0.0.1:9/judge")
    monkeypatch.setattr(dcr.judge, "judge", fake)
    return calls


class TestJudgeAudit:
    def test_the_audit_log_is_moved_into_place_before_the_manifest(
            self, tmp_path, monkeypatch):
        calls = judge_in_process(monkeypatch)
        moved = []
        real_replace = os.replace

        def replace(src, dst):
            assert Path(src).parent == Path(dst).parent
            moved.append(Path(dst).name)
            real_replace(src, dst)

        monkeypatch.setattr(dcr.cli.os, "replace", replace)
        out = tmp_path / "wj"
        assert run("bench", "--with-judge", "--n-per-item", "1", *FAST,
                   "--out", str(out)) == 0
        assert "judge_audit.jsonl" in moved and moved[-1] == "manifest.json"
        entries = [json.loads(line)
                   for line in (out / "judge_audit.jsonl").read_text().splitlines()]
        assert len(entries) == len(calls) == 16
        assert all(list(e) == ["timestamp", "request", "response"] for e in entries)

    def test_a_missing_verdict_still_moves_the_audit_log_into_place(
            self, tmp_path, monkeypatch):
        # the log is moved when the judging loop ends, missing verdicts included
        calls = judge_in_process(monkeypatch, untrailed_at=3)
        out = tmp_path / "wj"
        assert run("bench", "--with-judge", "--n-per-item", "1", *FAST,
                   "--out", str(out)) == 0
        entries = [json.loads(line)
                   for line in (out / "judge_audit.jsonl").read_text().splitlines()]
        assert len(entries) == len(calls) == 16
        assert [e["response"] for e in entries].count("no verdict") == 1
        doc = json.loads((out / "bench_report.json").read_text())
        assert "judge verdicts missing for 1 items" in doc["notes"]
        assert (out / "manifest.json").is_file()

    def test_a_failing_judge_leaves_no_audit_log_and_no_manifest(
            self, tmp_path, monkeypatch):
        calls = judge_in_process(monkeypatch, fail_at=5)
        out = tmp_path / "wj"
        argv = ["bench", "--n-per-item", "1", *FAST, "--out", str(out)]
        with pytest.raises(RuntimeError, match="judge crashed"):
            run(*argv, "--with-judge")
        assert len(calls) == 5
        assert list(out.iterdir()) == []
        # a rerun without the judge leaves no audit log either
        assert run(*argv) == 0
        assert sorted(p.name for p in out.iterdir()) == \
            ["bench_report.csv", "bench_report.json", "manifest.json"]
        assert len(calls) == 5

    def test_a_run_without_the_judge_removes_an_earlier_audit_log(
            self, tmp_path, monkeypatch):
        judge_in_process(monkeypatch)
        out = tmp_path / "wj"
        argv = ["bench", "--n-per-item", "1", *FAST, "--out", str(out)]
        assert run(*argv, "--with-judge") == 0
        assert (out / "judge_audit.jsonl").is_file()
        assert run(*argv) == 0
        assert not (out / "judge_audit.jsonl").exists()


# command argv and the artifacts it writes besides manifest.json
ARTIFACTS = {
    "sample": (["sample", "--n", "4"], ["traces.jsonl", "samples.csv"]),
    "ablate": (["ablate", "--n", "3", "--variants", "full-dcr,plain-cfg"],
               ["ablate_report.csv", "ablate_report.json"]),
    "sweep": (["sweep", "--axis", "eta", "--values", "0,1", "--w", "3.5", "--n", "3"],
              ["sweep_report.csv", "sweep_report.json"]),
    "bench": (["bench", "--n-per-item", "1"], ["bench_report.csv", "bench_report.json"]),
}


class TestArtifacts:
    @pytest.mark.parametrize("name", sorted(ARTIFACTS))
    def test_the_manifest_records_whether_the_run_traced(
            self, tmp_path, monkeypatch, name):
        # only sample exports traces; the other commands read finals alone
        argv, _ = ARTIFACTS[name]
        ran = []
        real = dcr.cli.run_batch

        def spy(backend, items, cfg, n_per_item):
            ran.append(cfg.trace)
            return real(backend, items, cfg, n_per_item)

        monkeypatch.setattr(dcr.cli, "run_batch", spy)
        out = tmp_path / name
        assert run(*argv, *FAST, "--out", str(out)) == 0
        traced = name == "sample"
        assert ran and set(ran) == {traced}
        assert json.loads((out / "manifest.json").read_text())["sampler"]["trace"] \
            is traced

    @pytest.mark.parametrize("name", sorted(ARTIFACTS))
    def test_artifacts_are_moved_into_place_and_the_manifest_last(
            self, tmp_path, monkeypatch, name):
        argv, artifacts = ARTIFACTS[name]
        moved = []
        real_replace = os.replace

        def replace(src, dst):
            assert Path(src).parent == Path(dst).parent
            moved.append(Path(dst).name)
            real_replace(src, dst)

        monkeypatch.setattr(dcr.cli.os, "replace", replace)
        out = tmp_path / name
        assert run(*argv, *FAST, "--out", str(out)) == 0
        assert sorted(moved[:-1]) == sorted(artifacts)
        assert moved[-1] == "manifest.json"
        assert sorted(p.name for p in out.iterdir()) == \
            sorted([*artifacts, "manifest.json"])

    @pytest.mark.parametrize("name", sorted(ARTIFACTS))
    def test_text_model_variables_change_no_artifact(self, tmp_path, monkeypatch,
                                                     name):
        # no text-model service exists, so its old variables are not read
        argv, _ = ARTIFACTS[name]
        monkeypatch.setenv("DCR_JUDGE_ENDPOINT", "http://127.0.0.1:9/judge")
        out = tmp_path / name

        def artifacts():
            assert run(*argv, "--seed", "1", *FAST, "--out", str(out)) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            manifest = json.loads(files.pop("manifest.json"))
            assert manifest.pop("endpoints") == {"judge": "http://127.0.0.1:9/judge"}
            manifest.pop("timestamp_utc")
            return files, manifest

        monkeypatch.delenv("DCR_TEXT_ENDPOINT", raising=False)
        monkeypatch.delenv("DCR_TEXT_API_KEY", raising=False)
        before = artifacts()
        monkeypatch.setenv("DCR_TEXT_ENDPOINT", "http://127.0.0.1:9/text")
        monkeypatch.setenv("DCR_TEXT_API_KEY", "sekrit")
        assert artifacts() == before

    def test_a_failing_trace_writer_leaves_no_manifest_and_no_partial_file(
            self, tmp_path, monkeypatch, capsys):
        real = dcr.cli.write_traces_jsonl
        temp_paths = []

        def failing(traces, path, manifest_ref=None):
            temp_paths.append(Path(path))

            def two_then_fail():
                for k, trace in enumerate(traces):
                    if k == 2:
                        raise OSError("disk full")
                    yield trace

            real(two_then_fail(), path, manifest_ref=manifest_ref)

        argv = ["sample", "--n", "4", "--seed", "1", *FAST]
        earlier = tmp_path / "earlier"
        assert run(*argv, "--out", str(earlier)) == 0
        before = {p.name: p.read_bytes() for p in earlier.iterdir()}
        monkeypatch.setattr(dcr.cli, "write_traces_jsonl", failing)
        fresh = tmp_path / "fresh"
        assert run(*argv, "--out", str(fresh)) == 1
        assert "disk full" in capsys.readouterr().err
        assert list(fresh.iterdir()) == []
        # over an earlier run: its manifest goes, its artifacts stay whole
        assert run(*argv, "--out", str(earlier)) == 1
        after = {p.name: p.read_bytes() for p in earlier.iterdir()}
        assert after == {k: v for k, v in before.items() if k != "manifest.json"}
        assert [p.parent for p in temp_paths] == [fresh, earlier]
        assert not any(p.exists() for p in temp_paths)


class TestParser:
    def test_main_builds_the_parser_once(self, tmp_path, monkeypatch, capsys):
        built = []
        real = dcr.cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(dcr.cli, "build_parser", counting)
        dcr.cli._parser.cache_clear()
        try:
            assert run("ablate", "--n", "2", "--variants", "plain-cfg", *FAST,
                       "--out", str(tmp_path / "a")) == 0
            # a usage error after a successful call, then --version
            assert run("ablate", "--n", "0", "--out", str(tmp_path / "b")) == 1
            assert run("--version") == 0
            assert capsys.readouterr().out.strip().endswith(dcr.__version__)
            assert run("sample", "--n", "1", *FAST, "--out", str(tmp_path / "c")) == 0
            assert len(built) == 1
        finally:
            dcr.cli._parser.cache_clear()
