import csv
import json
from pathlib import Path

import pytest
from faults import NaNRows

import dcr.cli
from dcr.cli import main


def run(*argv):
    return main(list(argv))


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# manifest:")
    return list(csv.DictReader(lines[1:]))


FAST = ["--steps", "12", "--scheduler", "deterministic-ddim"]


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

    def test_scenario_file_roundtrip(self, tmp_path):
        from dcr.toy import default_scenario, save_scenario
        path = tmp_path / "scenario.json"
        save_scenario(default_scenario(), path)
        assert run("sample", "--scenario", str(path), "--n", "2", *FAST,
                   "--out", str(tmp_path / "o")) == 0


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

    def test_w_required(self, tmp_path):
        assert run("sweep", "--axis", "eta", "--values", "1", "--out",
                   str(tmp_path / "now")) == 1


class TestBench:
    def test_fixture_suite_report_has_eight_categories(self, tmp_path):
        out = tmp_path / "b"
        assert run("bench", "--n-per-item", "2", "--seed", "5", *FAST,
                   "--out", str(out)) == 0
        doc = json.loads((out / "bench_report.json").read_text())
        assert len(doc["by_category"]) == 8
        assert doc["overall"]["n"] == 32
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
