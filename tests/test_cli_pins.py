"""Pins of the CLI's observable output: the SHA-256 of every artifact each
command writes (except ``manifest.json``, which carries a timestamp) and of
its stdout, and the settings precedence as the manifest records it.

Flags > config file > scenario preset > ``GuidanceConfig`` defaults, for each
of the ten settings the sampler takes.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from dcr.cli import main
from dcr.guidance import GuidanceConfig
from dcr.toy import default_scenario, save_scenario

FAST = ["--steps", "12", "--scheduler", "deterministic-ddim"]

# command argv (the output directory is named after the run) and the SHA-256
# of stdout and of each file it writes besides manifest.json
PINNED = {
    "sample": (["sample", "--n", "6", "--seed", "7", *FAST], {
        "stdout": "ceb72a2fa1c5a88816943361e0763c67749b0d103c7a51d50b35ba798ce43809",
        "samples.csv": "02e572e331b15b933669eb95893a757395283c2dc780078db4302b73c907241a",
        "traces.jsonl": "edf23baaecb3e82a04d06128204753054a43a0ea2996f497742900e6911e7d13",
    }),
    "ablate": (["ablate", "--n", "20", "--seed", "3", *FAST], {
        "stdout": "0d8a3a4167bff9c1c0117eec014dcf09fe45f0e065f94afda26bd89c92fda74e",
        "ablate_report.csv":
            "f0a3a43ee35b23aa5b176ca764d07c3105a26414fe9dccda803c73c570470b9a",
        "ablate_report.json":
            "ed3ddabc400191be76793b171f2df612ddd86f064b3150e0272b613c6c953073",
    }),
    "sweep-interval": (["sweep", "--axis", "interval", "--values", "0.2:0.8,0.5:1.0",
                        "--w", "3.5", "--n", "10", "--seed", "4", *FAST], {
        "stdout": "ea4384e431de53bcae663f10b124a49c216167de232bc33b79c7985ef92c33d5",
        "sweep_report.csv":
            "8e4d7dd6000c177424dd5ed61e07512ca37144160a1071fe3cc981b396164251",
        "sweep_report.json":
            "34ae0e8d8c5ba709aa41965735796af5a4cc75a1fc548d8410d0c8ae99f0901d",
    }),
    "sweep-eta": (["sweep", "--axis", "eta", "--values", "0,0.5,1.0", "--w", "3.5",
                   "--w-attr", "1.0", "--n", "10", "--seed", "9", *FAST], {
        "stdout": "364e4ebdeda9ab313491bfc527b9f111791df3b709bbd809bd4b63ac0d5a3d98",
        "sweep_report.csv":
            "5ab0cab2f8261df92fbea9f2904b08754b3d13c7498244f959a0e07a116dccdc",
        "sweep_report.json":
            "b51c07c911228a94073a30cfffa5bd8739b28e74b5e792a2f8ad93bbe3df3622",
    }),
    "bench": (["bench", "--n-per-item", "2", "--seed", "5", *FAST], {
        "stdout": "15c53d7ae5831465335e056fcf41f85e5810e7c37e94ae4eacc653e1bc3d7240",
        "bench_report.csv":
            "093024389ccede176ebca245099b99990fe0a6f7146affd2b9e2569954184afd",
        "bench_report.json":
            "afd3bc7845de1da84de41a21a37d724a34931f29b37f83cbe4ef5e6feff94e24",
    }),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_artifacts_and_stdout_are_pinned(tmp_path, monkeypatch, capsys, name):
    # no pinned command calls a provider, and the endpoints stay unset all
    # the same; a relative --out keeps the output directory out of stdout
    monkeypatch.delenv("DCR_JUDGE_ENDPOINT", raising=False)
    monkeypatch.chdir(tmp_path)
    argv, expected = PINNED[name]
    assert main([*argv, "--out", name]) == 0
    got = {"stdout": sha256(capsys.readouterr().out.encode("utf-8"))}
    files = sorted(p.name for p in Path(name).iterdir())
    assert files == sorted([*expected.keys() - {"stdout"}, "manifest.json"])
    got |= {f: sha256((Path(name) / f).read_bytes())
            for f in files if f != "manifest.json"}
    assert got == expected


# setting -> (config-file value, flag argv or None, the value that flag sets)
SETTINGS = {
    "w": (2.5, ["--w", "3.0"], 3.0),
    "w_attr": (1.2, ["--w-attr", "1.0"], 1.0),
    "eta": (32.0, ["--eta", "16.0"], 16.0),
    "gamma": (3.0, ["--gamma", "4.0"], 4.0),
    "r_s": (0.15, ["--interval", "0.25:0.75"], 0.25),
    "r_e": (0.6, ["--interval", "0.05:0.65"], 0.65),
    "eps_stab": (1e-6, None, None),
    "steps": (12, ["--steps", "8"], 8),
    "scheduler": ("deterministic-ddim", ["--scheduler", "ancestral-ddpm"],
                  "ancestral-ddpm"),
    "seed": (5, ["--seed", "9"], 9),
}

# the default scenario's guidance preset and steps, and the sampler defaults
PRESET = {"w": 1.5, "w_attr": 1.45, "eta": 64.0, "gamma": 2.0, "r_s": 0.1,
          "r_e": 0.7, "eps_stab": 1e-8, "steps": 100,
          "scheduler": "ancestral-ddpm", "seed": 0}


def resolved(tmp_path, out, *argv, config=None) -> dict:
    """Run ``dcr sample`` and read the ten settings back from the manifest."""
    args = ["sample", "--n", "1", *argv]
    if config is not None:
        path = tmp_path / f"{out}.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    assert main([*args, "--out", str(tmp_path / out)]) == 0
    sampler = json.loads((tmp_path / out / "manifest.json").read_text())["sampler"]
    return sampler["guidance"] | {"steps": sampler["T"],
                                  "scheduler": sampler["scheduler_kind"],
                                  "seed": sampler["seed"]}


def test_no_flag_and_no_config_gives_the_preset(tmp_path):
    assert resolved(tmp_path, "preset") == PRESET


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_precedence(tmp_path, name):
    cfg_value, flag, flag_value = SETTINGS[name]
    # the config file beats the preset or default
    assert resolved(tmp_path, "cfg", config={name: cfg_value}) == \
        PRESET | {name: cfg_value}
    if flag is None:
        return
    # --interval sets both ends of the interval
    flagged = {name: flag_value}
    if flag[0] == "--interval":
        r_s, r_e = (float(v) for v in flag[1].split(":"))
        flagged = {"r_s": r_s, "r_e": r_e}
    # a flag beats the config file
    assert resolved(tmp_path, "both", *flag, config={name: cfg_value}) == \
        PRESET | flagged
    # a flag leaves every setting it does not name at its preset value
    assert resolved(tmp_path, "flag", *flag) == PRESET | flagged


def test_without_a_preset_the_guidance_defaults_apply(tmp_path):
    path = tmp_path / "bare.json"
    save_scenario(dataclasses.replace(default_scenario(), guidance=None), path)
    defaults = {f.name: f.default for f in dataclasses.fields(GuidanceConfig)
                if f.name != "w"}
    assert defaults == {"w_attr": 3.0, "eta": 1.0, "gamma": 2.0, "r_s": 0.2,
                        "r_e": 0.8, "eps_stab": 1e-8}
    base = PRESET | defaults
    assert resolved(tmp_path, "flag", "--scenario", str(path), "--w", "3.5") == \
        base | {"w": 3.5}
    assert resolved(tmp_path, "cfg", "--scenario", str(path),
                    config={"w": 4.0, "eta": 2.0}) == base | {"w": 4.0, "eta": 2.0}
    # w has no default: with no preset it must come from a flag or the config
    assert main(["sample", "--n", "1", "--scenario", str(path),
                 "--out", str(tmp_path / "now")]) == 1
