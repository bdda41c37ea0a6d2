#!/usr/bin/env python3
"""Pin the benchmark's expected outputs: rewrites ``golden.json`` from the
program as it is now, for every workload and every program seed.

    python3 perfbench/pin.py

Run it only when a change of outputs is intended and explained; the
benchmark fails every operation whose outputs differ from the pinned ones.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from dcr.toy import default_scenario  # noqa: E402
from judge_stub import JudgeStub  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import GOLDEN_PATH, PROGRAM_SEEDS, WORKLOADS, observe, run_op  # noqa: E402


def pin() -> dict:
    scenario = default_scenario()
    work = ROOT / ".perfbench_work" / "pin"
    golden = {}
    tracer = Tracer()
    with JudgeStub(scenario.base.means, scenario.dominant_index,
                   scenario.rare_index) as stub:
        os.environ["DCR_JUDGE_ENDPOINT"] = stub.endpoint
        for name, wl in WORKLOADS.items():
            golden[name] = {}
            for seed in PROGRAM_SEEDS:
                out = work / f"{name}-{seed}"
                shutil.rmtree(out, ignore_errors=True)
                stub.take_latents()
                # traced, so that ablate's final latents are captured
                with tracer.op() as rec:
                    res = run_op(wl, seed, out)
                if res.exit_code != 0:
                    raise SystemExit(f"{name} seed {seed}: exit code {res.exit_code}")
                obs = observe(wl, out, res, finals=rec.finals,
                              stub_latents=stub.take_latents())
                if obs["failures"]:
                    raise SystemExit(f"{name} seed {seed}: {obs['failures']} failures")
                golden[name][str(seed)] = obs
    shutil.rmtree(work.parent, ignore_errors=True)
    return golden


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(pin(), sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
