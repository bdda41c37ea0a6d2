#!/usr/bin/env python3
"""Benchmark for dcr: guided trajectories per second through the shipped CLI.

    python3 perfbench/run.py --workload ablate --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

Run from the root of a dcr checkout. One process runs one workload: it sets
up (imports numpy and ``dcr``, builds the scenario, starts the loopback judge
stub for ``bench-judge``, makes one small warm-up call), then calls
``dcr.cli.main`` in a closed loop, one operation at a time, for ``--seconds``
seconds, and checks every operation's outputs against ``golden.json``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics of
``layers.py`` plus the tracing overhead. The last line of standard output is
the result as one JSON object; the line before it holds the details (sample
counts, run environment, layers that never fired). ``--workload all`` runs
every workload, both ways, each in its own process, and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ablate", "sample-traces", "bench-judge")
SETUP_PROBES = 7      # set-up is measured this many times, in fresh processes
MIN_OPS = 3           # per kind of operation, even if one outlasts --seconds
CHILD_TIMEOUT_S = 170
WORK_DIR = ROOT / ".perfbench_work"
# End-to-end times are scaled to a host on which calibration_s() takes this
# long (about the quiet speed of a 2-vCPU x86-64 VM, Python 3.11, numpy 2.4).
CALIBRATION_REFERENCE_S = 0.015


def _now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def calibration_s(iterations: int = 1000) -> float:
    """Time of a fixed loop of small numpy operations under the interpreter,
    the mix of work in the sampler's inner loop. The benchmark's host may be
    shared, and its speed then drifts by tens of percent over minutes;
    scaling by this loop's median time within the same run removes most of
    that drift from the end-to-end times."""
    import numpy as np
    x = np.array([0.3, -0.2])
    means = np.array([[3.8, 0.0], [-2.0, 1.5], [1.5, 0.0]])
    logw = np.log([0.9, 0.02, 0.08])
    t0 = time.perf_counter()
    for _ in range(iterations):
        d = x - 0.9 * means
        logr = logw - np.sum(d * d, axis=-1) / 1.3
        r = np.exp(logr - logr.max())
        x = 0.99 * x + 0.001 * (r / r.sum()) @ means
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "git_revision": _git_revision()}


class Session:
    """Everything set up before the first timed operation."""

    def __init__(self, workload: str, seed: int):
        sys.path.insert(0, str(SRC))
        from dcr.toy import default_scenario
        from judge_stub import JudgeStub
        import workloads

        self.w = workloads
        self.wl = workloads.WORKLOADS[workload]
        self.seed = seed
        self.golden = workloads.load_golden()[workload]
        self.workdir = WORK_DIR / f"{workload}-{os.getpid()}"
        self.stub = None
        scenario = default_scenario()
        try:
            if workload == "bench-judge":
                self.stub = JudgeStub(scenario.base.means, scenario.dominant_index,
                                      scenario.rare_index).start()
                os.environ["DCR_JUDGE_ENDPOINT"] = self.stub.endpoint
            warm = workloads.run_op(self.wl, seed, self._fresh_out(), size=1)
            if warm.exit_code != 0:
                raise RuntimeError(f"warm-up call exited with {warm.exit_code}")
        except BaseException:
            self.close()
            raise

    def _fresh_out(self) -> Path:
        out = self.workdir / "op"
        if out.exists():
            shutil.rmtree(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        if self.stub is not None:
            self.stub.take_latents()
        return out

    def op(self, k: int, tracer=None) -> dict:
        """Run and check the k-th operation, traced when ``tracer`` is given."""
        pseed = self.w.PROGRAM_SEEDS[(self.seed + k) % len(self.w.PROGRAM_SEEDS)]
        out = self._fresh_out()
        http0, bytes0 = self.stub.counters() if self.stub else (0, 0)
        rec = None
        if tracer is None:
            res = self.w.run_op(self.wl, pseed, out)
        else:
            with tracer.op() as rec:
                res = self.w.run_op(self.wl, pseed, out)
        row = {"seed": pseed, "wall_s": res.wall_s, "problems": []}
        if res.exit_code != 0:
            row["problems"].append(f"exit code {res.exit_code}")
        else:
            latents = self.stub.take_latents() if self.stub else None
            obs = self.w.observe(self.wl, out, res,
                                 finals=rec.finals if rec else None,
                                 stub_latents=latents)
            row["problems"] += self.w.check(obs, self.golden[str(pseed)])
        if rec is not None:
            from layers import op_values
            http1, bytes1 = self.stub.counters() if self.stub else (0, 0)
            row["rec"] = rec
            row["values"] = op_values(rec, res.wall_s, out, http1 - http0,
                                      bytes1 - bytes0)
        return row

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run's directory is still there


def _child(args: list[str]) -> list[str]:
    """Run this script in a fresh process; returns its stdout lines."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())] + args,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited with {proc.returncode}")
    return proc.stdout.splitlines()


def measure_setup(workload: str, seed: int, calibration: list[float]) -> list[float]:
    """Set-up time of fresh processes, from spawn to ready for the first
    timed operation; appends a calibration sample before each."""
    out = []
    for _ in range(SETUP_PROBES):
        calibration.append(calibration_s())
        lines = _child(["--workload", workload, "--seed", str(seed),
                        "--setup-probe-t0", repr(_now())])
        out.append(json.loads(lines[-1])["setup_s"])
    return out


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> None:
    calibration: list[float] = []
    setup_probes = measure_setup(workload, seed, calibration) if trace == 0 else []
    session = Session(workload, seed)
    try:
        rows = []
        tracer = None
        if trace:
            from layers import Tracer
            tracer = Tracer()
        deadline = time.perf_counter() + seconds
        k = 0
        while time.perf_counter() < deadline or k < (2 * MIN_OPS if trace else MIN_OPS):
            rows.append(session.op(k, tracer if k % 2 else None))
            if not trace:
                calibration.append(calibration_s())
            k += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        session.close()

    wl = session.wl
    failed = sum(1 for r in rows if r["problems"])
    detail = {"workload": workload, "seed": seed, "trace": trace,
              "environment": environment(), "traj_per_op": wl.traj_per_op,
              "ops": len(rows),
              "problems": [f"op {i} (seed {r['seed']}): {p}"
                           for i, r in enumerate(rows) for p in r["problems"]][:20]}
    if trace == 0:
        rates = [wl.traj_per_op / r["wall_s"] for r in rows]
        slowdown = statistics.median(calibration) / CALIBRATION_REFERENCE_S
        metrics = {
            "traj_per_s": _metric(statistics.median(rates) * slowdown, "1/s"),
            "setup_s": _metric(statistics.median(setup_probes) / slowdown, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "completed_frac": _metric(1.0 - failed / len(rows), "fraction"),
        }
        detail["samples"] = {"traj_per_s": len(rates), "setup_s": len(setup_probes),
                             "peak_rss_mb": 1, "completed_frac": len(rows)}
        detail["traj_per_s_unscaled"] = statistics.median(rates)
        detail["setup_s_unscaled"] = statistics.median(setup_probes)
        detail["host_slowdown"] = slowdown
        detail["traj_per_s_ops"] = rates
        detail["setup_s_probes"] = setup_probes
        detail["calibration_s"] = calibration
        detail["failed_frac"] = failed / len(rows)
    else:
        from layers import PER_LAYER, RESULT_METRICS, summarize
        traced = [r for r in rows if "rec" in r]
        plain = [r for r in rows if "rec" not in r]
        values, absent = summarize([r["rec"] for r in traced],
                                   [r["values"] for r in traced],
                                   [r["wall_s"] for r in traced],
                                   [r["wall_s"] for r in plain])
        metrics = {name: _metric(values[name], unit) for name, unit in RESULT_METRICS}
        detail["samples"] = {"traced_ops": len(traced), "untraced_ops": len(plain)}
        detail["absent"] = absent
        detail["layers"] = {name: "absent" if src in absent else _metric(values[name], unit)
                            for name, unit, src in PER_LAYER}
    result = {"correct": failed == 0, "attempted": len(rows), "failed": failed,
              "metrics": metrics}
    for line in detail["problems"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))


def _fmt(metric) -> str:
    return metric if metric == "absent" else f"{metric['value']:.6g} {metric['unit']}"


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    ok = True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            lines = _child(["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace)])
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            ok = ok and result["correct"]
            m = result["metrics"]
            print(f"== {workload} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            if trace == 0:
                n = detail["samples"]
                print(f"  traj_per_s   {_fmt(m['traj_per_s'])}  "
                      f"(median of {n['traj_per_s']} ops, "
                      f"{detail['traj_per_op']} trajectories each; "
                      f"{detail['traj_per_s_unscaled']:.6g} before scaling)")
                print(f"  setup_s      {_fmt(m['setup_s'])}  "
                      f"(median of {n['setup_s']} fresh processes; "
                      f"{detail['setup_s_unscaled']:.6g} before scaling)")
                print(f"  peak_rss_mb  {_fmt(m['peak_rss_mb'])}  (1 process)")
                print(f"  failed_frac  {detail['failed_frac']:.6g} fraction  "
                      f"({result['failed']} of {result['attempted']} ops)")
                print(f"  host         {detail['host_slowdown']:.4g}x slower than the "
                      f"reference (median of {len(detail['calibration_s'])} "
                      f"calibration loops)")
                env = detail["environment"]
                print(f"  environment  python {env['python']}, numpy {env['numpy']}, "
                      f"nproc {env['nproc']}, revision {env['git_revision']}")
                continue
            op_s = m["traced_op_s"]["value"]
            n = detail["samples"]
            print(f"  per operation, median of {n['traced_ops']} traced ops "
                  f"({n['untraced_ops']} untraced for the overhead)")
            for name, metric in detail["layers"].items():
                share = ""
                if metric != "absent" and metric["unit"] == "s" and name != "traced_op_s":
                    share = f"  ({100.0 * metric['value'] / op_s:.1f}% of op)"
                print(f"  {name:34s} {_fmt(metric)}{share}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe-t0", type=float, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "dcr" / "__init__.py").is_file():
        print(f"perfbench: no dcr sources under {SRC}; run from a dcr checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        if args.setup_probe_t0 is not None:
            session = Session(args.workload, args.seed)
            ready = _now() - args.setup_probe_t0
            session.close()
            print(json.dumps({"setup_s": ready}))
            return 0
        run_workload(args.workload, args.seed, args.seconds, args.trace)
        return 0
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
